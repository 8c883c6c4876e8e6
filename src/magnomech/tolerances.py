"""Default numerical tolerances and the MAGNOMECH_TOL_SCALE override.

Every verdict-level comparison goes through a Tolerances instance so that a
single environment variable can widen all thresholds on platforms with
different float behaviour. Scenario files may override individual entries.
"""

import math
import os

from .errors import ScenarioError

DEFAULTS = {
    # hypothesis residual above which a theorem check is VACUOUS
    "hypothesis": 1e-8,
    # Type I equation residual for a PASS verdict
    "equation": 1e-7,
    # Type II residuals below this count as zero
    "status": 1e-7,
    # smallest singular value of the restricted form for compatibility
    "compat_sigma": 1e-8,
    # constraint residual treated as "on the surface"
    "constraint": 1e-8,
    # invariance of declared cyclic data
    "invariance": 1e-9,
    # pushforward/reduced field agreement
    "related": 1e-8,
    # distance of a section's tangent images of D from the admissible subspace
    "membership": 1e-8,
    # closedness residual of the magnetic two-form for a geometry PASS
    "closedness": 1e-6,
    # relative energy drift |H - H0| / (1 + |H0|) above which a run stops
    "energy": 1e-3,
}

ENV_VAR = "MAGNOMECH_TOL_SCALE"


def env_scale():
    """The MAGNOMECH_TOL_SCALE factor: 1.0 when unset, else a finite value > 0."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return 1.0
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise ScenarioError("tol_scale",
                            f"{ENV_VAR}={raw!r} is not a finite positive number",
                            field=ENV_VAR)
    return value


class Tolerances:
    """Lookup of named tolerances with optional per-scenario overrides."""

    def __init__(self, overrides=None):
        self._values = dict(DEFAULTS)
        for key, value in (overrides or {}).items():
            self._values[key] = float(value)

    def get(self, name):
        return self._values[name] * env_scale()


DEFAULT_TOLERANCES = Tolerances()
