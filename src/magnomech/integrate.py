"""Fixed-step trajectory generation with constraint projection.

The integrator is the classical 4th-order one-step method, run as one
generated function of Python floats per system (see kernel.py). In
constrained mode every step is followed by a momentum projection back onto
the constraint surface; the pre-projection drift is recorded so the
projection error stays visible instead of hidden.
"""

from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import BaseTerms
from .errors import NumericalDomainError, OffConstraintError
from .geometry import PhasePoint
from .linalg import max_abs
from .nonholonomic import SurfaceFrame, require_quadratic
from .tolerances import DEFAULT_TOLERANCES

FIELD_KINDS = ("magnetic", "distributional")
# rows rendered per write by Trajectory.to_csv
CSV_CHUNK = 1024


class AbortReason(NamedTuple):
    """Why a run stopped early: the step that failed, its time and the error."""

    step: int
    t: float
    message: str


def _float_texts(values):
    """The repr of each float64 of ``values``, in order: once per distinct
    bit pattern when fewer than half of them are distinct."""
    keys, index = np.unique(values.view(np.int64), return_inverse=True)
    if 2 * len(keys) >= len(values):
        return map(repr, values.tolist())
    return map(list(map(repr, keys.view(float).tolist())).__getitem__, index.tolist())


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    constraint_residuals: np.ndarray
    drifts: np.ndarray
    abort_reason: AbortReason = None

    @property
    def aborted(self):
        return self.abort_reason is not None

    @property
    def n(self):
        return self.states.shape[1] // 2

    def state(self, index):
        return PhasePoint.from_vec(self.states[index])

    def final_state(self):
        return self.state(len(self.times) - 1)

    def energy_drift(self):
        return float(np.max(np.abs(self.energies - self.energies[0])))

    def to_csv(self, fileobj):
        """Header, then one row per state: every value as its float repr,
        comma-separated, with the \\r\\n line ends of csv.writer.

        The rows are formatted CSV_CHUNK at a time and, within a chunk,
        column by column (t, each q and p, H, constraint_res, drift), each
        read as float64. A column whose chunk holds fewer distinct bit
        patterns than half its length has each distinct value formatted
        once and its text reused by index. That is exact: values are keyed
        by their bits, so 0.0 and -0.0 keep their own texts and no nan is
        looked up as equal to another value, and repr is a function of the
        bits alone. The chunk size does not change the output.
        """
        n = self.n
        header = (["t"] + [f"q{i + 1}" for i in range(n)]
                  + [f"p{i + 1}" for i in range(n)]
                  + ["H", "constraint_res", "drift"])
        fileobj.write(",".join(header) + "\r\n")
        columns = [self.times, *self.states.T, self.energies,
                   self.constraint_residuals, self.drifts]
        for start in range(0, len(self.times), CSV_CHUNK):
            texts = [_float_texts(np.asarray(column[start:start + CSV_CHUNK], dtype=float))
                     for column in columns]
            fileobj.write("\r\n".join(map(",".join, zip(*texts))) + "\r\n")

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            self.to_csv(fh)


def integrate(ham, mag, z0, t_end, dt, dist=None, kind="magnetic",
              project=True, tolerances=DEFAULT_TOLERANCES):
    """Integrate the chosen field from z0 over [0, t_end] with step dt.

    Distributional mode requires the start point on the constraint surface
    (within the scaled ``constraint`` tolerance of ``tolerances``) and
    re-projects after every step unless ``project`` is False. A non-finite
    or out-of-domain state aborts the run: the partial trajectory is
    returned with ``abort_reason`` naming the step, time and error. So does
    an energy drift: the run stops at the first row where |H - H0| exceeds
    the scaled ``energy`` tolerance times (1 + |H0|), and keeps the rows
    before it. The loop over the steps is generated on the first call for
    (ham, mag, dist) and reused by later ones.
    """
    if kind not in FIELD_KINDS:
        raise ValueError(f"unknown field kind {kind!r}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    constrained = kind == "distributional" and dist is not None and dist.k > 0
    if constrained:
        require_quadratic(ham)

    terms = BaseTerms(ham, z0.q)
    residual = 0.0
    if constrained:
        residual = max_abs(SurfaceFrame(dist, terms).residual(z0.p))
        tol = tolerances.get("constraint")
        if residual > tol:
            raise OffConstraintError(f"constraint residual {residual:.3e} exceeds {tol:.1e}")
    row = (*z0.vec.tolist(), terms.value(z0.p), residual, residual)
    # imported on first use: a fresh interpreter compiles every module the
    # package imports, and the step generator is not needed to build systems
    from .kernel import step_kernel  # noqa: PLC0415
    run = step_kernel(ham, mag, dist if constrained else None)

    table = array("d", row)
    abort_reason = None
    try:
        run(row, dt, project, int(round(t_end / dt)), table.extend)
    except (NumericalDomainError, OverflowError) as err:
        # the failing step is the first one without a row
        step = len(table) // len(row)
        abort_reason = AbortReason(step, step * dt, f"{type(err).__name__}: {err}")
    columns = np.frombuffer(table).reshape(-1, len(row))
    size = 2 * ham.n
    # the energy verdict: the exact flow conserves H, so the run stops at
    # the first row whose drift exceeds the tolerance; every row the loop
    # recorded precedes the step it stopped at, so this stop comes first
    energy_drifts = np.abs(columns[:, size] - row[size])
    limit = tolerances.get("energy") * (1.0 + abs(row[size]))
    over = np.flatnonzero(energy_drifts > limit)
    if over.size:
        step = int(over[0])
        columns = columns[:step]
        abort_reason = AbortReason(step, step * dt, (
            f"NumericalDomainError: energy drift {energy_drifts[step]:.3e} exceeds {limit:.3e}"))
    return Trajectory(np.arange(len(columns)) * dt, columns[:, :size].copy(),
                      columns[:, size].copy(), columns[:, size + 1].copy(),
                      columns[:, size + 2].copy(), abort_reason=abort_reason)


def halving_errors(ham, mag, z0, t_end, dt, dist=None, kind="magnetic",
                   project=True):
    """Endpoint differences at steps (dt, dt/2) and (dt/2, dt/4)."""
    ends = []
    for scale in (1.0, 0.5, 0.25):
        traj = integrate(ham, mag, z0, t_end, dt * scale, dist=dist, kind=kind,
                         project=project)
        if traj.aborted:
            raise NumericalDomainError("trajectory aborted during order check")
        ends.append(traj.states[-1])
    return (float(np.linalg.norm(ends[0] - ends[1])),
            float(np.linalg.norm(ends[1] - ends[2])))


def halving_ratio(ham, mag, z0, t_end, dt, dist=None, kind="magnetic",
                  project=True):
    """Endpoint-error ratio under step halving; near 16 for a 4th-order
    method on smooth problems with a genuinely dt-dependent solution."""
    coarse, fine = halving_errors(ham, mag, z0, t_end, dt, dist=dist,
                                  kind=kind, project=project)
    if fine == 0:
        raise NumericalDomainError("order check degenerate: zero fine error")
    return coarse / fine
