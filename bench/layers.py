"""Per-call time of each module's public functions, timed from outside.

Every entry of `LAYERS` names one function, the system data it needs and
the calls to time. A function is timed on the workload's own systems and
states when they have that data (constraints, a section, a phase map, a
symmetry, an initial state); otherwise on every corpus scenario that has
it. The README lists which end-to-end metric each one should move.
"""

import time
from statistics import median

import numpy as np

import magnomech as mm
from magnomech import cli, dynamics, expressions, geometry, hj, linalg
from magnomech import nonholonomic, reduction, sampling
from magnomech import scenarios as scenarios_mod

from workloads import DT, SAMPLES, phase_states

MIN_ROUNDS = 3
STEP_CALL = 50          # RK4 steps per timed `integrate` call
SCALE = {"ms": 1e3, "us": 1e6}


class Subject:
    """One system with the states and call arguments it is timed on."""

    def __init__(self, system, path, states, field, seed, steps, csv_path):
        self.system = system
        self.path = path
        self.states = states
        self.qs = [z.q for z in states]
        self.field = field
        self.seed = seed
        self.steps = steps
        self.csv_path = csv_path
        self.config_samples = sampling.config_samples(system.sample_box, SAMPLES)
        self._preimages = None

    @property
    def preimages(self):
        """Type II sample points: preimages of seeded phase points."""
        if self._preimages is None:
            self._preimages = [
                sampling.newton_preimage(self.system.epsilon, w)
                for w in phase_states(self.system, SAMPLES, self.seed)]
        return self._preimages

    def expression_nodes(self):
        """Every expression string of the scenario, parsed."""
        spec = self.system.spec
        texts = []

        def walk(value):
            if isinstance(value, str):
                texts.append(value)
            elif isinstance(value, list):
                for item in value:
                    walk(item)

        for value in (spec.mass_matrix, spec.potential, spec.b_field,
                      spec.constraints, spec.gamma, spec.epsilon, spec.general_h):
            if value != "identity":
                walk(value)
        return [expressions.parse(text) for text in texts]

    def start(self):
        s = self.system
        if self.field == "distributional" and s.constrained:
            return nonholonomic.project_to_constraint(s.dist, s.ham, s.initial_state)
        return s.initial_state

    def kind(self):
        return self.field if self.system.constrained else "magnetic"

    def long_trajectory(self):
        """A trajectory of `steps` + 1 rows, tiled from 100 integrated steps."""
        s = self.system
        short = mm.integrate(s.ham, s.mag, self.start(), 100 * DT, DT,
                             dist=s.dist, kind=self.kind())
        rows = self.steps + 1
        return mm.Trajectory(
            np.arange(rows) * DT,
            np.resize(short.states, (rows, short.states.shape[1])),
            np.resize(short.energies, rows),
            np.resize(short.constraint_residuals, rows),
            np.resize(short.drifts, rows))


def _any(s):
    return True


def _constrained(s):
    return s.constrained


def _gamma(s):
    return s.gamma is not None


def _epsilon(s):
    return s.epsilon is not None


def _reduced(s):
    return s.symmetry is not None and s.constrained


def _need(*predicates):
    return lambda s: all(p(s) for p in predicates)


def _free(s):
    return not s.constrained


def _startable(s):
    return s.initial_state is not None


def _each_state(fn, *head):
    """One call `fn(*(h(system) for h in head), z)` per state z."""
    def calls(sub):
        s = sub.system
        return [(fn, tuple(h(s) for h in head) + (z,), {}) for z in sub.states]
    return calls


def _each_q(fn, *head):
    """One call `fn(*(h(system) for h in head), q)` per configuration q."""
    def calls(sub):
        s = sub.system
        return [(fn, tuple(h(s) for h in head) + (q,), {}) for q in sub.qs]
    return calls


def _ham(s):
    return s.ham


def _mag(s):
    return s.mag


def _dist(s):
    return s.dist


def _hj(fn, *fields, samples):
    """One check call on the subject's sample set, with its tolerances."""
    def calls(sub):
        s = sub.system
        args = tuple(getattr(s, f) for f in fields) + (getattr(sub, samples),)
        return [(fn, args, {"tolerances": s.tolerances})]
    return calls


def _compiled(sub):
    fns = [expressions.compile_node(node) for node in sub.expression_nodes()]
    return [(f, (z.q, z.p), {}) for f in fns for z in sub.states]


def _match(sub):
    s = sub.system
    return [(geometry.magnetic_match_residual, (s.gamma, s.mag.b_field, q),
             {"basis": s.dist.basis(q)}) for q in sub.qs]


def _compatibility(sub):
    s = sub.system
    return [(nonholonomic.compatibility_report, (s.dist, s.ham, s.mag, z),
             {"sigma_tol": s.tolerances.get("compat_sigma")}) for z in sub.states]


# (metric, needs(system), calls(subject) -> [(fn, args, kwargs)]). The unit
# is the name's suffix; `integrate.step_us` is per RK4 step.
LAYERS = (
    ("scenarios.parse_scenario_ms", _any,
     lambda sub: [(mm.parse_scenario, (sub.path.read_text(),), {})]),
    ("scenarios.build_system_ms", _any,
     lambda sub: [(mm.build_system, (sub.system.spec,), {})]),
    ("scenarios.reports_to_json_ms", _any,
     lambda sub: [(scenarios_mod.reports_to_json,
                   (cli.checks_for_system(sub.system, SAMPLES, sub.seed),), {})]),
    ("expressions.compile_node_us", _any,
     lambda sub: [(expressions.compile_node, (node,), {})
                  for node in sub.expression_nodes()]),
    ("expressions.compiled_call_us", _any, _compiled),
    ("geometry.phase_point_us", _any,
     lambda sub: [(geometry.PhasePoint.from_vec, (z.vec,), {}) for z in sub.states]),
    ("geometry.exterior_derivative_us", _gamma,
     _each_q(geometry.exterior_derivative, lambda s: s.gamma)),
    ("geometry.closedness_residual_us", _any,
     _each_q(geometry.two_form_closedness_residual, lambda s: s.mag.b_field)),
    ("geometry.match_residual_us", _gamma, _match),
    ("dynamics.ham_value_us", _any,
     lambda sub: [(sub.system.ham.value, (z,), {}) for z in sub.states]),
    ("dynamics.ham_gradient_us", _any,
     lambda sub: [(sub.system.ham.gradient, (z,), {}) for z in sub.states]),
    ("dynamics.form_matrix_us", _any,
     lambda sub: [(sub.system.mag.form_matrix, (q,), {}) for q in sub.qs]),
    ("dynamics.field_solve_us", _any,
     _each_state(dynamics.magnetic_vector_field, _ham, _mag)),
    ("dynamics.field_formula_us", _any,
     _each_state(dynamics.coordinate_formula_field, _ham, _mag)),
    ("dynamics.symplectic_residual_us", _epsilon,
     _each_state(dynamics.symplectic_residual, lambda s: s.epsilon, _mag)),
    ("nonholonomic.dist_matrix_us", _constrained,
     lambda sub: [(sub.system.dist.matrix, (q,), {}) for q in sub.qs]),
    ("nonholonomic.constraint_jacobian_us", _constrained,
     _each_state(nonholonomic.constraint_jacobian, _dist, _ham)),
    ("nonholonomic.multiplier_field_us", _constrained,
     _each_state(nonholonomic.constrained_field_multiplier, _dist, _ham, _mag)),
    ("nonholonomic.projection_us", _constrained,
     _each_state(nonholonomic.project_to_constraint, _dist, _ham)),
    ("nonholonomic.admissible_basis_us", _constrained,
     _each_state(nonholonomic.admissible_basis, _dist, _ham)),
    ("nonholonomic.compatibility_report_us", _constrained, _compatibility),
    ("nonholonomic.restricted_field_us", _constrained,
     _each_state(nonholonomic.constrained_field_restricted, _dist, _ham, _mag)),
    ("linalg.null_space_us", _constrained,
     lambda sub: [(linalg.null_space, (sub.system.dist.matrix(q),), {})
                  for q in sub.qs]),
    ("integrate.step_us", _startable,
     lambda sub: [(mm.integrate, (sub.system.ham, sub.system.mag, sub.start(),
                                  STEP_CALL * DT, DT),
                   {"dist": sub.system.dist, "kind": sub.kind()})]),
    ("integrate.csv_write_ms", _startable,
     lambda sub: [(sub.long_trajectory().write_csv, (sub.csv_path,), {})]),
    ("sampling.sobol_points_us", _any,
     lambda sub: [(sampling.sobol_points, (sub.system.sample_box, SAMPLES), {})]),
    ("sampling.surface_phase_samples_ms", _constrained,
     lambda sub: [(sampling.surface_phase_samples,
                   (sub.system.dist, sub.system.ham, sub.system.sample_box,
                    SAMPLES, np.random.default_rng(sub.seed)), {})]),
    ("sampling.newton_preimage_us", _epsilon,
     _each_state(sampling.newton_preimage, lambda s: s.epsilon)),
    ("hj.type1_magnetic_ms", _need(_gamma, _free),
     _hj(hj.type1_magnetic, "gamma", "ham", "mag", samples="config_samples")),
    ("hj.type1_constrained_ms", _need(_gamma, _constrained),
     _hj(hj.type1_constrained, "gamma", "dist", "ham", "mag",
         samples="config_samples")),
    ("hj.type2_magnetic_ms", _need(_gamma, _epsilon, _free),
     _hj(hj.type2_magnetic, "gamma", "epsilon", "ham", "mag",
         samples="preimages")),
    ("hj.type2_constrained_ms", _need(_gamma, _epsilon, _constrained),
     _hj(hj.type2_constrained, "gamma", "epsilon", "dist", "ham", "mag",
         samples="preimages")),
    ("reduction.type1_reduced_ms", _need(_gamma, _reduced),
     _hj(reduction.type1_reduced, "gamma", "symmetry", "dist", "ham", "mag",
         samples="config_samples")),
    ("reduction.type2_reduced_ms", _need(_gamma, _epsilon, _reduced),
     _hj(reduction.type2_reduced, "gamma", "epsilon", "symmetry", "dist", "ham",
         "mag", samples="preimages")),
    ("reduction.relatedness_check_ms", _reduced,
     _hj(reduction.relatedness_check, "symmetry", "dist", "ham", "mag",
         samples="states")),
    ("reduction.reduced_field_us", _reduced,
     _each_state(reduction.reduced_field, lambda s: s.symmetry, _dist, _ham, _mag)),
    ("cli.check_geometry_ms", _any,
     lambda sub: [(cli.check_geometry, (sub.system, SAMPLES, sub.seed), {})]),
)


def unit_of(name):
    return name.rsplit("_", 1)[1]


def per_call_s(calls, budget_s):
    """Median over rounds of the mean seconds per call; each round makes
    every call once, and rounds repeat until `budget_s` has passed."""
    rounds = []
    deadline = time.perf_counter() + budget_s
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        start = time.perf_counter()
        for fn, args, kwargs in calls:
            fn(*args, **kwargs)
        rounds.append((time.perf_counter() - start) / len(calls))
    return median(rounds)


def measure(own, corpus, budget_s):
    """Per-call time of every layer function, in the unit its name gives."""
    values = {}
    for name, needs, make_calls in LAYERS:
        subjects = ([sub for sub in own if needs(sub.system)]
                    or [sub for sub in corpus if needs(sub.system)])
        calls = [call for sub in subjects for call in make_calls(sub)]
        seconds = per_call_s(calls, budget_s)
        if name == "integrate.step_us":
            seconds /= STEP_CALL
        values[name] = seconds * SCALE[unit_of(name)]
    return values
