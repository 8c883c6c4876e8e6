import csv
import io
import json
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from magnomech import (
    CompatibilityError,
    DegenerateConstraintError,
    DegenerateFormError,
    MagnomechError,
    NumericalDomainError,
    OffConstraintError,
    PhasePoint,
    build_system,
    integrate,
    load_scenario,
    parse_scenario,
    project_to_constraint,
)
from magnomech import expressions as ex
from magnomech import kernel
from magnomech.dynamics import HamiltonianSpec, MagneticStructure, magnetic_vector_field
from magnomech.geometry import TwoFormField
from magnomech.integrate import CSV_CHUNK, Trajectory, halving_ratio
from magnomech.kernel import step_kernel
from magnomech.linalg import max_abs
from magnomech.nonholonomic import (
    ConstraintDistribution,
    constrained_field_multiplier,
    constraint_residual,
)
from magnomech.sampling import phase_samples, surface_phase_samples
from magnomech.scenarios import _compile, _compile_partials
from magnomech.tolerances import DEFAULT_TOLERANCES
from conftest import SCENARIO_DIR, constant_field_system, free_particle_constraint
from fingerprints import differing, fault_entry
from reference import _per_row_csv, fd_jacobian

SCENARIOS = sorted(path.stem for path in SCENARIO_DIR.glob("*.json"))


def test_free_particle_straight_line():
    ham, mag = constant_field_system(np.zeros((2, 2)))
    z0 = PhasePoint([0.2, -0.1], [0.7, 0.4])
    traj = integrate(ham, mag, z0, 1.0, 1e-3)
    final = traj.state(-1)
    assert final.q == pytest.approx(z0.q + 1.0 * z0.p, abs=1e-12)
    assert final.p == pytest.approx(z0.p, abs=1e-12)


def test_planar_orbit_period_and_radius():
    # uniform transverse field: momenta rotate with angular speed one, so
    # ten revolutions land back on the start with the radius conserved
    ham, mag = constant_field_system([[0, 1], [-1, 0]])
    z0 = PhasePoint([0.0, 0.0], [1.0, 0.0])
    period = 2 * np.pi
    traj = integrate(ham, mag, z0, 10 * period, 1e-3)
    speeds = np.linalg.norm(traj.states[:, 2:], axis=1)
    assert np.max(np.abs(speeds - 1.0)) < 1e-8
    steps_per_period = int(round(period / 1e-3))
    after_one = traj.states[steps_per_period]
    assert after_one[2:] == pytest.approx([1.0, 0.0], abs=2e-3)


def test_constrained_run_against_dense_reference():
    # independent oracle: the same flow at one hundredth of the step
    dist = free_particle_constraint()
    ham = HamiltonianSpec.free(3)
    mag = MagneticStructure.canonical(3)
    z0 = PhasePoint([0.0, 0.0, 0.0], [1.0, 0.5, 0.0])
    coarse = integrate(ham, mag, z0, 1.0, 5e-3, dist=dist, kind="distributional")
    reference = integrate(ham, mag, z0, 1.0, 5e-5, dist=dist,
                          kind="distributional")
    assert np.max(np.abs(coarse.states[-1] - reference.states[-1])) < 1e-8
    assert np.max(coarse.constraint_residuals) < 1e-8


def test_inactive_constraint_is_straight_line():
    # from momentum (1, 0, 0) the multiplier vanishes for all time
    dist = free_particle_constraint()
    ham = HamiltonianSpec.free(3)
    mag = MagneticStructure.canonical(3)
    z0 = PhasePoint([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    traj = integrate(ham, mag, z0, 2.0, 1e-2, dist=dist, kind="distributional")
    final = traj.state(-1)
    assert final.q == pytest.approx([2.0, 0.0, 0.0], abs=1e-12)
    assert final.p == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)


def test_projection_keeps_surface_and_drift_is_visible():
    dist = free_particle_constraint()
    ham = HamiltonianSpec.free(3)
    mag = MagneticStructure.canonical(3)
    z0 = PhasePoint([0.0, 0.0, 0.0], [1.0, 0.5, 0.0])
    projected = integrate(ham, mag, z0, 5.0, 0.02, dist=dist,
                          kind="distributional", project=True)
    drifting = integrate(ham, mag, z0, 5.0, 0.02, dist=dist,
                         kind="distributional", project=False)
    assert np.max(projected.constraint_residuals) < 1e-12
    assert np.max(drifting.constraint_residuals) > np.max(
        projected.constraint_residuals)
    assert np.max(projected.drifts) > 0.0


def test_off_surface_start_rejected():
    dist = free_particle_constraint()
    ham = HamiltonianSpec.free(3)
    mag = MagneticStructure.canonical(3)
    with pytest.raises(OffConstraintError):
        integrate(ham, mag, PhasePoint([0, 0, 0], [0, 0, 1.0]), 1.0, 1e-2,
                  dist=dist, kind="distributional")


def test_energy_drift_scales_at_fourth_order():
    ham, mag = constant_field_system(
        [[0, 1], [-1, 0]],
        potential=lambda q: 0.5 * float(q @ q),
        potential_grad=lambda q: np.asarray(q, float))
    z0 = PhasePoint([0.5, 0.0], [0.0, 0.6])
    ratio = halving_ratio(ham, mag, z0, 2.0, 0.05)
    assert 12.0 <= ratio <= 20.0


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_blowup_aborts_with_partial_trajectory():
    ham = HamiltonianSpec.quadratic(
        1, potential_fn=lambda q: -q[0] ** 4,
        potential_grad_fn=lambda q: np.array([-4 * q[0] ** 3]))
    mag = MagneticStructure.canonical(1)
    traj = integrate(ham, mag, PhasePoint([2.0], [5.0]), 50.0, 0.5)
    assert traj.aborted
    assert len(traj.times) < 101
    assert np.all(np.isfinite(traj.states))
    # the failing step is the first one not recorded
    reason = traj.abort_reason
    assert reason.step == len(traj.times)
    assert reason.t == pytest.approx(0.5 * reason.step)
    assert reason.message.split(":")[0] in ("NumericalDomainError", "OverflowError")


def test_csv_round_trip():
    ham, mag = constant_field_system([[0, 1], [-1, 0]])
    traj = integrate(ham, mag, PhasePoint([0.0, 0.0], [1.0, 0.0]), 0.1, 0.01)
    buffer = io.StringIO()
    traj.to_csv(buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == "t,q1,q2,p1,p2,H,constraint_res,drift"
    assert len(lines) == len(traj.times) + 1
    parsed = np.genfromtxt(io.StringIO(buffer.getvalue()), delimiter=",",
                           names=True)
    assert parsed["t"][-1] == pytest.approx(0.1)
    assert parsed["H"][0] == pytest.approx(0.5)
    assert np.allclose(parsed["q1"], traj.states[:, 0])


def _csv_writer_rendering(traj):
    """The CSV text csv.writer gives for a trajectory, row by row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    n = traj.n
    writer.writerow(["t"] + [f"q{i + 1}" for i in range(n)]
                    + [f"p{i + 1}" for i in range(n)]
                    + ["H", "constraint_res", "drift"])
    for i, t in enumerate(traj.times):
        writer.writerow([repr(float(t))] + [repr(float(v)) for v in traj.states[i]]
                        + [repr(float(traj.energies[i])),
                           repr(float(traj.constraint_residuals[i])),
                           repr(float(traj.drifts[i]))])
    return buffer.getvalue()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_csv_bytes_match_csv_writer(systems, tmp_path):
    ham, mag = constant_field_system([[0, 1], [-1, 0]])
    planar = integrate(ham, mag, PhasePoint([0.0, 0.0], [1.0, 0.0]), 3.0, 0.002)
    system = systems["nh-magnetic-particle"]
    z0 = project_to_constraint(system.dist, system.ham, system.initial_state)
    constrained = integrate(system.ham, system.mag, z0, 0.5, 0.01, dist=system.dist,
                            kind="distributional")
    blowup = HamiltonianSpec.quadratic(
        1, potential_fn=lambda q: -q[0] ** 4,
        potential_grad_fn=lambda q: np.array([-4 * q[0] ** 3]))
    aborted = integrate(blowup, MagneticStructure.canonical(1),
                        PhasePoint([2.0], [5.0]), 50.0, 0.5)
    # more rows than one chunk, n = 3 with residuals, and a partial run
    assert len(planar.times) > 1024 and constrained.n == 3 and aborted.aborted
    for traj in (planar, constrained, aborted):
        expected = _csv_writer_rendering(traj)
        buffer = io.StringIO()
        traj.to_csv(buffer)
        assert buffer.getvalue() == expected
        path = tmp_path / "run.csv"
        traj.write_csv(path)
        assert path.read_bytes() == expected.encode()


# -- the column writer against the per-row formula ------------------------------

# floats by their bits: both zeros, quiet nans of either sign, a nan with a
# payload, both infinities, the smallest and largest-magnitude subnormals,
# the largest float and 1.0
SPECIAL_FLOATS = np.array(
    [0x0, 0x8000000000000000, 0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123,
     0x7FF0000000000000, 0xFFF0000000000000, 0x1, 0x800FFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF,
     0x3FF0000000000000], dtype=np.uint64).view(float)


def _edge_trajectory(rows):
    """A trajectory with n = 2 whose columns take each path of the writer:
    t all distinct; q1 drawn from SPECIAL_FLOATS; q2 random; in each chunk,
    p1 exactly half distinct (the threshold's edge, where every value is
    formatted) and p2 one value fewer (each distinct value formatted once);
    H alternating 0.0 and -0.0; constraint_res and drift from 0.0, -0.0, a
    nan and a subnormal."""
    rng = np.random.default_rng(rows)
    i = np.arange(rows)
    half = (i % CSV_CHUNK) // 2
    p1 = half / 3.0 + 0.1
    p2 = np.minimum(half, CSV_CHUNK // 2 - 2) / 7.0 - 0.2
    q = np.column_stack([rng.choice(SPECIAL_FLOATS, rows), rng.standard_normal(rows)])
    mixed = SPECIAL_FLOATS[[0, 1, 2, 7]]
    return Trajectory(i * 0.001, np.column_stack([q, p1, p2]),
                      np.where(i % 2, -0.0, 0.0), rng.choice(mixed, rows),
                      rng.choice(mixed, rows))


def _csv_text(traj):
    buffer = io.StringIO()
    traj.to_csv(buffer)
    return buffer.getvalue()


@pytest.mark.parametrize("rows", [0, 1, 1023, 1024, 1025, 2049])
def test_csv_writer_gives_the_bytes_of_the_per_row_formula(rows):
    traj = _edge_trajectory(rows)
    text = _csv_text(traj)
    assert text == _per_row_csv(traj)
    lines = text.split("\r\n")
    assert len(lines) == rows + 2 and lines[-1] == ""
    # the H texts of the first two rows
    assert [line.split(",")[5] for line in lines[1:-1]][:2] == ["0.0", "-0.0"][:rows]


def test_csv_writer_output_does_not_depend_on_the_chunk_size(monkeypatch):
    traj = _edge_trajectory(1025)
    expected = _per_row_csv(traj)
    for chunk in (3, 7, 4096):
        monkeypatch.setattr(sys.modules["magnomech.integrate"], "CSV_CHUNK", chunk)
        assert _csv_text(traj) == expected


def test_csv_writer_writes_integer_arrays_as_floats():
    traj = Trajectory(np.arange(3), np.ones((3, 2), dtype=np.int64), np.array([1, 1, 1]),
                      np.zeros(3, dtype=np.int32), np.zeros(3, dtype=np.int64))
    text = _csv_text(traj)
    assert text == _per_row_csv(traj)
    assert text.split("\r\n")[2] == "1.0,1.0,1.0,1.0,0.0,0.0"


# -- the generated kernel against the per-point oracles -----------------------


def test_kernel_is_generated_on_the_first_integrate_and_reused(scenario_dir,
                                                               monkeypatch):
    generated = []
    compile_step = kernel._Generator.compile

    def counting(self):
        generated.append(self)
        return compile_step(self)

    monkeypatch.setattr(kernel._Generator, "compile", counting)
    step_kernel.cache_clear()
    system = build_system(load_scenario(scenario_dir / "magnetic-trap.json"))
    assert not generated
    for dt in (0.01, 0.005):
        integrate(system.ham, system.mag, system.initial_state, 0.1, dt)
    assert len(generated) == 1


def _rk4_step(rhs, vec, dt):
    """The reference RK4 step on flat numpy vectors."""
    k1 = rhs(vec)
    k2 = rhs(vec + 0.5 * dt * k1)
    k3 = rhs(vec + 0.5 * dt * k2)
    k4 = rhs(vec + dt * k3)
    return vec + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _system(doc):
    return build_system(parse_scenario(json.dumps(doc)))


def _oracle_rhs(ham, mag, dist):
    """The per-point field the kernel replaced: dense solve or multipliers."""
    if dist is None:
        return lambda vec: magnetic_vector_field(
            ham, mag, PhasePoint.from_vec(vec)).vec
    return lambda vec: constrained_field_multiplier(
        dist, ham, mag, PhasePoint.from_vec(vec)).vector.vec


def _reference_run(ham, mag, z0, steps, dt, dist=None, project=True):
    """RK4 over the oracle field with the per-point end-of-step sequence
    (drift, projection, residual, energy), stopping where integrate aborts:
    at a fault, or at the first row whose energy departs from the start's
    by more than the default ``energy`` tolerance times (1 + |H0|).

    Returns the states, drifts, residuals and energies of the recorded steps
    and the abort message as integrate words it (None without an abort).
    """
    rhs = _oracle_rhs(ham, mag, dist)
    vec = z0.vec
    rows = [(vec, 0.0, 0.0, ham.value(z0))]
    message = None
    for _ in range(steps):
        try:
            vec = _rk4_step(rhs, vec, dt)
            if not np.all(np.isfinite(vec)):
                raise NumericalDomainError("state is non-finite")
            z = PhasePoint.from_vec(vec)
            drift = residual = 0.0
            if dist is not None:
                drift = max_abs(constraint_residual(dist, ham, z))
                if project:
                    z = project_to_constraint(dist, ham, z)
                    vec = z.vec
                residual = max_abs(constraint_residual(dist, ham, z))
            energy = ham.value(z)
        except (NumericalDomainError, OverflowError) as err:
            message = f"{type(err).__name__}: {err}"
            break
        rows.append((vec, drift, residual, energy))
    start = rows[0][3]
    limit = DEFAULT_TOLERANCES.get("energy") * (1.0 + abs(start))
    for step, (_, _, _, energy) in enumerate(rows):
        if abs(energy - start) > limit:
            rows = rows[:step]
            message = (f"NumericalDomainError: energy drift {abs(energy - start):.3e} "
                       f"exceeds {limit:.3e}")
            break
    states, drifts, residuals, energies = zip(*rows)
    return (np.array(states), np.array(drifts), np.array(residuals),
            np.array(energies), message)


def _mass(q):
    return np.array([[1.0 + 0.5 * q[1] ** 2, 0.1 * q[0], 0.0],
                     [0.1 * q[0], 2.0, 0.0],
                     [0.0, 0.0, 1.0 + 0.2 * q[0] ** 2]])


def _mass_grad(q):
    grads = np.zeros((3, 3, 3))
    grads[0, 0, 1] = grads[0, 1, 0] = 0.1
    grads[0, 2, 2] = 0.4 * q[0]
    grads[1, 0, 0] = q[1]
    return grads


def _general_value(q, p):
    return (0.5 * (p[0] ** 2 + p[1] ** 2) + 0.25 * q[0] ** 2 * q[1] ** 2
            + 0.1 * q[0] * p[1])


def _differenced(fn, shape):
    """Partials of ``fn`` by central differences (step 1e-6), stacked
    direction first to ``shape``: a caller's partials that are not exact."""
    def partials(x):
        return fd_jacobian(lambda y: np.ravel(fn(y)), x, 1e-6).T.reshape(shape)

    return partials


def _extra_systems():
    """Paths no shipped scenario takes, as (ham, mag, dist or None, z0)."""
    twisted = MagneticStructure(TwoFormField.from_matrix_fn(
        lambda q: np.array([[0.0, 1.0 + 0.1 * q[0]], [-1.0 - 0.1 * q[0], 0.0]]), 2))
    general = _system({
        "name": "general", "n": 2,
        "general_h": "0.5*(p1^2 + p2^2) + 0.25*q1^2*q2^2 + 0.1*q1*p2",
        "b_field": [["0", "1 + 0.1*q1"], ["-(1 + 0.1*q1)", "0"]],
        "initial_state": {"q": [0.3, -0.2], "p": [0.5, 0.1]}})
    potential = lambda q: 0.5 * float(q @ q)  # noqa: E731
    rows = free_particle_constraint()

    def row(q):
        return np.array([[0.0, -q[0], 1.0]])

    rows_fd = ConstraintDistribution(3, 1, row, _differenced(row, (3, 1, 3)))
    z3 = PhasePoint([0.2, -0.1, 0.3], [0.6, 0.4, -0.2])

    def on_surface(dist, ham):
        return project_to_constraint(dist, ham, z3)

    inlined = {
        "n": 3, "potential": "0.5*(q1^2 + q2^2 + q3^2)",
        "mass_matrix": [["1 + 0.5*q2^2", "0.1*q1", "0"], ["0.1*q1", "2", "0"],
                        ["0", "0", "1 + 0.2*q1^2"]],
        "b_field": [["0", "0.5*q3", "0"], ["-0.5*q3", "0", "0"], ["0", "0", "0"]]}
    one_row = _system(dict(inlined, name="one-row", constraints=[["0", "-q1", "1"]]))
    two_rows = _system(dict(inlined, name="two-rows",
                            constraints=[["0", "-q1", "1"], ["1", "0", "0.5*q2"]]))
    potential_fd = _differenced(potential, (3,))
    mass_symbolic = HamiltonianSpec.quadratic(3, mass_fn=_mass, mass_grad_fn=_mass_grad,
                                              potential_fn=potential,
                                              potential_grad_fn=lambda q: np.array(q))
    mass_fd = HamiltonianSpec.quadratic(3, mass_fn=_mass,
                                        mass_grad_fn=_differenced(_mass, (3, 3, 3)),
                                        potential_fn=potential,
                                        potential_grad_fn=potential_fd)
    gradient_fd = _differenced(lambda z: _general_value(z[:2], z[2:]), (4,))
    general_fd = HamiltonianSpec.general(
        2, _general_value, lambda q, p: gradient_fd(np.concatenate([q, p])))
    unit = HamiltonianSpec.free(3)
    canonical = MagneticStructure.canonical(3)
    return {
        "general-symbolic": (general.ham, general.mag, None, general.initial_state),
        "general-fd": (general_fd, twisted, None, PhasePoint([0.3, -0.2], [0.5, 0.1])),
        "mass-fd": (mass_fd, canonical, None, z3),
        "constrained-mass-symbolic": (mass_symbolic, canonical, rows,
                                      on_surface(rows, mass_symbolic)),
        "constrained-mass-fd": (mass_fd, canonical, rows, on_surface(rows, mass_fd)),
        "constrained-rows-fd": (unit, canonical, rows_fd, on_surface(rows_fd, unit)),
        "inlined-mass-one-row": (one_row.ham, one_row.mag, one_row.dist,
                                 on_surface(one_row.dist, one_row.ham)),
        "inlined-mass-two-rows": (two_rows.ham, two_rows.mag, two_rows.dist,
                                  on_surface(two_rows.dist, two_rows.ham)),
    }


EXTRA = _extra_systems()


def _worst_rhs_gap(ham, mag, dist, points):
    field = step_kernel(ham, mag, dist).field
    oracle = _oracle_rhs(ham, mag, dist)
    return max(float(np.max(np.abs(np.array(field(*z.vec.tolist())) - oracle(z.vec))))
               for z in points)


@pytest.mark.parametrize("name", SCENARIOS)
def test_kernel_rhs_matches_oracles_on_scenarios(systems, name):
    system = systems[name]
    rng = np.random.default_rng(7)
    free_points = phase_samples(system.sample_box, 20, rng)
    assert _worst_rhs_gap(system.ham, system.mag, None, free_points) <= 1e-12
    if system.constrained:
        surface = surface_phase_samples(system.dist, system.ham,
                                        system.sample_box, 20, rng)
        assert _worst_rhs_gap(system.ham, system.mag, system.dist, surface) <= 1e-12


@pytest.mark.parametrize("name", sorted(EXTRA))
def test_kernel_rhs_matches_oracles_off_the_corpus(name):
    ham, mag, dist, z0 = EXTRA[name]
    rng = np.random.default_rng(11)
    box = np.array([[-0.5, 0.5]] * ham.n)
    points = phase_samples(box, 20, rng)
    if dist is not None:
        points = [project_to_constraint(dist, ham, z) for z in points]
    assert _worst_rhs_gap(ham, mag, dist, points) <= 1e-12


def _assert_matches_reference(ham, mag, z0, dt, dist, project=True, tol=1e-12):
    kind = "magnetic" if dist is None else "distributional"
    traj = integrate(ham, mag, z0, 200 * dt, dt, dist=dist, kind=kind, project=project)
    states, drifts, residuals, energies, _ = _reference_run(
        ham, mag, z0, 200, dt, dist=dist, project=project)
    assert not traj.aborted and len(states) == 201
    assert np.max(np.abs(traj.states - states)) <= tol
    assert np.max(np.abs(traj.energies - energies)) <= tol
    assert np.max(np.abs(traj.drifts[1:] - drifts[1:])) <= tol
    assert np.max(np.abs(traj.constraint_residuals[1:] - residuals[1:])) <= tol


@pytest.mark.parametrize("name", SCENARIOS)
def test_trajectory_matches_reference_on_scenarios(systems, name):
    system = systems[name]
    dist = system.dist if system.constrained else None
    z0 = system.initial_state
    if dist is not None:
        z0 = project_to_constraint(dist, system.ham, z0)
    _assert_matches_reference(system.ham, system.mag, z0, 1e-2, dist)


@pytest.mark.parametrize("name", sorted(EXTRA))
def test_trajectory_matches_reference_off_the_corpus(name):
    ham, mag, dist, z0 = EXTRA[name]
    # A central-difference gradient (step 1e-6) turns the ~1e-16 gap
    # between the closed-form field and the dense solve into noise of order
    # 1e-16 / 1e-6 per evaluation; over 200 steps that sits near 1e-12, so
    # those systems are held to the difference noise floor.
    tol = 1e-10 if name.endswith("-fd") else 1e-12
    _assert_matches_reference(ham, mag, z0, 1e-2, dist, tol=tol)


def test_unprojected_trajectory_matches_reference(systems):
    system = systems["nh-magnetic-particle"]
    z0 = project_to_constraint(system.dist, system.ham, system.initial_state)
    _assert_matches_reference(system.ham, system.mag, z0, 1e-2, system.dist,
                              project=False)


# -- error paths ---------------------------------------------------------------


def _softening_mass_system(n):
    """Unit masses except G_22 = 1 - q1, which stops being positive definite
    once the particle, moving along q1 at unit speed, passes q1 = 1."""
    mass = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    mass[1][1] = "1 - q1"
    doc = {"name": "softening-mass", "n": n, "mass_matrix": mass,
           "sample_box": [[-1.0, 0.5]] + [[-1.0, 1.0]] * (n - 1),
           "initial_state": {"q": [0.0] * n, "p": [1.0] + [0.0] * (n - 1)}}
    if n == 3:
        doc["constraints"] = [["0", "-q1", "1"]]
    return _system(doc)


@pytest.mark.parametrize("n", [2, 3])
def test_mass_losing_definiteness_aborts_at_the_reference_step(n):
    system = _softening_mass_system(n)
    dist = system.dist if system.constrained else None
    kind = "magnetic" if dist is None else "distributional"
    traj = integrate(system.ham, system.mag, system.initial_state, 3.0, 0.03,
                     dist=dist, kind=kind)
    states, _, _, _, _ = _reference_run(system.ham, system.mag, system.initial_state,
                                     100, 0.03, dist=dist)
    # 34 states, the length the per-point integrator produced as well
    assert len(traj.times) == len(states) == 34
    assert np.max(np.abs(traj.states - states)) <= 1e-12
    assert traj.abort_reason.step == 34
    assert traj.abort_reason.message == (
        "NumericalDomainError: mass matrix is not positive definite")


def test_rank_loss_mid_run_raises():
    # the single row (0, 1 - q1) vanishes when the particle, moving along q1
    # at unit speed, reaches q1 = 1, a stage point at dt = 0.25
    system = _system({"name": "vanishing-row", "n": 2,
                      "constraints": [["0", "1 - q1"]],
                      "initial_state": {"q": [0.0, 0.0], "p": [1.0, 0.0]}})
    with pytest.raises(DegenerateConstraintError):
        integrate(system.ham, system.mag, system.initial_state, 2.0, 0.25,
                  dist=system.dist, kind="distributional")


def _fault_systems():
    """Systems that meet a fault mid-run, each as (system, kind, t_end, dt)."""
    moving = {"q": [0.0, 0.0, 0.0], "p": [1.0, 0.0, 0.0]}

    def field_entry(entry):
        # B_23 varies along q1 and pushes nothing while p2 = p3 = 0
        return {"n": 3, "b_field": [[0, 0, 0], ["0", "0", entry],
                                    ["0", f"-({entry})", "0"]],
                "sample_box": [[-1.0, 0.5]] * 3, "initial_state": moving}

    def growing_rows(*rows):
        # the nonzero entry of each row is 1e150 at q1 = 0.75, the last stage
        # point of the first step, and 2.2e154 at its end point q1 = 5/6,
        # where its square overflows; the particle moves along q1, which
        # no row reads, so every row multiplies p by 0
        return _system({"name": "growing-row", "n": len(rows[0]), "potential": "0.5*q1^2",
                        "constraints": [list(row) for row in rows],
                        "initial_state": {"q": [0.0] * len(rows[0]),
                                          "p": [1.0] + [0.0] * (len(rows[0]) - 1)}})

    def huge_rows(*rows):
        # A G^{-1} A^T = 1e400 overflows at every point, and p reads no
        # nonzero entry, so the start lies on the surface
        n = len(rows[0])
        return _system({"name": "huge-row", "n": n, "constraints": [list(row) for row in rows],
                        "initial_state": {"q": [0.3] * n, "p": [0.0, 0.1] + [0.0] * (n - 2)}})

    growing = "1e150*exp(120*(q1 - 0.75))"
    # a lower B entry that is not the negation of its mirror, compiled
    # directly since build_system's probes reject it: it meets a negative
    # base to a fractional power once q1 passes 0.5, and its mirror never
    # faults
    lower = [[ex.Num(0.0)] * 3, [ex.Num(0.0), ex.Num(0.0), ex.Num(0.5)],
             [ex.Num(0.0), ex.parse("(0.5 - q1)^1.5"), ex.Num(0.0)]]
    softening = _softening_mass_system(2)
    singular = _softening_mass_system(2)
    # stage points at q1 = -1.5 + 0.5 j hit G_22 = 1 - q1 = 0 exactly
    singular.initial_state = PhasePoint([-1.5, 0.0], [1.0, 0.0])
    return {
        # too weak to move p1 off 1, so a stage point lands on q1 = 0
        "potential-pole": (_system({
            "name": "pole", "n": 2, "potential": "1e-30/q1",
            "initial_state": {"q": [-1.0, 0.0], "p": [1.0, 0.0]}}),
            "magnetic", 2.0, 0.25),
        "softening-mass": (softening, "magnetic", 3.0, 0.03),
        "softening-mass-constrained": (_softening_mass_system(3), "distributional",
                                       3.0, 0.03),
        "singular-mass": (singular, "magnetic", 4.0, 1.0),
        "non-finite-b-field": (_system(dict(field_entry("exp(400*q1)*exp(400*q1)"),
                                            name="overflowing-product")),
                               "magnetic", 2.0, 0.01),
        "exp-overflow": (_system(dict(field_entry("exp(1000*q1)"), name="exp")),
                         "magnetic", 2.0, 0.01),
        # a negative base to a fractional power once q1 passes 0.5
        "fractional-power": (_system(dict(field_entry("(0.5 - q1)^1.5"), name="power")),
                             "magnetic", 2.0, 0.01),
        # the product overflows to inf past q1 = 0.887, where sin meets a
        # math domain error
        "math-domain": (_system(dict(field_entry("sin(exp(400*q1)*exp(400*q1))"),
                                     name="sine")), "magnetic", 2.0, 0.01),
        "fractional-power-lower-entry": (SimpleNamespace(
            ham=HamiltonianSpec.free(3),
            mag=MagneticStructure(TwoFormField(
                _compile(lower), 3, _compile_partials(lower, ["q1", "q2", "q3"],
                                                      direction_first=True))), dist=None,
            initial_state=PhasePoint([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])),
            "magnetic", 2.0, 0.01),
        # B H_p at 1e8 leaves a rounding defect above the structure guard
        "structure-residual": (_system({
            "name": "stiff", "n": 2, "potential": "0.5*(q1^2 + q2^2)",
            "b_field": [[0, 1e8], [-1e8, 0]],
            "initial_state": {"q": [0.3, 0.7], "p": [0.2, 0.1]}}), "magnetic", 1.0, 0.01),
        # A G^{-1} A^T underflows to 0 although the row is not zero
        "singular-multiplier": (_system({
            "name": "tiny-row", "n": 2, "constraints": [["1e-200", "1e-200*q1"]],
            "initial_state": {"q": [0.3, 0.7], "p": [0.0, 0.1]}}),
            "distributional", 1.0, 0.01),
        "rank-loss": (_system({"name": "vanishing-row", "n": 2,
                               "constraints": [["0", "1 - q1"]],
                               "initial_state": {"q": [0.0, 0.0], "p": [1.0, 0.0]}}),
                      "distributional", 2.0, 0.25),
        # A G^{-1} A^T underflows to 0 at the end point of the first step,
        # q1 = 5/6, but at none of its stage points (q1 = 0, 0.5, 0.5, 0.75)
        "singular-projection": (_system({
            "name": "tiny-row-at-end", "n": 2, "potential": "0.5*q1^2",
            "constraints": [["0", "1e-170 + 1e-100*(q1 - 0.8333333333333334)^6"]],
            "initial_state": {"q": [0.0, 0.0], "p": [1.0, 0.0]}}),
            "distributional", 2.0, 1.0),
        "overflowing-projection": (growing_rows(["0", growing]), "distributional", 2.0, 1.0),
        "overflowing-projection-two-rows": (
            growing_rows(["0", growing, "0"], ["0", "0", growing]), "distributional", 2.0, 1.0),
        "overflowing-multiplier": (huge_rows(["1e200", "0"]), "distributional", 1.0, 0.01),
        "overflowing-multiplier-two-rows": (
            huge_rows(["1e200", "0", "0"], ["0", "0", "1e200"]), "distributional", 1.0, 0.01),
        # rows from a plain callable, which the step calls instead of
        # inlining, turn infinite once q1 reaches 0.5
        "non-finite-called-rows": (SimpleNamespace(
            ham=HamiltonianSpec.free(2), mag=MagneticStructure.canonical(2),
            dist=ConstraintDistribution(
                2, 1, lambda q: np.array([[0.0, 1.0 if q[0] < 0.5 else np.inf]]),
                lambda q: np.zeros((2, 1, 2))),
            initial_state=PhasePoint([0.0, 0.0], [1.0, 0.0])),
            "distributional", 1.0, 0.1),
    }


FAULTS = _fault_systems()


def _outcome(run):
    """The value of ``run()``, or the error it raised as (class, message)."""
    try:
        return run()
    except MagnomechError as err:
        return type(err), str(err)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("name", sorted(FAULTS))
def test_fault_stops_the_run_where_the_per_point_run_stops(name):
    system, kind, t_end, dt = FAULTS[name]
    dist = system.dist if kind == "distributional" else None
    steps = int(round(t_end / dt))
    traj = _outcome(lambda: integrate(system.ham, system.mag, system.initial_state,
                                      t_end, dt, dist=dist, kind=kind))
    changed = differing({f"fault {name}": fault_entry(traj)})
    assert not changed, changed
    reference = _outcome(lambda: _reference_run(
        system.ham, system.mag, system.initial_state, steps, dt, dist=dist))
    if isinstance(reference[0], type):
        assert traj == reference
        return
    states, _, _, _, message = reference
    assert message is not None and len(states) <= steps
    assert traj.abort_reason.step == len(traj.times) == len(states)
    assert traj.abort_reason.message == message
    assert np.max(np.abs(traj.states - states)) <= 1e-12


def _raised(run):
    with pytest.raises(MagnomechError) as info:
        run()
    return type(info.value), str(info.value)


def _step(run, row, dt, project=True):
    """One step of a generated run from ``row``: the next row."""
    rows = []
    run(row, dt, project, 1, rows.extend)
    return tuple(rows)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_state_guards_raise_as_the_per_point_functions_do(systems):
    """The guards no scenario reaches before an expression fault, met from
    states near the float range: a non-finite gradient, stage point, end
    state and energy."""
    trap = systems["magnetic-trap"]
    run = step_kernel(trap.ham, trap.mag, None)
    rhs = _oracle_rhs(trap.ham, trap.mag, None)
    assert _raised(lambda: run.field(0.0, 0.5, 1e200, 0.0)) == _raised(
        lambda: rhs(np.array([0.0, 0.5, 1e200, 0.0])))
    assert _raised(lambda: _step(run, (0.0, 0.0, 1e308, 0.0, 0.0, 0.0, 0.0), 10.0)) == _raised(
        lambda: _rk4_step(rhs, np.array([0.0, 0.0, 1e308, 0.0]), 10.0))
    assert _raised(lambda: _step(run, (0.0, 0.0, 1e200, 0.0, 0.0, 0.0, 0.0), 1e-300)) == _raised(
        lambda: trap.ham.value(PhasePoint([0.0, 0.0], [1e200, 0.0])))
    planar = systems["charged-particle"]
    run = step_kernel(planar.ham, planar.mag, None)
    assert _raised(lambda: _step(run, (0.0, 0.0, 1e308, 0.0, 0.0, 0.0, 0.0), 1.0)) == (
        NumericalDomainError, "state is non-finite")


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_cheap_first_guards_decide_as_the_per_entry_tests():
    """A group's non-finite test first asks whether the entries' sum is
    finite, and the structure guard first whether a defect entry is
    nonzero; either way the per-entry test decides the rest. Finite
    entries whose sum overflows run on, +inf and -inf at a stage point
    abort, and a nonzero structure defect raises, as per point."""
    free, canonical = HamiltonianSpec.free(2), MagneticStructure.canonical(2)
    huge = PhasePoint([1.7e308, 1.7e308], [0.0, 0.0])
    traj = integrate(free, canonical, huge, 3.0, 1.0)
    states, _, _, energies, message = _reference_run(free, canonical, huge, 3, 1.0)
    assert message is None and not traj.aborted and len(traj.times) == 4
    assert traj.states.tobytes() == states.tobytes()
    assert traj.energies.tobytes() == energies.tobytes()
    # the first stage point is (inf, -inf, 1e308, -1e308); its sum is nan
    run, rows = step_kernel(free, canonical, None), []
    opposite = (0.0, 0.0, 1e308, -1e308, 0.0, 0.0, 0.0)
    assert _raised(lambda: run(opposite, 10.0, True, 3, rows.extend)) == _raised(
        lambda: _rk4_step(_oracle_rhs(free, canonical, None), np.array(opposite[:4]),
                          10.0)) == (NumericalDomainError, "phase point has non-finite entries")
    assert rows == []
    # B H_p at 1e8 leaves a rounding defect of 3e-9 in the structure equation
    stiff = _system({"name": "stiff", "n": 2, "potential": "0.5*(q1^2 + q2^2)",
                     "b_field": [[0, 1e8], [-1e8, 0]]})
    start = np.array([0.3, 0.2, 1.0, 0.0])
    run = step_kernel(stiff.ham, stiff.mag, None)
    defect = (DegenerateFormError, "structure solve residual 2.980e-09 exceeds tolerance")
    assert _raised(lambda: run.field(*start)) == _raised(
        lambda: _oracle_rhs(stiff.ham, stiff.mag, None)(start)) == defect
    assert _raised(lambda: _step(run, (*start, 0.0, 0.0, 0.0), 1e-3)) == defect
    assert _raised(lambda: integrate(stiff.ham, stiff.mag, PhasePoint(start[:2], start[2:]),
                                     1.0, 1e-3)) == defect


def test_one_row_rank_rule_is_the_same_on_both_paths():
    """The row (0, 1 - q1) has rank 0 at q1 = 1 by linalg.rank_of's
    single-row rule: ConstraintDistribution.matrix and the generated step
    raise the same error there, and both go on at q1 = 0.9."""
    system = _system({
        "name": "vanishing-row", "n": 2, "constraints": [["0", "1 - q1"]],
        "initial_state": {"q": [0.0, 0.0], "p": [1.0, 0.0]}})
    field = step_kernel(system.ham, system.mag, system.dist).field
    with pytest.raises(DegenerateConstraintError) as direct:
        system.dist.matrix(np.array([1.0, 0.3]))
    with pytest.raises(DegenerateConstraintError) as generated:
        field(1.0, 0.3, 0.2, 0.0)
    assert str(generated.value) == str(direct.value)
    assert system.dist.matrix(np.array([0.9, 0.3])).tolist() == [[0.0, 1.0 - 0.9]]
    field(0.9, 0.3, 0.2, 0.0)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_step_guards_no_scenario_reaches_raise_as_the_per_point_functions_do():
    """A constant mass whose literal pivot is not positive (build_system's
    probes reject it, so it is compiled directly), a k = 2 multiplier Gram
    matrix that underflows to zero, and a projection of called rows that
    overflows."""
    canonical = MagneticStructure.canonical(2)
    nodes = [[ex.Num(-1.0), ex.Num(0.0)], [ex.Num(0.0), ex.Num(1.0)]]
    indefinite = HamiltonianSpec.quadratic(
        2, mass_fn=_compile(nodes),
        mass_grad_fn=_compile_partials(nodes, ["q1", "q2"], direction_first=True))
    start = np.array([0.0, 0.0, 1.0, 0.0])
    field = step_kernel(indefinite, canonical, None).field
    assert _raised(lambda: field(*start)) == _raised(
        lambda: _oracle_rhs(indefinite, canonical, None)(start)) == (
        NumericalDomainError, "mass matrix is not positive definite")
    tiny = _system({"name": "tiny-rows", "n": 3,
                    "constraints": [["1e-200", "0", "0"], ["0", "1e-200", "0"]]})
    point = np.array([0.1, 0.2, 0.3, 0.0, 0.0, 0.5])
    assert _raised(lambda: step_kernel(tiny.ham, tiny.mag, tiny.dist).field(*point)) == (
        _raised(lambda: _oracle_rhs(tiny.ham, tiny.mag, tiny.dist)(point))) == (
        CompatibilityError, "multiplier matrix is singular")
    # A G^{-1} A^T = 1e-320, so the projection's shift of p1 = 1e150 overflows
    tiny_row = ConstraintDistribution(2, 1, lambda q: np.array([[1e-160, 0.0]]),
                                      lambda q: np.zeros((2, 1, 2)))
    free = HamiltonianSpec.free(2)
    run = step_kernel(free, canonical, tiny_row)
    assert _raised(lambda: _step(run, (0.0, 0.0, 1e150, 0.0, 0.0, 0.0, 0.0), 1e-300)) == (
        _raised(lambda: project_to_constraint(tiny_row, free,
                                              PhasePoint([0.0, 0.0], [1e150, 0.0])))) == (
        NumericalDomainError, "phase point has non-finite entries")


# -- value numbering: each distinct entry once per stage point -----------------


def _unnumbered_run(ham, mag, dist, monkeypatch):
    """The generated run as written without value numbering: every entry
    evaluated where it comes up, its repeats included."""
    guarded = ex.guarded
    with monkeypatch.context() as patch:
        patch.setattr(ex, "guarded", lambda nodes, tag, literal, known=None: guarded(
            nodes, tag, literal))
        return kernel._Generator(ham, mag, dist).compile()


def _rows(run, z0, dt, steps):
    rows = []
    run((*z0.vec.tolist(), 0.0, 0.0, 0.0), dt, True, steps, rows.extend)
    return np.array(rows)


def test_value_numbering_writes_each_entry_once_per_stage_point(systems):
    """On magnetic-trap, B's lower entry -(1 + 0.25*q1^2) negates its
    mirror, which row-major order evaluates first, and dG/dq2 has the text
    of dV/dq2: the run evaluates neither again at a stage point."""
    trap = systems["magnetic-trap"]
    generator = kernel._Generator(trap.ham, trap.mag, None)
    generator.compile()
    source = "\n".join(generator.lines)
    run = source[source.index("def run("):]
    assert "(-(1.0 + (0.25 * (q1 ** 2.0))))" not in source
    assert "-(1 + (0.25 * (q1 ^ 2)))" not in source
    # once at each of the four stage points, none at the end point
    assert run.count(" = (0.5 * (2.0 * q2))") == 4


@pytest.mark.parametrize("name", SCENARIOS + sorted(EXTRA))
def test_value_numbering_keeps_the_rows_bits(systems, name, monkeypatch):
    """The run gives the bits of the run written without value numbering,
    on every shipped scenario (free, and constrained where it is) and every
    EXTRA system, among them the inlined masses with mirrored 0.1*q1
    entries."""
    if name in EXTRA:
        ham, mag, dist, z0 = EXTRA[name]
        cases = [(dist, z0)]
    else:
        system = systems[name]
        ham, mag, z0 = system.ham, system.mag, system.initial_state
        cases = [(None, z0)]
        if system.constrained:
            cases.append((system.dist, project_to_constraint(system.dist, ham, z0)))
    for dist, start in cases:
        numbered = _rows(step_kernel(ham, mag, dist), start, 1e-2, 50)
        plain = _rows(_unnumbered_run(ham, mag, dist, monkeypatch), start, 1e-2, 50)
        assert numbered.tobytes() == plain.tobytes()


# -- non-finite Gram matrices and structure residuals --------------------------

# Documents 118 and 230 of tests/differential.py's draw(300), past the 60
# that the property below draws: a B entry 1 + 1e300, whose structure
# residual is non-finite, and the single constraint row (2, -1e300), whose
# Gram matrix overflows, so that the projection of every start raises.
DOCUMENT_118 = {
    "b_field": [[0, "-(-(q2))", "(1) + (1e300)"], ["-(-(-(q2)))", 0, "sin(cos(q2))"],
                ["-((1) + (1e300))", "-(sin(cos(q2)))", 0]],
    "epsilon": [-1, -1, "(-(q2)) + (sin(2))", 0, 0, 0.1],
    "gamma": [2, "-(cos(exp(1000)*q1))", "1"],
    "initial_state": {"p": [0, -1, 0], "q": [1, 0, 0.1]}, "n": 3, "name": "fuzz",
    "sample_box": [[-1, 0], [0.5, 1], [-1, -0.5]]}
DOCUMENT_230 = {
    "b_field": [[0, 0], [0, 0]], "constraints": [[2, "-(1e300)"]],
    "gamma": ["-(-(0.5))", "exp(0.5)"], "initial_state": {"p": [0.5, 0.5], "q": [0, 0.5]},
    "n": 2, "name": "fuzz", "potential": 0.1}


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_a_non_finite_structure_residual_has_one_message_on_both_paths():
    """The generated step's residual is nan there and the dense solve's is
    inf, and both say non-finite; a finite residual keeps its value in the
    message (test_cheap_first_guards_decide_as_the_per_entry_tests)."""
    system = _system(DOCUMENT_118)
    z0 = system.initial_state
    assert _raised(lambda: integrate(system.ham, system.mag, z0, 0.2, 0.01)) == _raised(
        lambda: _reference_run(system.ham, system.mag, z0, 20, 0.01)) == (
        DegenerateFormError, "structure solve residual is non-finite")


# -- integrate against the per-point run on generated documents ----------------


# Systems whose generated step inlines entries that read the stage point:
# a constrained 3-D system whose mass, potential, B and constraint row all
# read q, and a free one whose general_h reads q and p. The drawn documents
# inline only entries that read no variable, so without these the property
# cannot tell a stage that reuses another stage's entries.
INLINED_CONSTRAINED = {
    "name": "inlined-constrained", "n": 3,
    "mass_matrix": [["2 + sin(q2)", "0.1*q3", "0"], ["0.1*q3", "2 + cos(q1)", "0"],
                    ["0", "0", "1.5 + 0.5*q1^2"]],
    "potential": "0.5*(q1^2 + q2^2) + 0.1*q3^3",
    "b_field": [[0, "0.5*q3", "sin(q1)"], ["-(0.5*q3)", 0, "0.2*q2"],
                ["-(sin(q1))", "-(0.2*q2)", 0]],
    "constraints": [["0", "-q1", "1 + 0.1*q2^2"]],
    "sample_box": [[-0.5, 0.5]] * 3,
    "initial_state": {"q": [0.2, -0.1, 0.3], "p": [0.6, 0.4, -0.2]}}
INLINED_GENERAL = {
    "name": "inlined-general", "n": 2,
    "general_h": "0.5*(p1^2 + p2^2) + 0.25*q1^2*q2^2 + 0.1*q1*p2 + 0.05*sin(q2)*p1^2",
    "b_field": [["0", "1 + 0.1*q1"], ["-(1 + 0.1*q1)", "0"]],
    "sample_box": [[-0.5, 0.5]] * 2,
    "initial_state": {"q": [0.3, -0.2], "p": [0.5, 0.1]}}


def _generated_documents():
    from differential import draw  # noqa: PLC0415

    return [doc for doc, _, _ in draw(60)] + [DOCUMENT_118, DOCUMENT_230,
                                              INLINED_CONSTRAINED, INLINED_GENERAL]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_integrate_matches_the_per_point_run_on_generated_documents():
    """The 60 recorded documents of tests/differential.py, documents 118 and
    230 and the two inlined systems above, from the initial state and 2 box
    samples (projected in distributional mode), 20 steps at dt 0.01 and
    0.3: integrate and the per-point run raise the same error, or abort at
    the same step with the same message, and their states and energies
    agree to 1e-9. Every ingredient has exact partials, so this holds on
    document 22 too, whose exponents read q."""
    for doc in _generated_documents():
        try:
            system = build_system(parse_scenario(json.dumps(doc)))
        except MagnomechError:
            continue
        starts = list(phase_samples(system.sample_box, 2, np.random.default_rng(0)))
        if system.initial_state is not None:
            starts.insert(0, system.initial_state)
        for dist in [None] + ([system.dist] if system.constrained else []):
            kind = "magnetic" if dist is None else "distributional"
            for start in starts:
                if dist is not None:
                    start = _outcome(lambda: project_to_constraint(dist, system.ham, start))
                    if isinstance(start, tuple):
                        continue  # the raised error is both sides' outcome
                for dt in (0.01, 0.3):
                    traj = _outcome(lambda: integrate(system.ham, system.mag, start,
                                                      20 * dt, dt, dist=dist, kind=kind))
                    reference = _outcome(lambda: _reference_run(
                        system.ham, system.mag, start, 20, dt, dist=dist))
                    if isinstance(traj, tuple) or isinstance(reference[0], type):
                        assert traj == reference, (doc, dt)
                        continue
                    states, _, _, energies, message = reference
                    assert traj.abort_reason == (None if message is None else (
                        len(states), len(states) * dt, message)), (doc, dt)
                    assert len(traj.times) == len(states)
                    np.testing.assert_allclose(traj.states, states, rtol=1e-9, atol=1e-12)
                    np.testing.assert_allclose(traj.energies, energies, rtol=1e-9,
                                               atol=1e-12)
