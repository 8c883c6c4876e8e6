import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnomech import (
    DegenerateConstraintError,
    OffConstraintError,
    PhasePoint,
    project_to_constraint,
)
from magnomech.cli import check_geometry, check_hj2
from magnomech.dynamics import HamiltonianSpec, MagneticStructure, magnetic_vector_field
from magnomech.geometry import TwoFormField
from magnomech.linalg import rank_of
from magnomech.nonholonomic import (
    ConstraintDistribution,
    admissible_basis,
    compatibility_report,
    constrained_field_multiplier,
    constrained_field_restricted,
    constraint_jacobian,
    constraint_residual,
)
from magnomech.scenarios import build_system, parse_scenario
from conftest import SCENARIO_DIR, free_particle_constraint, random_spd


@pytest.fixture
def free_system():
    dist = free_particle_constraint()
    return dist, HamiltonianSpec.free(3), MagneticStructure.canonical(3)


def surface_points(dist, ham, count, seed=0):
    rng = np.random.default_rng(seed)
    return [project_to_constraint(dist, ham,
                                  PhasePoint(rng.normal(size=3), rng.normal(size=3)))
            for _ in range(count)]


def test_projection_is_identity_on_surface(free_system):
    dist, ham, _ = free_system
    z = PhasePoint([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    assert project_to_constraint(dist, ham, z).vec == pytest.approx(z.vec)


def test_projection_hand_example():
    # row (-q2, 0, 1) at q = (0, 1, 0): momentum (0, 0, 1) splits evenly
    grads = np.zeros((3, 1, 3))
    grads[1, 0, 0] = -1.0
    dist = ConstraintDistribution(3, 1, lambda q: np.array([[-q[1], 0.0, 1.0]]),
                                  lambda q: grads)
    ham = HamiltonianSpec.free(3)
    kept = project_to_constraint(dist, ham, PhasePoint([0, 1, 0], [1, 0, 1]))
    assert kept.p == pytest.approx([1.0, 0.0, 1.0])
    moved = project_to_constraint(dist, ham, PhasePoint([0, 1, 0], [0, 0, 1]))
    assert moved.p == pytest.approx([0.5, 0.0, 0.5])


def test_projection_against_least_squares_oracle():
    # oracle: parameterize the surface as p = G D beta over the base kernel
    # D and minimize the metric distance by normal equations
    rng = np.random.default_rng(4)
    dist = free_particle_constraint()
    mass = random_spd(rng, 3)
    ham = HamiltonianSpec.quadratic(3, mass_fn=lambda q: mass,
                                    mass_grad_fn=lambda q: np.zeros((3, 3, 3)))
    for _ in range(10):
        z = PhasePoint(rng.normal(size=3), rng.normal(size=3))
        basis = dist.basis(z.q)
        beta = np.linalg.solve(basis.T @ mass @ basis, basis.T @ z.p)
        oracle = mass @ basis @ beta
        assert project_to_constraint(dist, ham, z).p == pytest.approx(
            oracle, abs=1e-10)
        residual = constraint_residual(dist, ham, project_to_constraint(dist, ham, z))
        assert np.max(np.abs(residual)) < 1e-12


def test_projection_change_is_metric_orthogonal(free_system):
    dist, ham, _ = free_system
    rng = np.random.default_rng(9)
    z = PhasePoint(rng.normal(size=3), rng.normal(size=3))
    kept = project_to_constraint(dist, ham, z)
    change = kept.p - z.p
    for direction in dist.basis(z.q).T:
        # ker(A G^{-1}) = G . ker(A) for the metric orthogonality statement
        assert abs(change @ direction) < 1e-12


def test_admissible_basis_unconstrained_is_identity():
    dist = ConstraintDistribution.unconstrained(2)
    ham = HamiltonianSpec.free(2)
    basis = admissible_basis(dist, ham, PhasePoint([0, 0], [1, 1]))
    assert basis == pytest.approx(np.eye(4))


def test_admissible_basis_dimension_and_membership(free_system):
    dist, ham, _ = free_system
    z = PhasePoint([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    basis = admissible_basis(dist, ham, z)
    assert basis.shape == (6, 4)
    rows = dist.matrix(z.q)
    jac = constraint_jacobian(dist, ham, z)
    for column in basis.T:
        assert np.max(np.abs(rows @ column[:3])) < 1e-10
        assert np.max(np.abs(jac @ column)) < 1e-10


def test_admissible_dimension_constant_across_surface(free_system):
    dist, ham, _ = free_system
    dims = {admissible_basis(dist, ham, z).shape[1]
            for z in surface_points(dist, ham, 100)}
    assert dims == {4}


def test_null_space_oracle_for_dimensions(free_system):
    # independent accounting: base condition kills one of six directions,
    # the surface tangency kills one more
    dist, ham, _ = free_system
    z = surface_points(dist, ham, 1, seed=3)[0]
    rows = dist.matrix(z.q)
    base = np.hstack([rows, np.zeros((1, 3))])
    jac = constraint_jacobian(dist, ham, z)
    stacked = np.vstack([base, jac])
    rank = np.linalg.matrix_rank(stacked)
    assert 6 - rank == admissible_basis(dist, ham, z).shape[1]


def test_compatibility_unconstrained_passes():
    dist = ConstraintDistribution.unconstrained(2)
    ham = HamiltonianSpec.free(2)
    mag = MagneticStructure.canonical(2)
    report = compatibility_report(dist, ham, mag, PhasePoint([0, 0], [0, 1]))
    assert report.passed and report.dim_k == 4
    assert report.sigma_min == pytest.approx(1.0)


def test_compatibility_free_particle(free_system):
    dist, ham, mag = free_system
    report = compatibility_report(dist, ham, mag,
                                  PhasePoint([0, 0, 0], [1, 0, 0]))
    assert report.dim_f == 5 and report.dim_tm == 5 and report.dim_k == 4
    assert report.intersection_dim == 0
    assert report.sigma_min > 1e-8
    assert report.passed


def _doubled_row():
    """The row (0, -q1, 1) twice: rank 1 where two rows are declared."""
    grads = np.zeros((3, 2, 3))
    grads[0, :, 1] = -1.0
    return ConstraintDistribution(
        3, 2, lambda q: np.array([[0.0, -q[0], 1.0], [0.0, -q[0], 1.0]]), lambda q: grads)


def test_doubled_constraint_row_fails_compatibility():
    dist = _doubled_row()
    ham = HamiltonianSpec.free(3)
    mag = MagneticStructure.canonical(3)
    report = compatibility_report(dist, ham, mag,
                                  PhasePoint([0, 0, 0], [1, 0, 0]))
    assert not report.passed


def test_rank_deficiency_raises_on_direct_use():
    dist = _doubled_row()
    with pytest.raises(DegenerateConstraintError):
        dist.matrix(np.array([0.0, 0.0, 0.0]))


def test_field_at_inactive_point(free_system):
    dist, ham, mag = free_system
    z = PhasePoint([0, 0, 0], [1, 0, 0])
    result = constrained_field_multiplier(dist, ham, mag, z)
    assert result.vector.dq == pytest.approx([1.0, 0.0, 0.0])
    assert result.vector.dp == pytest.approx([0.0, 0.0, 0.0])
    assert result.multipliers == pytest.approx([0.0])


def test_multiplier_matches_classical_formula(free_system):
    dist, ham, mag = free_system
    for z in surface_points(dist, ham, 20, seed=8):
        result = constrained_field_multiplier(dist, ham, mag, z)
        classical = -z.p[0] * z.p[1] / (1.0 + z.q[0] ** 2)
        assert result.multipliers[0] == pytest.approx(classical, abs=1e-10)


def test_two_methods_agree(free_system):
    dist, ham, mag = free_system
    for z in surface_points(dist, ham, 50, seed=1):
        a = constrained_field_restricted(dist, ham, mag, z).vector.vec
        b = constrained_field_multiplier(dist, ham, mag, z).vector.vec
        assert np.max(np.abs(a - b)) < 1e-9


def test_magnetic_term_changes_only_momentum_part(free_system):
    dist, ham, _ = free_system
    mag_b = MagneticStructure(TwoFormField.constant(
        np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0.0]])))
    mag_0 = MagneticStructure.canonical(3)
    for z in surface_points(dist, ham, 10, seed=6):
        with_b = constrained_field_multiplier(dist, ham, mag_b, z).vector
        without = constrained_field_multiplier(dist, ham, mag_0, z).vector
        assert with_b.dq == pytest.approx(without.dq, abs=1e-12)
        assert with_b.dq == pytest.approx(ham.velocity(z.q, z.p), abs=1e-12)


def test_constrained_field_conserves_energy_pointwise(free_system):
    dist, ham, _ = free_system
    mag = MagneticStructure(TwoFormField.constant(
        np.array([[0, 0.5, 0], [-0.5, 0, 0], [0, 0, 0.0]])))
    potential_ham = HamiltonianSpec.quadratic(
        3, potential_fn=lambda q: 0.3 * q[1] ** 2,
        potential_grad_fn=lambda q: np.array([0.0, 0.6 * q[1], 0.0]))
    for z in surface_points(dist, potential_ham, 20, seed=4):
        x = constrained_field_multiplier(dist, potential_ham, mag, z).vector
        rate = float(potential_ham.gradient(z) @ x.vec)
        assert abs(rate) < 1e-10


def test_solution_is_basis_independent(free_system):
    dist, ham, mag = free_system
    rng = np.random.default_rng(12)
    z = surface_points(dist, ham, 1, seed=2)[0]
    basis = admissible_basis(dist, ham, z)
    reference = constrained_field_restricted(dist, ham, mag, z, basis=basis)
    rotation = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    rotated = constrained_field_restricted(dist, ham, mag, z,
                                           basis=basis @ rotation)
    assert rotated.vector.vec == pytest.approx(reference.vector.vec, abs=1e-12)


def test_unconstrained_reduces_to_free_field():
    dist = ConstraintDistribution.unconstrained(3)
    ham = HamiltonianSpec.free(3)
    mag = MagneticStructure(TwoFormField.constant(
        np.array([[0, 0.3, 0], [-0.3, 0, 0], [0, 0, 0.0]])))
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = PhasePoint(rng.normal(size=3), rng.normal(size=3))
        free = magnetic_vector_field(ham, mag, z).vec
        a = constrained_field_restricted(dist, ham, mag, z).vector.vec
        b = constrained_field_multiplier(dist, ham, mag, z).vector.vec
        assert np.max(np.abs(a - free)) < 1e-12
        assert np.max(np.abs(b - free)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_projection_idempotent_and_two_methods_agree(seed):
    # random constant constraint rows, random metric: projecting twice is
    # projecting once, and both constrained-field routes coincide there
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    k = int(rng.integers(1, n))
    rows = rng.normal(size=(k, n))
    dist = ConstraintDistribution.constant(rows)
    mass = random_spd(rng, n)
    ham = HamiltonianSpec.quadratic(n, mass_fn=lambda q: mass,
                                    mass_grad_fn=lambda q: np.zeros((n, n, n)))
    raw = rng.normal(size=(n, n))
    mag = MagneticStructure(TwoFormField.constant(raw - raw.T))
    z = PhasePoint(rng.normal(size=n), rng.normal(size=n))
    once = project_to_constraint(dist, ham, z)
    twice = project_to_constraint(dist, ham, once)
    assert np.max(np.abs(once.vec - twice.vec)) < 1e-12
    a = constrained_field_restricted(dist, ham, mag, once).vector.vec
    b = constrained_field_multiplier(dist, ham, mag, once).vector.vec
    assert np.max(np.abs(a - b)) < 1e-9


def test_geometry_check_reads_the_scenario_constraint_tolerance():
    # the compatibility branch reads the surface at the scenario's own
    # constraint tolerance, as hj2 does: both raise at the same residual
    doc = json.loads((SCENARIO_DIR / "nh-magnetic-particle.json").read_text())
    del doc["symmetry"]
    doc["tolerances"] = {"constraint": 1e-30}
    system = build_system(parse_scenario(json.dumps(doc)))
    for check in (check_geometry, check_hj2):
        with pytest.raises(OffConstraintError, match="exceeds 1.0e-30"):
            check(system, 20, 0)


def test_compatibility_report_reads_the_scaled_sigma_tolerance(free_system, monkeypatch):
    # sigma_min is about 0.88 here: above the default compat_sigma, below
    # the one MAGNOMECH_TOL_SCALE=1e8 gives (1.0)
    dist, ham, mag = free_system
    z = project_to_constraint(dist, ham, PhasePoint([0.1, 0.2, 0.3], [0.4, 0.5, 0.6]))
    report = compatibility_report(dist, ham, mag, z)
    assert report.passed and 0.5 < report.sigma_min < 1.0
    monkeypatch.setenv("MAGNOMECH_TOL_SCALE", "1e8")
    assert not compatibility_report(dist, ham, mag, z).passed
    assert compatibility_report(dist, ham, mag, z, sigma_tol=1e-8).passed


def test_rank_of_rows_whose_largest_singular_value_overflows():
    # np.linalg.svd gives [inf, 1e308] for the first rows and [inf, 1] for
    # the second; scaled by 2^-1024 their singular values are (1.34, 0.56),
    # rank 2, and (1.34, 5.6e-309), rank 1
    full = np.array([[1.7e308, 1.7e308, 0.0, 0.0], [0.0, 0.0, 1e308, 0.0]])
    deficient = np.array([[1.7e308, 1.7e308, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    assert np.isinf(np.linalg.svd(full, compute_uv=False)[0])
    assert rank_of(np.stack([full, deficient, np.eye(2, 4)])).tolist() == [2, 1, 2]
    dist = ConstraintDistribution.constant(full)
    assert dist.matrix(np.zeros(4)).tolist() == full.tolist()
    assert dist.basis(np.zeros(4)).shape == (4, 2)
    with pytest.raises(DegenerateConstraintError, match="rank deficient"):
        ConstraintDistribution.constant(deficient).matrix(np.zeros(4))
