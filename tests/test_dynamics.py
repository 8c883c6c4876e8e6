import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnomech import (
    HamiltonianSpec,
    MagneticStructure,
    NumericalDomainError,
    OneFormSection,
    PhaseMap,
    PhasePoint,
    TwoFormField,
    coordinate_formula_field,
    energy_rate,
    exterior_derivative,
    magnetic_vector_field,
    pullback_hamiltonian,
    symplectic_residual,
)
from conftest import constant_field_system, random_antisymmetric, random_spd


def test_canonical_free_particle():
    ham, mag = constant_field_system(np.zeros((2, 2)))
    x = magnetic_vector_field(ham, mag, PhasePoint([0, 0], [1, 0]))
    assert x.dq == pytest.approx([1.0, 0.0])
    assert x.dp == pytest.approx([0.0, 0.0])


def test_uniform_field_bends_momentum():
    ham, mag = constant_field_system([[0, 1], [-1, 0]])
    x = magnetic_vector_field(ham, mag, PhasePoint([0, 0], [1, 0]))
    assert x.dq == pytest.approx([1.0, 0.0])
    assert x.dp == pytest.approx([0.0, -1.0])


def test_linear_potential_drives_momentum():
    ham, mag = constant_field_system(
        [[0, 1], [-1, 0]],
        potential=lambda q: q[0],
        potential_grad=lambda q: np.array([1.0, 0.0]))
    x = magnetic_vector_field(ham, mag, PhasePoint([0, 0], [0, 0]))
    assert x.dq == pytest.approx([0.0, 0.0])
    assert x.dp == pytest.approx([-1.0, 0.0])


def test_formula_convention_frozen():
    # the closed-form path uses dp = -H_q + B H_p with B the stored
    # evaluation matrix; agreement with the solve pins the sign and scale
    rng = np.random.default_rng(5)
    b = random_antisymmetric(rng, 3)
    ham, mag = constant_field_system(b)
    z = PhasePoint(rng.normal(size=3), rng.normal(size=3))
    solve = magnetic_vector_field(ham, mag, z)
    formula = coordinate_formula_field(ham, mag, z)
    assert formula.vec == pytest.approx(solve.vec, abs=1e-12)
    assert formula.dp == pytest.approx(b @ z.p, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_formula_agrees_with_solve_on_random_systems(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    mass = random_spd(rng, n)
    coeffs = rng.normal(size=(n, n))

    def potential(q):
        return float(q @ coeffs @ q)

    def potential_grad(q):
        return (coeffs + coeffs.T) @ q

    ham = HamiltonianSpec.quadratic(n, mass_fn=lambda q: mass,
                                    potential_fn=potential,
                                    potential_grad_fn=potential_grad)
    mag = MagneticStructure(TwoFormField.constant(random_antisymmetric(rng, n)))
    z = PhasePoint(rng.normal(size=n), rng.normal(size=n))
    a = magnetic_vector_field(ham, mag, z).vec
    b = coordinate_formula_field(ham, mag, z).vec
    assert np.max(np.abs(a - b)) < 1e-9


def test_energy_rate_vanishes():
    rng = np.random.default_rng(11)
    for _ in range(3):
        ham, mag = constant_field_system(random_antisymmetric(rng, 2))
        z = PhasePoint(rng.normal(size=2), rng.normal(size=2))
        assert abs(energy_rate(ham, mag, z)) < 1e-10


def test_structure_matrix_always_invertible_even_for_large_field():
    # the twisted matrix has determinant one independent of the field
    rng = np.random.default_rng(2)
    ham, mag = constant_field_system(random_antisymmetric(rng, 3, scale=100.0))
    z = PhasePoint(rng.normal(size=3), rng.normal(size=3))
    magnetic_vector_field(ham, mag, z)  # should not raise


def test_identity_map_is_symplectic():
    ham, mag = constant_field_system([[0, 0.4], [-0.4, 0]])
    z = PhasePoint([0.3, -0.2], [0.5, 0.7])
    assert symplectic_residual(PhaseMap.identity(2), mag, z) == 0.0


def test_translation_preserves_constant_field_structure():
    ham, mag = constant_field_system([[0, 1.3], [-1.3, 0]])
    eps = PhaseMap.translation([0.4, -0.9])
    z = PhasePoint([0.1, 0.2], [-0.3, 0.8])
    assert symplectic_residual(eps, mag, z) < 1e-12


def test_momentum_scaling_is_not_symplectic():
    ham, mag = constant_field_system(np.zeros((2, 2)))
    eps = PhaseMap(lambda v: np.concatenate([v[:2], 2 * v[2:]]),
                   lambda v: np.diag([1.0, 1.0, 2.0, 2.0]))
    z = PhasePoint([0.0, 0.0], [1.0, 1.0])
    assert symplectic_residual(eps, mag, z) == pytest.approx(1.0)


def test_phase_map_fd_jacobian_consistent():
    eps = PhaseMap(lambda v: np.array([v[0] + v[3] ** 2, v[1], v[2], v[3]]))
    z = PhasePoint([0.2, -0.1], [0.4, 0.9])
    jac = eps.jacobian(z)
    expected = np.eye(4)
    expected[0, 3] = 2 * 0.9
    assert jac == pytest.approx(expected, abs=1e-8)


def test_pullback_hamiltonian_chain_rule():
    ham, mag = constant_field_system(
        [[0, 1], [-1, 0]],
        potential=lambda q: q[0] ** 2 + 0.5 * q[1],
        potential_grad=lambda q: np.array([2 * q[0], 0.5]))
    eps = PhaseMap.translation([0.3, -0.4])
    pulled = pullback_hamiltonian(ham, eps)
    z = PhasePoint([0.1, 0.2], [0.6, -0.5])
    image = eps.value(z)
    assert pulled.value(z) == pytest.approx(ham.value(image))
    assert pulled.gradient(z) == pytest.approx(ham.gradient(image))


def _lambda_tangent(section, q, u):
    """Tangent map of z -> (q, gamma(q)) applied to a stacked vector."""
    n = q.size
    jac = section.jacobian(q)
    return np.concatenate([u[:n], jac @ u[:n]])


@pytest.mark.parametrize("field_scale", [0.0, 1.0])
def test_pairing_identities_for_sections(field_scale):
    # two exact identities relating the pulled-back structure to the
    # section's curl; they hold for every section, no hypothesis needed
    rng = np.random.default_rng(23)
    n = 3
    coeffs = rng.normal(size=(n, n, n))
    lin = rng.normal(size=(n, n))

    def eval_fn(q):
        return np.array([q @ coeffs[i] @ q for i in range(n)]) + lin @ q

    def jac_fn(q):
        return np.array([(coeffs[i] + coeffs[i].T) @ q for i in range(n)]) + lin

    section = OneFormSection(eval_fn, jac_fn)
    b = field_scale * random_antisymmetric(rng, n)
    mag = MagneticStructure(TwoFormField.constant(b))
    for _ in range(20):
        z = PhasePoint(rng.normal(size=n), rng.normal(size=n))
        v = rng.normal(size=2 * n)
        w = rng.normal(size=2 * n)
        total = exterior_derivative(section, z.q) + mag.b_matrix(z.q)
        twist = float(v[:n] @ total @ w[:n])
        lam_v = _lambda_tangent(section, z.q, v)
        lam_w = _lambda_tangent(section, z.q, w)
        pulled = mag.pairing(z.q, lam_v, lam_w)
        assert abs(pulled + twist) < 1e-8
        left = mag.pairing(z.q, lam_v, w)
        right = mag.pairing(z.q, v, w - lam_w)
        assert abs(left - right + twist) < 1e-8


def test_non_spd_mass_rejected():
    ham = HamiltonianSpec.quadratic(2, mass_fn=lambda q: -np.eye(2))
    mag = MagneticStructure.canonical(2)
    with pytest.raises(Exception):
        magnetic_vector_field(ham, mag, PhasePoint([0, 0], [1, 0]))


def test_singular_mass_is_a_domain_error():
    ham = HamiltonianSpec.quadratic(
        2, mass_fn=lambda q: np.array([[1.0, 0.0], [0.0, 1.0 - q[0]]]))
    z = PhasePoint([1.0, 0.0], [1.0, 0.0])
    for evaluate in (ham.value, ham.gradient):
        with pytest.raises(NumericalDomainError, match="mass matrix is singular"):
            evaluate(z)
