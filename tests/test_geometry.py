import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnomech import NumericalDomainError
from magnomech.dynamics import HamiltonianSpec, PhaseMap
from magnomech.geometry import (
    OneFormSection,
    TwoFormField,
    exterior_derivative,
    magnetic_match_residual,
    restricted_form_residual,
    two_form_closedness_residual,
)
from magnomech.nonholonomic import ConstraintDistribution
from magnomech.scenarios import construct_induced_scenario, parse_scenario
from reference import fd_jacobian


def pairing_oracle(eval_fn, q, x, y, h=1e-6):
    """Brute-force d(gamma)(x, y) = D_x gamma . y - D_y gamma . x via
    directional finite differences; independent of the Jacobian path."""
    q = np.asarray(q, float)
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    dx = (np.asarray(eval_fn(q + h * x)) - np.asarray(eval_fn(q - h * x))) / (2 * h)
    dy = (np.asarray(eval_fn(q + h * y)) - np.asarray(eval_fn(q - h * y))) / (2 * h)
    return float(dx @ y - dy @ x)


def test_orientation_frozen_by_pairing_oracle():
    # gamma = (0, q1): the (1,2) coefficient of the derivative is +1
    section = OneFormSection(lambda q: np.array([0.0, q[0]]),
                             lambda q: np.array([[0.0, 0.0], [1.0, 0.0]]))
    q = np.array([0.4, -0.9])
    matrix = exterior_derivative(section, q)
    assert matrix == pytest.approx(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    e1, e2 = np.eye(2)
    assert matrix[0, 1] == pytest.approx(pairing_oracle(section.eval_fn, q, e1, e2),
                                         abs=1e-9)


def test_exact_sections_have_zero_derivative():
    # gradient of W = q1*q2
    section = OneFormSection(lambda q: np.array([q[1], q[0]]),
                             lambda q: np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.max(np.abs(exterior_derivative(section, np.array([2.0, -0.3])))) == 0.0


def test_rotational_section_entry():
    section = OneFormSection(lambda q: np.array([-q[1], q[0]]),
                             lambda q: np.array([[0.0, -1.0], [1.0, 0.0]]))
    q = np.array([0.8, 0.1])
    matrix = exterior_derivative(section, q)
    e1, e2 = np.eye(2)
    oracle = pairing_oracle(section.eval_fn, q, e1, e2)
    assert matrix[0, 1] == pytest.approx(2.0, abs=1e-8)
    assert matrix[0, 1] == pytest.approx(oracle, abs=1e-8)


def test_derivative_matches_oracle_on_random_cubics():
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=(3, 3, 3))

    def eval_fn(q):
        return np.array([q @ coeffs[i] @ q for i in range(3)])

    def jac_fn(q):
        return np.array([(coeffs[i] + coeffs[i].T) @ q for i in range(3)])

    q = rng.normal(size=3)
    matrix = exterior_derivative(OneFormSection(eval_fn, jac_fn), q)
    assert np.max(np.abs(matrix + matrix.T)) == 0.0
    for _ in range(5):
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        assert float(x @ matrix @ y) == pytest.approx(
            pairing_oracle(eval_fn, q, x, y), rel=1e-6, abs=1e-7)


def test_non_finite_section_raises():
    section = OneFormSection(lambda q: np.array([np.inf, 0.0]),
                             lambda q: np.array([[np.inf, 0.0], [0.0, 0.0]]))
    with pytest.raises(NumericalDomainError):
        exterior_derivative(section, np.array([0.0, 0.0]))


def test_fd_jacobian_consistency_on_polynomials():
    def eval_fn(q):
        return np.array([q[0] ** 3 - q[1], q[0] * q[1] ** 2, q[2] ** 2])

    def jac_fn(q):
        return np.array([[3 * q[0] ** 2, -1.0, 0.0],
                         [q[1] ** 2, 2 * q[0] * q[1], 0.0],
                         [0.0, 0.0, 2 * q[2]]])

    q = np.array([0.7, -1.2, 0.4])
    analytic = jac_fn(q)
    numeric = fd_jacobian(eval_fn, q, 1e-5)
    scale = np.max(np.abs(analytic))
    assert np.max(np.abs(analytic - numeric)) / scale < 1e-6


def test_closedness_constant_field_is_zero():
    field = TwoFormField.constant(np.array([[0.0, 2.0, -1.0],
                                            [-2.0, 0.0, 0.5],
                                            [1.0, -0.5, 0.0]]))
    assert two_form_closedness_residual(field, np.array([0.3, 1.0, -2.0])) == 0.0


def test_closedness_flags_non_closed_field():
    # only the (1,2) coefficient varies, linearly in q3: cyclic sum is 1
    def upper(q):
        matrix = np.zeros((3, 3))
        matrix[0, 1] = q[2]
        return matrix

    def partials(q):
        stacked = np.zeros((3, 3, 3))
        stacked[2, 0, 1] = 1.0
        return stacked

    field = TwoFormField(upper, 3, partials)
    assert two_form_closedness_residual(field, np.array([0.1, 0.2, 0.3])) == 1.0


def test_closedness_of_induced_fields():
    # d(d gamma) = 0: the two-form that construct-b writes for a cubic
    # section, differentiated twice symbolically, has a cyclic sum of
    # partials at rounding level
    spec = parse_scenario("""{"name": "cubic", "n": 3, "gamma": [
        "0.3*q1*q2*q3 - q2^3", "sin(q1)*q3^2 + 0.7*q1^2*q2", "exp(0.5*q2)*q1 - q3^3"]}""")
    _, system = construct_induced_scenario(spec)
    assert system.mag.b_field._partials_fn is not None
    for q in ([0.4, -0.2, 0.9], [-0.7, 0.3, 0.1]):
        assert two_form_closedness_residual(system.mag.b_field, q) <= 1e-12


def test_two_form_storage_is_exactly_antisymmetric():
    field = TwoFormField.from_matrix_fn(
        lambda q: np.array([[0.0, q[0]], [-q[0], 0.0]]), 2)
    matrix = field.matrix(np.array([1.3, 0.2]))
    assert np.max(np.abs(matrix + matrix.T)) == 0.0


def test_from_matrix_fn_rejects_asymmetric_input():
    field = TwoFormField.from_matrix_fn(lambda q: np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
    with pytest.raises(NumericalDomainError):
        field.matrix(np.zeros(2))


def test_derivatives_are_required_where_an_object_is_built():
    """A section, phase map, Hamiltonian, distribution or varying two-form
    on n >= 3 built without its partials raises there, not at first use."""
    one = lambda q: np.ones(3)  # noqa: E731
    for build in (lambda: OneFormSection(one),
                  lambda: PhaseMap(lambda v: v),
                  lambda: HamiltonianSpec.general(3, lambda q, p: 0.0),
                  lambda: HamiltonianSpec.quadratic(3, potential_fn=lambda q: 0.0),
                  lambda: HamiltonianSpec.quadratic(3, mass_fn=lambda q: np.eye(3)),
                  lambda: ConstraintDistribution(3, 1, lambda q: np.ones((1, 3))),
                  lambda: TwoFormField(lambda q: np.ones((3, 3)), 3)):
        with pytest.raises(TypeError):
            build()


def test_match_residual_zero_when_curl_cancels_field():
    b = np.array([[0.0, 0.7], [-0.7, 0.0]])
    section = OneFormSection.linear(0.5 * b)
    field = TwoFormField.constant(b)
    for q in (np.array([0.0, 0.0]), np.array([1.2, -0.4])):
        assert magnetic_match_residual(section, field, q) == 0.0


def test_match_residual_zero_for_closed_section_without_field():
    section = OneFormSection(lambda q: np.array([q[1], q[0]]),
                             lambda q: np.array([[0.0, 1.0], [1.0, 0.0]]))
    field = TwoFormField.zero(2)
    assert magnetic_match_residual(section, field, np.array([0.3, 0.8])) == 0.0


def test_match_residual_on_distribution_matches_brute_force():
    # D = ker(dq3 - q1 dq2), gamma = (0, c q1, 0), no field
    c = 0.8
    section = OneFormSection(lambda q: np.array([0.0, c * q[0], 0.0]),
                             lambda q: np.array([[0.0, 0.0, 0.0],
                                                 [c, 0.0, 0.0],
                                                 [0.0, 0.0, 0.0]]))
    grads = np.zeros((3, 1, 3))
    grads[0, 0, 1] = -1.0
    dist = ConstraintDistribution(
        3, 1, lambda q: np.array([[0.0, -q[0], 1.0]]), lambda q: grads)
    field = TwoFormField.zero(3)
    q = np.array([0.6, -0.2, 0.9])
    basis = dist.basis(q)
    matrix = exterior_derivative(section, q)
    brute = max(abs(float(x @ matrix @ y))
                for x in basis.T for y in basis.T)
    result = magnetic_match_residual(section, field, q, basis=basis)
    assert result == pytest.approx(brute, abs=1e-12)
    assert result > 0.1  # nonzero for c != 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_full_condition_dominates_every_restriction(seed):
    # passing on all of T_qQ forces passing on any nested subspace
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    raw = rng.normal(size=(n, n))
    matrix = raw - raw.T
    spectral = np.linalg.norm(matrix, 2)
    for _ in range(3):
        cols = int(rng.integers(1, n + 1))
        sub = np.linalg.qr(rng.normal(size=(n, cols)))[0]
        assert restricted_form_residual(matrix, sub) <= spectral + 1e-12
    scaled = matrix * 1e-12 / max(spectral, 1e-30)
    sub = np.linalg.qr(rng.normal(size=(n, max(1, n - 1))))[0]
    assert restricted_form_residual(scaled, sub) <= 1e-12
    full = restricted_form_residual(matrix, np.eye(n))
    assert full == pytest.approx(np.max(np.abs(matrix)))


def test_empty_stacks_keep_the_value_shape():
    """A callable without a column function gives an empty stack the shape
    of its value: gamma (0, n), its Jacobian (0, n, n), a phase map's image
    (0, 2n) and Jacobian (0, 2n, 2n), and a two-form (0, n, n)."""
    empty = np.zeros((0, 3))
    section = OneFormSection(lambda q: 2 * q, lambda q: 2 * np.eye(3))
    assert section.value(empty).shape == (0, 3)
    assert section.jacobian(empty).shape == (0, 3, 3)
    phase_map = PhaseMap(lambda v: v + 1.0, lambda v: np.eye(6))
    assert phase_map.image(np.zeros((0, 6))).shape == (0, 6)
    assert phase_map.jacobians(np.zeros((0, 6))).shape == (0, 6, 6)
    field = TwoFormField(lambda q: np.ones((3, 3)), 3, lambda q: np.zeros((3, 3, 3)))
    assert field.matrix(empty).shape == (0, 3, 3)
