from collections import Counter

import numpy as np
import pytest

from magnomech import (
    HamiltonianSpec,
    MagneticStructure,
    OneFormSection,
    PhaseMap,
    PhasePoint,
    SectionImageError,
    SectionTangentError,
    Tolerances,
    TwoFormField,
    induced_magnetic_field,
    load_system,
    magnetic_vector_field,
    pullback_hamiltonian,
    type1_constrained,
    type1_magnetic,
    type2_constrained,
    type2_magnetic,
)
from magnomech import dynamics, hj
from magnomech.cli import _type2_samples, check_hj1, check_hj2
from magnomech.dynamics import structure_solve
from magnomech.nonholonomic import ConstraintDistribution, project_to_constraint
from magnomech.sampling import config_samples, newton_preimage
from conftest import free_particle_constraint, matched_linear_section

BOX2 = np.array([[-1.0, 1.0], [-1.0, 1.0]])
BOX3 = np.array([[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]])


def test_type1_classical_generating_function():
    # no field, exact section from W = |q|^2 / 2, potential solving the
    # stationary equation: the original generating-function situation
    section = OneFormSection(lambda q: q.copy(), lambda q: np.eye(2))
    ham = HamiltonianSpec.quadratic(
        2, potential_fn=lambda q: -0.5 * float(q @ q),
        potential_grad_fn=lambda q: -q)
    mag = MagneticStructure.canonical(2)
    report = type1_magnetic(section, ham, mag, config_samples(BOX2, 30))
    assert report.verdict == "PASS"
    assert report.hypothesis_residual < 1e-12
    assert report.equation_residual < 1e-8


def test_type1_matched_linear_section_passes():
    rng = np.random.default_rng(17)
    raw = rng.normal(size=(3, 3))
    section, ham, mag = matched_linear_section(raw - raw.T, offset=rng.normal(size=3))
    report = type1_magnetic(section, ham, mag, config_samples(BOX3, 50))
    assert report.verdict == "PASS"
    assert report.hypothesis_residual < 1e-12
    assert report.equation_residual < 1e-7


def test_type1_mismatched_section_is_vacuous():
    section, ham, mag = matched_linear_section([[0, 0.7], [-0.7, 0]])
    other = OneFormSection.linear(np.array([[0.3, 0.1], [0.0, -0.2]]))
    report = type1_magnetic(other, ham, mag, config_samples(BOX2, 20))
    assert report.verdict == "VACUOUS"
    assert report.hypothesis_residual > 1e-3
    assert report.equation_residual > 1e-3
    assert report.defects


def test_type1_unmatched_potential_fails_not_vacuous():
    # hypothesis holds but the energy is not constant along the section:
    # the check reports FAIL with the gradient of the composed energy
    b = np.array([[0.0, 0.6], [-0.6, 0.0]])
    section = OneFormSection.linear(0.5 * b)
    ham = HamiltonianSpec.free(2)
    mag = MagneticStructure(TwoFormField.constant(b))
    report = type1_magnetic(section, ham, mag, config_samples(BOX2, 20))
    assert report.verdict == "FAIL"
    assert report.hypothesis_residual < 1e-12
    assert report.equation_residual > 1e-4


def test_type2_identity_map_reduces_to_type1_on_section_points():
    section, ham, mag = matched_linear_section([[0, 0.8], [-0.8, 0]])
    samples = [PhasePoint(q, section.value(q)) for q in config_samples(BOX2, 10)]
    report = type2_magnetic(section, PhaseMap.identity(2), ham, mag, samples)
    assert report.verdict == "PASS"
    assert max(report.residual_b) < 1e-10


def test_type2_translation_statuses_agree():
    section, ham, mag = matched_linear_section([[0, 0.8], [-0.8, 0]])
    eps = PhaseMap.translation([0.25, -0.4])
    qs = config_samples(BOX2, 12)
    on_section = [newton_preimage(eps, PhasePoint(q, section.value(q)))
                  for q in qs[:6]]
    rng = np.random.default_rng(5)
    generic = [PhasePoint(q, rng.normal(size=2)) for q in qs[6:]]
    report = type2_magnetic(section, eps, ham, mag, on_section + generic)
    assert report.verdict == "PASS"
    # both branches must actually occur
    zero = [a for a in report.residual_a if a < 1e-7]
    nonzero = [a for a in report.residual_a if a > 1e-6]
    assert zero and nonzero
    # residual pairs track each other sample by sample
    for a, b in zip(report.residual_a, report.residual_b):
        assert abs(a - b) < 1e-7 * (1 + max(a, b))


def test_type2_canonical_degeneration():
    section, ham, _ = matched_linear_section(np.zeros((2, 2)))
    mag = MagneticStructure.canonical(2)
    eps = PhaseMap.translation([0.3, 0.1])
    rng = np.random.default_rng(8)
    samples = [PhasePoint(rng.normal(size=2), rng.normal(size=2)) for _ in range(8)]
    report = type2_magnetic(section, eps, ham, mag, samples)
    assert report.verdict == "PASS"


def test_type2_non_symplectic_map_is_vacuous():
    section, ham, mag = matched_linear_section([[0, 0.5], [-0.5, 0]])
    eps = PhaseMap(lambda v: np.concatenate([v[:2], 2.0 * v[2:]]),
                   lambda v: np.diag([1.0, 1.0, 2.0, 2.0]))
    samples = [PhasePoint([0.1, 0.2], [0.3, 0.4])]
    report = type2_magnetic(section, eps, ham, mag, samples)
    assert report.verdict == "VACUOUS"
    assert any("structure" in d for d in report.defects)


@pytest.fixture
def nh_magnetic():
    """The constrained system with a matched section, built in code."""
    n = 3
    b = 0.5
    dist = free_particle_constraint()
    matrix = np.zeros((3, 3))
    matrix[0, 1] = b
    matrix[1, 0] = -b
    mag = MagneticStructure(TwoFormField.constant(matrix))
    ham = HamiltonianSpec.quadratic(
        n, potential_fn=lambda q: -0.5 * b * b * q[1] ** 2,
        potential_grad_fn=lambda q: np.array([0.0, -b * b * q[1], 0.0]))
    section = OneFormSection(
        lambda q: np.array([b * q[1], 0.0, 0.0]),
        lambda q: np.array([[0.0, b, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    return section, dist, ham, mag


def test_type1_constrained_zero_section_free_particle():
    dist = free_particle_constraint()
    ham = HamiltonianSpec.free(3)
    mag = MagneticStructure.canonical(3)
    report = type1_constrained(OneFormSection.zero(3), dist, ham, mag,
                               config_samples(BOX3, 20))
    assert report.verdict == "PASS"
    assert report.hypothesis_residual == 0.0
    assert report.equation_residual == 0.0


def test_type1_constrained_matched_section(nh_magnetic):
    section, dist, ham, mag = nh_magnetic
    report = type1_constrained(section, dist, ham, mag, config_samples(BOX3, 50))
    assert report.verdict == "PASS"
    assert report.hypothesis_residual < 1e-10
    assert report.equation_residual < 1e-7


def test_type1_constrained_equals_magnetic_without_constraints():
    section, ham, mag = matched_linear_section([[0, 0.4], [-0.4, 0]])
    dist = ConstraintDistribution.unconstrained(2)
    qs = config_samples(BOX2, 15)
    constrained = type1_constrained(section, dist, ham, mag, qs)
    magnetic = type1_magnetic(section, ham, mag, qs)
    assert constrained.verdict == magnetic.verdict == "PASS"
    assert abs(constrained.equation_residual - magnetic.equation_residual) < 1e-12


def test_type1_constrained_guards_image(nh_magnetic):
    _, dist, ham, mag = nh_magnetic
    off = OneFormSection(lambda q: np.array([0.0, 0.0, 1.0]))
    with pytest.raises(SectionImageError):
        type1_constrained(off, dist, ham, mag, [np.zeros(3)])


def _wiggly_section(amp=5e-9, freq=100.0):
    return OneFormSection(
        lambda q: np.array([0.0, 0.0, amp * np.sin(freq * q[0])]),
        lambda q: np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                            [amp * freq * np.cos(freq * q[0]), 0.0, 0.0]]))


def test_type1_constrained_guards_tangent(nh_magnetic):
    # on the surface to within tolerance, but wiggling fast enough that the
    # tangent images leave the admissible subspace
    _, dist, ham, mag = nh_magnetic
    amp, freq = 5e-9, 100.0
    wiggly = OneFormSection(
        lambda q: np.array([0.0, 0.0, amp * np.sin(freq * q[0])]),
        lambda q: np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                            [amp * freq * np.cos(freq * q[0]), 0.0, 0.0]]))
    with pytest.raises(SectionTangentError):
        type1_constrained(wiggly, dist, ham, mag, [np.zeros(3)])


def test_tangent_guard_reads_the_membership_tolerance(nh_magnetic):
    # the wiggly section's tangent residual is amp * freq = 5e-7
    _, dist, ham, mag = nh_magnetic
    report = type1_constrained(_wiggly_section(), dist, ham, mag, [np.zeros(3)],
                               tolerances=Tolerances({"membership": 1e-6}))
    assert report.per_sample[0]["tangent"] == pytest.approx(5e-7)
    with pytest.raises(SectionTangentError):
        type1_constrained(_wiggly_section(), dist, ham, mag, [np.zeros(3)],
                          tolerances=Tolerances({"membership": 1e-7}))


def test_tangent_guard_follows_scale_env(nh_magnetic, monkeypatch):
    _, dist, ham, mag = nh_magnetic
    monkeypatch.setenv("MAGNOMECH_TOL_SCALE", "100")
    report = type1_constrained(_wiggly_section(), dist, ham, mag, [np.zeros(3)])
    assert report.per_sample[0]["tangent"] == pytest.approx(5e-7)


def test_type2_constrained_guards_the_section_at_image_points(nh_magnetic):
    _, dist, ham, mag = nh_magnetic
    off = OneFormSection(lambda q: np.array([0.0, 0.0, 1.0]))
    samples = [PhasePoint(np.zeros(3), np.zeros(3))]
    with pytest.raises(SectionImageError):
        type2_constrained(off, PhaseMap.identity(3), dist, ham, mag, samples)


def test_type2_constrained_statuses(nh_magnetic):
    section, dist, ham, mag = nh_magnetic
    eps = PhaseMap.translation([0.25, 0.0, 0.0])
    qs = config_samples(BOX3, 8)
    rng = np.random.default_rng(2)
    targets = [PhasePoint(q, section.value(q)) for q in qs[:4]]
    targets += [project_to_constraint(dist, ham,
                                      PhasePoint(q, rng.normal(size=3)))
                for q in qs[4:]]
    samples = [newton_preimage(eps, w) for w in targets]
    report = type2_constrained(section, eps, dist, ham, mag, samples)
    assert report.verdict == "PASS"
    zero = [b for b in report.residual_b if b < 1e-7]
    nonzero = [b for b in report.residual_b if b > 1e-6]
    assert zero and nonzero


def test_type2_constrained_degenerates_without_constraints():
    section, ham, mag = matched_linear_section([[0, 0.4], [-0.4, 0]])
    dist = ConstraintDistribution.unconstrained(2)
    eps = PhaseMap.translation([0.2, -0.1])
    rng = np.random.default_rng(6)
    samples = [PhasePoint(rng.normal(size=2), rng.normal(size=2))
               for _ in range(6)]
    through_k = type2_constrained(section, eps, dist, ham, mag, samples)
    direct = type2_magnetic(section, eps, ham, mag, samples)
    assert through_k.verdict == direct.verdict
    for a, b in zip(through_k.residual_b, direct.residual_b):
        assert abs(a - b) < 1e-12


def test_induced_field_of_closed_section_vanishes():
    section = OneFormSection(lambda q: np.array([q[1], q[0]]),
                             lambda q: np.array([[0.0, 1.0], [1.0, 0.0]]))
    field = induced_magnetic_field(section, 2)
    assert np.max(np.abs(field.matrix(np.array([0.7, -0.1])))) == 0.0


def test_induced_field_of_linear_section():
    section = OneFormSection(lambda q: np.array([0.0, q[0]]),
                             lambda q: np.array([[0.0, 0.0], [1.0, 0.0]]))
    field = induced_magnetic_field(section, 2)
    assert field.matrix(np.zeros(2)) == pytest.approx(
        np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_induced_field_makes_type1_pass_with_matched_potential():
    # the constructive path: arbitrary polynomial section, field from its
    # curl, potential keeping the energy constant along the section
    rng = np.random.default_rng(31)
    for _ in range(5):
        lin = rng.normal(size=(2, 2))
        quad = rng.normal(size=(2, 2, 2))

        def eval_fn(q, lin=lin, quad=quad):
            return lin @ q + np.array([q @ quad[i] @ q for i in range(2)])

        def jac_fn(q, lin=lin, quad=quad):
            return lin + np.array([(quad[i] + quad[i].T) @ q for i in range(2)])

        section = OneFormSection(eval_fn, jac_fn)
        field = induced_magnetic_field(section, 2)
        mag = MagneticStructure(field)

        def potential(q, eval_fn=eval_fn):
            value = eval_fn(q)
            return -0.5 * float(value @ value)

        def potential_grad(q, eval_fn=eval_fn, jac_fn=jac_fn):
            return -jac_fn(q).T @ eval_fn(q)

        ham = HamiltonianSpec.quadratic(2, potential_fn=potential,
                                        potential_grad_fn=potential_grad)
        report = type1_magnetic(section, ham, mag, config_samples(BOX2, 20))
        assert report.verdict == "PASS"
        assert report.hypothesis_residual < 1e-12


def test_per_sample_check_work_is_done_once(scenario_dir, monkeypatch):
    """Every Type I level goes through one kernel at the one section point
    that the section hypotheses build, the constrained levels correct the
    free field their kernel already solved, and the Type II kernel solves
    for the field of H o eps from the eps(z) and J_eps(z) evaluated once
    per sample, building no Hamiltonian per sample. The stacked run
    evaluates eps and J_eps through the map's functions and solves the
    structure equation for a stack of right-hand sides through the one
    structure_solve, so each call counts its right-hand sides, and evaluates
the section on the stack in one OneFormSection.value call, which counts
its samples."""
    system = load_system(scenario_dir / "nh-magnetic-particle.json")
    calls = Counter()

    def counting(owner, name, key=None, weight=lambda *args: 1):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key or name] += weight(*args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    # section values, per sample or stacked
    counting(OneFormSection, "value",
             weight=lambda section, q: np.size(q) // np.shape(q)[-1])
    counting(HamiltonianSpec, "__init__")
    counting(system.epsilon, "eval_fn", "map_value")
    counting(system.epsilon, "jacobian_fn", "jacobian")
    # right-hand sides of Omega^T x = dH solved, per sample or stacked
    for module in (dynamics, hj):
        counting(module, "structure_solve", "solves",
                 lambda omega, grad: grad.size // grad.shape[-1])
    report = check_hj1(system, 50, 0)
    assert report.check == "hj1-distributional" and report.verdict == "PASS"
    assert calls["value"] == 50
    assert calls["solves"] == 50
    calls.clear()
    report = check_hj2(system, 50, 0)
    assert report.check == "hj2-distributional" and report.verdict == "PASS"
    assert calls["__init__"] == 0
    # the free field at eps(z) and the field of H o eps at z
    assert calls["solves"] == 2 * 50
    # Newton takes 2 values and 1 Jacobian per sample; the section
    # pre-pass, the symplectic residual and the Type II kernel share one
    # value and one Jacobian
    assert calls["map_value"] == 3 * 50
    assert calls["jacobian"] == 2 * 50


def test_pulled_back_field_matches_its_oracle(systems):
    """The Type II kernel's solve of Omega(z)^T x = J_eps^T dH(eps(z))
    equals the dense solve for the Hamiltonian H o eps, bit for bit."""
    with_map = [s for s in systems.values() if s.epsilon is not None]
    assert with_map
    for system in with_map:
        ham, mag, eps = system.ham, system.mag, system.epsilon
        pulled = pullback_hamiltonian(ham, eps)
        for z in _type2_samples(system, 50, 0):
            grad = eps.jacobian(z).T @ ham.gradient(eps.value(z))
            direct = structure_solve(mag.form_matrix(z.q), grad)
            oracle = magnetic_vector_field(pulled, mag, z).vec
            assert direct.tobytes() == oracle.tobytes(), system.name
