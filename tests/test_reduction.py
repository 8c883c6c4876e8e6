import dataclasses
import json

import numpy as np
import pytest

from magnomech import (
    PhasePoint,
    SectionImageError,
    SectionTangentError,
    integrate,
    project_to_constraint,
)
from magnomech.cli import check_hj1, check_hj2, main
from magnomech.dynamics import HamiltonianSpec, MagneticStructure, PhaseMap
from magnomech.geometry import OneFormSection, TwoFormField
from magnomech.nonholonomic import ConstraintDistribution, surface_frame
from magnomech.reduction import (
    TranslationSymmetry,
    _descent,
    _reduced_frame,
    _vertical,
    reduced_field,
    relatedness_check,
    relatedness_residual,
    type1_reduced,
    type2_level_agreement,
    type2_reduced,
)
from magnomech.sampling import config_samples, newton_preimage
from magnomech.scenarios import build_system, parse_scenario
from magnomech.tolerances import DEFAULT_TOLERANCES
from conftest import SCENARIO_DIR, free_particle_constraint
from reference import lift_point, project_point

BOX3 = np.array([[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]])


def reduced_test_system(b=0.4):
    """Constraint dq3 = q1 dq2, two-form in the q1-q3 plane, matched
    constant-component section; q2 and q3 are cyclic."""
    dist = free_particle_constraint()
    matrix = np.zeros((3, 3))
    matrix[0, 2] = b
    matrix[2, 0] = -b
    mag = MagneticStructure(TwoFormField.constant(matrix))
    ham = HamiltonianSpec.quadratic(
        3, potential_fn=lambda q: -0.5 * b * b * q[0] ** 2,
        potential_grad_fn=lambda q: np.array([-b * b * q[0], 0.0, 0.0]))
    section = OneFormSection(
        lambda q: np.array([0.0, -b, -b * q[0]]),
        lambda q: np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                            [-b, 0.0, 0.0]]))
    sym = TranslationSymmetry([1, 2], 3)
    return section, sym, dist, ham, mag


def surface_points(dist, ham, count, seed=0):
    rng = np.random.default_rng(seed)
    return [project_to_constraint(
        dist, ham, PhasePoint(rng.normal(size=3), rng.normal(size=3)))
        for _ in range(count)]


def test_vertical_basis_unconstrained_single_cyclic():
    sym = TranslationSymmetry([0], 2)
    dist = ConstraintDistribution.unconstrained(2)
    ham = HamiltonianSpec.free(2)
    basis = _vertical(sym, surface_frame(dist, ham, np.zeros(2)))
    assert basis.shape == (4, 1)
    assert basis[:, 0] == pytest.approx([1.0, 0.0, 0.0, 0.0])


def test_vertical_basis_intersects_constraint():
    _, sym, dist, ham, _ = reduced_test_system()
    z = PhasePoint([0.7, 0.0, 0.0], [0.3, 0.2, 0.7 * 0.2])
    basis = _vertical(sym, surface_frame(dist, ham, z.q))
    assert basis.shape[1] == 1
    direction = basis[:3, 0]
    # the admissible cyclic direction is e2 + q1 e3, normalized
    expected = np.array([0.0, 1.0, 0.7]) / np.linalg.norm([0.0, 1.0, 0.7])
    assert np.abs(direction @ expected) == pytest.approx(1.0, abs=1e-12)
    assert basis[3:, 0] == pytest.approx([0.0, 0.0, 0.0])


def test_vertical_basis_empty_without_cyclic_coordinates():
    sym = TranslationSymmetry([], 3)
    dist = free_particle_constraint()
    ham = HamiltonianSpec.free(3)
    basis = _vertical(sym, surface_frame(dist, ham, np.zeros(3)))
    assert basis.shape == (6, 0)


def test_descent_basis_orthogonality():
    _, sym, dist, ham, mag = reduced_test_system()
    for z in surface_points(dist, ham, 10, seed=3):
        frame = surface_frame(dist, ham, z.q)
        vertical = _vertical(sym, frame)
        descent = _descent(sym, frame, mag, z.p, DEFAULT_TOLERANCES)
        assert descent.shape[1] == 4 - vertical.shape[1]
        omega = mag.form_matrix(z.q)
        assert np.max(np.abs(vertical.T @ omega @ descent)) < 1e-10


def test_descent_is_whole_space_without_vertical_part():
    sym = TranslationSymmetry([2], 3)  # q3 cyclic but e3 not admissible
    dist = free_particle_constraint()
    ham = HamiltonianSpec.free(3)
    mag = MagneticStructure.canonical(3)
    z = PhasePoint([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    frame = surface_frame(dist, ham, z.q)
    assert _vertical(sym, frame).shape[1] == 0
    assert _descent(sym, frame, mag, z.p, DEFAULT_TOLERANCES).shape[1] == 4


def test_descent_unconstrained_single_cyclic():
    sym = TranslationSymmetry([0], 3)
    dist = ConstraintDistribution.unconstrained(3)
    ham = HamiltonianSpec.free(3)
    mag = MagneticStructure.canonical(3)
    basis = _descent(sym, surface_frame(dist, ham, np.zeros(3)), mag, np.array([0.3, 0, 0]),
                     DEFAULT_TOLERANCES)
    assert basis.shape[1] == 2 * 3 - 1


def test_reduced_frame_dimensions_and_nondegeneracy():
    _, sym, dist, ham, mag = reduced_test_system()
    for z in surface_points(dist, ham, 5, seed=5):
        frame = _reduced_frame(sym, surface_frame(dist, ham, z.q), mag, z.p,
                               DEFAULT_TOLERANCES)
        assert frame.basis.shape[-1] == 2
        assert np.linalg.svd(frame.omega, compute_uv=False)[-1] > 1e-8


def test_reduced_structure_pulls_back():
    # the reduced pairing of pushed vectors equals the full pairing
    _, sym, dist, ham, mag = reduced_test_system()
    z = surface_points(dist, ham, 1, seed=7)[0]
    base = surface_frame(dist, ham, z.q)
    frame = _reduced_frame(sym, base, mag, z.p, DEFAULT_TOLERANCES)
    descent = _descent(sym, base, mag, z.p, DEFAULT_TOLERANCES)
    omega = mag.form_matrix(z.q)
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = descent @ rng.normal(size=descent.shape[1])
        w = descent @ rng.normal(size=descent.shape[1])
        pushed_u = frame.basis.T @ (frame.selection @ u)
        pushed_w = frame.basis.T @ (frame.selection @ w)
        reduced_value = float(pushed_u @ frame.omega @ pushed_w)
        assert reduced_value == pytest.approx(float(u @ omega @ w), abs=1e-9)


def test_reduced_field_classical_cyclic_elimination():
    # unconstrained, no two-form, q1 cyclic: the reduced flow is the
    # canonical one in q2 with p1 frozen as a parameter
    sym = TranslationSymmetry([0], 2)
    dist = ConstraintDistribution.unconstrained(2)
    ham = HamiltonianSpec.quadratic(
        2, potential_fn=lambda q: np.cos(q[1]),
        potential_grad_fn=lambda q: np.array([0.0, -np.sin(q[1])]))
    mag = MagneticStructure.canonical(2)
    z = PhasePoint([0.4, 1.1], [0.7, -0.2])
    reduced, _ = reduced_field(sym, dist, ham, mag, z)
    # reduced coordinates: (q2, p1, p2)
    assert reduced == pytest.approx([-0.2, 0.0, np.sin(1.1)], abs=1e-10)


def test_lift_independence():
    _, sym, dist, ham, mag = reduced_test_system()
    rng = np.random.default_rng(21)
    for z in surface_points(dist, ham, 5, seed=9):
        zbar = project_point(sym, z)
        fills = [rng.normal(size=2), rng.normal(size=2)]
        results = []
        energies = []
        omegas = []
        for fill in fills:
            lift = lift_point(sym, zbar, fill=fill)
            vec, frame = reduced_field(sym, dist, ham, mag, lift)
            results.append(vec)
            omegas.append(frame.omega)
            energies.append(ham.value(lift))
        assert np.max(np.abs(results[0] - results[1])) < 1e-10
        assert np.max(np.abs(omegas[0] - omegas[1])) < 1e-10
        assert abs(energies[0] - energies[1]) < 1e-10


def test_reduced_field_conserves_reduced_energy():
    _, sym, dist, ham, mag = reduced_test_system()
    for z in surface_points(dist, ham, 10, seed=11):
        vec, frame = reduced_field(sym, dist, ham, mag, z)
        grad_bar = frame.selection @ ham.gradient(z)
        assert abs(float(grad_bar @ vec)) < 1e-10


def test_relatedness_residual_small():
    _, sym, dist, ham, mag = reduced_test_system()
    samples = surface_points(dist, ham, 20, seed=13)
    assert relatedness_residual(sym, dist, ham, mag, samples) < 1e-8


def test_relatedness_against_projected_trajectory():
    # independent oracle: push a short constrained trajectory through the
    # quotient and difference it in time
    _, sym, dist, ham, mag = reduced_test_system()
    z = surface_points(dist, ham, 1, seed=15)[0]
    dt = 2e-4
    traj = integrate(ham, mag, z, 2 * dt, dt, dist=dist, kind="distributional")
    projected = [project_point(sym, traj.state(i)) for i in range(3)]
    fd_velocity = (projected[2] - projected[0]) / (2 * dt)
    # the difference is centered on the middle state of the three
    reduced, _ = reduced_field(sym, dist, ham, mag, traj.state(1))
    assert np.max(np.abs(fd_velocity - reduced)) < 1e-6


def test_relatedness_check_vacuous_when_invariance_broken():
    # declare q1 cyclic even though the constraint and potential use it
    _, _, dist, ham, mag = reduced_test_system()
    sym = TranslationSymmetry([0], 3)
    samples = surface_points(dist, ham, 5, seed=2)
    verdict, data = relatedness_check(sym, dist, ham, mag, samples)
    assert verdict == "VACUOUS"
    assert data["invariance_residual"] > 1e-6


def test_type1_reduced_passes():
    section, sym, dist, ham, mag = reduced_test_system()
    report = type1_reduced(section, sym, dist, ham, mag,
                           config_samples(BOX3, 30))
    assert report.verdict == "PASS"
    assert report.hypothesis_residual < 1e-10
    assert report.equation_residual < 1e-7


def test_type1_reduced_classical_cyclic_case():
    # no constraints, no two-form, exact section from a cyclic-free W with
    # the stationarity potential: the classical reduced situation
    sym = TranslationSymmetry([0], 2)
    dist = ConstraintDistribution.unconstrained(2)
    mag = MagneticStructure.canonical(2)
    c = 0.6
    section = OneFormSection(
        lambda q: np.array([0.0, 2 * c * q[1]]),
        lambda q: np.array([[0.0, 0.0], [0.0, 2 * c]]))
    ham = HamiltonianSpec.quadratic(
        2, potential_fn=lambda q: -2 * c * c * q[1] ** 2,
        potential_grad_fn=lambda q: np.array([0.0, -4 * c * c * q[1]]))
    box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    report = type1_reduced(section, sym, dist, ham, mag,
                           config_samples(box, 20))
    assert report.verdict == "PASS"
    assert report.equation_residual < 1e-8


def test_type1_reduced_vacuous_for_varying_section():
    _, sym, dist, ham, mag = reduced_test_system()
    varying = OneFormSection(
        lambda q: np.array([0.0, -0.4 + 0.1 * q[1], (-0.4 + 0.1 * q[1]) * q[0]]),
        lambda q: np.array([[0.0, 0.0, 0.0], [0.0, 0.1, 0.0],
                            [-0.4 + 0.1 * q[1], 0.1 * q[0], 0.0]]))
    report = type1_reduced(varying, sym, dist, ham, mag,
                           config_samples(BOX3, 10))
    assert report.verdict == "VACUOUS"
    assert any("cyclic" in d for d in report.defects)


def test_type2_level_agreement_both_scenarios():
    section, sym, dist, ham, mag = reduced_test_system()
    eps = PhaseMap.translation([0.3, 0.0, 0.0])
    qs = config_samples(BOX3, 6)
    targets = [PhasePoint(q, section.value(q)) for q in qs[:3]]
    targets += surface_points(dist, ham, 3, seed=19)
    samples = [newton_preimage(eps, w) for w in targets]
    full, reduced, agree = type2_level_agreement(
        section, eps, sym, dist, ham, mag, samples)
    assert full.verdict == "PASS"
    assert reduced.verdict == "PASS"
    assert agree


def _type2_samples(section, dist, ham, eps):
    qs = config_samples(BOX3, 6)
    targets = [PhasePoint(q, section.value(q)) for q in qs[:3]]
    targets += surface_points(dist, ham, 3, seed=19)
    return [newton_preimage(eps, w) for w in targets]


def test_reduced_checks_raise_on_an_off_surface_section():
    # the same scenario defect as at the constrained level: p3 = 1 leaves
    # the surface p3 = q1 p2, so the reduced checks raise, not VACUOUS
    _, sym, dist, ham, mag = reduced_test_system()
    off = OneFormSection(lambda q: np.array([0.0, 0.0, 1.0]),
                         lambda q: np.zeros((3, 3)))
    with pytest.raises(SectionImageError):
        type1_reduced(off, sym, dist, ham, mag, config_samples(BOX3, 5))
    eps = PhaseMap.translation([0.3, 0.0, 0.0])
    samples = [PhasePoint([0.1, 0.2, 0.3], [0.0, 0.0, 0.0])]
    with pytest.raises(SectionImageError):
        type2_reduced(off, eps, sym, dist, ham, mag, samples)


def test_reduced_checks_raise_on_non_admissible_tangents():
    # on the surface at q1 = 0, but its q1-derivative leaves the admissible
    # subspace (the wiggle of the constrained-level guard test)
    _, sym, dist, ham, mag = reduced_test_system()
    amp, freq = 5e-9, 100.0
    wiggly = OneFormSection(
        lambda q: np.array([0.0, 0.0, amp * np.sin(freq * q[0])]),
        lambda q: np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                            [amp * freq * np.cos(freq * q[0]), 0.0, 0.0]]))
    with pytest.raises(SectionTangentError):
        type1_reduced(wiggly, sym, dist, ham, mag, [np.zeros(3)])


def _reduced_document(epsilon):
    """nh-magnetic-reduced with the phase map ``epsilon``."""
    doc = json.loads((SCENARIO_DIR / "nh-magnetic-reduced.json").read_text())
    doc["epsilon"] = epsilon
    return doc


NON_SYMPLECTIC = ["q1 + 0.3", "q2", "q3", "2*p1", "p2", "p3"]
NON_EQUIVARIANT = ["q1 + 0.3 + 0.01*q3", "q2", "q3", "p1", "p2", "p3"]


def _defects(report):
    assert report.verdict == "VACUOUS"
    return report.data["defects"]


@pytest.mark.parametrize("epsilon", [NON_SYMPLECTIC, NON_EQUIVARIANT])
def test_a_map_defect_is_vacuous_at_every_type2_level(epsilon):
    # both maps break the structure; the second also breaks equivariance,
    # which only the reduced level checks and names
    system = build_system(parse_scenario(json.dumps(_reduced_document(epsilon))))
    full = _defects(check_hj2(system, 20, 0))
    reduced = _defects(check_hj2(system, 20, 0, reduced=True))
    assert full == ["hypothesis: phase map is not structure preserving"]
    assert reduced[0].startswith("phase map is not structure preserving (")
    equivariance = [d for d in reduced if d.startswith("phase map is not translation "
                                                       "equivariant (")]
    assert len(equivariance) == (epsilon is NON_EQUIVARIANT)


def test_a_map_defect_is_vacuous_through_the_cli(tmp_path, capsys):
    path = tmp_path / "non-symplectic.json"
    path.write_text(json.dumps(_reduced_document(NON_SYMPLECTIC)))
    for flags in ([], ["--reduced"]):
        assert main(["check", "hj2", str(path), *flags]) == 0
        assert "VACUOUS" in capsys.readouterr().out


def test_data_varying_along_a_cyclic_coordinate_is_vacuous_at_both_reduced_checks(
        systems):
    # a mass (1.5 + sin q2) I keeps the section on the surface, but q2 is
    # cyclic; the scenario loader's probes reject such a document, so the
    # system is assembled in Python
    def mass_grad(q):
        grads = np.zeros((3, 3, 3))
        grads[1] = np.cos(q[1]) * np.eye(3)
        return grads

    ham = HamiltonianSpec.quadratic(3, mass_fn=lambda q: (1.5 + np.sin(q[1])) * np.eye(3),
                                    mass_grad_fn=mass_grad,
                                    potential_fn=lambda q: -0.08 * q[0] ** 2,
                                    potential_grad_fn=lambda q: np.array(
                                        [-0.16 * q[0], 0.0, 0.0]))
    system = dataclasses.replace(systems["nh-magnetic-reduced"], ham=ham)
    for check in (check_hj1, check_hj2):
        (defect,) = _defects(check(system, 20, 0, reduced=True))
        assert defect.startswith("system data varies along cyclic coordinates (")
