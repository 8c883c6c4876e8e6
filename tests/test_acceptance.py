"""Acceptance suite: every release criterion as one test with one verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; each test also enforces its stated tolerance and time budget.
"""

import json
import time
from pathlib import Path

import numpy as np

from magnomech import PhasePoint, build_system, integrate, parse_scenario
from magnomech.cli import main
from magnomech.dynamics import (
    HamiltonianSpec,
    MagneticStructure,
    coordinate_formula_field,
    magnetic_vector_field,
)
from magnomech.geometry import OneFormSection, TwoFormField, exterior_derivative
from magnomech.hj import type1_constrained, type1_magnetic, type2_constrained
from magnomech.integrate import halving_errors, halving_ratio
from magnomech.nonholonomic import (
    ConstraintDistribution,
    constrained_field_multiplier,
    constrained_field_restricted,
)
from magnomech.reduction import (
    reduced_field,
    relatedness_residual,
    type1_reduced,
    type2_level_agreement,
)
from magnomech.sampling import (
    config_samples,
    newton_preimage,
    phase_samples,
    surface_phase_samples,
)
from magnomech.scenarios import construct_induced_scenario
from conftest import matched_linear_section, random_antisymmetric
from reference import lift_point, project_point

MAGNETIC = ("charged-particle", "magnetic-hj", "magnetic-trap")
CONSTRAINED = ("nh-free-particle", "nh-magnetic-particle", "nh-magnetic-reduced")
REDUCED = ("nh-magnetic-particle", "nh-magnetic-reduced")
GOLDEN = Path(__file__).resolve().parent / "data" / "golden" / "check_all.json"


class Clock:
    def __init__(self, budget):
        self.budget = budget
        self.start = time.perf_counter()

    def done(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, (
            f"runtime {elapsed:.1f}s exceeded budget {self.budget}s")
        return elapsed


def conclude(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_formula_matches_solve(systems):
    clock = Clock(5.0)
    rng = np.random.default_rng(100)
    worst = 0.0
    for name in MAGNETIC:
        system = systems[name]
        for z in phase_samples(system.sample_box, 100, rng):
            a = magnetic_vector_field(system.ham, system.mag, z).vec
            b = coordinate_formula_field(system.ham, system.mag, z).vec
            worst = max(worst, float(np.max(np.abs(a - b))))
    elapsed = clock.done()
    conclude(1, worst < 1e-9,
             f"closed form vs dense solve, max diff {worst:.2e} "
             f"over 3 scenarios x 100 points ({elapsed:.2f}s)")


def test_criterion_2_pairing_identities():
    clock = Clock(10.0)
    rng = np.random.default_rng(200)
    n = 3
    worst = 0.0
    for _ in range(5):
        lin = rng.normal(size=(n, n))
        quad = rng.normal(size=(n, n, n))

        def eval_fn(q, lin=lin, quad=quad):
            return lin @ q + np.array([q @ quad[i] @ q for i in range(n)])

        def jac_fn(q, lin=lin, quad=quad):
            return lin + np.array([(quad[i] + quad[i].T) @ q for i in range(n)])

        section = OneFormSection(eval_fn, jac_fn)
        fields = [np.zeros((n, n)), random_antisymmetric(rng, n)]
        for b in fields:
            mag = MagneticStructure(TwoFormField.constant(b))
            for _ in range(50):
                z = PhasePoint(rng.normal(size=n), rng.normal(size=n))
                v = rng.normal(size=2 * n)
                w = rng.normal(size=2 * n)
                jac = section.jacobian(z.q)
                lam_v = np.concatenate([v[:n], jac @ v[:n]])
                lam_w = np.concatenate([w[:n], jac @ w[:n]])
                twist = float(
                    v[:n] @ (exterior_derivative(section, z.q) + b) @ w[:n])
                first = mag.pairing(z.q, lam_v, lam_w) + twist
                second = (mag.pairing(z.q, lam_v, w)
                          - mag.pairing(z.q, v, w - lam_w) + twist)
                worst = max(worst, abs(first), abs(second))
    elapsed = clock.done()
    conclude(2, worst < 1e-8,
             f"pullback pairing identities, max defect {worst:.2e} over "
             f"5 sections x 2 fields x 50 pairs ({elapsed:.2f}s)")


def test_criterion_3_type1_constructions():
    clock = Clock(10.0)
    rng = np.random.default_rng(300)
    box = np.array([[-1.0, 1.0]] * 3)
    samples = config_samples(box, 50)
    worst_hyp = 0.0
    worst_eq = 0.0
    for _ in range(10):
        section, ham, mag = matched_linear_section(
            random_antisymmetric(rng, 3), offset=rng.normal(size=3))
        report = type1_magnetic(section, ham, mag, samples)
        worst_hyp = max(worst_hyp, report.hypothesis_residual)
        worst_eq = max(worst_eq, report.equation_residual)
        assert report.verdict == "PASS"
    vacuous = 0
    for _ in range(10):
        _, ham, mag = matched_linear_section(random_antisymmetric(rng, 3))
        stray = OneFormSection.linear(rng.normal(size=(3, 3)))
        if type1_magnetic(stray, ham, mag, samples).verdict == "VACUOUS":
            vacuous += 1
    elapsed = clock.done()
    conclude(3, worst_hyp < 1e-12 and worst_eq < 1e-7 and vacuous == 10,
             f"matched linear sections solve Type I (hyp {worst_hyp:.1e}, "
             f"eq {worst_eq:.1e}); 10/10 mismatched sections VACUOUS "
             f"({elapsed:.2f}s)")


def _random_polynomial_expr(rng):
    terms = [f"{rng.normal():.6f}", f"{rng.normal():.6f}*q1",
             f"{rng.normal():.6f}*q2", f"{rng.normal():.6f}*q1*q2",
             f"{rng.normal():.6f}*q1^2", f"{rng.normal():.6f}*q2^2"]
    return " + ".join(terms)


def test_criterion_4_construct_b_end_to_end():
    clock = Clock(20.0)
    rng = np.random.default_rng(400)
    passes = 0
    for index in range(20):
        doc = {
            "name": f"random-{index}", "n": 2,
            "gamma": [_random_polynomial_expr(rng),
                      _random_polynomial_expr(rng)],
        }
        spec = parse_scenario(json.dumps(doc))
        _, system = construct_induced_scenario(spec)
        report = type1_magnetic(system.gamma, system.ham, system.mag,
                                config_samples(system.sample_box, 50))
        passes += report.verdict == "PASS"
    elapsed = clock.done()
    conclude(4, passes == 20,
             f"induced-field construction gives Type I PASS {passes}/20 "
             f"({elapsed:.2f}s)")


def test_criterion_5_two_method_equivalence(systems):
    clock = Clock(10.0)
    rng = np.random.default_rng(500)
    worst = 0.0
    for name in CONSTRAINED:
        system = systems[name]
        points = surface_phase_samples(system.dist, system.ham,
                                       system.sample_box, 100, rng)
        for z in points:
            a = constrained_field_restricted(
                system.dist, system.ham, system.mag, z).vector.vec
            b = constrained_field_multiplier(
                system.dist, system.ham, system.mag, z).vector.vec
            worst = max(worst, float(np.max(np.abs(a - b))))
    elapsed = clock.done()
    conclude(5, worst < 1e-9,
             f"restricted solve vs multipliers, max diff {worst:.2e} over "
             f"3 scenarios x 100 surface points ({elapsed:.2f}s)")


def _conservation_numbers(system):
    kind = "distributional" if system.constrained else "magnetic"
    trajectory = integrate(system.ham, system.mag, system.initial_state,
                           10.0, 1e-3, dist=system.dist, kind=kind)
    assert not trajectory.aborted
    ratio = halving_ratio(system.ham, system.mag, system.initial_state,
                          2.0, 0.05, dist=system.dist, kind=kind)
    return (trajectory.energy_drift(),
            float(np.max(trajectory.constraint_residuals)), ratio)


def test_criterion_6_conservation(systems):
    rows = []
    ok = True
    for name, system in systems.items():
        drift, residual, ratio = _conservation_numbers(system)
        good = drift < 1e-6 and residual < 1e-8 and 12.0 <= ratio <= 20.0
        ok = ok and good
        rows.append(f"{name}: dH {drift:.1e}, c {residual:.1e}, ratio {ratio:.1f}")
    conclude(6, ok, "energy/constraint conservation and 4th-order ratio on "
             "every scenario [" + "; ".join(rows) + "]")


def _type2_sample_points(system, count, seed):
    rng = np.random.default_rng(seed)
    half = count // 2
    targets = [PhasePoint(q, system.gamma.value(q))
               for q in config_samples(system.sample_box, half)]
    if system.constrained:
        targets += surface_phase_samples(system.dist, system.ham,
                                         system.sample_box, count - half, rng)
    else:
        targets += phase_samples(system.sample_box, count - half, rng)
    return [newton_preimage(system.epsilon, w) for w in targets]


def test_criterion_7_constrained_hj(systems):
    system = systems["nh-magnetic-particle"]
    qs = config_samples(system.sample_box, 50)
    one = type1_constrained(system.gamma, system.dist, system.ham, system.mag,
                            qs, tolerances=system.tolerances)
    zs = _type2_sample_points(system, 20, 700)
    two = type2_constrained(system.gamma, system.epsilon, system.dist,
                            system.ham, system.mag, zs,
                            tolerances=system.tolerances)
    agree = all(row["status_a"] == row["status_b"] for row in two.per_sample)
    conclude(7, one.verdict == "PASS" and one.equation_residual < 1e-7
             and two.verdict == "PASS" and agree,
             f"constrained Type I residual {one.equation_residual:.2e}, "
             f"Type II statuses agree at {len(two.per_sample)} samples")


def test_criterion_8_reduction(systems):
    clock = Clock(30.0)
    ok = True
    details = []
    rng = np.random.default_rng(800)
    for name in REDUCED:
        system = systems[name]
        sym = system.symmetry
        points = surface_phase_samples(system.dist, system.ham,
                                       system.sample_box, 20, rng)
        lift_worst = 0.0
        for z in points[:5]:
            zbar = project_point(sym, z)
            values = []
            energies = []
            for _ in range(2):
                lift = lift_point(sym, zbar, fill=rng.normal(size=sym.m))
                vec, frame = reduced_field(sym, system.dist, system.ham,
                                           system.mag, lift)
                values.append((vec, frame.omega))
                energies.append(system.ham.value(lift_point(sym, zbar)))
            lift_worst = max(
                lift_worst,
                float(np.max(np.abs(values[0][0] - values[1][0]))),
                float(np.max(np.abs(values[0][1] - values[1][1]))),
                abs(energies[0] - energies[1]))
        related = relatedness_residual(sym, system.dist, system.ham,
                                       system.mag, points,
                                       tolerances=system.tolerances)
        one = type1_reduced(system.gamma, sym, system.dist, system.ham,
                            system.mag, config_samples(system.sample_box, 30),
                            tolerances=system.tolerances)
        zs = _type2_sample_points(system, 12, 801)
        full, reduced, agree = type2_level_agreement(
            system.gamma, system.epsilon, sym, system.dist, system.ham,
            system.mag, zs, tolerances=system.tolerances)
        good = (lift_worst < 1e-10 and related < 1e-8
                and one.verdict == "PASS" and full.verdict == "PASS"
                and reduced.verdict == "PASS" and agree)
        ok = ok and good
        details.append(f"{name}: lift {lift_worst:.1e}, related {related:.1e}, "
                       f"Type I {one.verdict}, level agreement {agree}")
    elapsed = clock.done()
    conclude(8, ok, "; ".join(details) + f" ({elapsed:.1f}s)")


def _canonical_conservation(system):
    """Conservation rerun accepting exactly-integrated straight lines.

    Some scenarios degenerate to motions the integrator represents exactly
    once the two-form is removed; there the halving errors sit at roundoff
    and the order ratio carries no information.
    """
    kind = "distributional" if system.constrained else "magnetic"
    trajectory = integrate(system.ham, system.mag, system.initial_state,
                           10.0, 1e-3, dist=system.dist, kind=kind)
    coarse, fine = halving_errors(system.ham, system.mag,
                                  system.initial_state, 2.0, 0.05,
                                  dist=system.dist, kind=kind)
    order_ok = coarse < 1e-12 or (fine > 0 and 12.0 <= coarse / fine <= 20.0)
    return (not trajectory.aborted and trajectory.energy_drift() < 1e-6
            and float(np.max(trajectory.constraint_residuals)) < 1e-8
            and order_ok)


def _without_field(spec):
    raw = spec.to_dict()
    raw.pop("b_field", None)
    return build_system(parse_scenario(json.dumps(raw)))


def _without_constraints(spec):
    raw = spec.to_dict()
    raw.pop("constraints", None)
    raw.pop("symmetry", None)
    return build_system(parse_scenario(json.dumps(raw)))


def test_criterion_9_degeneration_chain(systems):
    rng = np.random.default_rng(900)
    ok = True
    details = []

    # dropping the two-form must reproduce canonical dynamics everywhere
    canonical_worst = 0.0
    for name, system in systems.items():
        plain = _without_field(system.spec)
        for z in phase_samples(plain.sample_box, 20, rng):
            grad = plain.ham.gradient(z)
            n = plain.n
            canonical = np.concatenate([grad[n:], -grad[:n]])
            got = magnetic_vector_field(plain.ham, plain.mag, z).vec
            canonical_worst = max(canonical_worst,
                                  float(np.max(np.abs(got - canonical))))
        ok = ok and _canonical_conservation(plain)
    details.append(f"canonical field diff {canonical_worst:.1e}")
    ok = ok and canonical_worst < 1e-12

    # the classical generating-function situation passes Type I
    matrix = rng.normal(size=(3, 3))
    symmetric = matrix + matrix.T
    section = OneFormSection.linear(symmetric)
    ham = HamiltonianSpec.quadratic(
        3, potential_fn=lambda q: -0.5 * float((symmetric @ q) @ (symmetric @ q)),
        potential_grad_fn=lambda q: -symmetric.T @ (symmetric @ q))
    mag = MagneticStructure.canonical(3)
    box = np.array([[-1.0, 1.0]] * 3)
    classical = type1_magnetic(section, ham, mag, config_samples(box, 30))
    ok = ok and classical.verdict == "PASS"
    details.append(f"classical Type I {classical.verdict}")

    # B-zeroed reruns of the shipped section checks stay green (PASS when
    # the hypothesis survives, VACUOUS otherwise, never FAIL)
    for name in ("nh-free-particle", "nh-magnetic-particle",
                 "nh-magnetic-reduced", "magnetic-hj", "broken-gamma"):
        plain = _without_field(systems[name].spec)
        qs = config_samples(plain.sample_box, 15)
        if plain.constrained:
            report = type1_constrained(plain.gamma, plain.dist, plain.ham,
                                       plain.mag, qs)
        else:
            report = type1_magnetic(plain.gamma, plain.ham, plain.mag, qs)
        ok = ok and report.verdict in ("PASS", "VACUOUS")

    # dropping the constraints collapses the constrained machinery onto the
    # free machinery bit for bit (well below solver tolerance)
    collapse_worst = 0.0
    for name in CONSTRAINED:
        system = systems[name]
        plain = _without_constraints(system.spec)
        free_dist = ConstraintDistribution.unconstrained(plain.n)
        for z in phase_samples(plain.sample_box, 20, rng):
            free = magnetic_vector_field(plain.ham, plain.mag, z).vec
            viaK = constrained_field_restricted(
                free_dist, plain.ham, plain.mag, z).vector.vec
            viaL = constrained_field_multiplier(
                free_dist, plain.ham, plain.mag, z).vector.vec
            collapse_worst = max(collapse_worst,
                                 float(np.max(np.abs(viaK - free))),
                                 float(np.max(np.abs(viaL - free))))
        qs = config_samples(plain.sample_box, 10)
        if plain.gamma is not None:
            through_k = type1_constrained(plain.gamma, free_dist, plain.ham,
                                          plain.mag, qs)
            direct = type1_magnetic(plain.gamma, plain.ham, plain.mag, qs)
            ok = ok and through_k.verdict == direct.verdict
            if through_k.equation_residual is not None:
                collapse_worst = max(collapse_worst, abs(
                    through_k.equation_residual - direct.equation_residual))
    ok = ok and collapse_worst < 1e-12
    details.append(f"unconstrained collapse diff {collapse_worst:.1e}")

    conclude(9, ok, "degeneration chain [" + "; ".join(details) + "]")


def test_criterion_10_cli_contract(scenario_dir, tmp_path):
    out = tmp_path / "report.json"
    code = main(["check", "all", str(scenario_dir), "--report", str(out),
                 "--seed", "0"])
    produced = json.loads(out.read_text())
    golden = json.loads(GOLDEN.read_text())
    for payload in (produced, golden):
        for report in payload["reports"]:
            report["wall_time_s"] = 0.0
    same_shape = (json.dumps(produced, sort_keys=True)
                  == json.dumps(golden, sort_keys=True))
    conclude(10, code == 0 and same_shape,
             f"check-all exit {code}, report matches golden modulo wall time")
