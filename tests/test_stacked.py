"""The package's orchestration against its per-sample reference.

Every check runs its stages on all its samples at once; a stage that
raises is rerun sample by sample, so a fault raises the error of the
first failing sample (linalg.located). tests/reference.py holds the
per-sample loops, and per_sample_only() swaps them in: the two
orchestrations must give the same report bytes, and on a fault the same
error, raised at the first failing sample under the same fault-order rule.
"""

import dataclasses
import inspect
import json
import sys
from collections import Counter
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as reference_loops
from conftest import SCENARIO_DIR
from reference import per_sample_only, swapped
from test_contract import scenarios
from magnomech import PhasePoint
from magnomech import geometry, linalg
from magnomech.cli import (
    _phase_points,
    _type2_samples,
    check_geometry,
    check_hj1,
    check_hj2,
    checks_for_system,
    geometry_check,
)
from magnomech.dynamics import HamiltonianSpec, MagneticStructure, PhaseMap
from magnomech.errors import (
    DegenerateFormError,
    MagnomechError,
    NumericalDomainError,
    OffConstraintError,
    SectionImageError,
    SectionTangentError,
)
from magnomech.geometry import OneFormSection, TwoFormField
from magnomech.hj import (
    type1_constrained,
    type1_magnetic,
    type2_constrained,
    type2_magnetic,
)
from magnomech.nonholonomic import ConstraintDistribution
from magnomech.reduction import relatedness_check, type1_reduced, type2_reduced
from magnomech.sampling import (
    config_samples,
    newton_preimages,
    phase_samples,
    surface_phase_samples,
)
from magnomech.scenarios import build_system, parse_scenario, reports_to_json

BOX3 = np.array([[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]])
SCENARIOS = sorted(path.stem for path in SCENARIO_DIR.glob("*.json"))


@contextmanager
def recording_reruns():
    """The stages located meanwhile: for each stage that raised on all its
    samples, the sample counts of its runs (all, then one at a time)."""
    located = linalg.located
    reruns = []

    def spy(count, stage):
        runs = []

        def watched(idx):
            runs.append(len(idx))
            return stage(idx)

        try:
            return located(count, watched)
        finally:
            if len(runs) > 1:
                reruns.append(runs)

    with swapped(located, spy):
        yield reruns


def _report_bytes(reports):
    for report in reports:
        report.wall_time_s = 0.0
    return reports_to_json(reports)


def _outcome(run):
    try:
        return run()
    except MagnomechError as err:
        return type(err), str(err)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(SCENARIOS), seed=st.integers(0, 2**16),
       count=st.integers(1, 60))
def test_stacked_checks_equal_the_per_sample_reference(systems, name, seed, count):
    """Geometry, the three Type I and the three Type II levels give the
    per-sample reports byte for byte, and no stage raises on the shipped
    scenarios."""
    system = systems[name]
    with recording_reruns() as reruns:
        produced = _report_bytes(checks_for_system(system, count, seed))
    assert reruns == []
    with per_sample_only():
        reference = _report_bytes(checks_for_system(system, count, seed))
    assert produced == reference


def _check_outcome(run):
    """A check's report as (check, verdict, data bytes), or its error."""
    try:
        with np.errstate(all="ignore"):
            report = run()
    except MagnomechError as err:
        return type(err), str(err)
    return report.check, report.verdict, json.dumps(report.data, sort_keys=True)


@settings(max_examples=60, deadline=None)
@given(doc=scenarios(), count=st.integers(1, 9), seed=st.integers(0, 3))
def test_stacked_checks_equal_the_reference_on_any_document(doc, count, seed):
    """Beyond the corpus: masses, general Hamiltonians, partials by central
    differences and faulting expressions. Every check of every document
    that builds gives the per-sample report or error."""
    try:
        with np.errstate(all="ignore"):
            system = build_system(parse_scenario(json.dumps(doc)))
    except MagnomechError:
        return
    runs = [lambda: check_geometry(system, count, seed)]
    if system.gamma is not None:
        runs += [lambda: check_hj1(system, count, seed),
                 lambda: check_hj1(system, count, seed, reduced=True)]
        if system.epsilon is not None:
            runs += [lambda: check_hj2(system, count, seed),
                     lambda: check_hj2(system, count, seed, reduced=True)]
    for run in runs:
        produced = _check_outcome(run)
        with per_sample_only():
            assert _check_outcome(run) == produced


def test_the_seven_checks_are_covered(systems):
    checks = {report.check for system in systems.values()
              for report in checks_for_system(system, 3, 0)}
    assert checks == {"geometry", "hj1-magnetic", "hj1-distributional", "hj1-reduced",
                      "hj2-magnetic", "hj2-distributional", "hj2-reduced"}


def _bad_points(qs, *indices):
    return {qs[i].tobytes() for i in indices}


def _section_fault(kind, bad):
    """The nh-magnetic-particle section (0.5 q2, 0, 0), broken at the base
    points in ``bad``: off the surface, or with tangents that leave the
    admissible subspace."""

    def value(q):
        out = np.array([0.5 * q[1], 0.0, 0.0])
        if kind == "image" and q.tobytes() in bad:
            out[2] = 1.0
        return out

    def jacobian(q):
        jac = np.zeros((3, 3))
        jac[0, 1] = 0.5
        if kind == "tangent" and q.tobytes() in bad:
            jac[2, 0] = 1.0
        return jac

    return OneFormSection(value, jacobian)


def _type1_fault(systems, kind):
    system = systems["nh-magnetic-particle"]
    qs = config_samples(BOX3, 8)
    section = _section_fault(kind, _bad_points(qs, 3, 6))
    return lambda: type1_constrained(section, system.dist, system.ham, system.mag, qs,
                                     tolerances=system.tolerances)


def _off_surface_fault(systems):
    system = systems["nh-magnetic-particle"]
    # a library caller's list of points: a PhaseStack takes no item assignment
    zs = list(_type2_samples(system, 8, 0))
    for i in (2, 5):
        zs[i] = PhasePoint(zs[i].q, zs[i].p + [0.0, 0.0, 1.0])
    return lambda: type2_constrained(system.gamma, system.epsilon, system.dist,
                                     system.ham, system.mag, zs,
                                     tolerances=system.tolerances)


def _structure_fault(systems):
    # with p = (0.5, 2, 1), this two-form leaves a dense-solve residual of
    # about 0.84, far above the structure guard
    qs = config_samples(BOX3, 8)
    bad = _bad_points(qs, 4, 7)
    huge = np.array([[0.0, -0.5, 1.0], [0.5, 0.0, 3.449e16], [-1.0, -3.449e16, 0.0]])

    def b_matrix(q):
        return huge if q.tobytes() in bad else np.zeros((3, 3))

    mag = MagneticStructure(TwoFormField.from_matrix_fn(
        b_matrix, 3, lambda q: np.zeros((3, 3, 3))))
    section = OneFormSection(lambda q: np.array([0.5, 2.0, 1.0]),
                             lambda q: np.zeros((3, 3)))
    return lambda: type1_magnetic(section, HamiltonianSpec.free(3), mag, qs)


FAULTS = {
    "section-image": (SectionImageError, lambda s: _type1_fault(s, "image")),
    "section-tangent": (SectionTangentError, lambda s: _type1_fault(s, "tangent")),
    "off-constraint": (OffConstraintError, _off_surface_fault),
    "structure-solve": (DegenerateFormError, _structure_fault),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_fault_raises_what_the_per_sample_run_raises(systems, fault):
    """The k-th of 8 samples (and a later one) fails a guard: the stage
    raises on all samples, and its rerun sample by sample raises the
    per-sample run's class and message, for the first failing sample."""
    error, make = FAULTS[fault]
    run = make(systems)
    with recording_reruns() as reruns:
        produced = _outcome(run)
    assert reruns
    with per_sample_only():
        reference = _outcome(run)
    assert produced == reference
    assert produced[0] is error


def _projection_fault(systems):
    """Surface samples whose mass matrix at two base points is so small that
    its inverse overflows: their projections come out NaN."""
    bad = _bad_points(config_samples(BOX3, 8), 3, 6)

    def mass(q):
        return np.diag([1e-320, 1.0, 1.0]) if q.tobytes() in bad else np.eye(3)

    ham = HamiltonianSpec.quadratic(3, mass_fn=mass,
                                    mass_grad_fn=lambda q: np.zeros((3, 3, 3)))
    dist = ConstraintDistribution.constant([[0.0, 1.0, 1.0]])
    return lambda: surface_phase_samples(dist, ham, BOX3, 8, np.random.default_rng(0))


def _section_target_fault(systems):
    """nh-magnetic-particle's Type II targets, with a section that is
    infinite at two of the section targets' base points."""
    system = systems["nh-magnetic-particle"]
    bad = _bad_points(config_samples(system.sample_box, 4), 1, 3)

    def value(q):
        return np.array([0.5 * q[1], 0.0, np.inf if q.tobytes() in bad else 0.0])

    gamma = OneFormSection(value, system.gamma.jacobian_fn)
    return lambda: _type2_samples(dataclasses.replace(system, gamma=gamma), 8, 0)


def _preimage_fault(systems):
    """Preimages under a translation whose Jacobian is subnormal at two
    targets: the first Newton step there overflows."""
    targets = phase_samples(BOX3, 8, np.random.default_rng(0))
    bad = {targets[i].vec.tobytes() for i in (3, 6)}
    shift = np.full(6, 0.3)

    def jacobian(vec):
        return np.eye(6) * (1e-320 if vec.tobytes() in bad else 1.0)

    return lambda: newton_preimages(PhaseMap(lambda vec: vec + shift, jacobian), targets)


PRODUCER_FAULTS = {
    "projection": (_projection_fault, "phase point has non-finite entries"),
    "section-target": (_section_target_fault, "one-form evaluation is non-finite"),
    "preimage": (_preimage_fault, "phase point has non-finite entries"),
}


@pytest.mark.parametrize("fault", sorted(PRODUCER_FAULTS))
def test_a_sample_producer_that_goes_non_finite_raises_the_per_sample_error(
        systems, fault):
    """A projection, a section target or a Newton preimage that is non-finite
    at two of the samples raises NumericalDomainError with the message the
    per-sample producers raise, on the package's path and under
    per_sample_only alike."""
    make, message = PRODUCER_FAULTS[fault]
    run = make(systems)
    with np.errstate(all="ignore"):
        produced = _outcome(run)
        with per_sample_only():
            reference = _outcome(run)
    assert produced == reference == (NumericalDomainError, message)


@pytest.mark.parametrize("name", ["nh-magnetic-reduced", "magnetic-hj"])
def test_the_stacked_path_wraps_no_sample(systems, name, monkeypatch):
    """One pass of every check over 50 samples makes no PhasePoint and
    checks no configuration point on its own: the samples stay one array
    from the draw to the verdict. (Per-point wrapping made 500 and 250 of
    them on these two scenarios; neither runs an in-band Type II
    refinement, as both have symbolic Jacobians, and a refinement wraps
    nothing either.)"""
    wrapped = Counter()
    post_init = PhasePoint.__post_init__
    ensure_config = geometry.ensure_config

    def made(self):
        wrapped["PhasePoint"] += 1
        post_init(self)

    def checked(*args):
        wrapped["ensure_config"] += 1
        return ensure_config(*args)

    monkeypatch.setattr(PhasePoint, "__post_init__", made)
    for module_name, module in list(sys.modules.items()):
        if (module_name.startswith("magnomech")
                and getattr(module, "ensure_config", None) is ensure_config):
            monkeypatch.setattr(module, "ensure_config", checked)
    with recording_reruns() as reruns:
        reports = checks_for_system(systems[name], 50, 0)
    assert reruns == []
    assert {report.verdict for report in reports} == {"PASS"}
    assert wrapped == Counter()


def test_first_failing_sample_is_named(systems):
    qs = config_samples(BOX3, 8)
    _, message = _outcome(_type1_fault(systems, "image"))
    assert f"q={qs[3]}" in message


def _late_and_early_type1(systems):
    """type1_constrained where sample 2 fails late, in the free field's
    structure solve (a |B| of about 1e16 there), and sample 5 early, at its
    section value (infinite there): the stack meets sample 5's fault
    first."""
    qs = config_samples(BOX3, 8)
    late, early = _bad_points(qs, 2), _bad_points(qs, 5)
    huge = np.array([[0.0, -0.5, 1.0], [0.5, 0.0, 3.449e16], [-1.0, -3.449e16, 0.0]])
    mag = MagneticStructure(TwoFormField.from_matrix_fn(
        lambda q: huge if q.tobytes() in late else np.zeros((3, 3)), 3,
        lambda q: np.zeros((3, 3, 3))))
    section = OneFormSection(
        lambda q: np.array([0.5, 2.0, np.inf if q.tobytes() in early else 0.0]),
        lambda q: np.zeros((3, 3)))
    dist = ConstraintDistribution.constant([[0.0, 0.0, 1.0]])
    return lambda: type1_constrained(section, dist, HamiltonianSpec.free(3), mag, qs)


def _late_and_early_type2(systems):
    """type2_constrained on nh-magnetic-particle where sample 2 fails late,
    at the pulled-back gradient (the map's Jacobian is NaN there), and
    samples 3 and 7, whose images share a base point, early, at the section
    hypotheses there (the section leaves the surface there)."""
    system = systems["nh-magnetic-particle"]
    zs = _type2_samples(system, 8, 0)
    images = system.epsilon.image(zs.vec)
    section = _section_fault("image", {images[3, :3].tobytes()})
    late = zs.vec[2].tobytes()

    def jacobian(vec):
        jac = system.epsilon.jacobian_fn(vec)
        return jac * np.nan if vec.tobytes() == late else jac

    eps = PhaseMap(system.epsilon.eval_fn, jacobian)
    return lambda: type2_constrained(section, eps, system.dist, system.ham, system.mag, zs,
                                     tolerances=system.tolerances)


def _geometry_run(system, mag, gamma, draw):
    qs = config_samples(system.sample_box, 8)
    return lambda: geometry_check(system.dist, system.ham, mag, gamma, None, None, qs,
                                  draw, system.tolerances)


def _off_surface_draw(system, index):
    zs = list(_phase_points(system, 8, 0))
    zs[index] = PhasePoint(zs[index].q, zs[index].p + [0.0, 0.0, 1.0])
    return lambda: zs


def _closedness_and_drawn(systems):
    """geometry on nh-magnetic-particle with B and its partials infinite
    near the sixth configuration sample, so that the closedness stage fails
    there, and a draw whose first point is off the surface, so that the
    compatibility stage would fail too."""
    system = systems["nh-magnetic-particle"]
    near = config_samples(system.sample_box, 8)[5]

    def infinite_near(shape):
        return lambda q: np.full(shape, np.inf if np.abs(q - near).max() < 1e-3 else 0.0)

    mag = MagneticStructure(TwoFormField.from_matrix_fn(
        infinite_near((3, 3)), 3, infinite_near((3, 3, 3))))
    return _geometry_run(system, mag, system.gamma, _off_surface_draw(system, 0))


def _compatibility_and_twist(systems):
    """geometry on nh-magnetic-particle whose drawn fourth point is off the
    surface (the compatibility stage fails there) and whose section has a
    NaN Jacobian at the second configuration sample (the later twist stage
    fails there)."""
    system = systems["nh-magnetic-particle"]
    bad = _bad_points(config_samples(system.sample_box, 8), 1)

    def jacobian(q):
        jac = system.gamma.jacobian_fn(q)
        return jac * np.nan if q.tobytes() in bad else jac

    gamma = OneFormSection(system.gamma.eval_fn, jacobian)
    return _geometry_run(system, system.mag, gamma, _off_surface_draw(system, 3))


FAULT_ORDER = {
    "type1-constrained": (_late_and_early_type1, DegenerateFormError,
                          "structure solve residual 5.590e-01 exceeds tolerance"),
    "type2-constrained": (_late_and_early_type2, NumericalDomainError,
                          "Hamiltonian gradient is non-finite"),
    "geometry-closedness-then-draw": (_closedness_and_drawn, NumericalDomainError,
                                      "two-form partials are non-finite"),
    "geometry-compatibility-then-twist": (_compatibility_and_twist, OffConstraintError,
                                          "constraint residual 1.000e+00 exceeds 1.0e-08"),
}


@pytest.mark.parametrize("case", sorted(FAULT_ORDER))
def test_two_samples_failing_at_different_stages(systems, case):
    """The fault-order rule of linalg.located, where two samples fail at
    different stages. Within a stage the first failing sample wins, at its
    own first failing step, although the stack meets the later sample's
    earlier step first: the type1 and type2 cases raise sample 2's late
    error, not the early error of a later sample. Across stages the earlier
    stage wins: the geometry check raises its closedness error before
    drawing, and its compatibility error (drawn sample 3) before its twist
    error (configuration sample 1). The reference loops raise the same."""
    make, error, message = FAULT_ORDER[case]
    run = make(systems)
    with np.errstate(all="ignore"):
        with recording_reruns() as reruns:
            produced = _outcome(run)
        with per_sample_only():
            assert _outcome(run) == produced
    assert reruns
    assert produced == (error, message)


def _vanishing_row():
    """The row (q1, 0, 0), which vanishes at q1 = 0."""
    grads = np.zeros((3, 1, 3))
    grads[0, 0, 0] = 1.0
    return ConstraintDistribution(3, 1, lambda q: np.array([[q[0], 0.0, 0.0]]),
                                  lambda q: grads)


def test_drawn_points_where_the_rows_lose_rank_fail_compatibility(systems):
    """The row (q1, 0, 0) loses rank at q1 = 0, the second Sobol point: the
    geometry check's compatibility stage diagnoses that point as
    compatibility_report does (dimensions -1, sigma 0.0) and the check
    FAILs, on both orchestrations, instead of raising."""
    system = systems["nh-magnetic-particle"]
    dist = _vanishing_row()
    qs = config_samples(system.sample_box, 4)
    zs = [PhasePoint(q, np.zeros(3)) for q in qs]

    def run():
        return geometry_check(dist, system.ham, system.mag, None, None, None, qs,
                              lambda: zs, system.tolerances)

    verdict, data = run()
    assert (verdict, data["dims"], data["sigma_min"]) == ("FAIL", [[-1, -1, -1], [5, 5, 4]],
                                                          0.0)
    with per_sample_only():
        assert run() == (verdict, data)


def test_a_drawn_frame_serves_only_its_own_system(systems):
    """A draw projected onto one system's constraint surface carries the
    frame that projected it. The geometry check of another distribution
    reads its own rows instead, on which the draw lies off the surface, on
    both orchestrations."""
    system = systems["nh-magnetic-particle"]
    dist = _vanishing_row()
    qs = config_samples(system.sample_box, 4)
    for path in (nullcontext, per_sample_only):
        with path():
            drawn = _phase_points(system, 4, 0)
            assert drawn.frame is not None
            geometry_check(system.dist, system.ham, system.mag, None, None, None, qs,
                           lambda: drawn, system.tolerances)
            with pytest.raises(OffConstraintError):
                geometry_check(dist, system.ham, system.mag, None, None, None, qs,
                               lambda: drawn, system.tolerances)


def _empty_checks(system, empty):
    """The seven checks of nh-magnetic-reduced on the empty sample set
    ``empty(width)``, and the geometry check on an empty draw."""
    s, n = system, system.n
    qs, zs = empty(n), empty(2 * n)

    def geometry(qs):
        return geometry_check(s.dist, s.ham, s.mag, s.gamma, s.epsilon, s.symmetry, qs,
                              lambda: zs, s.tolerances)

    return {
        "geometry": lambda: geometry(qs),
        "geometry-draw": lambda: geometry(config_samples(s.sample_box, 3)),
        "hj1-magnetic": lambda: type1_magnetic(s.gamma, s.ham, s.mag, qs, s.tolerances),
        "hj1-distributional": lambda: type1_constrained(s.gamma, s.dist, s.ham, s.mag, qs,
                                                        s.tolerances),
        "hj1-reduced": lambda: type1_reduced(s.gamma, s.symmetry, s.dist, s.ham, s.mag, qs,
                                             s.tolerances),
        "hj2-magnetic": lambda: type2_magnetic(s.gamma, s.epsilon, s.ham, s.mag, zs,
                                               s.tolerances),
        "hj2-distributional": lambda: type2_constrained(s.gamma, s.epsilon, s.dist, s.ham,
                                                        s.mag, zs, s.tolerances),
        "hj2-reduced": lambda: type2_reduced(s.gamma, s.epsilon, s.symmetry, s.dist, s.ham,
                                             s.mag, zs, s.tolerances),
    }


@pytest.mark.parametrize("empty", [lambda width: [], lambda width: np.zeros((0, width))],
                         ids=["list", "array"])
@pytest.mark.parametrize("check", ["geometry", "geometry-draw", "hj1-magnetic",
                                   "hj1-distributional", "hj1-reduced", "hj2-magnetic",
                                   "hj2-distributional", "hj2-reduced"])
def test_an_empty_sample_set(systems, check, empty):
    """On no samples each Type I and Type II check passes, with no rows and
    worst residuals 0.0, on both orchestrations; the geometry check, whose
    maxima have no value there, raises NumericalDomainError, on no
    configuration samples and on an empty draw alike."""
    run = _empty_checks(systems["nh-magnetic-reduced"], empty)[check]
    residuals = ({"equation_residual": 0.0} if check.startswith("hj1")
                 else {"residual_a": [], "residual_b": []})
    for path in (nullcontext, per_sample_only):
        with path():
            if check.startswith("geometry"):
                with pytest.raises(NumericalDomainError, match="at least one sample"):
                    run()
                continue
            report = run()
        assert report.check == check
        assert report.as_dict() == {"verdict": "PASS", "hypothesis_residual": 0.0,
                                    "defects": [], "per_sample": [], **residuals}


@pytest.mark.parametrize("error", [NumericalDomainError("the stack fails"),
                                   np.linalg.LinAlgError("the stack fails")])
def test_a_stage_that_fails_only_as_a_stack_raises_its_own_error(error):
    """The fault-order rule's last clause: when no sample raises alone, the
    stage's own error propagates, after one run per sample."""
    runs = []

    def stage(idx):
        runs.append(idx.tolist())
        if len(idx) > 1:
            raise error
        return idx

    with pytest.raises(type(error), match="the stack fails"):
        linalg.located(3, stage)
    assert runs == [[0, 1, 2], [0], [1], [2]]


def test_each_entry_point_has_exactly_one_reference():
    """per_sample_only() swaps each staged entry of reference.STAGED, the
    private ``_<loop>`` of its module, for its loop in tests/reference.py;
    an entry without a loop would be compared with itself, and a loop
    without an entry would test nothing. The helpers that only the tests
    call are no loops."""
    loops = sorted(name for name, fn in vars(reference_loops).items()
                   if inspect.isfunction(fn) and fn.__module__ == reference_loops.__name__
                   and not name.startswith("_")
                   and name not in ("per_sample_only", "swapped")
                   and name not in reference_loops.HELPERS)
    staged = reference_loops.STAGED
    assert sorted(loop.__name__ for loop in staged.values()) == loops
    assert [fn.__name__ for fn in staged] == [f"_{loop.__name__}" for loop in staged.values()]

    def bound():
        return [getattr(sys.modules[fn.__module__], fn.__name__) for fn in staged]

    assert bound() == list(staged)
    with per_sample_only():
        assert bound() == list(staged.values())
    assert bound() == list(staged)


RANK_MIX = {
    "name": "rank-mix",
    "description": "The row (1, -q1, q1) meets the cyclic directions q2, q3 "
                   "in a line except at q1 = 0, so the vertical subspace "
                   "there has one more dimension.",
    "n": 3,
    "potential": "-0.1*q1^2",
    "constraints": [["1", "-q1", "q1"]],
    "gamma": ["0", "0", "0"],
    "epsilon": ["q1", "q2 + 0.3", "q3", "p1", "p2", "p3"],
    "symmetry": [2, 3],
    "sample_box": [[-1, 1], [-1, 1], [-1, 1]],
}


def test_samples_of_one_check_split_by_rank():
    """The second Sobol point has q1 = 0, where the vertical and descent
    subspaces are one dimension larger than at the other samples; the
    stacked reduced checks run the two groups apart and give the
    per-sample reports byte for byte."""
    system = build_system(parse_scenario(json.dumps(RANK_MIX)))
    groups = []
    by_rank = linalg.by_rank

    def spy(count, pipeline):
        sizes = []
        result = by_rank(count, lambda idx: (pipeline(idx), sizes.append(len(idx)))[0])
        groups.append(sorted(sizes))
        return result

    with swapped(by_rank, spy), recording_reruns() as reruns:
        produced = _report_bytes(checks_for_system(system, 8, 0))
    assert reruns == []
    assert [7, 1] in [sorted(sizes, reverse=True) for sizes in groups]
    with per_sample_only():
        reference = _report_bytes(checks_for_system(system, 8, 0))
    assert produced == reference


def _with_configs(run):
    return lambda s, samples: run(s, samples(config_samples(s.sample_box, 8)))


def _with_phases(run):
    return lambda s, samples: run(s, samples(_type2_samples(s, 8, 0)))


def _with_surface_points(run):
    return lambda s, samples: run(s, samples(_phase_points(s, 8, 0)))


ONE_PASS = {
    "type1_magnetic": ("magnetic-hj", _with_configs(
        lambda s, qs: type1_magnetic(s.gamma, s.ham, s.mag, qs, s.tolerances))),
    "type1_constrained": ("nh-magnetic-reduced", _with_configs(
        lambda s, qs: type1_constrained(s.gamma, s.dist, s.ham, s.mag, qs, s.tolerances))),
    "type1_reduced": ("nh-magnetic-reduced", _with_configs(
        lambda s, qs: type1_reduced(s.gamma, s.symmetry, s.dist, s.ham, s.mag, qs,
                                    s.tolerances))),
    "type2_magnetic": ("magnetic-hj", _with_phases(
        lambda s, zs: type2_magnetic(s.gamma, s.epsilon, s.ham, s.mag, zs, s.tolerances))),
    "type2_constrained": ("nh-magnetic-reduced", _with_phases(
        lambda s, zs: type2_constrained(s.gamma, s.epsilon, s.dist, s.ham, s.mag, zs,
                                        s.tolerances))),
    "type2_reduced": ("nh-magnetic-reduced", _with_phases(
        lambda s, zs: type2_reduced(s.gamma, s.epsilon, s.symmetry, s.dist, s.ham, s.mag,
                                    zs, s.tolerances))),
    "relatedness_check": ("nh-magnetic-reduced", _with_surface_points(
        lambda s, zs: relatedness_check(s.symmetry, s.dist, s.ham, s.mag, zs,
                                        s.tolerances))),
    "geometry_check": ("nh-magnetic-reduced", _with_configs(
        lambda s, qs: geometry_check(s.dist, s.ham, s.mag, s.gamma, s.epsilon, s.symmetry,
                                     qs, lambda: _phase_points(s, 8, 0), s.tolerances))),
}


@pytest.mark.parametrize("check", sorted(ONE_PASS))
def test_a_one_pass_iterator_gives_the_list_report(systems, check):
    """Each check reads its samples once, so an iterator over the samples
    gives the report that the list gives."""
    name, run = ONE_PASS[check]
    system = systems[name]

    def report(samples):
        out = run(system, samples)
        return json.dumps(out.as_dict() if hasattr(out, "as_dict") else out,
                          sort_keys=True)

    produced = report(list)
    assert '"per_sample": []' not in produced
    assert report(iter) == produced


# -- threshold edges -----------------------------------------------------------
# A verdict flips exactly where its comparison rule says: with the override
# set to the check's own residual r and to r (1 +- 2^-20), a threshold moved
# by any factor, or a strict comparison turned non-strict, changes a verdict.

EDGE = 2.0 ** -20


def _system_with(doc, **overrides):
    doc = dict(doc, tolerances={**doc.get("tolerances", {}), **overrides})
    return build_system(parse_scenario(json.dumps(doc)))


def _geometry_with(doc, **overrides):
    return check_geometry(_system_with(doc, **overrides), 50, 0)


def test_the_related_threshold_passes_strictly_below_it():
    """Relatedness PASSes iff its residual < related."""
    doc = json.loads((SCENARIO_DIR / "nh-magnetic-particle.json").read_text())
    r = _geometry_with(doc).data["relatedness_residual"]
    assert r > 0
    assert [_geometry_with(doc, related=r * f).data["relatedness_verdict"]
            for f in (1 - EDGE, 1, 1 + EDGE)] == ["FAIL", "FAIL", "PASS"]


def test_the_closedness_threshold_fails_strictly_above_it():
    """The geometry check FAILs iff the closedness residual > closedness;
    the two-form q3 dq1 ^ dq2 is not closed, and nothing else is checked."""
    doc = {"name": "open-form", "n": 3,
           "b_field": [[0, "q3", 0], ["-(q3)", 0, 0], [0, 0, 0]]}
    r = _geometry_with(doc).data["b_closedness_residual"]
    assert r > 0
    assert [_geometry_with(doc, closedness=r * f).verdict
            for f in (1 - EDGE, 1, 1 + EDGE)] == ["FAIL", "PASS", "PASS"]


def test_the_equation_threshold_passes_strictly_below_it():
    """hj1-magnetic PASSes iff its worst equation residual < equation; the
    section of magnetic-hj with a potential term it does not match leaves
    the hypothesis exact and the equation residual 0.1."""
    doc = json.loads((SCENARIO_DIR / "magnetic-hj.json").read_text())
    doc["potential"] += " + 0.05*q1^2"
    report = check_hj1(_system_with(doc), 50, 0)
    r = report.data["equation_residual"]
    assert r > 0 and report.data["hypothesis_residual"] == 0.0
    assert [check_hj1(_system_with(doc, equation=r * f), 50, 0).verdict
            for f in (1 - EDGE, 1, 1 + EDGE)] == ["FAIL", "FAIL", "PASS"]


@pytest.mark.parametrize("name,reduced", [("nh-magnetic-particle", False),
                                          ("nh-magnetic-reduced", True)])
def test_the_status_threshold_is_zero_strictly_below_it(name, reduced):
    """A Type II residual has the zero status iff it is < status. The worst
    residual r of these 8 samples is a residual b whose residual a is
    smaller, every other residual lies below r (1 - 2^-20), and the
    statuses of the other samples agree on either side of r: the check
    PASSes iff status is above r."""
    doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    rows = check_hj2(_system_with(doc), 8, 0, reduced=reduced).data["per_sample"]
    r = max(max(row["residual_a"], row["residual_b"]) for row in rows)
    assert r > 0 and any(row["residual_b"] == r > row["residual_a"] for row in rows)
    assert [check_hj2(_system_with(doc, status=r * f), 8, 0, reduced=reduced).verdict
            for f in (1 - EDGE, 1, 1 + EDGE)] == ["FAIL", "FAIL", "PASS"]
