"""The per-sample reference orchestration of every check.

Each function here computes what the entry point of the same name in
``magnomech.stacked`` computes, one sample at a time, through the same
kernels called on single points. It is the test oracle of the package's
one orchestration, kept beside the code under test as differential
testing keeps an independent reference (McKeeman, "Differential Testing
for Software", DTJ 10(1), 1998): ``per_sample_only()`` swaps these loops
in for the entry points, and the goldens, the read counts and the
differential tests compare the two.

The loops follow the package's fault-order rule (``stacked.located``):
the samples are validated first; then each stage runs sample by sample,
every sample taking the stage's steps in the entry point's order, so a
fault raises the error of the first failing sample, at its first failing
step, and an earlier stage's fault comes first. The stages end where the
entry points' stages end: at the reduced checks' hypothesis battery, at
the relatedness gate and at each branch of the geometry check.
"""

from contextlib import contextmanager

import numpy as np

from magnomech import stacked
from magnomech.dynamics import pullback_defect, symplectic_residual
from magnomech.geometry import (
    PhaseStack,
    ensure_config,
    magnetic_match_residual,
    two_form_closedness_residual,
)
from magnomech.hj import (
    DISTRIBUTIONAL_ROW,
    MAGNETIC_ROW,
    _type2_residuals,
    constrained_level,
    distributional_rows,
    magnetic_level,
    magnetic_rows,
    rows_of,
    section_hypotheses,
    twist_on_distribution,
)
from magnomech.linalg import worst
from magnomech.nonholonomic import compatibility, project_to_constraint, surface_frame
from magnomech.reduction import (
    REDUCED_ROW,
    data_invariance_residual,
    map_defects,
    map_equivariance_residual,
    reduced_defects,
    reduced_equation,
    reduced_level,
    related_verdict,
    relatedness,
    section_invariance_residual,
)
from magnomech.sampling import newton_preimage


def _stack(points):
    """The PhaseStack of a list of PhasePoints."""
    return PhaseStack(np.array([z.vec for z in points]) if points else np.zeros((0, 0)))


def _residuals(section, ham, mag, z, image, jac, level):
    """The two Type II residuals at one sample, as floats."""
    return tuple(float(r) for r in _type2_residuals(section, ham, mag, z.vec, image.vec,
                                                    jac, level))


def _columns(first, width):
    """The columns of the per-sample tuples ``first`` of ``width`` values."""
    return tuple(map(list, zip(*first))) if first else ([],) * width


def _battery(section, sym, frame, mag, tolerances):
    """The reduced hypothesis battery at the frame's one base point:
    (gamma, data invariance, section invariance, twist)."""
    q = frame.terms.q
    g = section.value(q)
    return (g,
            data_invariance_residual(sym, frame.dist, frame.terms.ham, mag, q, g, frame),
            section_invariance_residual(sym, section, q, g),
            twist_on_distribution(section, frame, g, mag, tolerances)[3])


def _battery_verdict(batteries, tolerances):
    """(worst twist residual, defects, gamma at each sample) of the
    per-sample batteries."""
    invariance, section_invariance, twist = (
        worst([battery[part] for battery in batteries]) for part in (1, 2, 3))
    return (twist, reduced_defects(invariance, section_invariance, twist, tolerances),
            [battery[0] for battery in batteries])


def type1_magnetic(section, ham, mag, samples):
    rows = []
    for q in [ensure_config(q, ham.n) for q in samples]:
        rows += rows_of(MAGNETIC_ROW, q, *magnetic_rows(section, ham, mag, q))
    return rows


def type1_constrained(section, dist, ham, mag, samples, tolerances):
    rows = []
    for q in [ensure_config(q, dist.n) for q in samples]:
        rows += rows_of(DISTRIBUTIONAL_ROW, q, *distributional_rows(
            section, dist, ham, mag, q, tolerances))
    return rows


def type1_reduced(section, sym, dist, ham, mag, samples, tolerances):
    qs = [ensure_config(q, sym.n) for q in samples]
    frames = [surface_frame(dist, ham, q) for q in qs]
    twist, defects, gs = _battery_verdict(
        [_battery(section, sym, frame, mag, tolerances) for frame in frames], tolerances)
    if defects:
        return twist, defects, None
    rows = []
    for q, g, frame in zip(qs, gs, frames):
        rows += rows_of(REDUCED_ROW, q, reduced_equation(section, sym, frame, ham, mag, g,
                                                          tolerances))
    return twist, defects, rows


def type2_magnetic(section, phase_map, ham, mag, samples):
    first = []
    for z in samples:
        # in symplectic_residual's order: J_eps(z), then eps(z)
        jac = phase_map.jacobian(z)
        image = phase_map.value(z)
        first.append((float(pullback_defect(mag, z.q, image.q, jac)),
                      *_residuals(section, ham, mag, z, image, jac, magnetic_level)))
    return _columns(first, 3)


def type2_constrained(section, phase_map, dist, ham, mag, samples, tolerances):
    first = []
    for z in samples:
        image = phase_map.value(z)
        frame = surface_frame(dist, ham, image.q)
        section_hypotheses(section, frame, section.value(image.q), tolerances)
        jac = phase_map.jacobian(z)
        first.append((float(pullback_defect(mag, z.q, image.q, jac)),
                      *_residuals(section, ham, mag, z, image, jac,
                                  constrained_level(frame, tolerances))))
    return _columns(first, 3)


def type2_reduced(section, phase_map, sym, dist, ham, mag, samples, tolerances):
    samples = list(samples)
    images, frames, jacs, batteries, symplectic, equivariance = [], [], [], [], [], []
    for z in samples:
        images.append(phase_map.value(z))
        frames.append(surface_frame(dist, ham, images[-1].q))
        batteries.append(_battery(section, sym, frames[-1], mag, tolerances))
        jacs.append(phase_map.jacobian(z))
        symplectic.append(pullback_defect(mag, z.q, images[-1].q, jacs[-1]))
        equivariance.append(map_equivariance_residual(sym, phase_map, z.vec,
                                                      images[-1].vec))
    twist, defects, _ = _battery_verdict(batteries, tolerances)
    symp_worst = worst(symplectic)
    defects += map_defects(symp_worst, worst(equivariance), tolerances)
    if defects:
        return twist, symp_worst, defects, None
    return twist, symp_worst, defects, (None, *_columns([
        _residuals(section, ham, mag, z, image, jac,
                   reduced_level(sym, frame, mag, tolerances))
        for z, image, jac, frame in zip(samples, images, jacs, frames)], 2))


def refinements(recompute, zs):
    return tuple(np.array(r) for r in zip(*(recompute(z) for z in zs)))


def geometry(dist, ham, mag, gamma, epsilon, symmetry, qs, draw, tolerances):
    data = {}
    verdict = "PASS"
    closedness = max(two_form_closedness_residual(mag.b_field, q) for q in qs)
    data["b_closedness_residual"] = closedness
    if closedness > tolerances.get("closedness"):
        verdict = "FAIL"
    if draw is not None:
        zs = draw()
        # one SurfaceFrame per drawn base point serves every branch
        frames = [surface_frame(dist, ham, z.q) for z in zs]
    if dist.k > 0:
        reports = [[value.item() for value in compatibility(
            frame, mag.form_matrix(z.q), z.p, tolerances.get("compat_sigma"))]
            for z, frame in zip(zs, frames)]
        dims = sorted({tuple(report[:3]) for report in reports})
        data["dims"] = [list(d) for d in dims]
        data["dims_constant"] = len(dims) == 1
        data["sigma_min"] = min(report[3] for report in reports)
        data["compatibility_passed"] = all(report[5] for report in reports)
        if not data["compatibility_passed"] or not data["dims_constant"]:
            verdict = "FAIL"
    if gamma is not None:
        twist_frames = frames if draw is not None and np.array_equal(
            [z.q for z in zs], qs) else [surface_frame(dist, ham, q) for q in qs]
        data["gamma_match_residual"] = max(
            magnetic_match_residual(gamma, mag.b_field, q, basis=frame.basis)
            for q, frame in zip(qs, twist_frames))
    if epsilon is not None:
        data["symplectic_residual"] = max(
            symplectic_residual(epsilon, mag, z) for z in zs[:10])
    if symmetry is not None and dist.k > 0:
        head = list(zip(zs[:10], frames))
        related, related_data = related_verdict(
            worst([data_invariance_residual(symmetry, dist, ham, mag, z.q, z.p, frame)
                   for z, frame in head]),
            lambda: worst([relatedness(symmetry, frame, mag, z.p, tolerances)
                           for z, frame in head]), tolerances)
        data.update(related_data)
        data["relatedness_verdict"] = related
        if related == "FAIL":
            verdict = "FAIL"
    return verdict, data


def projections(dist, ham, samples):
    if dist.k == 0:
        return samples
    return _stack([project_to_constraint(dist, ham, z) for z in samples])


def preimages(phase_map, targets):
    return _stack([newton_preimage(phase_map, target) for target in targets])


REFERENCES = {fn.__name__: fn for fn in (
    type1_magnetic, type1_constrained, type1_reduced, type2_magnetic,
    type2_constrained, type2_reduced, refinements, geometry, projections,
    preimages)}


@contextmanager
def per_sample_only():
    """Every entry point of magnomech.stacked runs its reference loop
    instead: the per-sample orchestration."""
    saved = {name: getattr(stacked, name) for name in stacked.CHECKS}
    try:
        for name in saved:
            setattr(stacked, name, REFERENCES[name])
        yield
    finally:
        for name, fn in saved.items():
            setattr(stacked, name, fn)
