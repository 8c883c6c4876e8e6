"""The orchestration of the checks: all N samples of a check at once.

Each entry point (see CHECKS) is the one orchestration of its check or of
a sample producer. Every kernel, level and hypothesis battery it calls is
defined once, in its home module, for one point or a stack of points (the
layout rule is in :mod:`linalg`), so each sample gets the bits it gets
alone. What stays here is orchestration: evaluation of the samples into
(N, ...) arrays, the stages of a check (:func:`located`), :func:`by_rank`,
the in-band Type II refinement (:func:`_refine`), the folds the reduced
checks gate on, and the entry points. A Hamilton-Jacobi entry point
returns its validated samples and its final per-sample columns; the
reports of :mod:`hj` and :mod:`reduction` only fold and format them.
Samples whose null spaces differ in dimension are run as separate groups
(by_rank). A stage that raises is rerun sample by sample, so a fault
raises the error of its first failing sample (the fault-order rule of
:func:`located`).
"""

import dataclasses

import numpy as np

from .dynamics import pullback_defect
from .errors import MagnomechError
from .geometry import (
    CLOSEDNESS_STEP,
    PhaseStack,
    closedness_residual,
    ensure_config,
    ensure_configs,
    phase_vectors,
    twist_residual,
)
from .hj import (
    FAIL,
    PASS,
    _type2_residuals,
    constrained_level,
    distributional_rows,
    magnetic_level,
    magnetic_rows,
    section_hypotheses,
    twist_on_distribution,
)
from .linalg import RankSplit, worst
from .nonholonomic import compatibility, surface_frame
from .reduction import (
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
from .sampling import preimage
from .tolerances import STATUS_BAND_FACTOR

CHECKS = ("type1_magnetic", "type1_constrained", "type1_reduced",
          "type2_magnetic", "type2_constrained", "type2_reduced", "geometry",
          "projections", "preimages")


def located(count, stage):
    """``stage(idx)``, one stage of a check on the samples ``idx``, run on
    all ``count`` samples at once.

    The fault-order rule: when the stage raises (a MagnomechError, or the
    LinAlgError of a stacked solve), it reruns on each sample alone, in
    sample order, and the first error raised is the check's: the error of
    the first failing sample, in sample order, at its first failing step.
    When no sample raises alone, the stage's own error propagates. A check
    validates its samples first and then runs its stages in order, so an
    earlier stage's fault comes first; a stage ends where a fold over the
    samples decides what runs next (the reduced checks' hypothesis battery,
    the relatedness gate), and where the sample set changes (each branch of
    the geometry check).
    """
    try:
        return stage(np.arange(count))
    except (MagnomechError, np.linalg.LinAlgError):
        for i in range(count):
            stage(np.array([i]))
        raise


def by_rank(count, pipeline):
    """``pipeline(idx)``, a tuple of arrays over the samples ``idx``, for
    each group of the ``count`` samples whose null spaces agree in
    dimension at every step, put back together in sample order; one
    located stage."""

    def grouped(idx):
        parts, pending = [], [idx]
        while pending:
            group = pending.pop()
            try:
                parts.append((group, pipeline(group)))
            except RankSplit as split:
                pending.extend(group[split.ranks == rank]
                               for rank in np.unique(split.ranks))
        if len(parts) == 1:
            return parts[0][1]
        order = np.argsort(np.concatenate([group for group, _ in parts]))
        return tuple(np.concatenate(arrays)[order]
                     for arrays in zip(*(out for _, out in parts)))

    return located(count, grouped)


# -- evaluation into stacks ------------------------------------------------------

def configs(samples, n):
    """The (N, n) array of configuration samples: an array is checked as a
    whole, any other iterable point by point."""
    if isinstance(samples, np.ndarray) and samples.ndim == 2:
        return ensure_configs(samples, n)
    return np.array([ensure_config(q, n) for q in samples]).reshape(-1, n)


def _reduced_battery(section, sym, frame, mag, tolerances):
    """The reduced checks' hypothesis battery over the SurfaceFrame's base
    points: (worst twist residual, defects, gamma at each q). The section
    hypotheses raise; the reduced-only ones give the named defects of
    reduction.reduced_defects, each of which makes the verdict VACUOUS."""
    qs = frame.terms.q
    gs = section.value(qs)
    invariance = data_invariance_residual(sym, frame.dist, frame.terms.ham, mag, qs, gs,
                                          frame)
    section_invariance = section_invariance_residual(sym, section, qs, gs)
    (twist,) = by_rank(len(qs), lambda idx: twist_on_distribution(
        section, frame.take(idx), gs[idx], mag, tolerances)[3:])
    twist = worst(twist)
    return twist, reduced_defects(invariance, section_invariance, twist, tolerances), gs


def _symplectic(phase_map, mag, zs):
    """(J_eps, eps, the pullback defect) at the phase vectors zs, in
    symplectic_residual's order: J_eps(z), then eps(z)."""
    n = zs.shape[-1] // 2
    map_jacs = phase_map.jacobians(zs)
    ws = phase_map.image(zs)
    return map_jacs, ws, pullback_defect(mag, zs[:, :n], ws[:, :n], map_jacs)


# -- the in-band Type II refinement ---------------------------------------------

def in_band(value, tol):
    return (tol <= value) & (value < STATUS_BAND_FACTOR * tol)


def _refined(obj):
    """Copy of a section or map with a 10x smaller finite-difference step."""
    if getattr(obj, "jacobian_fn", None) is None and hasattr(obj, "step"):
        return dataclasses.replace(obj, step=obj.step / 10.0)
    return obj


def _refine(section, phase_map, ham, mag, zs, first, level_of, tolerances):
    """(zs, (symplectic, a, b)) from a first pass (ws, symplectic, a, b) at
    the phase vectors zs, whose images are ws, once the samples with a
    residual in the status band are recomputed in one more stage with the
    _refined section and map, on the images ws (the step does not move
    them) and with the level ``level_of(idx)`` of the samples idx, at their
    base points. With analytic Jacobians a recompute would give the same
    numbers: none runs."""
    ws, symplectic, res_a, res_b = first
    res_a, res_b = np.array(res_a, dtype=float), np.array(res_b, dtype=float)
    refined_section, refined_map = _refined(section), _refined(phase_map)
    status_tol = tolerances.get("status")
    banded = np.flatnonzero(in_band(res_a, status_tol) | in_band(res_b, status_tol))
    if len(banded) and (refined_section is not section or refined_map is not phase_map):

        def pipeline(idx):
            # in phase_map.jacobian's order, on the phase vectors
            z, w = zs[banded[idx]], ws[banded[idx]]
            return _type2_residuals(refined_section, ham, mag, z, w,
                                    refined_map.jacobians(z), level_of(banded[idx]))

        res_a[banded], res_b[banded] = by_rank(len(banded), pipeline)
    return zs, (symplectic, res_a, res_b)


# -- the checks ----------------------------------------------------------------
# Each Hamilton-Jacobi check returns its validated samples and its columns
# over them. A check on no samples runs no stage: its entry point returns
# the empty result (no samples, empty columns, worst residuals 0.0) itself.

def type1_magnetic(section, ham, mag, samples):
    """(qs, (hypothesis, equation))."""
    qs = configs(samples, ham.n)
    if not len(qs):
        return qs, ([], [])
    return qs, located(len(qs), lambda idx: magnetic_rows(section, ham, mag, qs[idx]))


def type1_constrained(section, dist, ham, mag, samples, tolerances):
    """(qs, (hypothesis, equation, image, tangent))."""
    qs = configs(samples, dist.n)
    if not len(qs):
        return qs, ([], [], [], [])
    return qs, by_rank(len(qs), lambda idx: (
        distributional_rows(section, dist, ham, mag, qs[idx], tolerances)))


def type1_reduced(section, sym, dist, ham, mag, samples, tolerances):
    """(worst twist residual, defects, (qs, (equation,))); the last is None
    with defects."""
    qs = configs(samples, sym.n)
    if not len(qs):
        return 0.0, [], (qs, ([],))
    frame = surface_frame(dist, ham, qs)
    hyp_worst, defects, gs = located(len(qs), lambda idx: _reduced_battery(
        section, sym, frame.take(idx), mag, tolerances))
    if defects:
        return hyp_worst, defects, None
    return hyp_worst, defects, (qs, by_rank(len(qs), lambda idx: (reduced_equation(
        section, sym, frame.take(idx), ham, mag, gs[idx], tolerances),)))


def type2_magnetic(section, phase_map, ham, mag, samples, tolerances):
    """(zs, (symplectic, a, b)), in-band samples refined (_refine)."""
    zs = phase_vectors(samples)
    if not len(zs):
        return zs, ([], [], [])

    def stage(idx):
        map_jacs, ws, symplectic = _symplectic(phase_map, mag, zs[idx])
        return ws, symplectic, *_type2_residuals(section, ham, mag, zs[idx], ws, map_jacs,
                                                 magnetic_level)

    return _refine(section, phase_map, ham, mag, zs, located(len(zs), stage),
                   lambda idx: magnetic_level, tolerances)


def type2_constrained(section, phase_map, dist, ham, mag, samples, tolerances):
    """(zs, (symplectic, a, b)), in-band samples refined (_refine)."""
    n = dist.n
    zs = phase_vectors(samples)
    if not len(zs):
        return zs, ([], [], [])

    def pipeline(idx):
        z = zs[idx]
        ws = phase_map.image(z)
        frame = surface_frame(dist, ham, ws[:, :n])
        section_hypotheses(section, frame, section.value(ws[:, :n]), tolerances)
        map_jacs = phase_map.jacobians(z)
        return (ws, pullback_defect(mag, z[:, :n], ws[:, :n], map_jacs),
                *_type2_residuals(section, ham, mag, z, ws, map_jacs,
                                  constrained_level(frame, tolerances)))

    # the first pass's frames live in its rank groups: the refinement builds its own
    first = by_rank(len(zs), pipeline)
    return _refine(section, phase_map, ham, mag, zs, first, lambda idx: constrained_level(
        surface_frame(dist, ham, first[0][idx, :n]), tolerances), tolerances)


def type2_reduced(section, phase_map, sym, dist, ham, mag, samples, tolerances):
    """(worst twist residual, worst symplectic residual, defects,
    (zs, (None, a, b))), in-band samples refined (_refine); the last is
    None with defects."""
    n = sym.n
    zs = phase_vectors(samples)
    if not len(zs):
        return 0.0, 0.0, [], (zs, (None, [], []))

    def battery(idx):
        z = zs[idx]
        ws = phase_map.image(z)
        frame = surface_frame(dist, ham, ws[:, :n])
        hyp_worst, defects, _ = _reduced_battery(section, sym, frame, mag, tolerances)
        map_jacs = phase_map.jacobians(z)
        symp_worst = worst(pullback_defect(mag, z[:, :n], ws[:, :n], map_jacs))
        defects += map_defects(symp_worst, map_equivariance_residual(sym, phase_map, z, ws),
                               tolerances)
        return ws, map_jacs, frame, hyp_worst, symp_worst, defects

    ws, map_jacs, frame, hyp_worst, symp_worst, defects = located(len(zs), battery)
    if defects:
        return hyp_worst, symp_worst, defects, None

    def pipeline(idx):
        level = reduced_level(sym, frame.take(idx), mag, tolerances)
        return _type2_residuals(section, ham, mag, zs[idx], ws[idx], map_jacs[idx], level)

    return hyp_worst, symp_worst, defects, _refine(
        section, phase_map, ham, mag, zs, (ws, None, *by_rank(len(zs), pipeline)),
        lambda idx: reduced_level(sym, frame.take(idx), mag, tolerances), tolerances)


def geometry(dist, ham, mag, gamma, epsilon, symmetry, qs, draw, tolerances):
    """nonholonomic.geometry_check: (verdict, data). Each branch is a stage
    over its own samples: the configuration samples ``qs``, the drawn
    phase samples, or the first 10 of them."""
    data = {}
    verdict = PASS
    n = mag.n
    qs = configs(qs, n)
    closedness = max(located(len(qs), lambda idx: closedness_residual(
        mag.b_field, qs[idx], CLOSEDNESS_STEP)).tolist())
    data["b_closedness_residual"] = closedness
    if closedness > tolerances.get("closedness"):
        verdict = FAIL
    if draw is not None:
        drawn = draw()
        zs = phase_vectors(drawn)
        # one SurfaceFrame over the drawn base points serves every branch:
        # the one that projected the draw onto this system's surface, if any
        frame = getattr(drawn, "frame", None)
        if frame is None or frame.dist is not dist or frame.terms.ham is not ham:
            frame = surface_frame(dist, ham, zs[:, :n])
    if dist.k > 0:
        tols = tolerances.get("compat_sigma"), tolerances.get("constraint")
        dim_f, dim_tm, dim_k, sigma, _, passed = by_rank(len(zs), lambda idx: compatibility(
            frame.take(idx), mag.form_matrix(zs[idx, :n]), zs[idx, n:], *tols))
        dims = sorted(set(zip(dim_f.tolist(), dim_tm.tolist(), dim_k.tolist())))
        data["dims"] = [list(d) for d in dims]
        data["dims_constant"] = len(dims) == 1
        data["sigma_min"] = min(sigma.tolist())
        data["compatibility_passed"] = bool(passed.all())
        if not data["compatibility_passed"] or not data["dims_constant"]:
            verdict = FAIL
    if gamma is not None:
        twist_frame = frame if draw is not None and np.array_equal(zs[:, :n], qs) else (
            surface_frame(dist, ham, qs))

        def twist(idx):
            # in magnetic_match_residual's order: the basis, J, then B
            basis = twist_frame.take(idx).basis
            return (twist_residual(gamma.jacobian(qs[idx]), mag.b_matrix(qs[idx]), basis),)

        (match,) = by_rank(len(qs), twist)
        data["gamma_match_residual"] = max(match.tolist())
    if epsilon is not None:
        head = zs[:10]
        data["symplectic_residual"] = max(located(len(head), lambda idx: _symplectic(
            epsilon, mag, head[idx])[2]).tolist())
    if symmetry is not None and dist.k > 0:
        qh, ph = zs[:10, :n], zs[:10, n:]
        invariance = located(len(qh), lambda idx: data_invariance_residual(
            symmetry, dist, ham, mag, qh[idx], ph[idx], frame.take(idx)))

        def residual():
            (values,) = by_rank(len(qh), lambda idx: (relatedness(
                symmetry, frame.take(idx), mag, ph[idx], tolerances),))
            return worst(values)

        related, related_data = related_verdict(invariance, residual, tolerances)
        data.update(related_data)
        data["relatedness_verdict"] = related
        if related == FAIL:
            verdict = FAIL
    return verdict, data


# -- sampling --------------------------------------------------------------------

def projections(dist, ham, samples):
    """nonholonomic.project_to_constraint at each phase point, as a stack
    that carries the SurfaceFrame over its base points."""
    if dist.k == 0 or not len(samples):
        return samples
    n = dist.n
    zs = phase_vectors(samples)

    def stage(idx):
        frame = surface_frame(dist, ham, zs[idx, :n])
        return PhaseStack.of(zs[idx, :n], frame.project(zs[idx, n:]), frame)

    return located(len(zs), stage)


def preimages(phase_map, targets):
    """sampling.newton_preimage of each target point."""
    if not len(targets):
        return PhaseStack(np.zeros((0, 0)))
    goals = phase_vectors(targets)
    return located(len(goals), lambda idx: PhaseStack(preimage(phase_map, goals[idx])))
