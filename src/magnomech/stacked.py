"""The orchestration of the checks: all N samples of a check at once.

Each entry point (see CHECKS) is the one orchestration of its check, or of
a sample producer or the in-band Type II recompute. Every kernel, level
and hypothesis battery it calls is defined once, in its home module, for
one point or a stack of points (the layout rule is in :mod:`linalg`), so
each sample gets the bits it gets alone. What stays here is orchestration:
evaluation of the samples into (N, ...) arrays, the stages of a check
(:func:`located`), :func:`by_rank`, the folds over the samples, and the
entry points. Samples whose null spaces differ in dimension are run as
separate groups (by_rank). A stage that raises is rerun sample by sample,
so a fault raises the error of its first failing sample (the fault-order
rule of :func:`located`).
"""

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
    DISTRIBUTIONAL_ROW,
    FAIL,
    MAGNETIC_ROW,
    PASS,
    _type2_residuals,
    constrained_level,
    distributional_rows,
    magnetic_level,
    magnetic_rows,
    rows_of,
    section_hypotheses,
    twist_on_distribution,
)
from .linalg import RankSplit, worst
from .nonholonomic import compatibility, surface_frame
from .reduction import (
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
from .sampling import preimage

CHECKS = ("type1_magnetic", "type1_constrained", "type1_reduced",
          "type2_magnetic", "type2_constrained", "type2_reduced", "geometry",
          "projections", "preimages", "refinements")


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
    whole, a list point by point."""
    if isinstance(samples, np.ndarray) and samples.ndim == 2:
        return ensure_configs(samples, n)
    return np.array([ensure_config(q, n) for q in samples]).reshape(len(samples), n)


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


# -- the checks ----------------------------------------------------------------
# A check on no samples runs no stage: its entry point returns the empty
# result (no rows, worst residuals 0.0) itself.

def type1_magnetic(section, ham, mag, samples):
    qs = configs(samples, ham.n)
    if not len(qs):
        return []
    return rows_of(MAGNETIC_ROW, qs, *located(len(qs), lambda idx: magnetic_rows(
        section, ham, mag, qs[idx])))


def type1_constrained(section, dist, ham, mag, samples, tolerances):
    qs = configs(samples, dist.n)
    if not len(qs):
        return []
    return rows_of(DISTRIBUTIONAL_ROW, qs, *by_rank(len(qs), lambda idx: (
        distributional_rows(section, dist, ham, mag, qs[idx], tolerances))))


def type1_reduced(section, sym, dist, ham, mag, samples, tolerances):
    """(worst twist residual, defects, rows); rows is None with defects."""
    qs = configs(samples, sym.n)
    if not len(qs):
        return 0.0, [], []
    frame = surface_frame(dist, ham, qs)
    hyp_worst, defects, gs = located(len(qs), lambda idx: _reduced_battery(
        section, sym, frame.take(idx), mag, tolerances))
    if defects:
        return hyp_worst, defects, None
    (equation,) = by_rank(len(qs), lambda idx: (reduced_equation(
        section, sym, frame.take(idx), ham, mag, gs[idx], tolerances),))
    return hyp_worst, defects, rows_of(REDUCED_ROW, qs, equation)


def type2_magnetic(section, phase_map, ham, mag, samples):
    zs = phase_vectors(samples)
    if not len(zs):
        return [], [], []

    def stage(idx):
        map_jacs, ws, symplectic = _symplectic(phase_map, mag, zs[idx])
        return symplectic, *_type2_residuals(section, ham, mag, zs[idx], ws, map_jacs,
                                             magnetic_level)

    return located(len(zs), stage)


def type2_constrained(section, phase_map, dist, ham, mag, samples, tolerances):
    n = dist.n
    zs = phase_vectors(samples)
    if not len(zs):
        return [], [], []

    def pipeline(idx):
        z = zs[idx]
        ws = phase_map.image(z)
        frame = surface_frame(dist, ham, ws[:, :n])
        section_hypotheses(section, frame, section.value(ws[:, :n]), tolerances)
        map_jacs = phase_map.jacobians(z)
        return (pullback_defect(mag, z[:, :n], ws[:, :n], map_jacs),
                *_type2_residuals(section, ham, mag, z, ws, map_jacs,
                                  constrained_level(frame, tolerances)))

    return by_rank(len(zs), pipeline)


def type2_reduced(section, phase_map, sym, dist, ham, mag, samples, tolerances):
    """(worst twist residual, worst symplectic residual, defects, first
    evaluation); the last is None with defects. A first evaluation is the
    columns (symplectic, a, b) that hj.type2_report reads."""
    n = sym.n
    zs = phase_vectors(samples)
    if not len(zs):
        return 0.0, 0.0, [], (None, [], [])

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

    return hyp_worst, symp_worst, defects, (None, *by_rank(len(zs), pipeline))


def refinements(recompute, zs):
    """hj.type2_report's in-band recompute, the two residuals
    ``recompute(z)`` at the phase vectors zs."""
    return by_rank(len(zs), lambda idx: recompute(zs[idx]))


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
        zs = phase_vectors(draw())
        # one SurfaceFrame over the drawn base points serves every branch
        frame = surface_frame(dist, ham, zs[:, :n])
    if dist.k > 0:
        sigma_tol = tolerances.get("compat_sigma")
        dim_f, dim_tm, dim_k, sigma, _, passed = by_rank(len(zs), lambda idx: compatibility(
            frame.take(idx), mag.form_matrix(zs[idx, :n]), zs[idx, n:], sigma_tol))
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
    """nonholonomic.project_to_constraint at each phase point."""
    if dist.k == 0 or not len(samples):
        return samples
    n = dist.n
    zs = phase_vectors(samples)
    return located(len(zs), lambda idx: PhaseStack.of(
        zs[idx, :n], surface_frame(dist, ham, zs[idx, :n]).project(zs[idx, n:])))


def preimages(phase_map, targets):
    """sampling.newton_preimage of each target point."""
    if not len(targets):
        return PhaseStack(np.zeros((0, 0)))
    goals = phase_vectors(targets)
    return located(len(goals), lambda idx: PhaseStack(preimage(phase_map, goals[idx])))
