"""Stacked orchestration of the checks: all N samples of a check at once.

Each entry point (see CHECKS) computes what one check's per-sample loop in
:mod:`hj`, :mod:`reduction`, :mod:`nonholonomic` or :mod:`sampling`
computes, bit for bit, because both call the same functions: every
kernel, level and hypothesis battery is defined once, in its home module,
for one point or a stack of points (the layout rule is in :mod:`linalg`).
What stays here is orchestration: evaluation of the samples into (N, ...)
arrays, :func:`by_rank`, the folds over the samples, and the entry points.
Samples whose null spaces differ in dimension are run as separate groups
(by_rank).

The per-sample loops stay the reference. A guard that trips here raises
the kernel's typed error, and so does a stacked solve that fails;
:func:`linalg.run_stacked` then returns None and the caller reruns its
per-sample loop, which raises the first failing sample's error as it
always has.
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
          "projections", "preimages")


class Tripped(MagnomechError):
    """The stacked run does not apply; the per-sample loop runs instead."""


def by_rank(count, pipeline):
    """``pipeline(idx)``, a tuple of arrays over the samples ``idx``, for
    each group of the ``count`` samples whose null spaces agree in
    dimension at every step, put back together in sample order."""
    parts, pending = [], [np.arange(count)]
    while pending:
        idx = pending.pop()
        try:
            parts.append((idx, pipeline(idx)))
        except RankSplit as split:
            pending.extend(idx[split.ranks == rank] for rank in np.unique(split.ranks))
    if len(parts) == 1:
        return parts[0][1]
    order = np.argsort(np.concatenate([idx for idx, _ in parts]))
    return tuple(np.concatenate(arrays)[order]
                 for arrays in zip(*(out for _, out in parts)))


# -- evaluation into stacks ------------------------------------------------------

def _require_samples(samples):
    """An empty sample set is left to the per-sample loop."""
    if not len(samples):
        raise Tripped()


def configs(samples, n):
    """The (N, n) array of configuration samples: an array is checked as a
    whole, a list point by point."""
    _require_samples(samples)
    if isinstance(samples, np.ndarray) and samples.ndim == 2:
        return ensure_configs(samples, n)
    return np.array([ensure_config(q, n) for q in samples])


def _points(samples):
    _require_samples(samples)
    return phase_vectors(samples)


def _first(symplectic, a, b):
    """type2_report's first evaluation, one (symplectic, a, b) per sample."""
    symplectic = [None] * len(a) if symplectic is None else symplectic.tolist()
    return list(zip(symplectic, a.tolist(), b.tolist()))


def _reduced_battery(section, sym, frame, mag, tolerances):
    """reduction._reduced_hypotheses on the stack of the SurfaceFrame's
    base points: (worst twist residual, defects, gamma at each q)."""
    qs = frame.terms.q
    gs = section.value(qs)
    invariance = data_invariance_residual(sym, frame.dist, frame.terms.ham, mag, qs, gs,
                                          frame)
    section_invariance = section_invariance_residual(sym, section, qs, gs)
    (twist,) = by_rank(len(qs), lambda idx: twist_on_distribution(
        section, frame.take(idx), gs[idx], mag, tolerances)[3:])
    twist = worst(twist)
    return twist, reduced_defects(invariance, section_invariance, twist, tolerances), gs


# -- the checks ----------------------------------------------------------------

def type1_magnetic(section, ham, mag, samples):
    qs = configs(samples, ham.n)
    return rows_of(MAGNETIC_ROW, qs, *magnetic_rows(section, ham, mag, qs))


def type1_constrained(section, dist, ham, mag, samples, tolerances):
    qs = configs(samples, dist.n)
    columns = by_rank(len(qs), lambda idx: distributional_rows(
        section, dist, ham, mag, qs[idx], tolerances))
    return rows_of(DISTRIBUTIONAL_ROW, qs, *columns)


def type1_reduced(section, sym, dist, ham, mag, samples, tolerances):
    """(worst twist residual, defects, rows); rows is None with defects."""
    qs = configs(samples, sym.n)
    frame = surface_frame(dist, ham, qs)
    hyp_worst, defects, gs = _reduced_battery(section, sym, frame, mag, tolerances)
    if defects:
        return hyp_worst, defects, None
    (equation,) = by_rank(len(qs), lambda idx: (reduced_equation(
        section, sym, frame.take(idx), ham, mag, gs[idx], tolerances),))
    return hyp_worst, defects, rows_of(REDUCED_ROW, qs, equation)


def type2_magnetic(section, phase_map, ham, mag, samples):
    zs = _points(samples)
    n = ham.n
    ws = phase_map.image(zs)
    map_jacs = phase_map.jacobians(zs)
    a, b = _type2_residuals(section, ham, mag, zs, ws, map_jacs, magnetic_level)
    return _first(pullback_defect(mag, zs[:, :n], ws[:, :n], map_jacs), a, b)


def type2_constrained(section, phase_map, dist, ham, mag, samples, tolerances):
    zs = _points(samples)
    n = dist.n
    ws = phase_map.image(zs)
    map_jacs = phase_map.jacobians(zs)

    def pipeline(idx):
        frame = surface_frame(dist, ham, ws[idx, :n])
        section_hypotheses(section, frame, section.value(ws[idx, :n]), tolerances)
        return _type2_residuals(section, ham, mag, zs[idx], ws[idx], map_jacs[idx],
                                constrained_level(frame, tolerances))

    a, b = by_rank(len(zs), pipeline)
    return _first(pullback_defect(mag, zs[:, :n], ws[:, :n], map_jacs), a, b)


def type2_reduced(section, phase_map, sym, dist, ham, mag, samples, tolerances):
    """(worst twist residual, worst symplectic residual, defects, first
    evaluation); the last is None with defects."""
    zs = _points(samples)
    n = sym.n
    ws = phase_map.image(zs)
    frame = surface_frame(dist, ham, ws[:, :n])
    hyp_worst, defects, _ = _reduced_battery(section, sym, frame, mag, tolerances)
    map_jacs = phase_map.jacobians(zs)
    symp_worst = worst(pullback_defect(mag, zs[:, :n], ws[:, :n], map_jacs))
    defects += map_defects(symp_worst, map_equivariance_residual(sym, phase_map, zs, ws),
                           tolerances)
    if defects:
        return hyp_worst, symp_worst, defects, None

    def pipeline(idx):
        level = reduced_level(sym, frame.take(idx), mag, tolerances)
        return _type2_residuals(section, ham, mag, zs[idx], ws[idx], map_jacs[idx], level)

    a, b = by_rank(len(zs), pipeline)
    return hyp_worst, symp_worst, defects, _first(None, a, b)


def geometry(dist, ham, mag, gamma, epsilon, symmetry, qs, draw, tolerances):
    """nonholonomic.geometry_check: (verdict, data)."""
    data = {}
    verdict = PASS
    n = mag.n
    qs = configs(qs, n)
    closedness = max(closedness_residual(mag.b_field, qs, CLOSEDNESS_STEP).tolist())
    data["b_closedness_residual"] = closedness
    if closedness > tolerances.get("closedness"):
        verdict = FAIL
    if draw is not None:
        zs = _points(draw())
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
        jacs = gamma.jacobian(qs)
        twist_frame = frame if draw is not None and np.array_equal(zs[:, :n], qs) else (
            surface_frame(dist, ham, qs))
        (match,) = by_rank(len(qs), lambda idx: (twist_residual(
            jacs[idx], mag.b_matrix(qs[idx]), twist_frame.take(idx).basis),))
        data["gamma_match_residual"] = max(match.tolist())
    if epsilon is not None:
        head = zs[:10]
        images = epsilon.image(head)
        data["symplectic_residual"] = max(pullback_defect(
            mag, head[:, :n], images[:, :n], epsilon.jacobians(head)).tolist())
    if symmetry is not None and dist.k > 0:
        qh, ph = zs[:10, :n], zs[:10, n:]
        head_frame = frame.take(np.arange(len(qh)))

        def residual():
            (values,) = by_rank(len(qh), lambda idx: (relatedness(
                symmetry, head_frame.take(idx), mag, ph[idx], tolerances),))
            return worst(values)

        related, related_data = related_verdict(
            data_invariance_residual(symmetry, dist, ham, mag, qh, ph, head_frame),
            residual, tolerances)
        data.update(related_data)
        data["relatedness_verdict"] = related
        if related == FAIL:
            verdict = FAIL
    return verdict, data


# -- sampling --------------------------------------------------------------------

def projections(dist, ham, samples):
    """nonholonomic.project_to_constraint at each phase point."""
    if dist.k == 0:
        return samples
    zs = _points(samples)
    qs = zs[:, :dist.n]
    return PhaseStack.of(qs, surface_frame(dist, ham, qs).project(zs[:, dist.n:]))


def preimages(phase_map, targets):
    """sampling.newton_preimage of each target point."""
    return PhaseStack(preimage(phase_map, _points(targets)))
