"""Stacked evaluation of the checks: all N samples of a check at once.

Each entry point (see CHECKS) computes what one check's per-sample loop in
:mod:`hj`, :mod:`reduction`, :mod:`nonholonomic` or :mod:`sampling`
computes, bit for bit. It calls the same numerical functions, which take a
point or a stack (the layout rule is in :mod:`linalg`), on (N, ...) arrays.
Each compiled expression (gamma, eps, H, G, A, a two-form that varies, and
their partials) is evaluated per sample into the stack (geometry.each); a
constant two-form is one matrix, broadcast over the stack. Samples whose
null spaces differ in dimension are run as separate groups (by_rank), and
the per-sample ``np.linalg.lstsq`` stays a loop, since it does not
broadcast.

The per-sample functions stay the reference. A guard that trips here
raises (Tripped for the guards this module states itself), and so does a
stacked solve that fails; :func:`linalg.run_stacked` then returns None and the
caller reruns its per-sample loop, which raises the first failing sample's
error as it always has.
"""

import numpy as np

from .dynamics import pullback_defect, structure_solve
from .errors import MagnomechError
from .geometry import (
    CLOSEDNESS_STEP,
    PhasePoint,
    closedness_residual,
    each,
    ensure_config,
    fd_jacobian,
    twist_residual,
)
from .hj import FAIL, PASS, VACUOUS, tangent_lift
from .linalg import RankSplit, column_space, mv, null_space, rank_of, tr
from .nonholonomic import multiplier_correction, surface_frame
from .reduction import SHIFT
from .sampling import NEWTON_ITERATIONS, NEWTON_TOL
from .tolerances import DEFAULT_TOLERANCES

CHECKS = ("type1_magnetic", "type1_constrained", "type1_reduced",
          "type2_magnetic", "type2_constrained", "type2_reduced", "geometry",
          "projections", "preimages")


class Tripped(MagnomechError):
    """A stacked guard tripped at some sample; the per-sample rerun raises
    that sample's error."""


def max_abs(a):
    """linalg.max_abs of each sample's array."""
    if a[0].size == 0:
        return np.zeros(len(a))
    return np.abs(a).reshape(len(a), -1).max(axis=1)


def worst(values):
    """``max(0.0, v1, v2, ...)`` as the per-sample folds take it: a NaN
    never replaces the running value."""
    return max([0.0, *np.ravel(values).tolist()])


def finite(array):
    if not np.isfinite(array).all():
        raise Tripped()
    return array


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
    """An empty sample set, or an iterator that only one pass can read, is
    left to the per-sample loop."""
    if not hasattr(samples, "__len__") or not len(samples):
        raise Tripped()


def configs(samples, n):
    _require_samples(samples)
    return np.array([ensure_config(q, n) for q in samples])


def images(phase_map, zs):
    """eps at each stacked point (q, p), with PhaseMap.value's guard."""
    return finite(each(phase_map.eval_fn, zs))


def map_jacobians(phase_map, zs):
    if phase_map.jacobian_fn is not None:
        return each(phase_map.jacobian_fn, zs)
    return each(lambda z: fd_jacobian(phase_map.eval_fn, z, phase_map.step), zs)


def frame_at(dist, ham, qs):
    """The SurfaceFrame over the stacked base points qs."""
    if dist.k == 0 or not ham.is_quadratic:
        raise Tripped()  # the per-sample functions take their own paths
    return surface_frame(dist, ham, qs)


def admissible(frame, ps, tol):
    """nonholonomic.admissible_basis at each (q, p), surface check first."""
    if (max_abs(frame.residual(ps)) > tol).any():
        raise Tripped()
    return frame.admissible(ps)


# -- the section and reduction batteries ---------------------------------------

def section_hypotheses(section, frame, gs, tolerances):
    """hj.section_hypotheses at each base point of ``frame``, with gamma(q) =
    gs: (image residuals, tangent residuals, section Jacobians)."""
    image_tol = tolerances.get("constraint")
    image = max_abs(frame.residual(gs))
    if (image > image_tol).any():
        raise Tripped()
    basis = admissible(frame, gs, image_tol)
    projector = basis @ tr(basis)
    jacs = each(section.jacobian, frame.terms.q)
    tangent = np.zeros(len(gs))
    for j in range(frame.basis.shape[2]):
        lifted = tangent_lift(jacs, frame.basis[:, :, j])
        tangent = np.fmax(tangent, max_abs(lifted - mv(projector, lifted)))
    if (tangent > tolerances.get("membership")).any():
        raise Tripped()
    return image, tangent, jacs


def invariance(sym, dist, ham, mag, qs, ps):
    """reduction.data_invariance_residual at the points (qs, ps)."""
    shape = (len(qs), sym.n, sym.n)

    def data(points):
        # a constant B or unit mass is one matrix for every sample
        values = [np.broadcast_to(mag.b_matrix(points), shape),
                  np.broadcast_to(ham.mass_matrix(points), shape),
                  ham.at(points).value(ps)]
        if dist is not None and dist.k > 0:
            values.append(dist.matrix(points))
        return values

    base = data(qs)
    values = []
    for c in sym.cyclic:
        moved = qs.copy()
        moved[:, c] += SHIFT
        values += [max_abs(a - b) for a, b in zip(data(finite(moved)), base)]
    return worst(values)


def _shifted(sym, points, width):
    """(offset, points + offset) per cyclic coordinate, as the invariance
    residuals move the points."""
    for c in sym.cyclic:
        offset = np.zeros(width)
        offset[c] = SHIFT
        yield offset, points + offset


def reduced_battery(section, sym, dist, ham, mag, qs, tolerances):
    """reduction._reduced_hypotheses at the points qs: (worst twist
    residual, defects, gamma at each q)."""
    gs = each(section.value, qs)
    defects = []
    inv = invariance(sym, dist, ham, mag, qs, gs)
    if inv > tolerances.get("invariance"):
        defects.append(f"system data varies along cyclic coordinates ({inv:.3e})")
    ginv = worst([max_abs(each(section.value, moved) - gs)
                  for _, moved in _shifted(sym, qs, sym.n)])
    if ginv > tolerances.get("invariance"):
        defects.append(f"section varies along cyclic coordinates ({ginv:.3e})")

    def pipeline(idx):
        frame = frame_at(dist, ham, qs[idx])
        _, _, jacs = section_hypotheses(section, frame, gs[idx], tolerances)
        return (twist_residual(jacs, mag.b_matrix(qs[idx]), frame.basis),)

    (twist,) = by_rank(len(qs), pipeline)
    hyp_worst = worst(twist)
    if hyp_worst > tolerances.get("hypothesis"):
        defects.append("d(gamma) + B does not vanish on the distribution")
    return hyp_worst, defects, gs


def reduced_fields(sym, frame, mag, ps, tolerances):
    """reduction.reduced_field at each (q, p), q the base points of
    ``frame``: (reduced vectors, bases)."""
    qs, n = frame.terms.q, sym.n
    descent = admissible(frame, ps, tolerances.get("constraint"))
    generators = sym.generators()
    vertical = generators @ null_space(frame.rows @ generators[:n])
    omega = mag.form_matrix(qs)
    if vertical.shape[2]:
        descent = descent @ null_space(tr(vertical) @ omega @ descent)
    selection = sym.selection()
    pushed = selection @ descent
    basis = column_space(pushed)
    coeffs = np.array([np.linalg.lstsq(a, b, rcond=None)[0]
                       for a, b in zip(pushed, basis)])
    lifted = descent @ coeffs
    reduced = tr(lifted) @ omega @ lifted
    rhs = mv(tr(basis), mv(selection, frame.terms.gradient(ps)))
    xi = np.linalg.solve(tr(reduced), rhs[..., None])[..., 0]
    return mv(basis, xi), basis


# -- the residual kernels ------------------------------------------------------

def free_fields(ham, mag, qs, ps):
    return structure_solve(mag.form_matrix(qs), ham.at(qs).gradient(ps))


def type1_equation(ham, mag, qs, gs, jacs, level):
    """hj.type1_residual at each section point (q, gs): ``level(free)``
    gives the selection (None for the identity) and the target field."""
    n = ham.n
    free = free_fields(ham, mag, qs, gs)
    lifted = tangent_lift(jacs, free[:, :n])
    selection, target = level(free)
    if selection is not None:
        lifted = mv(selection, lifted)
    return max_abs(lifted - target)


def type2_residuals(section, ham, mag, zs, ws, map_jacs, level):
    """hj._type2_residuals at each sample z with image w = eps(z):
    ``level(wq, wp, free)`` gives the projector, selection and target at
    the images (None for the identity or the free field)."""
    n = ham.n
    wq, wp = ws[:, :n], ws[:, n:]
    grads = ham.at(wq).gradient(wp)
    free = structure_solve(mag.form_matrix(wq), grads)
    projector, selection, target = level(wq, wp, free)
    x_pull = structure_solve(mag.form_matrix(zs[:, :n]), finite(mv(tr(map_jacs), grads)))
    lam_push = tangent_lift(each(section.jacobian, wq), free[:, :n])
    pushed = mv(map_jacs, x_pull)
    if selection is not None:
        pushed = mv(selection, pushed)
        lam_push = mv(selection, lam_push)
    if projector is not None:
        pushed = mv(projector, pushed)
    if target is None:
        target = free
    return max_abs(pushed - lam_push), max_abs(lam_push - target)


def _first(symplectic, a, b):
    """type2_report's first evaluation, one (symplectic, a, b) per sample."""
    symplectic = [None] * len(a) if symplectic is None else symplectic.tolist()
    return list(zip(symplectic, a.tolist(), b.tolist()))


def _points(samples):
    _require_samples(samples)
    return np.array([z.vec for z in samples])


# -- the checks ----------------------------------------------------------------

def type1_magnetic(section, ham, mag, samples):
    qs = configs(samples, ham.n)
    jacs = each(section.jacobian, qs)
    hyp = twist_residual(jacs, mag.b_matrix(qs), np.eye(ham.n))
    equation = type1_equation(ham, mag, qs, each(section.value, qs), jacs,
                              lambda free: (None, free))
    return [{"q": q, "hypothesis": h, "equation": e}
            for q, h, e in zip(qs.tolist(), hyp.tolist(), equation.tolist())]


def type1_constrained(section, dist, ham, mag, samples, tolerances):
    qs = configs(samples, dist.n)

    def pipeline(idx):
        frame = frame_at(dist, ham, qs[idx])
        gs = each(section.value, qs[idx])
        image, tangent, jacs = section_hypotheses(section, frame, gs, tolerances)
        hyp = twist_residual(jacs, mag.b_matrix(qs[idx]), frame.basis)
        equation = type1_equation(ham, mag, qs[idx], gs, jacs, lambda free: (
            None, multiplier_correction(frame, gs, free)[0]))
        return hyp, equation, image, tangent

    columns = by_rank(len(qs), pipeline)
    return [{"q": q, "hypothesis": h, "equation": e, "image": i, "tangent": t}
            for q, h, e, i, t in zip(qs.tolist(), *(c.tolist() for c in columns))]


def type1_reduced(section, sym, dist, ham, mag, samples, tolerances):
    """(worst twist residual, defects, rows); rows is None with defects."""
    qs = configs(samples, sym.n)
    hyp_worst, defects, gs = reduced_battery(section, sym, dist, ham, mag, qs,
                                             tolerances)
    if defects:
        return hyp_worst, defects, None
    selection = sym.selection()

    def pipeline(idx):
        frame = frame_at(dist, ham, qs[idx])
        jacs = each(section.jacobian, qs[idx])
        return (type1_equation(ham, mag, qs[idx], gs[idx], jacs, lambda free: (
            selection, reduced_fields(sym, frame, mag, gs[idx], tolerances)[0])),)

    (equation,) = by_rank(len(qs), pipeline)
    return hyp_worst, defects, [{"q": q, "equation": e}
                                for q, e in zip(qs.tolist(), equation.tolist())]


def type2_magnetic(section, phase_map, ham, mag, samples):
    zs = _points(samples)
    n = ham.n
    ws = images(phase_map, zs)
    map_jacs = map_jacobians(phase_map, zs)
    a, b = type2_residuals(section, ham, mag, zs, ws, map_jacs,
                           lambda wq, wp, free: (None, None, None))
    return _first(pullback_defect(mag, zs[:, :n], ws[:, :n], map_jacs), a, b)


def type2_constrained(section, phase_map, dist, ham, mag, samples, tolerances):
    zs = _points(samples)
    n = dist.n
    ws = images(phase_map, zs)
    map_jacs = map_jacobians(phase_map, zs)
    constraint_tol = tolerances.get("constraint")

    def pipeline(idx):
        frame = frame_at(dist, ham, ws[idx, :n])
        section_hypotheses(section, frame, each(section.value, ws[idx, :n]), tolerances)

        def level(wq, wp, free):
            basis = admissible(frame, wp, constraint_tol)
            return basis @ tr(basis), None, multiplier_correction(frame, wp, free)[0]

        return type2_residuals(section, ham, mag, zs[idx], ws[idx], map_jacs[idx], level)

    a, b = by_rank(len(zs), pipeline)
    return _first(pullback_defect(mag, zs[:, :n], ws[:, :n], map_jacs), a, b)


def type2_reduced(section, phase_map, sym, dist, ham, mag, samples, tolerances):
    """(worst twist residual, worst symplectic residual, defects, first
    evaluation); the last is None with defects."""
    zs = _points(samples)
    n = sym.n
    ws = images(phase_map, zs)
    hyp_worst, defects, _ = reduced_battery(section, sym, dist, ham, mag, ws[:, :n],
                                            tolerances)
    map_jacs = map_jacobians(phase_map, zs)
    symp_worst = worst(pullback_defect(mag, zs[:, :n], ws[:, :n], map_jacs))
    if symp_worst > tolerances.get("hypothesis"):
        defects.append(f"phase map is not structure preserving ({symp_worst:.3e})")
    equi = worst([max_abs(images(phase_map, finite(moved)) - ws - offset)
                  for offset, moved in _shifted(sym, zs, 2 * n)])
    if equi > tolerances.get("invariance"):
        defects.append(f"phase map is not translation equivariant ({equi:.3e})")
    if defects:
        return hyp_worst, symp_worst, defects, None

    def pipeline(idx):
        frame = frame_at(dist, ham, ws[idx, :n])

        def level(wq, wp, free):
            reduced, basis = reduced_fields(sym, frame, mag, wp, tolerances)
            return basis @ tr(basis), sym.selection(), reduced

        return type2_residuals(section, ham, mag, zs[idx], ws[idx], map_jacs[idx], level)

    a, b = by_rank(len(zs), pipeline)
    return hyp_worst, symp_worst, defects, _first(None, a, b)


def compatibility(dist, ham, mag, zs, sigma_tol):
    """nonholonomic.compatibility_report at each stacked point: its six
    fields, each an array over the samples."""
    n = dist.n

    def pipeline(idx):
        qs, ps = zs[idx, :n], zs[idx, n:]
        frame = frame_at(dist, ham, qs)
        omega = mag.form_matrix(qs)
        base_condition = np.zeros((len(qs), dist.k, 2 * n))
        base_condition[:, :, :n] = frame.rows
        f_basis = null_space(base_condition)
        tm_basis = null_space(frame.jacobian(ps))
        f_perp = null_space(tr(f_basis) @ omega)
        intersection = tm_basis.shape[2] + f_perp.shape[2] - rank_of(
            np.concatenate([tm_basis, f_perp], axis=2))
        k_basis = admissible(frame, ps, DEFAULT_TOLERANCES.get("constraint"))
        restricted = tr(k_basis) @ omega @ k_basis
        if restricted[0].size == 0:
            raise Tripped()
        sigma = np.linalg.svd(restricted, compute_uv=False)[:, -1]
        dims = [np.full(len(qs), basis.shape[2])
                for basis in (f_basis, tm_basis, k_basis)]
        return (*dims, sigma, intersection, (sigma > sigma_tol) & (intersection == 0))

    return by_rank(len(zs), pipeline)


def relatedness(sym, dist, ham, mag, zs, tolerances):
    """reduction.relatedness_check at the stacked points zs."""
    n = sym.n
    qs, ps = zs[:, :n], zs[:, n:]
    invariance_residual = invariance(sym, dist, ham, mag, qs, ps)
    if invariance_residual > tolerances.get("invariance"):
        return VACUOUS, {"invariance_residual": invariance_residual,
                           "defects": ["system data varies along cyclic coordinates"]}
    selection = sym.selection()

    def pipeline(idx):
        frame = frame_at(dist, ham, qs[idx])
        reduced, _ = reduced_fields(sym, frame, mag, ps[idx], tolerances)
        free = free_fields(ham, mag, qs[idx], ps[idx])
        full = multiplier_correction(frame, ps[idx], free)[0]
        return (max_abs(mv(selection, full) - reduced),)

    (residual,) = by_rank(len(zs), pipeline)
    residual = worst(residual)
    verdict = PASS if residual < tolerances.get("related") else FAIL
    return verdict, {"invariance_residual": invariance_residual,
                     "relatedness_residual": residual}


def geometry(dist, ham, mag, gamma, epsilon, symmetry, qs, draw, tolerances):
    """nonholonomic.geometry_check: (verdict, data)."""
    data = {}
    verdict = PASS
    qs = configs(qs, mag.n)
    closedness = max(closedness_residual(mag.b_field, qs, CLOSEDNESS_STEP).tolist())
    data["b_closedness_residual"] = closedness
    if closedness > tolerances.get("closedness"):
        verdict = FAIL
    if draw is not None:
        zs = _points(draw())
    if dist.k > 0:
        dim_f, dim_tm, dim_k, sigma, _, passed = compatibility(
            dist, ham, mag, zs, tolerances.get("compat_sigma"))
        dims = sorted(set(zip(dim_f.tolist(), dim_tm.tolist(), dim_k.tolist())))
        data["dims"] = [list(d) for d in dims]
        data["dims_constant"] = len(dims) == 1
        data["sigma_min"] = min(sigma.tolist())
        data["compatibility_passed"] = bool(passed.all())
        if not data["compatibility_passed"] or not data["dims_constant"]:
            verdict = FAIL
    if gamma is not None:
        jacs = each(gamma.jacobian, qs)

        def match(idx):
            basis = np.eye(mag.n) if dist.k == 0 else frame_at(dist, ham, qs[idx]).basis
            return (twist_residual(jacs[idx], mag.b_matrix(qs[idx]), basis),)

        data["gamma_match_residual"] = max(by_rank(len(qs), match)[0].tolist())
    if epsilon is not None:
        head = zs[:10]
        n = mag.n
        data["symplectic_residual"] = max(pullback_defect(
            mag, head[:, :n], images(epsilon, head)[:, :n],
            map_jacobians(epsilon, head)).tolist())
    if symmetry is not None and dist.k > 0:
        related_verdict, related_data = relatedness(symmetry, dist, ham, mag, zs[:10],
                                                    tolerances)
        data.update(related_data)
        data["relatedness_verdict"] = related_verdict
        if related_verdict == FAIL:
            verdict = FAIL
    return verdict, data


# -- sampling --------------------------------------------------------------------

def projections(dist, ham, samples):
    """nonholonomic.project_to_constraint at each phase point."""
    if dist.k == 0:
        return samples
    zs = _points(samples)
    n = dist.n
    qs = zs[:, :n]
    ps = finite(frame_at(dist, ham, qs).project(zs[:, n:]))
    return [PhasePoint(q, p) for q, p in zip(qs, ps)]


def preimages(phase_map, targets):
    """sampling.newton_preimage of each target point."""
    goal = _points(targets)
    vecs = goal.copy()
    active = np.arange(len(goal))
    for _ in range(NEWTON_ITERATIONS):
        finite(vecs[active])
        defect = images(phase_map, vecs[active]) - goal[active]
        moving = ~(np.abs(defect).max(axis=1) < NEWTON_TOL)
        active, defect = active[moving], defect[moving]
        if not len(active):
            return [PhasePoint.from_vec(vec) for vec in vecs]
        step = np.linalg.solve(map_jacobians(phase_map, vecs[active]), defect[..., None])
        vecs[active] = vecs[active] - step[..., 0]
    raise Tripped()
