"""Stacked evaluation of the checks: all N samples of a check at once.

Each entry point (see CHECKS) computes what one check's per-sample loop in
:mod:`hj`, :mod:`reduction`, :mod:`nonholonomic` or :mod:`sampling`
computes, bit for bit. The compiled expressions (gamma, eps, H, G, B, A
and their Jacobians) are evaluated per sample into (N, ...) arrays; every
SVD, solve, product and max then runs once on the stack. Samples whose
null spaces differ in dimension are run as separate groups (by_rank), and
the per-sample ``np.linalg.lstsq`` stays a loop, since it does not
broadcast.

The per-sample functions stay the reference. A guard that trips here
raises (Tripped for the guards this module states itself), and so does a
stacked solve that fails; :func:`linalg.run_stacked` then returns None and the
caller reruns its per-sample loop, which raises the first failing sample's
error as it always has.

The bitwise rule the goldens rely on: a stacked ``np.linalg.svd``,
``np.linalg.solve`` or ``@`` equals the per-matrix call only when each
stacked operand has the per-sample operand's layout, a C-contiguous
matrix or the transposed view of one (``tr``). So a matrix-vector product
is written ``mv(a, v)``, that is ``a @ v[..., None]``; a norm is the
square root of a stacked dot, as ``np.linalg.norm`` of a vector is; a
slice that the per-sample code copies is copied here too; and
``np.einsum`` is never used, since it is not bitwise equal to any of them.
"""

from functools import cached_property

import numpy as np

from .dynamics import SOLVER_TOL
from .errors import MagnomechError
from .geometry import PhasePoint, ensure_config, fd_jacobian
from .hj import FAIL, PASS, VACUOUS
from .linalg import RCOND
from .nonholonomic import SurfaceFrame
from .reduction import SHIFT
from .sampling import NEWTON_ITERATIONS, NEWTON_TOL
from .tolerances import DEFAULT_TOLERANCES

CHECKS = ("type1_magnetic", "type1_constrained", "type1_reduced",
          "type2_magnetic", "type2_constrained", "type2_reduced", "geometry",
          "projections", "preimages")


class Tripped(MagnomechError):
    """A stacked guard tripped at some sample; the per-sample rerun raises
    that sample's error."""


class _Split(Exception):
    """The stacked null spaces of one step differ in dimension; ``ranks``
    holds each sample's rank."""

    def __init__(self, ranks):
        super().__init__()
        self.ranks = ranks


# -- stacked linear algebra ---------------------------------------------------

def tr(a):
    return a.swapaxes(-1, -2)


def mv(a, v):
    """``a @ v`` per sample for stacked vectors v."""
    return (a @ v[..., None])[..., 0]


def dots(u, v):
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def norms(v):
    return np.sqrt(dots(v, v))


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


def _rank(s):
    """The common rank of stacked singular values (cutoff RCOND s[0])."""
    ranks = np.count_nonzero(s > RCOND * s[:, :1], axis=1)
    if (ranks != ranks[0]).any():
        raise _Split(ranks)
    return int(ranks[0])


def null_space(matrix):
    """linalg.null_space of each stacked matrix."""
    _, rows, cols = matrix.shape
    if rows == 0 or cols == 0:
        raise Tripped()
    _, s, vh = np.linalg.svd(matrix)
    return tr(vh[:, _rank(s):]).copy()


def column_space(matrix):
    """linalg.column_space of each stacked matrix."""
    if matrix[0].size == 0:
        raise Tripped()
    u, s, _ = np.linalg.svd(matrix)
    return u[:, :, :_rank(s)].copy()


def rank_of(matrix):
    s = np.linalg.svd(matrix, compute_uv=False)
    return np.count_nonzero(s > RCOND * s[:, :1], axis=1)


def by_rank(count, pipeline):
    """``pipeline(idx)``, a tuple of arrays over the samples ``idx``, for
    each group of the ``count`` samples whose null spaces agree in
    dimension at every step, put back together in sample order."""
    parts, pending = [], [np.arange(count)]
    while pending:
        idx = pending.pop()
        try:
            parts.append((idx, pipeline(idx)))
        except _Split as split:
            pending.extend(idx[split.ranks == rank] for rank in np.unique(split.ranks))
    if len(parts) == 1:
        return parts[0][1]
    order = np.argsort(np.concatenate([idx for idx, _ in parts]))
    return tuple(np.concatenate(arrays)[order]
                 for arrays in zip(*(out for _, out in parts)))


# -- per-sample evaluation into stacks -----------------------------------------

def each(fn, items):
    return np.array([fn(item) for item in items], dtype=float)


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
    return np.array([fd_jacobian(phase_map.eval_fn, z, phase_map.step) for z in zs])


def gradients(ham, qs, ps):
    """dH at each (q, p), as BaseTerms.gradient computes it."""
    if ham.is_quadratic and ham._mass_fn is None:
        grads = np.concatenate(
            [each(lambda q: ham.at(q).potential_gradient, qs), ps], axis=1)
        return finite(grads)
    return np.array([ham.at(q).gradient(p) for q, p in zip(qs, ps)])


def energies(ham, qs, ps):
    """H at each (q, p), as BaseTerms.value computes it."""
    if ham.is_quadratic and ham._mass_fn is None:
        return finite(0.5 * dots(ps, ps) + each(ham.potential, qs))
    return np.array([ham.at(q).value(p) for q, p in zip(qs, ps)])


def forms(mag, qs):
    """Omega(q) at each q, as MagneticStructure.form_matrix builds it."""
    n = mag.n
    omega = np.zeros((len(qs), 2 * n, 2 * n))
    omega[:, :n, :n] = -each(mag.b_matrix, qs)
    omega[:, :n, n:] = np.eye(n)
    omega[:, n:, :n] = -np.eye(n)
    return omega


def structure_solves(omega, grads):
    """dynamics.structure_solve at each sample."""
    x = np.linalg.solve(tr(omega), grads[..., None])[..., 0]
    residual = norms(mv(tr(omega), x) - grads)
    if not (residual <= SOLVER_TOL * (1.0 + norms(grads))).all():
        raise Tripped()
    return x


def lifts(jacs, vectors):
    """hj.tangent_lift at each sample."""
    return np.concatenate([vectors, mv(jacs, vectors)], axis=1)


def match_residuals(jacs, b_field, qs, basis):
    """geometry.magnetic_match_residual at each q; ``basis`` None means
    all of T_q Q."""
    total = (tr(jacs) - jacs) + each(b_field.matrix, qs)
    if basis is None:
        basis = np.eye(qs.shape[1])
    if basis.shape[-1] == 0:
        return np.zeros(len(qs))
    return max_abs(tr(basis) @ total @ basis)


class Frames:
    """SurfaceFrame data over every sample's base point, stacked.

    A(q) and its rank guard come first; a position-dependent mass takes
    each sample's BaseTerms and SurfaceFrame for its mass terms.
    """

    def __init__(self, dist, ham, qs):
        if dist.k == 0 or not ham.is_quadratic:
            raise Tripped()  # the per-sample functions take their own paths
        self.dist, self.ham, self.qs = dist, ham, qs
        self.unit = ham._mass_fn is None
        rows = finite(each(dist._rows_fn, qs).reshape(len(qs), dist.k, dist.n))
        if (rank_of(rows) < dist.k).any():
            raise Tripped()
        self.rows = rows

    @cached_property
    def terms(self):
        return [self.ham.at(q) for q in self.qs]

    @cached_property
    def inverse(self):
        if self.unit:
            return np.eye(self.dist.n)
        return np.array([terms.inverse for terms in self.terms])

    @cached_property
    def rows_inverse(self):
        return self.rows @ self.inverse

    @cached_property
    def basis(self):
        """Orthonormal columns spanning each D_q."""
        return null_space(self.rows)

    def velocity(self, ps):
        if self.unit:
            return ps
        return np.array([terms.velocity(p) for terms, p in zip(self.terms, ps)])

    def residual(self, ps):
        return mv(self.rows, self.velocity(ps))

    def jacobian(self, ps):
        """Dc at each (q, p), shape (N, k, 2n)."""
        if not self.unit:
            return np.array([SurfaceFrame(self.dist, terms).jacobian(p)
                             for terms, p in zip(self.terms, ps)])
        dist = self.dist
        n = dist.n
        jac = np.zeros((len(ps), dist.k, 2 * n))
        jac[:, :, n:] = self.rows_inverse
        grads = each(dist.rows_gradient, self.qs)
        jac[:, :, :n] = tr((grads @ mv(self.inverse, ps)[:, None, :, None])[..., 0])
        return jac

    def admissible(self, ps, tol):
        """nonholonomic.admissible_basis at each (q, p), surface check first."""
        if (max_abs(self.residual(ps)) > tol).any():
            raise Tripped()
        k, n = self.dist.k, self.dist.n
        stacked = np.zeros((len(ps), 2 * k, 2 * n))
        stacked[:, :k, :n] = self.rows
        stacked[:, k:] = self.jacobian(ps)
        return null_space(stacked)

    def multiplier_fields(self, ps, free):
        """nonholonomic.multiplier_correction's X at each sample."""
        k, n = self.dist.k, self.dist.n
        jac = self.jacobian(ps)
        lifted = np.zeros((len(ps), 2 * n, k))
        lifted[:, n:, :] = -tr(self.rows)
        lam = np.linalg.solve(jac @ lifted, mv(-jac, free)[..., None])[..., 0]
        return free + mv(lifted, lam)


# -- the section and reduction batteries ---------------------------------------

def section_hypotheses(section, frames, gs, tolerances):
    """hj.section_hypotheses at each q of ``frames``, with gamma(q) = gs:
    (image residuals, tangent residuals, section Jacobians)."""
    image_tol = tolerances.get("constraint")
    image = max_abs(frames.residual(gs))
    if (image > image_tol).any():
        raise Tripped()
    basis = frames.admissible(gs, image_tol)
    projector = basis @ tr(basis)
    jacs = each(section.jacobian, frames.qs)
    tangent = np.zeros(len(gs))
    for j in range(frames.basis.shape[2]):
        lifted = lifts(jacs, frames.basis[:, :, j])
        tangent = np.fmax(tangent, max_abs(lifted - mv(projector, lifted)))
    if (tangent > tolerances.get("membership")).any():
        raise Tripped()
    return image, tangent, jacs


def invariance(sym, dist, ham, mag, qs, ps):
    """reduction.data_invariance_residual at the points (qs, ps)."""
    b = each(mag.b_matrix, qs)
    mass = each(ham.mass_matrix, qs)
    energy = energies(ham, qs, ps)
    rows = Frames(dist, ham, qs).rows if dist is not None and dist.k > 0 else None
    values = []
    for c in sym.cyclic:
        moved = qs.copy()
        moved[:, c] += SHIFT
        finite(moved)
        values += [max_abs(each(mag.b_matrix, moved) - b),
                   max_abs(each(ham.mass_matrix, moved) - mass),
                   np.abs(energies(ham, moved, ps) - energy)]
        if rows is not None:
            values.append(max_abs(Frames(dist, ham, moved).rows - rows))
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
        frames = Frames(dist, ham, qs[idx])
        _, _, jacs = section_hypotheses(section, frames, gs[idx], tolerances)
        return (match_residuals(jacs, mag.b_field, qs[idx], frames.basis),)

    (twist,) = by_rank(len(qs), pipeline)
    hyp_worst = worst(twist)
    if hyp_worst > tolerances.get("hypothesis"):
        defects.append("d(gamma) + B does not vanish on the distribution")
    return hyp_worst, defects, gs


def reduced_fields(sym, frames, ham, mag, ps, tolerances):
    """reduction.reduced_field at each (q, p): (reduced vectors, bases)."""
    qs, n = frames.qs, sym.n
    admissible = frames.admissible(ps, tolerances.get("constraint"))
    generators = sym.generators()
    vertical = generators @ null_space(frames.rows @ generators[:n])
    omega = forms(mag, qs)
    descent = admissible
    if vertical.shape[2]:
        descent = admissible @ null_space(tr(vertical) @ omega @ admissible)
    selection = sym.selection()
    pushed = selection @ descent
    basis = column_space(pushed)
    coeffs = np.array([np.linalg.lstsq(a, b, rcond=None)[0]
                       for a, b in zip(pushed, basis)])
    lifted = descent @ coeffs
    reduced = tr(lifted) @ omega @ lifted
    rhs = mv(tr(basis), mv(selection, gradients(ham, qs, ps)))
    xi = np.linalg.solve(tr(reduced), rhs[..., None])[..., 0]
    return mv(basis, xi), basis


# -- the residual kernels ------------------------------------------------------
# The goldens hold only while every operand below keeps its per-sample layout
# (C-contiguous, or tr() of a C-contiguous stack) and no np.einsum is used;
# see the module docstring.

def free_fields(ham, mag, qs, ps):
    return structure_solves(forms(mag, qs), gradients(ham, qs, ps))


def type1_equation(ham, mag, qs, gs, jacs, level):
    """hj.type1_residual at each section point (q, gs): ``level(free)``
    gives the selection (None for the identity) and the target field."""
    n = ham.n
    free = free_fields(ham, mag, qs, gs)
    lifted = lifts(jacs, free[:, :n])
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
    grads = gradients(ham, wq, wp)
    free = structure_solves(forms(mag, wq), grads)
    projector, selection, target = level(wq, wp, free)
    x_pull = structure_solves(forms(mag, zs[:, :n]), finite(mv(tr(map_jacs), grads)))
    lam_push = lifts(each(section.jacobian, wq), free[:, :n])
    pushed = mv(map_jacs, x_pull)
    if selection is not None:
        pushed = mv(selection, pushed)
        lam_push = mv(selection, lam_push)
    if projector is not None:
        pushed = mv(projector, pushed)
    if target is None:
        target = free
    return max_abs(pushed - lam_push), max_abs(lam_push - target)


def pullback_defects(mag, zs, ws, map_jacs):
    """dynamics.pullback_defect at each sample."""
    n = mag.n
    defect = tr(map_jacs) @ forms(mag, ws[:, :n]) @ map_jacs - forms(mag, zs[:, :n])
    return np.abs(defect).max(axis=(1, 2))


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
    hyp = match_residuals(jacs, mag.b_field, qs, None)
    equation = type1_equation(ham, mag, qs, each(section.value, qs), jacs,
                              lambda free: (None, free))
    return [{"q": q, "hypothesis": h, "equation": e}
            for q, h, e in zip(qs.tolist(), hyp.tolist(), equation.tolist())]


def type1_constrained(section, dist, ham, mag, samples, tolerances):
    qs = configs(samples, dist.n)

    def pipeline(idx):
        frames = Frames(dist, ham, qs[idx])
        gs = each(section.value, frames.qs)
        image, tangent, jacs = section_hypotheses(section, frames, gs, tolerances)
        hyp = match_residuals(jacs, mag.b_field, frames.qs, frames.basis)
        equation = type1_equation(ham, mag, frames.qs, gs, jacs, lambda free: (
            None, frames.multiplier_fields(gs, free)))
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
        frames = Frames(dist, ham, qs[idx])
        jacs = each(section.jacobian, frames.qs)
        return (type1_equation(ham, mag, frames.qs, gs[idx], jacs, lambda free: (
            selection, reduced_fields(sym, frames, ham, mag, gs[idx], tolerances)[0])),)

    (equation,) = by_rank(len(qs), pipeline)
    return hyp_worst, defects, [{"q": q, "equation": e}
                                for q, e in zip(qs.tolist(), equation.tolist())]


def type2_magnetic(section, phase_map, ham, mag, samples):
    zs = _points(samples)
    ws = images(phase_map, zs)
    map_jacs = map_jacobians(phase_map, zs)
    a, b = type2_residuals(section, ham, mag, zs, ws, map_jacs,
                           lambda wq, wp, free: (None, None, None))
    return _first(pullback_defects(mag, zs, ws, map_jacs), a, b)


def type2_constrained(section, phase_map, dist, ham, mag, samples, tolerances):
    zs = _points(samples)
    n = dist.n
    ws = images(phase_map, zs)
    map_jacs = map_jacobians(phase_map, zs)
    constraint_tol = tolerances.get("constraint")

    def pipeline(idx):
        frames = Frames(dist, ham, ws[idx, :n])
        section_hypotheses(section, frames, each(section.value, frames.qs), tolerances)

        def level(wq, wp, free):
            basis = frames.admissible(wp, constraint_tol)
            return basis @ tr(basis), None, frames.multiplier_fields(wp, free)

        return type2_residuals(section, ham, mag, zs[idx], ws[idx], map_jacs[idx], level)

    a, b = by_rank(len(zs), pipeline)
    return _first(pullback_defects(mag, zs, ws, map_jacs), a, b)


def type2_reduced(section, phase_map, sym, dist, ham, mag, samples, tolerances):
    """(worst twist residual, worst symplectic residual, defects, first
    evaluation); the last is None with defects."""
    zs = _points(samples)
    n = sym.n
    ws = images(phase_map, zs)
    hyp_worst, defects, _ = reduced_battery(section, sym, dist, ham, mag, ws[:, :n],
                                            tolerances)
    map_jacs = map_jacobians(phase_map, zs)
    symp_worst = worst(pullback_defects(mag, zs, ws, map_jacs))
    if symp_worst > tolerances.get("hypothesis"):
        defects.append(f"phase map is not structure preserving ({symp_worst:.3e})")
    equi = worst([max_abs(images(phase_map, finite(moved)) - ws - offset)
                  for offset, moved in _shifted(sym, zs, 2 * n)])
    if equi > tolerances.get("invariance"):
        defects.append(f"phase map is not translation equivariant ({equi:.3e})")
    if defects:
        return hyp_worst, symp_worst, defects, None

    def pipeline(idx):
        frames = Frames(dist, ham, ws[idx, :n])

        def level(wq, wp, free):
            reduced, basis = reduced_fields(sym, frames, ham, mag, wp, tolerances)
            return basis @ tr(basis), sym.selection(), reduced

        return type2_residuals(section, ham, mag, zs[idx], ws[idx], map_jacs[idx], level)

    a, b = by_rank(len(zs), pipeline)
    return hyp_worst, symp_worst, defects, _first(None, a, b)


def closedness_residuals(b_field, qs):
    """geometry.two_form_closedness_residual, at its default step, at each q."""
    step = 1e-4
    n = qs.shape[1]
    if n < 3:
        return np.zeros(len(qs))
    partials = np.empty((len(qs), n, n, n))
    for k in range(n):
        shift = np.zeros(n)
        shift[k] = step
        partials[:, k] = (each(b_field.matrix, qs + shift)
                          - each(b_field.matrix, qs - shift)) / (2 * step)
    residual = np.zeros(len(qs))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                cyclic = (partials[:, i, j, k] + partials[:, j, k, i]
                          + partials[:, k, i, j])
                residual = np.fmax(residual, np.abs(cyclic))
    return residual


def compatibility(dist, ham, mag, zs, sigma_tol):
    """nonholonomic.compatibility_report at each stacked point: its six
    fields, each an array over the samples."""
    n = dist.n

    def pipeline(idx):
        qs, ps = zs[idx, :n], zs[idx, n:]
        frames = Frames(dist, ham, qs)
        omega = forms(mag, qs)
        base_condition = np.zeros((len(qs), dist.k, 2 * n))
        base_condition[:, :, :n] = frames.rows
        f_basis = null_space(base_condition)
        tm_basis = null_space(frames.jacobian(ps))
        f_perp = null_space(tr(f_basis) @ omega)
        intersection = tm_basis.shape[2] + f_perp.shape[2] - rank_of(
            np.concatenate([tm_basis, f_perp], axis=2))
        k_basis = frames.admissible(ps, DEFAULT_TOLERANCES.get("constraint"))
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
        frames = Frames(dist, ham, qs[idx])
        reduced, _ = reduced_fields(sym, frames, ham, mag, ps[idx], tolerances)
        full = frames.multiplier_fields(ps[idx], free_fields(ham, mag, qs[idx], ps[idx]))
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
    closedness = max(closedness_residuals(mag.b_field, qs).tolist())
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
            basis = None if dist.k == 0 else Frames(dist, ham, qs[idx]).basis
            return (match_residuals(jacs[idx], mag.b_field, qs[idx], basis),)

        data["gamma_match_residual"] = max(by_rank(len(qs), match)[0].tolist())
    if epsilon is not None:
        head = zs[:10]
        data["symplectic_residual"] = max(pullback_defects(
            mag, head, images(epsilon, head), map_jacobians(epsilon, head)).tolist())
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
    frames = Frames(dist, ham, zs[:, :n])
    gram = frames.rows_inverse @ tr(frames.rows)
    rhs = mv(frames.rows_inverse, zs[:, n:])
    if dist.k == 1:
        pivot = gram[:, 0, 0]
        if (pivot == 0.0).any():
            raise Tripped()
        solved = rhs / pivot[:, None]
    else:
        solved = np.linalg.solve(gram, rhs[..., None])[..., 0]
    ps = finite(zs[:, n:] - mv(tr(frames.rows), solved))
    return [PhasePoint(q, p) for q, p in zip(frames.qs, ps)]


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
