"""Symmetry reduction for translation groups acting on cyclic coordinates.

The quotient drops the cyclic configuration coordinates and keeps every
momentum, so reduced points are (q_bar, p) stacked into one vector. The
subspace that descends is found inside the admissible subspace by pairing
against the vertical directions with the twisted structure; the reduced
field solves the structure equation in a basis of the pushed-down subspace.
:func:`reduced_field` builds that basis (a :class:`ReducedFrame`) itself,
after the surface check of the admissible basis, and returns it with the
field. The reduced checks call the Type I and Type II kernels of
:mod:`hj` with a reduced ``level``. The invariance residuals, the
vertical and descending bases, the reduced frame and field and the
relatedness residual are each defined once, for one point or a stack of
points, on a SurfaceFrame (``surface_frame(dist, ham, q)``) over the base
points; the public functions take PhasePoints and build the frame. As in
:mod:`hj`, each reduced check runs its stages (_type1_reduced,
_type2_reduced), hypothesis battery included, on all its samples at once.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .dynamics import free_field, pullback_defect
from .errors import DegenerateFormError, NumericalDomainError
from .geometry import configs, phase_vectors
from .hj import (
    FAIL,
    PASS,
    VACUOUS,
    HJReport,
    _refine,
    _type2_residuals,
    rows_of,
    twist_on_distribution,
    type1_residual,
    type2_constrained,
    type2_report,
)
from .linalg import (
    by_rank,
    column_space,
    located,
    lstsq_each,
    max_abs_each,
    mv,
    null_space,
    tr,
    worst,
)
from .nonholonomic import admissible, multiplier_correction, surface_frame
from .tolerances import DEFAULT_TOLERANCES

# finite cyclic translation of the invariance checks: exact invariance gives
# exactly zero, so a generous shift is fine and avoids differencing noise
SHIFT = 0.37
REDUCED_ROW = ("q", "equation")


class TranslationSymmetry:
    """Translations along a set of cyclic coordinates.

    ``cyclic`` holds zero-based coordinate indices; every piece of system
    data is expected to be independent of them, which callers verify
    numerically rather than trust.
    """

    def __init__(self, cyclic, n):
        cyclic = sorted(set(int(i) for i in cyclic))
        if any(i < 0 or i >= n for i in cyclic):
            raise NumericalDomainError("cyclic index out of range")
        self.cyclic = cyclic
        self.n = n
        self.m = len(cyclic)
        self.kept = [i for i in range(n) if i not in cyclic]

    def selection(self):
        """Matrix of the quotient's tangent map: drops cyclic dq rows."""
        rows = self.kept + [self.n + i for i in range(self.n)]
        s = np.zeros((len(rows), 2 * self.n))
        for out_row, in_row in enumerate(rows):
            s[out_row, in_row] = 1.0
        return s

    def generators(self):
        """Columns (e_c, 0) spanning the group directions in phase space."""
        gen = np.zeros((2 * self.n, self.m))
        for j, c in enumerate(self.cyclic):
            gen[c, j] = 1.0
        return gen


def _translates(sym, q):
    """The configuration point q, or each of a stack, moved by SHIFT along
    each cyclic coordinate in turn."""
    for c in sym.cyclic:
        moved = np.array(q, dtype=float)
        moved[..., c] += SHIFT
        yield moved


def data_invariance_residual(sym, dist, ham, mag, q, p, frame=None):
    """Largest change of system data under finite cyclic translations, at
    the phase point (q, p) or over a stack of them; A(q) is read from
    ``frame``, the caller's SurfaceFrame over q, when there is one."""
    data = [(mag.b_matrix, 2), (ham.mass_matrix, 2),
            (lambda x: ham.at(x).value(p), 0)]
    constrained = dist is not None and dist.k > 0
    if constrained:
        data.append((dist.matrix, 2))
    # each datum is read at q once, right after its first translate
    at_q = [cache(lambda fn=fn: fn(q)) for fn, _ in data]
    if constrained and frame is not None:
        at_q[-1] = lambda: frame.rows
    return worst([max_abs_each(fn(moved) - base(), ndim)
                  for moved in _translates(sym, q)
                  for (fn, ndim), base in zip(data, at_q)])


def section_invariance_residual(sym, section, q, g):
    """Largest change of the section, whose value at q is g, under finite
    cyclic translations; at a point or over a stack."""
    return worst([max_abs_each(section.value(moved) - g)
                  for moved in _translates(sym, q)])


def map_equivariance_residual(sym, phase_map, z, w):
    """Deviation of a phase map from commuting with the group translations
    at the phase vector z, whose image is w, or over a stack of them."""
    values = []
    for c in sym.cyclic:
        offset = np.zeros(2 * sym.n)
        offset[c] = SHIFT
        values.append(max_abs_each(phase_map.image(z + offset) - w - offset))
    return worst(values)


def _vertical(sym, frame):
    """Orthonormal basis of the group directions inside the admissible
    subspace (possibly empty), over the frame's base point or its stack."""
    generators = sym.generators()
    if frame.dist.k == 0:
        return generators
    return generators @ null_space(frame.rows @ generators[: sym.n])


def _descent(sym, frame, mag, p, tolerances):
    """Basis of the subspace of admissible vectors that push down, at
    (q, p), q the frame's base point, or over a stack.

    These are admissible vectors whose twisted pairing with every vertical
    admissible direction vanishes. (q, p) must lie on the constraint
    surface within the ``constraint`` tolerance.
    """
    basis = admissible(frame, p, tolerances.get("constraint"))
    vertical = _vertical(sym, frame)
    if vertical.shape[-1] == 0:
        return basis
    pairings = tr(vertical) @ mag.form_matrix(frame.terms.q) @ basis
    return basis @ null_space(pairings)


@dataclass
class ReducedFrame:
    """Reduced basis and the reduced structure matrix at one point or over
    a stack."""

    selection: np.ndarray
    basis: np.ndarray
    omega: np.ndarray

    def projector(self):
        return self.basis @ tr(self.basis)


def _reduced_frame(sym, frame, mag, p, tolerances):
    """The ReducedFrame at (q, p), q the frame's base point, or over a
    stack."""
    descent = _descent(sym, frame, mag, p, tolerances)
    selection = sym.selection()
    pushed = selection @ descent
    basis = column_space(pushed)
    lifts = descent @ lstsq_each(pushed, basis)
    omega = tr(lifts) @ mag.form_matrix(frame.terms.q) @ lifts
    return ReducedFrame(selection, basis, omega)


def reduced_field(sym, dist, ham, mag, z, tolerances=DEFAULT_TOLERANCES):
    """The reduced dynamical vector at the class of z, as a reduced vector,
    and the ReducedFrame it was solved in. z must lie on the constraint
    surface within the ``constraint`` tolerance (see _descent)."""
    return _reduced_field(sym, surface_frame(dist, ham, z.q), mag, z.p, tolerances)


def _reduced_field(sym, frame, mag, p, tolerances):
    """reduced_field at (q, p), q the frame's base point, or over a stack."""
    reduced = _reduced_frame(sym, frame, mag, p, tolerances)
    grad_bar = mv(reduced.selection, frame.terms.gradient(p))
    rhs = mv(tr(reduced.basis), grad_bar)
    try:
        xi = np.linalg.solve(tr(reduced.omega), rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise DegenerateFormError("reduced structure matrix is singular") from None
    return mv(reduced.basis, xi), reduced


def relatedness(sym, frame, mag, p, tolerances):
    """|S X - X_bar|, the pushforward of the constrained field against the
    reduced field, at (q, p), q the frame's base point, or over a stack."""
    reduced, _ = _reduced_field(sym, frame, mag, p, tolerances)
    full, _ = multiplier_correction(frame, p, free_field(frame.terms.ham, mag,
                                                          frame.terms.q, p))
    return max_abs_each(mv(sym.selection(), full) - reduced)


def relatedness_residual(sym, dist, ham, mag, samples,
                         tolerances=DEFAULT_TOLERANCES):
    """Pushforward of the constrained field versus the reduced field."""
    return worst([relatedness(sym, surface_frame(dist, ham, z.q), mag, z.p, tolerances)
                  for z in samples])


def relatedness_check(sym, dist, ham, mag, samples, tolerances=DEFAULT_TOLERANCES):
    """Verdict-style wrapper around the relatedness residual.

    Broken invariance makes the comparison meaningless, so it yields
    VACUOUS rather than FAIL.
    """
    samples = list(samples)
    invariance = worst([data_invariance_residual(sym, dist, ham, mag, z.q, z.p)
                        for z in samples])
    return related_verdict(invariance, lambda: relatedness_residual(
        sym, dist, ham, mag, samples, tolerances=tolerances), tolerances)


def related_verdict(invariance, residual, tolerances):
    """relatedness_check's (verdict, data) from the invariance residual and
    ``residual()``, the worst relatedness residual, read only when the
    data are invariant."""
    if invariance > tolerances.get("invariance"):
        return VACUOUS, {"invariance_residual": invariance,
                         "defects": ["system data varies along cyclic coordinates"]}
    residual = residual()
    verdict = PASS if residual < tolerances.get("related") else FAIL
    return verdict, {"invariance_residual": invariance,
                     "relatedness_residual": residual}


def reduced_defects(invariance, section_invariance, twist, tolerances):
    """The reduced-only hypothesis defects: invariance of the system data
    and of the section, and the twist d(gamma) + B = 0 on D."""
    defects = []
    if invariance > tolerances.get("invariance"):
        defects.append(f"system data varies along cyclic coordinates ({invariance:.3e})")
    if section_invariance > tolerances.get("invariance"):
        defects.append(
            f"section varies along cyclic coordinates ({section_invariance:.3e})")
    if twist > tolerances.get("hypothesis"):
        defects.append("d(gamma) + B does not vanish on the distribution")
    return defects


def map_defects(symplectic, equivariance, tolerances):
    """The reduced Type II check's defects of the phase map."""
    defects = []
    if symplectic > tolerances.get("hypothesis"):
        defects.append(f"phase map is not structure preserving ({symplectic:.3e})")
    if equivariance > tolerances.get("invariance"):
        defects.append(f"phase map is not translation equivariant ({equivariance:.3e})")
    return defects


def reduced_equation(section, sym, frame, ham, mag, gs, tolerances):
    """The reduced Type I residual at the section point (q, gs), q the
    frame's base point, or over a stack."""
    q = frame.terms.q
    selection = sym.selection()
    return type1_residual(ham, mag, q, gs, section.jacobian(q), lambda q, p, free: (
        selection, _reduced_field(sym, frame, mag, p, tolerances)[0]))


def reduced_level(sym, frame, mag, tolerances):
    """The reduced Type II level over the SurfaceFrame at the images."""

    def level(q, p, free):
        reduced, rframe = _reduced_field(sym, frame, mag, p, tolerances)
        return rframe.projector(), rframe.selection, reduced

    return level


def _reduced_battery(section, sym, frame, mag, tolerances):
    """The reduced checks' hypothesis battery over the SurfaceFrame's base
    points: (worst twist residual, defects, gamma at each q). The section
    hypotheses raise; the reduced-only ones give the named defects of
    reduced_defects, each of which makes the verdict VACUOUS."""
    qs = frame.terms.q
    gs = section.value(qs)
    invariance = data_invariance_residual(sym, frame.dist, frame.terms.ham, mag, qs, gs,
                                          frame)
    section_invariance = section_invariance_residual(sym, section, qs, gs)
    (twist,) = by_rank(len(qs), lambda idx: twist_on_distribution(
        section, frame.take(idx), gs[idx], mag, tolerances)[3:])
    twist = worst(twist)
    return twist, reduced_defects(invariance, section_invariance, twist, tolerances), gs


def _type1_reduced(section, sym, dist, ham, mag, samples, tolerances):
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


def type1_reduced(section, sym, dist, ham, mag, samples,
                  tolerances=DEFAULT_TOLERANCES):
    """Type I check for the reduced system.

    Every reduced-only hypothesis failure produces a VACUOUS verdict with a
    named defect, so scenario authors can tell which assumption broke.
    """
    hyp_worst, defects, result = _type1_reduced(section, sym, dist, ham, mag, samples,
                                                tolerances)
    if defects:
        return HJReport("hj1-reduced", VACUOUS, hyp_worst, equation_residual=None,
                        defects=defects)
    qs, (equation,) = result
    eq_worst = worst(equation)
    verdict = PASS if eq_worst < tolerances.get("equation") else FAIL
    return HJReport("hj1-reduced", verdict, hyp_worst, equation_residual=eq_worst,
                    per_sample=rows_of(REDUCED_ROW, qs, equation))


def _type2_reduced(section, phase_map, sym, dist, ham, mag, samples, tolerances):
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


def type2_reduced(section, phase_map, sym, dist, ham, mag, samples,
                  tolerances=DEFAULT_TOLERANCES):
    """Type II check for the reduced system (status agreement per sample)."""
    hyp_worst, symp_worst, defects, result = _type2_reduced(
        section, phase_map, sym, dist, ham, mag, samples, tolerances)
    if defects:
        return HJReport("hj2-reduced", VACUOUS, max(hyp_worst, symp_worst),
                        defects=defects)
    return type2_report("hj2-reduced", *result, tolerances, hypothesis=hyp_worst)


def type2_level_agreement(section, phase_map, sym, dist, ham, mag, samples,
                          tolerances=DEFAULT_TOLERANCES):
    """Joint run of the constrained and reduced Type II checks.

    Returns (constrained report, reduced report, statuses agree sample-wise).
    The agreement of verdict data across the two levels is the content of
    the reduction equivalence for Type II solutions.
    """
    full = type2_constrained(section, phase_map, dist, ham, mag, samples,
                             tolerances=tolerances)
    reduced = type2_reduced(section, phase_map, sym, dist, ham, mag, samples,
                            tolerances=tolerances)
    agree = full.verdict == VACUOUS or reduced.verdict == VACUOUS
    if full.per_sample and reduced.per_sample:
        agree = all(
            fr["status_a"] == rr["status_a"] and fr["status_b"] == rr["status_b"]
            for fr, rr in zip(full.per_sample, reduced.per_sample))
    return full, reduced, agree
