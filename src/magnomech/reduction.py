"""Symmetry reduction for translation groups acting on cyclic coordinates.

The quotient drops the cyclic configuration coordinates and keeps every
momentum, so reduced points are (q_bar, p) stacked into one vector. The
subspace that descends is found inside the admissible subspace by pairing
against the vertical directions with the twisted structure; the reduced
field solves the structure equation in a basis of the pushed-down subspace.
:func:`reduced_field` builds that basis (a :class:`ReducedFrame`) itself,
with the on-surface check of :func:`descent_basis`, and returns it with
the field. The reduced checks call the Type I and Type II kernels of
:mod:`hj` with a reduced ``level``. The invariance residuals, the reduced
frame and field and the relatedness residual are each defined once, for
one point or a stack of points (the functions on a SurfaceFrame; the
public ones on a PhasePoint wrap them). As in :mod:`hj`, each reduced
check runs its entry point in :mod:`stacked`, hypothesis battery
included, on all its samples at once.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .dynamics import free_field
from .errors import DegenerateFormError, NumericalDomainError
from .geometry import PhasePoint, sample_set
from .hj import FAIL, PASS, VACUOUS, HJReport, type1_residual, type2_report
from .linalg import column_space, max_abs_each, mv, null_space, run_stacked, tr, worst
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

    def project_point(self, z):
        return np.concatenate([z.q[self.kept], z.p])

    def lift_point(self, zbar, fill=None):
        """A representative phase point over a reduced point.

        ``fill`` supplies values for the cyclic coordinates (zeros by
        default); every reduced quantity must not depend on it.
        """
        zbar = np.asarray(zbar, dtype=float)
        q = np.zeros(self.n)
        q[self.kept] = zbar[: len(self.kept)]
        if fill is not None:
            q[self.cyclic] = np.asarray(fill, dtype=float)
        return PhasePoint(q, zbar[len(self.kept):])

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


def vertical_basis(sym, dist, ham, z):
    """Orthonormal basis of the group directions inside the admissible
    subspace (possibly empty)."""
    if dist is None:
        return sym.generators()
    return _vertical(sym, surface_frame(dist, ham, z.q))


def _vertical(sym, frame):
    """vertical_basis over the frame's base point or its stack."""
    generators = sym.generators()
    if frame.dist.k == 0:
        return generators
    return generators @ null_space(frame.rows @ generators[: sym.n])


def descent_basis(sym, dist, ham, mag, z, tolerances=DEFAULT_TOLERANCES):
    """Basis of the subspace of admissible vectors that push down.

    These are admissible vectors whose twisted pairing with every vertical
    admissible direction vanishes. z must lie on the constraint surface
    within the ``constraint`` tolerance.
    """
    return _descent(sym, surface_frame(dist, ham, z.q), mag, z.p, tolerances)


def _descent(sym, frame, mag, p, tolerances):
    """descent_basis at (q, p), q the frame's base point, or over a stack."""
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

    @property
    def dim(self):
        return self.basis.shape[-1]

    def projector(self):
        return self.basis @ tr(self.basis)

    def sigma_min(self):
        """The smallest singular value of omega, at one point."""
        if self.omega.size == 0:
            return 0.0
        return float(np.linalg.svd(self.omega, compute_uv=False)[-1])


def reduced_frame(sym, dist, ham, mag, z, tolerances=DEFAULT_TOLERANCES):
    return _reduced_frame(sym, surface_frame(dist, ham, z.q), mag, z.p, tolerances)


def _reduced_frame(sym, frame, mag, p, tolerances):
    """reduced_frame at (q, p), q the frame's base point, or over a stack."""
    descent = _descent(sym, frame, mag, p, tolerances)
    selection = sym.selection()
    pushed = selection @ descent
    basis = column_space(pushed)
    # np.linalg.lstsq does not broadcast: one solve per sample
    lead = pushed.shape[:-2]
    count = int(np.prod(lead))
    coeffs = np.array([np.linalg.lstsq(a, b, rcond=None)[0] for a, b in zip(
        pushed.reshape((count,) + pushed.shape[-2:]),
        basis.reshape((count,) + basis.shape[-2:]))])
    lifts = descent @ coeffs.reshape(lead + coeffs.shape[1:])
    omega = tr(lifts) @ mag.form_matrix(frame.terms.q) @ lifts
    return ReducedFrame(selection, basis, omega)


def reduced_field(sym, dist, ham, mag, z, tolerances=DEFAULT_TOLERANCES):
    """The reduced dynamical vector at the class of z, as a reduced vector,
    and the ReducedFrame it was solved in. z must lie on the constraint
    surface within the ``constraint`` tolerance (see descent_basis)."""
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


def reduced_energy(sym, ham, zbar, fill=None):
    """The quotient Hamiltonian evaluated through an arbitrary lift."""
    return ham.value(sym.lift_point(zbar, fill=fill))


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


def type1_reduced(section, sym, dist, ham, mag, samples,
                  tolerances=DEFAULT_TOLERANCES):
    """Type I check for the reduced system.

    Every reduced-only hypothesis failure produces a VACUOUS verdict with a
    named defect, so scenario authors can tell which assumption broke.
    """
    hyp_worst, defects, rows = run_stacked("type1_reduced", section, sym, dist, ham, mag,
                                           sample_set(samples), tolerances)
    if defects:
        return HJReport("hj1-reduced", VACUOUS, hyp_worst, equation_residual=None,
                        defects=defects)
    eq_worst = max([0.0] + [row["equation"] for row in rows])
    verdict = PASS if eq_worst < tolerances.get("equation") else FAIL
    return HJReport("hj1-reduced", verdict, hyp_worst, equation_residual=eq_worst,
                    per_sample=rows)


def type2_reduced(section, phase_map, sym, dist, ham, mag, samples,
                  tolerances=DEFAULT_TOLERANCES):
    """Type II check for the reduced system (status agreement per sample)."""
    samples = sample_set(samples)
    hyp_worst, symp_worst, defects, first = run_stacked(
        "type2_reduced", section, phase_map, sym, dist, ham, mag, samples, tolerances)
    if defects:
        return HJReport("hj2-reduced", VACUOUS, max(hyp_worst, symp_worst),
                        defects=defects)
    return type2_report("hj2-reduced", section, phase_map, ham, mag, samples,
                        tolerances, first, lambda q: reduced_level(
                            sym, surface_frame(dist, ham, q), mag, tolerances),
                        hypothesis=hyp_worst)


def type2_level_agreement(section, phase_map, sym, dist, ham, mag, samples,
                          tolerances=DEFAULT_TOLERANCES):
    """Joint run of the constrained and reduced Type II checks.

    Returns (constrained report, reduced report, statuses agree sample-wise).
    The agreement of verdict data across the two levels is the content of
    the reduction equivalence for Type II solutions.
    """
    from .hj import type2_constrained

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
