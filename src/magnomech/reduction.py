"""Symmetry reduction for translation groups acting on cyclic coordinates.

The quotient drops the cyclic configuration coordinates and keeps every
momentum, so reduced points are (q_bar, p) stacked into one vector. The
subspace that descends is found inside the admissible subspace by pairing
against the vertical directions with the twisted structure; the reduced
field solves the structure equation in a basis of the pushed-down subspace.
:func:`reduced_field` builds that basis (a :class:`ReducedFrame`) itself,
with the on-surface check of :func:`descent_basis`, and returns it with
the field. The reduced checks call the Type I and Type II kernels of
:mod:`hj` with a reduced ``level``.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import symplectic_residual
from .errors import DegenerateFormError, NumericalDomainError
from .geometry import PhasePoint, ensure_config, magnetic_match_residual
from .hj import (
    FAIL,
    PASS,
    VACUOUS,
    HJReport,
    section_hypotheses,
    type1_residual,
    type2_report,
)
from .linalg import column_space, max_abs, null_space
from .nonholonomic import admissible_basis, constrained_field, surface_frame
from .tolerances import DEFAULT_TOLERANCES

# finite cyclic translation of the invariance checks: exact invariance gives
# exactly zero, so a generous shift is fine and avoids differencing noise
SHIFT = 0.37


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


def data_invariance_residual(sym, dist, ham, mag, probes):
    """Largest change of system data under finite cyclic translations."""
    worst = 0.0
    for z in probes:
        for c in sym.cyclic:
            moved = z.q.copy()
            moved[c] += SHIFT
            worst = max(worst, max_abs(mag.b_matrix(moved) - mag.b_matrix(z.q)))
            worst = max(worst, max_abs(ham.mass_matrix(moved) - ham.mass_matrix(z.q)))
            worst = max(worst, abs(ham.value(PhasePoint(moved, z.p)) - ham.value(z)))
            if dist is not None and dist.k > 0:
                worst = max(worst, max_abs(surface_frame(dist, ham, moved).rows
                                           - surface_frame(dist, ham, z.q).rows))
    return worst


def section_invariance_residual(sym, section, probes):
    worst = 0.0
    for q in probes:
        for c in sym.cyclic:
            moved = np.asarray(q, dtype=float).copy()
            moved[c] += SHIFT
            worst = max(worst, max_abs(section.value(moved) - section.value(q)))
    return worst


def map_equivariance_residual(sym, phase_map, probes):
    """Deviation of a phase map from commuting with the group translations."""
    worst = 0.0
    for z in probes:
        base = phase_map.value(z).vec
        for c in sym.cyclic:
            offset = np.zeros(2 * sym.n)
            offset[c] = SHIFT
            moved = phase_map.value(PhasePoint.from_vec(z.vec + offset)).vec
            worst = max(worst, max_abs(moved - base - offset))
    return worst


def vertical_basis(sym, dist, ham, z):
    """Orthonormal basis of the group directions inside the admissible
    subspace (possibly empty)."""
    generators = sym.generators()
    if dist is None or dist.k == 0:
        return generators
    rows = surface_frame(dist, ham, z.q).rows
    base_parts = generators[: sym.n]
    conditions = rows @ base_parts
    coeffs = null_space(conditions)
    return generators @ coeffs


def descent_basis(sym, dist, ham, mag, z, tolerances=DEFAULT_TOLERANCES):
    """Basis of the subspace of admissible vectors that push down.

    These are admissible vectors whose twisted pairing with every vertical
    admissible direction vanishes. z must lie on the constraint surface
    within the ``constraint`` tolerance.
    """
    basis = admissible_basis(dist, ham, z, tol=tolerances.get("constraint"))
    vertical = vertical_basis(sym, dist, ham, z)
    if vertical.shape[1] == 0:
        return basis
    omega = mag.form_matrix(z.q)
    pairings = vertical.T @ omega @ basis
    coeffs = null_space(pairings)
    return basis @ coeffs


@dataclass
class ReducedFrame:
    """Reduced basis and the reduced structure matrix at one point."""

    selection: np.ndarray
    basis: np.ndarray
    omega: np.ndarray

    @property
    def dim(self):
        return self.basis.shape[1]

    def projector(self):
        return self.basis @ self.basis.T

    def sigma_min(self):
        if self.omega.size == 0:
            return 0.0
        return float(np.linalg.svd(self.omega, compute_uv=False)[-1])


def reduced_frame(sym, dist, ham, mag, z, tolerances=DEFAULT_TOLERANCES):
    descent = descent_basis(sym, dist, ham, mag, z, tolerances)
    selection = sym.selection()
    pushed = selection @ descent
    basis = column_space(pushed)
    coeffs, *_ = np.linalg.lstsq(pushed, basis, rcond=None)
    lifts = descent @ coeffs
    omega = lifts.T @ mag.form_matrix(z.q) @ lifts
    return ReducedFrame(selection, basis, omega)


def reduced_field(sym, dist, ham, mag, z, tolerances=DEFAULT_TOLERANCES):
    """The reduced dynamical vector at the class of z, as a reduced vector,
    and the ReducedFrame it was solved in. z must lie on the constraint
    surface within the ``constraint`` tolerance (see descent_basis)."""
    frame = reduced_frame(sym, dist, ham, mag, z, tolerances)
    grad_bar = frame.selection @ ham.gradient(z)
    rhs = frame.basis.T @ grad_bar
    try:
        xi = np.linalg.solve(frame.omega.T, rhs)
    except np.linalg.LinAlgError:
        raise DegenerateFormError("reduced structure matrix is singular") from None
    return frame.basis @ xi, frame


def reduced_energy(sym, ham, zbar, fill=None):
    """The quotient Hamiltonian evaluated through an arbitrary lift."""
    return ham.value(sym.lift_point(zbar, fill=fill))


def relatedness_residual(sym, dist, ham, mag, samples,
                         tolerances=DEFAULT_TOLERANCES):
    """Pushforward of the constrained field versus the reduced field."""
    selection = sym.selection()
    worst = 0.0
    for z in samples:
        reduced, _ = reduced_field(sym, dist, ham, mag, z, tolerances)
        full = constrained_field(dist, ham, mag, z)
        worst = max(worst, max_abs(selection @ full.vec - reduced))
    return worst


def relatedness_check(sym, dist, ham, mag, samples, tolerances=DEFAULT_TOLERANCES):
    """Verdict-style wrapper around the relatedness residual.

    Broken invariance makes the comparison meaningless, so it yields
    VACUOUS rather than FAIL.
    """
    invariance = data_invariance_residual(sym, dist, ham, mag, samples)
    if invariance > tolerances.get("invariance"):
        return VACUOUS, {"invariance_residual": invariance,
                         "defects": ["system data varies along cyclic coordinates"]}
    residual = relatedness_residual(sym, dist, ham, mag, samples,
                                    tolerances=tolerances)
    verdict = PASS if residual < tolerances.get("related") else FAIL
    return verdict, {"invariance_residual": invariance,
                     "relatedness_residual": residual}


def _reduced_hypotheses(section, sym, dist, ham, mag, qs, tolerances):
    """Hypothesis battery for the reduced checks.

    The section hypotheses raise as at the constrained level
    (:func:`hj.section_hypotheses`). The reduced-only hypotheses, invariance
    of the system data and of the section, and the twist d(gamma) + B = 0
    on D give named defects instead. Returns (worst twist residual,
    defects, the section points (q, gamma(q))); any defect makes the
    verdict VACUOUS since the theorems assert nothing without it.
    """
    defects = []
    probes = [PhasePoint(ensure_config(q, sym.n), section.value(q)) for q in qs]
    inv = data_invariance_residual(sym, dist, ham, mag, probes)
    if inv > tolerances.get("invariance"):
        defects.append(f"system data varies along cyclic coordinates ({inv:.3e})")
    ginv = section_invariance_residual(sym, section, qs)
    if ginv > tolerances.get("invariance"):
        defects.append(f"section varies along cyclic coordinates ({ginv:.3e})")
    hyp_worst = 0.0
    for q in qs:
        section_hypotheses(section, dist, ham, q, tolerances)
        hyp_worst = max(hyp_worst, magnetic_match_residual(
            section, mag.b_field, q, basis=surface_frame(dist, ham, q).basis))
    if hyp_worst > tolerances.get("hypothesis"):
        defects.append("d(gamma) + B does not vanish on the distribution")
    return hyp_worst, defects, probes


def type1_reduced(section, sym, dist, ham, mag, samples,
                  tolerances=DEFAULT_TOLERANCES):
    """Type I check for the reduced system.

    Every reduced-only hypothesis failure produces a VACUOUS verdict with a
    named defect, so scenario authors can tell which assumption broke.
    """
    qs = [ensure_config(q, sym.n) for q in samples]
    hyp_worst, defects, zs = _reduced_hypotheses(
        section, sym, dist, ham, mag, qs, tolerances)
    if defects:
        return HJReport("hj1-reduced", VACUOUS, hyp_worst, equation_residual=None,
                        defects=defects)
    selection = sym.selection()

    def level(z, free):
        return selection, reduced_field(sym, dist, ham, mag, z, tolerances)[0]

    rows = [{"q": z.q.tolist(), "equation": type1_residual(section, ham, mag, z, level)}
            for z in zs]
    eq_worst = max([0.0] + [row["equation"] for row in rows])
    verdict = PASS if eq_worst < tolerances.get("equation") else FAIL
    return HJReport("hj1-reduced", verdict, hyp_worst, equation_residual=eq_worst,
                    per_sample=rows)


def type2_reduced(section, phase_map, sym, dist, ham, mag, samples,
                  tolerances=DEFAULT_TOLERANCES):
    """Type II check for the reduced system (status agreement per sample)."""
    images = [phase_map.value(z) for z in samples]
    hyp_worst, defects, _ = _reduced_hypotheses(
        section, sym, dist, ham, mag, [image.q for image in images], tolerances)
    symp_worst = 0.0
    for z in samples:
        symp_worst = max(symp_worst, symplectic_residual(phase_map, mag, z))
    if symp_worst > tolerances.get("hypothesis"):
        defects.append(f"phase map is not structure preserving ({symp_worst:.3e})")
    equi = map_equivariance_residual(sym, phase_map, samples)
    if equi > tolerances.get("invariance"):
        defects.append(f"phase map is not translation equivariant ({equi:.3e})")
    if defects:
        return HJReport("hj2-reduced", VACUOUS, max(hyp_worst, symp_worst),
                        defects=defects)

    def level(image, free):
        reduced, frame = reduced_field(sym, dist, ham, mag, image, tolerances)
        return frame.projector(), frame.selection, reduced

    return type2_report("hj2-reduced", section, phase_map, ham, mag, samples,
                        tolerances, level, hypothesis=hyp_worst, images=images)


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
