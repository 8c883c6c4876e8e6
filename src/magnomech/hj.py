"""Residual checks for the two Hamilton-Jacobi equation types.

A Type I check asks whether a covector section reproduces the dynamical
field through its own base flow; a Type II check compares two pushforward
relations attached to a structure-preserving phase map. Each check reports
a hypothesis residual and equation residual(s) per sample: when the
hypothesis fails the verdict is VACUOUS and the equation numbers are
informational only.
Each equation type has one residual kernel (type1_residual,
_type2_residuals) shared by the magnetic, distributional and reduced
levels, which differ only in their ``level`` callback.
"""

import dataclasses
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .dynamics import magnetic_vector_field, pullback_defect, structure_solve
from .errors import NumericalDomainError, SectionTangentError
from .geometry import (
    PhasePoint,
    TwoFormField,
    ensure_config,
    exterior_derivative,
    magnetic_match_residual,
)
from .linalg import max_abs
from .nonholonomic import (
    admissible_basis,
    multiplier_field,
    section_point,
    surface_frame,
)
from .tolerances import DEFAULT_TOLERANCES, STATUS_BAND_FACTOR

PASS = "PASS"
FAIL = "FAIL"
VACUOUS = "VACUOUS"


@dataclass
class HJReport:
    check: str
    verdict: str
    hypothesis_residual: float
    equation_residual: float = None
    residual_a: list = None
    residual_b: list = None
    per_sample: list = field(default_factory=list)
    defects: list = field(default_factory=list)

    def as_dict(self):
        """Everything but ``check``, which names the CLI's CheckReport."""
        out = {
            "verdict": self.verdict,
            "hypothesis_residual": self.hypothesis_residual,
            "defects": list(self.defects),
            "per_sample": list(self.per_sample),
        }
        if self.equation_residual is not None:
            out["equation_residual"] = self.equation_residual
        if self.residual_a is not None:
            out["residual_a"] = list(self.residual_a)
            out["residual_b"] = list(self.residual_b)
        return out


def status_of(value, tol):
    return "zero" if value < tol else "nonzero"


def in_band(value, tol):
    return tol <= value < STATUS_BAND_FACTOR * tol


def _refined(obj):
    """Copy of a section or map with a 10x smaller finite-difference step."""
    if getattr(obj, "jacobian_fn", None) is None and hasattr(obj, "step"):
        return dataclasses.replace(obj, step=obj.step / 10.0)
    return obj


def tangent_lift(jac, base_vector):
    """Tangent image (x, J x) of a base vector under a section whose
    Jacobian at the base point is J."""
    base_vector = np.asarray(base_vector, dtype=float)
    return np.concatenate([base_vector, jac @ base_vector])


def section_tangent_residual(section, dist, ham, z, image_tol):
    """How far the section's tangent images of D stray from the admissible
    subspace at the section point z, which must lie within ``image_tol`` of
    the constraint surface."""
    basis = admissible_basis(dist, ham, z, tol=image_tol)
    projector = basis @ basis.T
    jac = section.jacobian(z.q)
    worst = 0.0
    for column in surface_frame(dist, ham, z.q).basis.T:
        lifted = tangent_lift(jac, column)
        worst = max(worst, max_abs(lifted - projector @ lifted))
    return worst


def section_hypotheses(section, dist, ham, q, tolerances=DEFAULT_TOLERANCES):
    """The section point z = (q, gamma(q)) and its image and tangent residuals.

    Every statement is about sections with values on the constraint surface
    whose tangent images of D are admissible. A section that breaks either
    is a scenario defect at every level, constrained and reduced alike:
    SectionImageError above the ``constraint`` tolerance, SectionTangentError
    above ``membership``.
    """
    image_tol = tolerances.get("constraint")
    q = ensure_config(q, dist.n)
    z, image = section_point(section, dist, ham, q, image_tol)
    tangent = section_tangent_residual(section, dist, ham, z, image_tol)
    if tangent > tolerances.get("membership"):
        raise SectionTangentError(
            f"section tangents leave the admissible subspace at q={q} "
            f"(residual {tangent:.3e})")
    return z, image, tangent


def type1_residual(section, ham, mag, z, level):
    """The Type I residual |S T gamma . X^gamma - target| at a section point z.

    X, the free field at z, and the tangent lift of its base flow X^gamma
    are computed once; ``level(z, X)`` gives the level's selection S (None
    for the identity) and its target field.
    """
    free = magnetic_vector_field(ham, mag, z)
    lifted = tangent_lift(section.jacobian(z.q), free.dq)
    selection, target = level(z, free)
    if selection is not None:
        lifted = selection @ lifted
    return max_abs(lifted - target)


def _type1_report(check_name, rows, tolerances, defect):
    """VACUOUS with ``defect`` when the worst twist residual exceeds the
    ``hypothesis`` tolerance, else PASS or FAIL on the worst equation one."""
    hyp_worst = max([0.0] + [row["hypothesis"] for row in rows])
    eq_worst = max([0.0] + [row["equation"] for row in rows])
    if hyp_worst > tolerances.get("hypothesis"):
        verdict, defects = VACUOUS, [defect]
    else:
        verdict = PASS if eq_worst < tolerances.get("equation") else FAIL
        defects = []
    return HJReport(check_name, verdict, hyp_worst, equation_residual=eq_worst,
                    per_sample=rows, defects=defects)


def type1_magnetic(section, ham, mag, samples, tolerances=DEFAULT_TOLERANCES):
    """Type I check for the unconstrained magnetic system.

    Hypothesis: d(gamma) = -B on all of TQ. Equation: the section maps its
    own base flow onto the dynamical field.
    """
    rows = []
    for q in samples:
        q = ensure_config(q, ham.n)
        hyp = magnetic_match_residual(section, mag.b_field, q)
        equation = type1_residual(section, ham, mag, PhasePoint(q, section.value(q)),
                                  lambda z, free: (None, free.vec))
        rows.append({"q": q.tolist(), "hypothesis": hyp, "equation": equation})
    return _type1_report("hj1-magnetic", rows, tolerances,
                         "hypothesis: d(gamma) + B does not vanish")


def type1_constrained(section, dist, ham, mag, samples,
                      tolerances=DEFAULT_TOLERANCES):
    """Type I check for the constrained system.

    The section hypotheses of :func:`section_hypotheses` raise; only the
    twist hypothesis d(gamma) + B = 0 on D can make the verdict VACUOUS.
    """

    def level(z, free):
        return None, multiplier_field(dist, ham, z, free).vector.vec

    rows = []
    for q in samples:
        z, image, tangent = section_hypotheses(section, dist, ham, q, tolerances)
        hyp = magnetic_match_residual(section, mag.b_field, z.q,
                                      basis=surface_frame(dist, ham, z.q).basis)
        rows.append({"q": z.q.tolist(), "hypothesis": hyp,
                     "equation": type1_residual(section, ham, mag, z, level),
                     "image": image, "tangent": tangent})
    return _type1_report("hj1-distributional", rows, tolerances,
                         "hypothesis: d(gamma) + B does not vanish on the distribution")


def _type2_residuals(section, phase_map, ham, mag, z, image, jac_eps, level):
    """The two Type II residuals at one sample z.

    ``image`` and ``jac_eps`` are eps(z) and J_eps(z) when the caller holds
    them, else None. ``level(image, free)`` gives, at the image point, the
    level's projector P and selection S (None for the identity) and its
    target field (None for the free field there); ``free()`` solves for the
    free field at the image once. X_pull, the field of H o eps, solves
    Omega(z)^T X_pull = J_eps^T dH(eps(z)) (pullback_hamiltonian is its
    oracle). With lambda the section's tangent image of the free flow at
    the image point, the residuals are a = |P S J_eps X_pull - S lambda|
    and b = |S lambda - target|.
    """
    if image is None:
        image = phase_map.value(z)
    free = cache(lambda: magnetic_vector_field(ham, mag, image))
    projector, selection, target = level(image, free)
    if jac_eps is None:
        jac_eps = phase_map.jacobian(z)
    grad_pull = jac_eps.T @ ham.gradient(image)
    if not np.isfinite(grad_pull).all():
        raise NumericalDomainError("Hamiltonian gradient is non-finite")
    x_pull = structure_solve(mag.form_matrix(z.q), grad_pull)
    x_image = free()
    lam_push = tangent_lift(section.jacobian(image.q), x_image.dq)
    pushed = jac_eps @ x_pull
    if selection is not None:
        pushed = selection @ pushed
        lam_push = selection @ lam_push
    if projector is not None:
        pushed = projector @ pushed
    if target is None:
        target = x_image.vec
    return max_abs(pushed - lam_push), max_abs(lam_push - target)


def type2_report(check_name, section, phase_map, ham, mag, samples, tolerances,
                 level, hypothesis=None, images=None):
    """Per-sample status agreement of the two Type II residuals at one level.

    A residual inside the status band is recomputed once, with a refined
    section and map, at 10x smaller finite-difference steps before its
    status is read. The unreduced levels record the map's symplectic
    residual per sample as their hypothesis (VACUOUS above the
    ``hypothesis`` tolerance); the reduced level has run its own battery and
    passes its worst twist residual as ``hypothesis``. ``images`` holds
    eps(z) per sample when a caller's pre-pass already evaluated them; each
    sample's eps(z) and J_eps(z) are otherwise evaluated once here.
    """
    status_tol = tolerances.get("status")
    rows = []
    hyp_worst = 0.0
    agree = True
    for index, z in enumerate(samples):
        row = {"z": z.vec.tolist()}
        image = None if images is None else images[index]
        jac = None
        if hypothesis is None:
            # in symplectic_residual's order: J_eps(z), then eps(z)
            jac = phase_map.jacobian(z)
            if image is None:
                image = phase_map.value(z)
            row["symplectic"] = pullback_defect(mag, z, image, jac)
            hyp_worst = max(hyp_worst, row["symplectic"])
        a, b = _type2_residuals(section, phase_map, ham, mag, z, image, jac, level)
        if in_band(a, status_tol) or in_band(b, status_tol):
            a, b = _type2_residuals(_refined(section), _refined(phase_map),
                                    ham, mag, z, None, None, level)
        row.update(residual_a=a, residual_b=b, status_a=status_of(a, status_tol),
                   status_b=status_of(b, status_tol))
        agree = agree and (row["status_a"] == row["status_b"])
        rows.append(row)
    res_a = [row["residual_a"] for row in rows]
    res_b = [row["residual_b"] for row in rows]
    disagree = "statuses of the two residuals disagree"
    if hypothesis is not None:
        hyp_worst, disagree = hypothesis, "statuses disagree"
    elif hyp_worst > tolerances.get("hypothesis"):
        return HJReport(check_name, VACUOUS, hyp_worst, residual_a=res_a,
                        residual_b=res_b, per_sample=rows,
                        defects=["hypothesis: phase map is not structure preserving"])
    return HJReport(check_name, PASS if agree else FAIL, hyp_worst,
                    residual_a=res_a, residual_b=res_b, per_sample=rows,
                    defects=[] if agree else [disagree])


def type2_magnetic(section, phase_map, ham, mag, samples,
                   tolerances=DEFAULT_TOLERANCES):
    """Type II check for the unconstrained magnetic system.

    The claim is an equivalence, so the verdict compares the zero/nonzero
    status of the two residuals at every sample instead of their values.
    """
    return type2_report("hj2-magnetic", section, phase_map, ham, mag, samples,
                        tolerances, lambda image, free: (None, None, None))


def type2_constrained(section, phase_map, dist, ham, mag, samples,
                      tolerances=DEFAULT_TOLERANCES):
    """Type II check for the constrained system.

    Samples must be chosen so the phase map lands on the constraint
    surface; the section hypotheses are checked at every image point first.
    """
    images = []
    for z in samples:
        images.append(phase_map.value(z))
        section_hypotheses(section, dist, ham, images[-1].q, tolerances)
    constraint_tol = tolerances.get("constraint")

    def level(image, free):
        basis = admissible_basis(dist, ham, image, tol=constraint_tol)
        return basis @ basis.T, None, multiplier_field(dist, ham, image, free()).vector.vec

    return type2_report("hj2-distributional", section, phase_map, ham, mag, samples,
                        tolerances, level, images=images)


def induced_magnetic_field(section, n):
    """The two-form -d(gamma); pairing it with gamma satisfies the Type I
    hypothesis identically (the constructive direction)."""
    return TwoFormField.from_matrix_fn(
        lambda q: -exterior_derivative(section, q), n, check=False)
