"""Residual checks for the two Hamilton-Jacobi equation types.

A Type I check asks whether a covector section reproduces the dynamical
field through its own base flow; a Type II check compares two pushforward
relations attached to a structure-preserving phase map. Each check reports
a hypothesis residual and equation residual(s) per sample: when the
hypothesis fails the verdict is VACUOUS and the equation numbers are
informational only.
Each equation type has one residual kernel (type1_residual,
_type2_residuals) shared by the distributional and reduced levels, which
differ only in their ``level`` callback. The magnetic level is the
distributional one with D = TQ, as in the paper: type1_magnetic and
type2_magnetic run the distributional stages over
ConstraintDistribution.unconstrained(n), whose rows are the empty array
and whose bases are the identity, and report the columns their statements
read. The kernels, the section hypotheses and the Type I rows are each
defined once, for one point or a stack of points in the layout rule of
:mod:`linalg`. Each check calls them in its stages (_type1_constrained,
_type2_constrained), which run on all its samples at once, so a fault
raises the error of the first failing sample (linalg.located). The stages
return the validated samples and the per-sample columns of their one pass;
a check on no samples runs no stage and returns the empty columns (worst
residuals 0.0). The reports here only fold the columns (linalg.worst) and
build the rows once.
"""

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .dynamics import free_field, pullback_defect, structure_solve
from .errors import NumericalDomainError, SectionTangentError
from .geometry import (
    TwoFormField,
    configs,
    exterior_derivative,
    phase_vectors,
    twist_residual,
)
from .linalg import by_rank, first_failing, max_abs_each, mv, tr, worst
from .nonholonomic import (
    ConstraintDistribution,
    admissible,
    multiplier_correction,
    section_image,
    surface_frame,
)
from .tolerances import DEFAULT_TOLERANCES

PASS = "PASS"
FAIL = "FAIL"
VACUOUS = "VACUOUS"
MAGNETIC_ROW = ("q", "hypothesis", "equation")
DISTRIBUTIONAL_ROW = ("q", "hypothesis", "equation", "image", "tangent")


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


def rows_of(keys, qs, *columns):
    """Report rows {key: value}, one per point of the stack qs; the columns
    hold the values after "q"."""
    columns = [np.asarray(column).tolist() for column in columns]
    return [dict(zip(keys, values)) for values in zip(np.asarray(qs).tolist(), *columns)]


def tangent_lift(jac, base_vector):
    """Tangent image (x, J x) of a base vector under a section whose
    Jacobian at the base point is J; at a point or a stack."""
    base_vector = np.asarray(base_vector, dtype=float)
    return np.concatenate([base_vector, mv(jac, base_vector)], axis=-1)


def section_hypotheses(section, frame, gs, tolerances=DEFAULT_TOLERANCES):
    """(image residuals, tangent residuals, section Jacobians) of a section
    with values gs over the frame's base point, or each over its stack.

    Every statement is about sections with values on the constraint surface
    whose tangent images of D are admissible. A section that breaks either
    is a scenario defect at every level, constrained and reduced alike:
    SectionImageError above the ``constraint`` tolerance, SectionTangentError
    above ``membership``, each naming the first failing sample.
    """
    image_tol = tolerances.get("constraint")
    image = section_image(frame, gs, image_tol)
    if frame.dist.k == 0:
        # D = TQ: the projector is the identity, so every tangent is admissible
        return image, np.zeros(image.shape), section.jacobian(frame.terms.q)
    basis = admissible(frame, gs, image_tol)
    projector = basis @ tr(basis)
    jacs = section.jacobian(frame.terms.q)
    tangent = np.zeros(image.shape)
    for j in range(frame.basis.shape[-1]):
        lifted = tangent_lift(jacs, frame.basis[..., :, j])
        tangent = np.fmax(tangent, max_abs_each(lifted - mv(projector, lifted)))
    failed = tangent > tolerances.get("membership")
    if failed.any():
        at = first_failing(failed)
        raise SectionTangentError(
            f"section tangents leave the admissible subspace at q={frame.terms.q[at]} "
            f"(residual {tangent[at]:.3e})")
    return image, tangent, jacs


def twist_on_distribution(section, frame, gs, mag, tolerances):
    """section_hypotheses, then the twist residual |d(gamma) + B| on D at
    the frame's base point or points: (image, tangent, Jacobians, twist)."""
    image, tangent, jacs = section_hypotheses(section, frame, gs, tolerances)
    twist = twist_residual(jacs, mag.b_matrix(frame.terms.q), frame.basis)
    return image, tangent, jacs, twist


def type1_residual(ham, mag, q, p, jac, level):
    """The Type I residual |S T gamma . X^gamma - target| at section points
    (q, p = gamma(q)), one or a stack, where the section's Jacobian is jac.

    X, the free field at (q, p), and the tangent lift of its base flow
    X^gamma are computed once; ``level(q, p, X)`` gives the level's
    selection S (None for the identity) and its target field.
    """
    free = free_field(ham, mag, q, p)
    lifted = tangent_lift(jac, free[..., :ham.n])
    selection, target = level(q, p, free)
    if selection is not None:
        lifted = mv(selection, lifted)
    return max_abs_each(lifted - target)


def distributional_rows(section, dist, ham, mag, q, tolerances):
    """(hypothesis, equation, image, tangent) of type1_constrained at a
    base point or a stack."""
    frame = surface_frame(dist, ham, q)
    gs = section.value(q)
    image, tangent, jacs, twist = twist_on_distribution(section, frame, gs, mag,
                                                        tolerances)
    equation = type1_residual(ham, mag, q, gs, jacs, lambda q, p, free: (
        None, multiplier_correction(frame, p, free)[0]))
    return twist, equation, image, tangent


def _type1_report(check_name, keys, result, tolerances, defect):
    """VACUOUS with ``defect`` when the worst twist residual exceeds the
    ``hypothesis`` tolerance, else PASS or FAIL on the worst equation one;
    ``result`` is the check's stages' (samples, columns)."""
    qs, columns = result
    hyp_worst, eq_worst = worst(columns[0]), worst(columns[1])
    if hyp_worst > tolerances.get("hypothesis"):
        verdict, defects = VACUOUS, [defect]
    else:
        verdict = PASS if eq_worst < tolerances.get("equation") else FAIL
        defects = []
    return HJReport(check_name, verdict, hyp_worst, equation_residual=eq_worst,
                    per_sample=rows_of(keys, qs, *columns), defects=defects)


def type1_magnetic(section, ham, mag, samples, tolerances=DEFAULT_TOLERANCES):
    """Type I check for the unconstrained magnetic system: the
    distributional check with D = TQ, reported by its hypothesis and
    equation columns.

    Hypothesis: d(gamma) = -B on all of TQ. Equation: the section maps its
    own base flow onto the dynamical field.
    """
    qs, columns = _type1_constrained(section, ConstraintDistribution.unconstrained(ham.n),
                                     ham, mag, samples, tolerances)
    return _type1_report("hj1-magnetic", MAGNETIC_ROW, (qs, columns[:2]), tolerances,
                         "hypothesis: d(gamma) + B does not vanish")


def _type1_constrained(section, dist, ham, mag, samples, tolerances):
    """(qs, (hypothesis, equation, image, tangent))."""
    qs = configs(samples, dist.n)
    if not len(qs):
        return qs, ([], [], [], [])
    return qs, by_rank(len(qs), lambda idx: (
        distributional_rows(section, dist, ham, mag, qs[idx], tolerances)))


def type1_constrained(section, dist, ham, mag, samples,
                      tolerances=DEFAULT_TOLERANCES):
    """Type I check for the constrained system.

    The section hypotheses of :func:`section_hypotheses` raise; only the
    twist hypothesis d(gamma) + B = 0 on D can make the verdict VACUOUS.
    """
    result = _type1_constrained(section, dist, ham, mag, samples, tolerances)
    return _type1_report("hj1-distributional", DISTRIBUTIONAL_ROW, result, tolerances,
                         "hypothesis: d(gamma) + B does not vanish on the distribution")


def _type2_residuals(ham, mag, z, w, map_jac, section_jac, level):
    """The two Type II residuals at the phase vector z, or at each of a
    stack, with images w = eps(z), map Jacobians J_eps(z) and the section's
    Jacobians at the images' base points.

    ``level(wq, wp, free)`` gives, at the images, the level's projector P
    and selection S (None for the identity) and its target field (None for
    the free field there); ``free()`` solves for the free field at the
    images once. X_pull, the field of H o eps, solves
    Omega(z)^T X_pull = J_eps^T dH(eps(z)) (pullback_hamiltonian is its
    oracle). With lambda the section's tangent image of the free flow at
    the image point, the residuals are a = |P S J_eps X_pull - S lambda|
    and b = |S lambda - target|.
    """
    n = ham.n
    wq, wp = w[..., :n], w[..., n:]
    grad = cache(lambda: ham.at(wq).gradient(wp))

    @cache
    def free():
        image_grad = grad()
        return structure_solve(mag.form_matrix(wq), image_grad)

    projector, selection, target = level(wq, wp, free)
    grad_pull = mv(tr(map_jac), grad())
    if not np.isfinite(grad_pull).all():
        raise NumericalDomainError("Hamiltonian gradient is non-finite")
    x_pull = structure_solve(mag.form_matrix(z[..., :n]), grad_pull)
    lam_push = tangent_lift(section_jac, free()[..., :n])
    pushed = mv(map_jac, x_pull)
    if selection is not None:
        pushed = mv(selection, pushed)
        lam_push = mv(selection, lam_push)
    if projector is not None:
        pushed = mv(projector, pushed)
    if target is None:
        target = free()
    return max_abs_each(pushed - lam_push), max_abs_each(lam_push - target)


def constrained_level(frame, tolerances):
    """The distributional Type II level over the SurfaceFrame at the images.
    With no rows (D = TQ) it is the identity with the free field as target,
    given as None."""
    if frame.dist.k == 0:
        return lambda q, p, free: (None, None, None)
    constraint_tol = tolerances.get("constraint")

    def level(q, p, free):
        basis = admissible(frame, p, constraint_tol)
        return basis @ tr(basis), None, multiplier_correction(frame, p, free())[0]

    return level


def type2_report(check_name, zs, columns, tolerances, hypothesis=None):
    """Per-sample status agreement of the two Type II residuals at one level.

    ``columns`` holds (symplectic, a, b) over the phase vectors zs: the
    map's symplectic residual (None on the reduced level) and the two
    residuals. The unreduced levels record the map's symplectic residual
    per sample as their hypothesis (VACUOUS above the ``hypothesis``
    tolerance); the reduced level has run its own battery and passes its
    worst twist residual as ``hypothesis``.
    """
    status_tol = tolerances.get("status")
    symplectic, *residuals = columns
    res_a, res_b = (np.asarray(column, dtype=float).tolist() for column in residuals)
    rows = [{"z": z, "residual_a": a, "residual_b": b, "status_a": status_of(a, status_tol),
             "status_b": status_of(b, status_tol)}
            for z, a, b in zip(np.asarray(zs).tolist(), res_a, res_b)]
    agree = all(row["status_a"] == row["status_b"] for row in rows)
    disagree = "statuses of the two residuals disagree"
    if hypothesis is not None:
        hyp_worst, disagree = hypothesis, "statuses disagree"
    else:
        for row, value in zip(rows, np.asarray(symplectic, dtype=float).tolist()):
            row["symplectic"] = value
        hyp_worst = worst(symplectic)
        if hyp_worst > tolerances.get("hypothesis"):
            return HJReport(check_name, VACUOUS, hyp_worst, residual_a=res_a,
                            residual_b=res_b, per_sample=rows,
                            defects=["hypothesis: phase map is not structure preserving"])
    return HJReport(check_name, PASS if agree else FAIL, hyp_worst,
                    residual_a=res_a, residual_b=res_b, per_sample=rows,
                    defects=[] if agree else [disagree])


def _symplectic(phase_map, mag, zs):
    """(J_eps, eps, the pullback defect) at the phase vectors zs, in
    symplectic_residual's order: J_eps(z), then eps(z)."""
    n = zs.shape[-1] // 2
    map_jacs = phase_map.jacobians(zs)
    ws = phase_map.image(zs)
    return map_jacs, ws, pullback_defect(mag, zs[:, :n], ws[:, :n], map_jacs)


def type2_magnetic(section, phase_map, ham, mag, samples,
                   tolerances=DEFAULT_TOLERANCES):
    """Type II check for the unconstrained magnetic system: the
    distributional check with D = TQ.

    The claim is an equivalence, so the verdict compares the zero/nonzero
    status of the two residuals at every sample instead of their values.
    """
    zs, columns = _type2_constrained(section, phase_map,
                                     ConstraintDistribution.unconstrained(ham.n), ham, mag,
                                     samples, tolerances)
    return type2_report("hj2-magnetic", zs, columns, tolerances)


def _type2_constrained(section, phase_map, dist, ham, mag, samples, tolerances):
    """(zs, (symplectic, a, b))."""
    n = dist.n
    zs = phase_vectors(samples)
    if not len(zs):
        return zs, ([], [], [])

    def pipeline(idx):
        z = zs[idx]
        ws = phase_map.image(z)
        frame = surface_frame(dist, ham, ws[:, :n])
        *_, section_jacs = section_hypotheses(section, frame, section.value(ws[:, :n]),
                                              tolerances)
        map_jacs = phase_map.jacobians(z)
        return (pullback_defect(mag, z[:, :n], ws[:, :n], map_jacs),
                *_type2_residuals(ham, mag, z, ws, map_jacs, section_jacs,
                                  constrained_level(frame, tolerances)))

    return zs, by_rank(len(zs), pipeline)


def type2_constrained(section, phase_map, dist, ham, mag, samples,
                      tolerances=DEFAULT_TOLERANCES):
    """Type II check for the constrained system.

    Samples must be chosen so the phase map lands on the constraint
    surface; the section hypotheses are checked at every image point first.
    """
    zs, columns = _type2_constrained(section, phase_map, dist, ham, mag, samples,
                                     tolerances)
    return type2_report("hj2-distributional", zs, columns, tolerances)


def induced_magnetic_field(section, n):
    """The two-form -d(gamma); pairing it with gamma satisfies the Type I
    hypothesis identically (the constructive direction). Only for n <= 2:
    on more dimensions the two-form needs its partials, which are second
    derivatives of gamma; ``construct-b`` writes them as scenario text."""
    return TwoFormField.from_matrix_fn(lambda q: -exterior_derivative(section, q), n)
