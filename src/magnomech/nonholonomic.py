"""Constraint geometry and the constrained dynamical field.

A distribution D in TQ is the kernel of k independent constraint one-forms,
stacked as the rows of A(q). For kinetic-plus-potential Hamiltonians the
momentum image of D is the surface c(q, p) = A(q) G(q)^{-1} p = 0, and the
admissible subspace at a point of that surface collects tangent vectors
whose base part stays in D and which are tangent to the surface. The
constrained field is computed two independent ways (restricted solve and
Lagrange multipliers) so each can serve as the other's oracle.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CompatibilityError,
    DegenerateConstraintError,
    DegenerateFormError,
    NumericalDomainError,
    OffConstraintError,
    SectionImageError,
)
from .geometry import PhasePoint, TangentPhaseVector, ensure_config, fd_jacobian
from .dynamics import FD_STEP, PointTable, magnetic_vector_field, read_only
from .linalg import max_abs, null_space, rank_of, solve_small
from .tolerances import DEFAULT_TOLERANCES, DEFAULTS

# admissible bases kept per frame: the checks visit a handful of momenta
# over each base point, and this caps a Hamiltonian's tables at
# MEMO_ENTRIES frames times this many bases however many passes run
FRAME_MOMENTA = 8


class ConstraintDistribution:
    """k constraint one-forms on R^n, with optional analytic row Jacobians.

    ``rows_fn(q)`` returns the (k, n) coefficient matrix A(q);
    ``rows_grad_fn(q)`` returns the stacked (n, k, n) partials, indexed by
    the differentiation direction first.
    """

    def __init__(self, n, k, rows_fn, rows_grad_fn=None):
        self.n = n
        self.k = k
        self._rows_fn = rows_fn
        self._rows_grad_fn = rows_grad_fn
        if k >= n and k > 0:
            raise DegenerateConstraintError("need k < n independent constraints")

    @classmethod
    def unconstrained(cls, n):
        return cls(n, 0, lambda q: np.zeros((0, n)))

    @classmethod
    def constant(cls, rows):
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        k, n = rows.shape
        return cls(n, k, lambda q: rows, lambda q: np.zeros((n, k, n)))

    def matrix(self, q):
        rows = np.asarray(self._rows_fn(np.asarray(q, dtype=float)), dtype=float)
        rows = rows.reshape(self.k, self.n)
        if not np.isfinite(rows).all():
            raise NumericalDomainError("constraint rows are non-finite")
        if self.k > 0 and rank_of(rows) < self.k:
            raise DegenerateConstraintError(
                f"constraint rows rank deficient at q={np.asarray(q)}")
        return rows

    def rows_gradient(self, q):
        """Stacked partials dA/dq_c with shape (n, k, n)."""
        q = np.asarray(q, dtype=float)
        if self._rows_grad_fn is not None:
            return np.asarray(self._rows_grad_fn(q), dtype=float)
        flat = fd_jacobian(lambda x: self._rows_fn(x).reshape(-1), q, FD_STEP)
        return flat.T.reshape(self.n, self.k, self.n)

    def basis(self, q):
        """Orthonormal columns spanning D_q = ker A(q)."""
        if self.k == 0:
            return np.eye(self.n)
        return null_space(self.matrix(q))


class SurfaceFrame:
    """Constraint data at one base point, each part computed on first use.

    Holds A(q) (with its rank check), dA/dq, the basis of D_q and the
    Hamiltonian's base terms at q; the residual c, its derivative Dc and
    the projection at any momentum over q are assembled from them, and the
    admissible basis is kept per momentum. Kept arrays are read-only, and a
    guard that raises caches nothing.
    """

    def __init__(self, dist, terms):
        self.dist = dist
        self.terms = terms

    @cached_property
    def rows(self):
        return read_only(self.dist.matrix(self.terms.q))

    @cached_property
    def rows_gradient(self):
        return read_only(self.dist.rows_gradient(self.terms.q))

    @cached_property
    def rows_inverse(self):
        """A G^{-1}: the momentum block of Dc."""
        return read_only(self.rows @ self.terms.inverse)

    @cached_property
    def gram(self):
        """A G^{-1} A^T: the projection Gram matrix, and minus the multiplier one."""
        return read_only(self.rows_inverse @ self.rows.T)

    @cached_property
    def rows_mass_gradient(self):
        """A dG^{-1}/dq_c stacked by direction c, shape (n, k, n)."""
        inverse = self.terms.inverse
        return read_only(np.array([self.rows @ (-inverse @ grad @ inverse)
                                   for grad in self.terms.mass_gradient]))

    @cached_property
    def basis(self):
        """Orthonormal columns spanning D_q = ker A(q)."""
        if self.dist.k == 0:
            return read_only(np.eye(self.dist.n))
        return read_only(null_space(self.rows))

    @cached_property
    def _admissible(self):
        return PointTable(FRAME_MOMENTA)

    def admissible(self, p):
        """Orthonormal basis of the admissible subspace at (q, p), built once
        per distinct p (see admissible_basis)."""
        return self._admissible.get(p, self._new_admissible)

    def _new_admissible(self, p):
        dist = self.dist
        stacked = np.zeros((2 * dist.k, 2 * dist.n))
        stacked[: dist.k, : dist.n] = self.rows
        stacked[dist.k:] = self.jacobian(p)
        return read_only(null_space(stacked))

    def residual(self, p):
        """c(q, p) = A(q) G(q)^{-1} p."""
        return self.rows @ self.terms.velocity(p)

    def jacobian(self, p):
        """Full derivative of c, shape (k, 2n): [dc/dq | A G^{-1}]."""
        dist, terms = self.dist, self.terms
        n = dist.n
        jac = np.zeros((dist.k, 2 * n))
        jac[:, n:] = self.rows_inverse
        if terms.mass is not None and terms.mass_gradient is None:
            ham = terms.ham

            def c_of_q(qq):
                return dist.matrix(qq) @ np.linalg.solve(ham.mass_matrix(qq), p)

            jac[:, :n] = fd_jacobian(c_of_q, terms.q, FD_STEP)
            return jac
        jac[:, :n] = (self.rows_gradient @ (terms.inverse @ p)).T
        if terms.mass is not None:
            jac[:, :n] += (self.rows_mass_gradient @ p).T
        return jac

    def project(self, p):
        """Minimal momentum change, in the G^{-1} metric, landing on c = 0."""
        try:
            shift = self.rows.T @ solve_small(self.gram, self.rows_inverse @ p)
        except np.linalg.LinAlgError:
            raise DegenerateConstraintError(
                "projection Gram matrix is singular") from None
        return p - shift


def surface_frame(dist, ham, q):
    """The SurfaceFrame of ``dist`` over q, kept on the memoised base terms
    ``ham.at(q)``, so every check at the same q shares one A(q) and D_q."""
    terms = ham.at(q)
    frame = terms.frames.get(dist)
    if frame is None:
        frame = terms.frames[dist] = SurfaceFrame(dist, terms)
    return frame


def require_quadratic(ham):
    if not ham.is_quadratic:
        raise NumericalDomainError(
            "constraint surface needs a kinetic-plus-potential Hamiltonian")


def constraint_residual(dist, ham, z):
    """c(q, p) = A(q) G(q)^{-1} p; zero on the constraint surface."""
    if dist.k == 0:
        return np.zeros(0)
    require_quadratic(ham)
    return surface_frame(dist, ham, z.q).residual(z.p)


def constraint_jacobian(dist, ham, z):
    """Full derivative of c at z, shape (k, 2n): [dc/dq | A G^{-1}]."""
    return surface_frame(dist, ham, z.q).jacobian(z.p)


def project_to_constraint(dist, ham, z):
    """Minimal momentum change, in the G^{-1} metric, landing on c = 0."""
    if dist.k == 0:
        return z
    return PhasePoint(z.q, surface_frame(dist, ham, z.q).project(z.p))


def require_on_constraint(dist, ham, z, tol):
    residual = max_abs(constraint_residual(dist, ham, z))
    if residual > tol:
        raise OffConstraintError(
            f"constraint residual {residual:.3e} exceeds {tol:.1e}")
    return residual


def admissible_basis(dist, ham, z, tol=None):
    """Orthonormal basis of the admissible subspace at a surface point.

    Stacks the base condition A(q) dq = 0 with tangency Dc(z) (dq, dp) = 0
    and takes the null space, once per distinct z (read-only); the surface
    check against ``tol`` (the scaled ``constraint`` tolerance by default)
    runs on every call. With no constraints this is the identity on the
    full 2n-dimensional tangent space.
    """
    if dist.k == 0:
        return np.eye(2 * dist.n)
    if tol is None:
        tol = DEFAULT_TOLERANCES.get("constraint")
    require_on_constraint(dist, ham, z, tol)
    return surface_frame(dist, ham, z.q).admissible(z.p)


@dataclass
class CompatibilityReport:
    dim_f: int
    dim_tm: int
    dim_k: int
    sigma_min: float
    intersection_dim: int
    passed: bool


def compatibility_report(dist, ham, mag, z, sigma_tol=DEFAULTS["compat_sigma"]):
    """Diagnose solvability of the constrained structure equation at z.

    Reports the dimensions of the velocity-admissible cone, the surface
    tangent, and their intersection, checks that the twisted-orthogonal of
    the first meets the second only at zero, and measures non-degeneracy of
    the restricted form through its smallest singular value.
    """
    n = dist.n
    omega = mag.form_matrix(z.q)
    if dist.k == 0:
        sigma = float(np.linalg.svd(omega, compute_uv=False)[-1])
        return CompatibilityReport(2 * n, 2 * n, 2 * n, sigma, 0,
                                   bool(sigma > sigma_tol))
    frame = surface_frame(dist, ham, z.q)
    try:
        rows = frame.rows
    except DegenerateConstraintError:
        return CompatibilityReport(-1, -1, -1, 0.0, -1, False)
    base_condition = np.zeros((dist.k, 2 * n))
    base_condition[:, :n] = rows
    f_basis = null_space(base_condition)
    tm_basis = null_space(frame.jacobian(z.p))
    f_perp = null_space(f_basis.T @ omega)
    intersection = tm_basis.shape[1] + f_perp.shape[1] - rank_of(
        np.hstack([tm_basis, f_perp]))
    k_basis = admissible_basis(dist, ham, z)
    restricted = k_basis.T @ omega @ k_basis
    if restricted.size:
        sigma = float(np.linalg.svd(restricted, compute_uv=False)[-1])
    else:
        sigma = 0.0
    passed = bool(sigma > sigma_tol and intersection == 0)
    return CompatibilityReport(f_basis.shape[1], tm_basis.shape[1],
                               k_basis.shape[1], sigma, int(intersection), passed)


@dataclass
class ConstrainedField:
    """The constrained dynamical vector plus solve by-products."""

    vector: TangentPhaseVector
    multipliers: np.ndarray = None


def constrained_field_restricted(dist, ham, mag, z, basis=None):
    """Solve the structure equation restricted to the admissible subspace.

    Writes X = W xi over an orthonormal basis W and solves the m x m system
    omega(X, w_b) = dH(w_b). The answer is basis independent.
    """
    if basis is None:
        basis = admissible_basis(dist, ham, z)
    omega = mag.form_matrix(z.q)
    grad = ham.gradient(z)
    pairings = basis.T @ omega @ basis
    rhs = basis.T @ grad
    try:
        xi = np.linalg.solve(pairings.T, rhs)
    except np.linalg.LinAlgError:
        raise DegenerateFormError("restricted structure matrix is singular") from None
    x = basis @ xi
    return ConstrainedField(TangentPhaseVector.from_vec(x))


def constrained_field_multiplier(dist, ham, mag, z):
    """Lagrange-multiplier route: X = X_free + sum_a lambda_a Z_a.

    The correction directions Z_a are the vertical lifts (0, -A_a); the
    multipliers make X tangent to the constraint surface.
    """
    return multiplier_field(dist, ham, z, magnetic_vector_field(ham, mag, z))


def multiplier_field(dist, ham, z, free):
    """The multiplier route at z from the free field ``free`` at z, for
    callers that already hold it."""
    if dist.k == 0:
        return ConstrainedField(free, multipliers=np.zeros(0))
    x, lam = multiplier_correction(surface_frame(dist, ham, z.q), z.p, free.vec)
    return ConstrainedField(TangentPhaseVector.from_vec(x), multipliers=lam)


def multiplier_correction(frame, p, free):
    """(X, lambda) on flat arrays: the free field ``free`` at (q, p), q the
    frame's base point, plus sum_a lambda_a Z_a."""
    dist = frame.dist
    jac_c = frame.jacobian(p)
    lifts = np.zeros((2 * dist.n, dist.k))
    lifts[dist.n:, :] = -frame.rows.T
    gram = jac_c @ lifts
    try:
        lam = np.linalg.solve(gram, -jac_c @ free)
    except np.linalg.LinAlgError:
        raise CompatibilityError("multiplier matrix is singular") from None
    return free + lifts @ lam, lam


def constrained_field(dist, ham, mag, z):
    """Default constrained field (multiplier route; cheapest per point)."""
    return constrained_field_multiplier(dist, ham, mag, z).vector


def section_point(section, dist, ham, q, tol):
    """The section point (q, gamma(q)) and its constraint residual.

    Raises SectionImageError when the residual exceeds ``tol``: every
    statement about a section assumes its values lie on the surface.
    """
    z = PhasePoint(q, section.value(q))
    residual = max_abs(constraint_residual(dist, ham, z))
    if residual > tol:
        raise SectionImageError(
            f"section image off constraint surface at q={z.q} "
            f"(residual {residual:.3e})")
    return z, residual


def field_tangency_residual(section, dist, ham, mag, qs):
    """Velocities of the free field along a surface-valued section stay in D.

    Raises SectionImageError when the section leaves the constraint surface
    (the scaled ``constraint`` tolerance), since the statement asserts
    nothing there.
    """
    image_tol = DEFAULT_TOLERANCES.get("constraint")
    worst = 0.0
    for q in qs:
        q = ensure_config(q, dist.n)
        z, _ = section_point(section, dist, ham, q, image_tol)
        x = magnetic_vector_field(ham, mag, z)
        worst = max(worst, max_abs(surface_frame(dist, ham, q).rows @ x.dq))
    return worst
