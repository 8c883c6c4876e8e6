"""Constraint geometry and the constrained dynamical field.

A distribution D in TQ is the kernel of k independent constraint one-forms,
stacked as the rows of A(q). For kinetic-plus-potential Hamiltonians the
momentum image of D is the surface c(q, p) = A(q) G(q)^{-1} p = 0, and the
admissible subspace at a point of that surface collects tangent vectors
whose base part stays in D and which are tangent to the surface. The
constrained field is computed two independent ways (restricted solve and
Lagrange multipliers) so each can serve as the other's oracle.
ConstraintDistribution's rows and their gradient, SurfaceFrame and the
kernels on a frame (surface_residual, admissible, section_image,
compatibility, multiplier_correction) take one point or a stack of points
along leading axes, in the layout rule of :mod:`linalg`; each is defined
once, and the functions of a PhasePoint (admissible_basis,
compatibility_report, ...) wrap them.
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
from .geometry import (
    PhasePoint,
    TangentPhaseVector,
    each,
    fd_jacobian,
    fd_jacobians,
)
from .dynamics import FD_STEP, free_field, read_only
from .linalg import (
    first_failing,
    max_abs_each,
    mv,
    null_space,
    rank_of,
    tr,
)
from .tolerances import DEFAULT_TOLERANCES


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
        """A(q), shape (..., k, n), at a point or a stack of points."""
        q = np.asarray(q, dtype=float)
        rows = each(self._rows_fn, q).reshape(q.shape[:-1] + (self.k, self.n))
        if not np.isfinite(rows).all():
            raise NumericalDomainError("constraint rows are non-finite")
        deficient = self.k > 0 and rank_of(rows) < self.k
        if np.any(deficient):
            raise DegenerateConstraintError(
                f"constraint rows rank deficient at q={q[first_failing(deficient)]}")
        return rows

    def rows_gradient(self, q):
        """Stacked partials dA/dq_c with shape (..., n, k, n)."""
        if self._rows_grad_fn is not None:
            return each(self._rows_grad_fn, q)
        rows_fn = self._rows_fn

        def flat(y):
            return rows_fn(y).reshape(-1)

        if hasattr(rows_fn, "columns"):
            flat.columns = rows_fn.columns
        jac = fd_jacobians(flat, q, FD_STEP)
        return tr(jac).reshape(np.shape(q)[:-1] + (self.n, self.k, self.n))

    def basis(self, q):
        """Orthonormal columns spanning D_q = ker A(q)."""
        return null_space(self.matrix(q))


class SurfaceFrame:
    """Constraint data over base points, each part computed on first use.

    The base points are those of ``terms``: one point or a stack. Holds
    A(q) (with its rank check), dA/dq, the basis of D_q and the
    Hamiltonian's base terms at q; the residual c, its derivative Dc, the
    admissible basis and the projection at any momentum over q are
    assembled from them, and the admissible basis is kept per momenta.
    Kept arrays are read-only, and a guard that raises caches nothing.
    """

    def __init__(self, dist, terms):
        self.dist = dist
        self.terms = terms
        self._admissible = {}

    @cached_property
    def rows(self):
        return read_only(self.dist.matrix(self.terms.q))

    def take(self, idx):
        """The frame over the samples ``idx`` of the stack: this frame when
        idx takes them all, else a new one that keeps A(q) if it was read."""
        if len(idx) == len(self.terms.q):
            return self
        frame = surface_frame(self.dist, self.terms.ham, self.terms.q[idx])
        if "rows" in self.__dict__:
            frame.rows = read_only(self.rows[idx])
        return frame

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
        return read_only(self.rows_inverse @ tr(self.rows))

    @cached_property
    def rows_mass_gradient(self):
        """A dG^{-1}/dq_c stacked by direction c, shape (..., n, k, n)."""
        inverse = self.terms.inverse[..., None, :, :]
        return read_only(self.rows[..., None, :, :]
                         @ (-inverse @ self.terms.mass_gradient @ inverse))

    @cached_property
    def basis(self):
        """Orthonormal columns spanning D_q = ker A(q)."""
        return read_only(null_space(self.rows))

    def admissible(self, p):
        """Orthonormal basis of the admissible subspace at (q, p) (see
        admissible_basis), taken once per momenta: a section's hypotheses
        and the reduced frame read it at the same gamma(q)."""
        p = np.asarray(p)
        key = (p.dtype.str, p.shape, p.tobytes())
        if key not in self._admissible:
            dist = self.dist
            stacked = np.zeros(self.rows.shape[:-2] + (2 * dist.k, 2 * dist.n))
            stacked[..., : dist.k, : dist.n] = self.rows
            stacked[..., dist.k:, :] = self.jacobian(p)
            self._admissible[key] = read_only(null_space(stacked))
        return self._admissible[key]

    def residual(self, p):
        """c(q, p) = A(q) G(q)^{-1} p."""
        return mv(self.rows, self.terms.velocity(p))

    def jacobian(self, p):
        """Full derivative of c, shape (..., k, 2n): [dc/dq | A G^{-1}]."""
        dist, terms = self.dist, self.terms
        n = dist.n
        jac = np.zeros(self.rows.shape[:-2] + (dist.k, 2 * n))
        jac[..., n:] = self.rows_inverse
        if terms.mass is not None and terms.mass_gradient is None:
            ham = terms.ham

            def c_of_q(z):
                q, p = z[:n], z[n:]
                return fd_jacobian(lambda qq: dist.matrix(qq) @ np.linalg.solve(
                    ham.mass_matrix(qq), p), q, FD_STEP)

            jac[..., :n] = each(c_of_q, terms.phase_points(p))
            return jac
        jac[..., :n] = tr(mv(self.rows_gradient, mv(terms.inverse, p)[..., None, :]))
        if terms.mass is not None:
            jac[..., :n] += tr(mv(self.rows_mass_gradient, p[..., None, :]))
        return jac

    def project(self, p):
        """Minimal momentum change, in the G^{-1} metric, landing on c = 0.
        A Gram matrix with an infinite entry raises, as a singular one does:
        its solve gives no shift and leaves p off the surface. A nan one
        gives a nan p, which the callers' phase-point guards report."""
        if np.isinf(self.gram).any():
            raise DegenerateConstraintError("projection Gram matrix is non-finite")
        try:
            shift = mv(tr(self.rows), np.linalg.solve(
                self.gram, mv(self.rows_inverse, p)[..., None])[..., 0])
        except np.linalg.LinAlgError:
            raise DegenerateConstraintError(
                "projection Gram matrix is singular") from None
        return p - shift


def surface_frame(dist, ham, q):
    """The SurfaceFrame of ``dist`` over q, on the base terms ``ham.at(q)``."""
    return SurfaceFrame(dist, ham.at(q))


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


def surface_residual(frame, p):
    """|c(q, p)| at q the frame's base point, or at each of its stack;
    zero without constraints."""
    if frame.dist.k == 0:
        return np.zeros(np.shape(p)[:-1])
    require_quadratic(frame.terms.ham)
    return max_abs_each(frame.residual(p))


def admissible(frame, p, tol):
    """admissible_basis at (q, p), q the frame's base point, or at each
    point of a stack; OffConstraintError names the first failing sample's
    residual."""
    residual = surface_residual(frame, p)
    failed = residual > tol
    if failed.any():
        raise OffConstraintError(
            f"constraint residual {residual[first_failing(failed)]:.3e} exceeds {tol:.1e}")
    if frame.dist.k == 0:
        dim = 2 * frame.dist.n
        return np.broadcast_to(np.eye(dim), residual.shape + (dim, dim))
    return frame.admissible(p)


def admissible_basis(dist, ham, z, tol=None):
    """Orthonormal basis of the admissible subspace at a surface point.

    Stacks the base condition A(q) dq = 0 with tangency Dc(z) (dq, dp) = 0
    and takes the null space (read-only), after the surface check against
    ``tol`` (the scaled ``constraint`` tolerance by default). With no
    constraints this is the identity on the full 2n-dimensional tangent
    space.
    """
    if tol is None:
        tol = DEFAULT_TOLERANCES.get("constraint")
    return admissible(surface_frame(dist, ham, z.q), z.p, tol)


@dataclass
class CompatibilityReport:
    dim_f: int
    dim_tm: int
    dim_k: int
    sigma_min: float
    intersection_dim: int
    passed: bool


def compatibility_report(dist, ham, mag, z, sigma_tol=None):
    """Diagnose solvability of the constrained structure equation at z.

    Reports the dimensions of the velocity-admissible cone, the surface
    tangent, and their intersection, checks that the twisted-orthogonal of
    the first meets the second only at zero, and measures non-degeneracy of
    the restricted form through its smallest singular value, against
    ``sigma_tol`` (the scaled ``compat_sigma`` tolerance by default).
    """
    sigma_tol = DEFAULT_TOLERANCES.get("compat_sigma") if sigma_tol is None else sigma_tol
    n = dist.n
    omega = mag.form_matrix(z.q)
    if dist.k == 0:
        sigma = float(np.linalg.svd(omega, compute_uv=False)[-1])
        return CompatibilityReport(2 * n, 2 * n, 2 * n, sigma, 0,
                                   bool(sigma > sigma_tol))
    dim_f, dim_tm, dim_k, sigma, intersection, passed = compatibility(
        surface_frame(dist, ham, z.q), omega, z.p, sigma_tol,
        DEFAULT_TOLERANCES.get("constraint"))
    return CompatibilityReport(int(dim_f), int(dim_tm), int(dim_k), float(sigma),
                               int(intersection), bool(passed))


def compatibility(frame, omega, p, sigma_tol, constraint_tol):
    """compatibility_report's six fields at (q, p), q the frame's base
    point (k > 0) and omega = Omega(q), or each an array over a stack, with
    (q, p) on the surface within ``constraint_tol``.
    Where the constraint rows lose rank there is no solvability to
    diagnose: the dimensions and the intersection are -1, sigma is 0.0 and
    the check fails; a stack with such a sample is diagnosed sample by
    sample."""
    dist = frame.dist
    n = dist.n
    try:
        frame.rows
    except DegenerateConstraintError:
        lead = np.shape(p)[:-1]
        if lead in ((), (1,)):
            return tuple(np.full(lead, value) for value in (-1, -1, -1, 0.0, -1, False))
        return tuple(np.concatenate(column) for column in zip(*(
            compatibility(frame.take([i]), omega[i:i + 1], p[i:i + 1], sigma_tol,
                          constraint_tol)
            for i in range(len(p)))))
    base_condition = np.zeros(frame.rows.shape[:-2] + (dist.k, 2 * n))
    base_condition[..., :n] = frame.rows
    f_basis = null_space(base_condition)
    tm_basis = null_space(frame.jacobian(p))
    f_perp = null_space(tr(f_basis) @ omega)
    intersection = tm_basis.shape[-1] + f_perp.shape[-1] - rank_of(
        np.concatenate([tm_basis, f_perp], axis=-1))
    k_basis = admissible(frame, p, constraint_tol)
    restricted = tr(k_basis) @ omega @ k_basis
    lead = restricted.shape[:-2]
    if restricted.size:
        sigma = np.linalg.svd(restricted, compute_uv=False)[..., -1]
    else:
        sigma = np.zeros(lead)
    dims = [np.full(lead, basis.shape[-1]) for basis in (f_basis, tm_basis, k_basis)]
    return (*dims, sigma, intersection, (sigma > sigma_tol) & (intersection == 0))


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
    x, lam = multiplier_correction(surface_frame(dist, ham, z.q), z.p,
                                   free_field(ham, mag, z.q, z.p))
    return ConstrainedField(TangentPhaseVector.from_vec(x), multipliers=lam)


def multiplier_correction(frame, p, free):
    """(X, lambda) on flat arrays: the free field ``free`` at (q, p), q the
    frame's base point, plus sum_a lambda_a Z_a; at a point or a stack."""
    dist = frame.dist
    if dist.k == 0:
        return free, np.zeros(free.shape[:-1] + (0,))
    jac_c = frame.jacobian(p)
    lifts = np.zeros(frame.rows.shape[:-2] + (2 * dist.n, dist.k))
    lifts[..., dist.n:, :] = -tr(frame.rows)
    gram = jac_c @ lifts
    # an infinite entry raises, as in SurfaceFrame.project; the matrix is
    # -frame.gram, and the test reads frame.gram, as the generated step
    # does, since an infinite dc/dq times the lifts' zero rows gives nan here
    if np.isinf(frame.gram).any():
        raise CompatibilityError("multiplier matrix is non-finite")
    try:
        lam = np.linalg.solve(gram, mv(-jac_c, free)[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise CompatibilityError("multiplier matrix is singular") from None
    return free + mv(lifts, lam), lam


def section_image(frame, gs, tol):
    """The constraint residual of section values gs over the frame's base
    point, or each over its stack; SectionImageError above ``tol`` names
    the first failing sample."""
    residual = surface_residual(frame, gs)
    failed = residual > tol
    if failed.any():
        at = first_failing(failed)
        raise SectionImageError(
            f"section image off constraint surface at q={frame.terms.q[at]} "
            f"(residual {residual[at]:.3e})")
    return residual
