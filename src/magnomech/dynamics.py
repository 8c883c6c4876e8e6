"""Magnetic Hamiltonian dynamics on the flat cotangent bundle.

The bilinear evaluation matrix of the magnetic symplectic structure at
z = (q, p), acting on stacked (dq, dp) vectors, is

    Omega(q) = [[-B(q), I], [-I, 0]],

so that omega(u, v) = u^T Omega v = u_q . v_p - u_p . v_q - u_q^T B(q) v_q.
The dynamical field solves Omega^T X = grad H, which in components is
X = (H_p, -H_q + B H_p); the closed-form path below carries exactly that
convention and a unit test pins it. The integrator's generated step
(kernel.py) writes the same closed form out per system, and the per-point
functions here (BaseTerms, magnetic_vector_field) stay its oracles and the
path it calls for Hamiltonians differentiated by central differences.
BaseTerms, MagneticStructure.form_matrix, free_field, structure_solve,
pullback_defect and PhaseMap.image and jacobians take one point or a stack
of points along leading axes, in the layout rule of :mod:`linalg`; the
checks call them on one sample or on all their samples at once.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateFormError, NumericalDomainError
from .geometry import (
    DEFAULT_FD_STEP,
    PhasePoint,
    TangentPhaseVector,
    TwoFormField,
    each,
    fd_gradient,
    fd_jacobians,
    split,
)
from .linalg import dots, mv, norms, tr

SOLVER_TOL = 1e-10
# central-difference step for a Hamiltonian or constraint rows that have no
# symbolic derivative (sections and phase maps use geometry.DEFAULT_FD_STEP)
FD_STEP = 1e-6


def read_only(array):
    """A read-only view of ``array``; the array and its other views keep
    their flags, so a caller's own array stays writable."""
    view = array.view()
    view.setflags(write=False)
    return view


class HamiltonianSpec:
    """Hamiltonian data: either kinetic-plus-potential or a general function.

    The quadratic flavour stores a mass matrix G(q) and potential V(q) with
    H = p^T G(q)^{-1} p / 2 + V(q); analytic derivative callbacks are used
    when available, central differences otherwise. The general flavour wraps
    an arbitrary scalar on phase space.
    """

    def __init__(self, n, mass_fn=None, potential_fn=None, mass_grad_fn=None,
                 potential_grad_fn=None, general_fn=None, general_grad_fn=None):
        self.n = n
        self._mass_fn = mass_fn
        self._potential_fn = potential_fn
        self._mass_grad_fn = mass_grad_fn
        self._potential_grad_fn = potential_grad_fn
        self._general_fn = general_fn
        self._general_grad_fn = general_grad_fn

    @classmethod
    def quadratic(cls, n, mass_fn=None, potential_fn=None, mass_grad_fn=None,
                  potential_grad_fn=None):
        return cls(n, mass_fn=mass_fn, potential_fn=potential_fn,
                   mass_grad_fn=mass_grad_fn, potential_grad_fn=potential_grad_fn)

    @classmethod
    def free(cls, n):
        """Kinetic-energy-only Hamiltonian with unit masses."""
        return cls(n)

    @classmethod
    def general(cls, n, value_fn, grad_fn=None):
        return cls(n, general_fn=value_fn, general_grad_fn=grad_fn)

    @property
    def is_quadratic(self):
        return self._general_fn is None

    def at(self, q):
        """The q-dependent terms of H at base point q (see BaseTerms)."""
        q = np.array(q, dtype=float)
        q.setflags(write=False)
        return BaseTerms(self, q)

    def mass_matrix(self, q):
        if self._mass_fn is None:
            return np.eye(self.n)
        return each(self._mass_fn, q)

    def mass_inverse(self, q):
        return self.at(q).inverse

    def velocity(self, q, p):
        """Legendre velocity G(q)^{-1} p (quadratic Hamiltonians only)."""
        return self.at(q).velocity(np.asarray(p, dtype=float))

    def potential(self, q):
        if self._potential_fn is None:
            return 0.0
        return each(self._potential_fn, q)

    def value(self, z):
        return float(self.at(z.q).value(z.p))

    def gradient(self, z):
        """Full phase-space gradient (dH/dq, dH/dp) as a 2n vector."""
        return self.at(z.q).gradient(z.p)


class BaseTerms:
    """The parts of a Hamiltonian that depend on the base point q only.

    q is one point or a stack of points along leading axes, and every
    momentum passed in has the same leading axes. The mass matrix, its
    inverse and gradient and the potential gradient are each computed on
    first use and then kept, so every momentum over the same q reuses them.
    The positive-definiteness check runs when the inverse is first needed,
    the same place the per-point call raises it; a guard that raises caches
    nothing and raises again on the next access. Every kept array is
    read-only.
    """

    def __init__(self, ham, q):
        self.ham = ham
        self.q = q

    @cached_property
    def mass(self):
        """G(q), or None for unit masses."""
        fn = self.ham._mass_fn
        return None if fn is None else read_only(each(fn, self.q))

    @cached_property
    def inverse(self):
        if self.mass is None:
            return read_only(np.eye(self.ham.n))
        try:
            np.linalg.cholesky(self.mass)
        except np.linalg.LinAlgError:
            raise NumericalDomainError("mass matrix is not positive definite") from None
        return read_only(np.linalg.inv(self.mass))

    @cached_property
    def mass_gradient(self):
        """Stacked partials dG/dq_c, shape (..., n, n, n); None when G is
        constant or has no symbolic derivative."""
        fn = self.ham._mass_grad_fn
        if self.mass is None or fn is None:
            return None
        return read_only(each(fn, self.q))

    @cached_property
    def potential_gradient(self):
        ham = self.ham
        if ham._potential_grad_fn is not None:
            grad = each(ham._potential_grad_fn, self.q)
        elif ham._potential_fn is not None:
            grad = each(lambda q: fd_gradient(ham._potential_fn, q, FD_STEP), self.q)
        else:
            grad = np.zeros(np.shape(self.q))
        return read_only(grad)

    def velocity(self, p):
        if self.mass is None:
            return p
        try:
            return np.linalg.solve(self.mass, p[..., None])[..., 0]
        except np.linalg.LinAlgError:
            raise NumericalDomainError("mass matrix is singular") from None

    def phase_points(self, p):
        """The phase points (q, p), for the callables of (q, p)."""
        return np.concatenate([np.broadcast_to(self.q, np.shape(p)), p], axis=-1)

    def value(self, p):
        ham = self.ham
        n = ham.n
        if ham._general_fn is not None:
            return each(split(ham._general_fn, n), self.phase_points(p))
        value = 0.5 * dots(p, self.velocity(p)) + ham.potential(self.q)
        if not np.isfinite(value).all():
            raise NumericalDomainError("Hamiltonian is non-finite at the point")
        return value

    def gradient(self, p):
        """Full phase-space gradient (dH/dq, dH/dp) at (q, p) as 2n vectors."""
        ham = self.ham
        n = ham.n
        if ham._general_fn is not None:
            if ham._general_grad_fn is not None:
                grad = each(split(ham._general_grad_fn, n), self.phase_points(p))
            else:
                value = split(ham._general_fn, n)
                grad = each(lambda z: fd_gradient(value, z, FD_STEP), self.phase_points(p))
        else:
            grad = np.empty(p.shape[:-1] + (2 * n,))
            grad[..., n:] = self.velocity(p)
            grad[..., :n] = self._grad_q(p)
        if not np.isfinite(grad).all():
            raise NumericalDomainError("Hamiltonian gradient is non-finite")
        return grad

    def _grad_q(self, p):
        potential_part = self.potential_gradient
        if self.mass is None:
            return potential_part
        velocity = mv(self.inverse, p)
        stacked = self.mass_gradient
        if stacked is not None:
            # -v^T (dG/dq_c) v / 2 for each direction c
            scaled = (-0.5 * velocity)[..., None, None, :]
            kinetic_part = (scaled @ stacked @ velocity[..., None, :, None])[..., 0, 0]
        else:
            mass_fn = self.ham._mass_fn
            n = self.ham.n

            def kinetic(z):
                q, p = z[:n], z[n:]
                return fd_gradient(lambda qq: 0.5 * p @ np.linalg.solve(
                    np.asarray(mass_fn(qq), float), p), q, FD_STEP)

            kinetic_part = each(kinetic, self.phase_points(p))
        return kinetic_part + potential_part


class MagneticStructure:
    """Point-wise assembly of the twisted symplectic evaluation matrix."""

    def __init__(self, b_field):
        self.b_field = b_field
        self.n = b_field.n

    @classmethod
    def canonical(cls, n):
        return cls(TwoFormField.zero(n))

    def b_matrix(self, q):
        return self.b_field.matrix(q)

    def form_matrix(self, q):
        """Omega(q) at a point or a stack of points, as a read-only array."""
        n = self.n
        omega = np.zeros(np.shape(q)[:-1] + (2 * n, 2 * n))
        omega[..., :n, :n] = -self.b_matrix(q)
        omega[..., :n, n:] = np.eye(n)
        omega[..., n:, :n] = -np.eye(n)
        omega.setflags(write=False)
        return omega

    def pairing(self, q, u, v):
        """omega(u, v) for stacked 2n tangent vectors at base point q."""
        return float(np.asarray(u) @ self.form_matrix(q) @ np.asarray(v))


def magnetic_vector_field(ham, mag, z):
    """Dynamical vector field by dense solve of the structure equation.

    This is the convention-free ground truth: the returned X satisfies
    omega(X, .) = dH(.) at z up to solver tolerance.
    """
    return TangentPhaseVector.from_vec(free_field(ham, mag, z.q, z.p))


def free_field(ham, mag, q, p):
    """magnetic_vector_field's X as a flat array, at (q, p) or at each
    point of a stack."""
    grad = ham.at(q).gradient(p)
    return structure_solve(mag.form_matrix(q), grad)


def structure_solve(omega, grad):
    """The x with Omega^T x = grad, by dense solve, with the residual guard
    |Omega^T x - grad| <= SOLVER_TOL (1 + |grad|); for a stack, one solve
    per right-hand side, and the message names the first that fails."""
    try:
        x = np.linalg.solve(tr(omega), grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise DegenerateFormError("magnetic structure matrix is singular") from None
    residual = norms(mv(tr(omega), x) - grad)
    failed = ~(residual <= SOLVER_TOL * (1.0 + norms(grad)))
    if failed.any():
        raise DegenerateFormError(
            f"structure solve residual {np.extract(failed, residual)[0]:.3e} "
            "exceeds tolerance")
    return x


def coordinate_formula_field(ham, mag, z):
    """Closed-form field (H_p, -H_q + B H_p); cross-checks the dense solve."""
    grad = ham.gradient(z)
    n = ham.n
    hq, hp = grad[:n], grad[n:]
    return TangentPhaseVector(hp, -hq + mag.b_matrix(z.q) @ hp)


@dataclass
class PhaseMap:
    """A smooth map of the cotangent bundle with Jacobian access."""

    eval_fn: object
    jacobian_fn: object = None
    step: float = DEFAULT_FD_STEP

    def value(self, z):
        return PhasePoint.from_vec(self.image(z.vec))

    def jacobian(self, z):
        return self.jacobians(z.vec)

    def image(self, vec):
        """eps at a phase vector, or at each of a stack, as an array."""
        image = each(self.eval_fn, vec)
        if not np.isfinite(image).all():
            raise NumericalDomainError("phase map evaluation is non-finite")
        return image

    def jacobians(self, vec):
        """J_eps at a phase vector, or at each of a stack."""
        if self.jacobian_fn is not None:
            return each(self.jacobian_fn, vec)
        return fd_jacobians(self.eval_fn, vec, self.step)

    @classmethod
    def identity(cls, n):
        return cls(lambda v: v, lambda v: np.eye(2 * n))

    @classmethod
    def translation(cls, shift_q, shift_p=None):
        shift_q = np.asarray(shift_q, dtype=float)
        shift_p = np.zeros_like(shift_q) if shift_p is None else np.asarray(shift_p)
        shift = np.concatenate([shift_q, shift_p])
        dim = shift.size
        return cls(lambda v: v + shift, lambda v: np.eye(dim))


def symplectic_residual(phase_map, mag, z):
    """Pullback defect |J^T Omega(eps(z)) J - Omega(z)| of a phase map."""
    jac = phase_map.jacobian(z)
    return float(pullback_defect(mag, z.q, phase_map.value(z).q, jac))


def pullback_defect(mag, q, image_q, jac):
    """|J^T Omega(image_q) J - Omega(q)| for a map's Jacobian J at a phase
    point over q whose image lies over image_q, at a point or a stack."""
    defect = tr(jac) @ mag.form_matrix(image_q) @ jac - mag.form_matrix(q)
    return np.abs(defect).max(axis=(-2, -1))


def energy_rate(ham, mag, z):
    """dH(X) at z; antisymmetry of the structure forces this to vanish."""
    x = magnetic_vector_field(ham, mag, z)
    return float(ham.gradient(z) @ x.vec)


def pullback_hamiltonian(ham, phase_map):
    """The composed Hamiltonian H(eps(z)) with chain-rule gradient; the
    oracle of the direct solve for its field in hj._type2_residuals."""

    def value(q, p):
        return ham.value(phase_map.value(PhasePoint(q, p)))

    def grad(q, p):
        z = PhasePoint(q, p)
        jac = phase_map.jacobian(z)
        return jac.T @ ham.gradient(phase_map.value(z))

    return HamiltonianSpec.general(ham.n, value, grad)
