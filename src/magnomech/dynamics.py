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
    fd_gradient,
    fd_jacobian,
)

SOLVER_TOL = 1e-10
MEMO_ENTRIES = 256
# central-difference step for a Hamiltonian or constraint rows that have no
# symbolic derivative (sections and phase maps use geometry.DEFAULT_FD_STEP)
FD_STEP = 1e-6


def read_only(array):
    """A read-only view of ``array``; the array and its other views keep
    their flags, so a caller's own array stays writable."""
    view = array.view()
    view.setflags(write=False)
    return view


class PointTable:
    """Values built once per distinct point, keyed by the point's bytes.

    ``get(point, build)`` returns the stored value or ``build(copy)``, where
    ``copy`` is a read-only copy of the point, so a caller that mutates its
    array afterwards cannot reach a stored value. The table holds at most
    ``size`` values and is cleared when full. A build that raises stores
    nothing, so its guard raises again on the next call. A point that is not
    a 1-D array is built afresh every time, since its bytes omit its shape.
    """

    def __init__(self, size=MEMO_ENTRIES):
        self._size = size
        self._values = {}

    def __len__(self):
        return len(self._values)

    def get(self, point, build):
        if point.ndim != 1:
            return build(point)
        key = point.tobytes()
        value = self._values.get(key)
        if value is None:
            if len(self._values) >= self._size:
                self._values.clear()
            point = point.copy()
            point.setflags(write=False)
            value = self._values[key] = build(point)
        return value


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
        self._terms = PointTable()

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
        """The q-dependent terms of H at base point q (see BaseTerms),
        memoised per distinct q in a PointTable."""
        return self._terms.get(np.asarray(q, dtype=float), self._new_terms)

    def _new_terms(self, q):
        return BaseTerms(self, q)

    def mass_matrix(self, q):
        if self._mass_fn is None:
            return np.eye(self.n)
        return np.asarray(self._mass_fn(np.asarray(q, dtype=float)), dtype=float)

    def mass_inverse(self, q):
        return self.at(q).inverse

    def velocity(self, q, p):
        """Legendre velocity G(q)^{-1} p (quadratic Hamiltonians only)."""
        return self.at(q).velocity(np.asarray(p, dtype=float))

    def potential(self, q):
        if self._potential_fn is None:
            return 0.0
        return float(self._potential_fn(np.asarray(q, dtype=float)))

    def value(self, z):
        return self.at(z.q).value(z.p)

    def gradient(self, z):
        """Full phase-space gradient (dH/dq, dH/dp) as a 2n vector."""
        return self.at(z.q).gradient(z.p)


class BaseTerms:
    """The parts of a Hamiltonian that depend on the base point q only.

    The mass matrix, its inverse and gradient and the potential gradient
    are each computed on first use and then kept, so every momentum over
    the same q reuses them. The positive-definiteness
    check runs when the inverse is first needed, the same place the
    per-point call raises it; a guard that raises caches nothing and raises
    again on the next access. ``frames`` holds the constraint frames over q,
    one per distribution (see nonholonomic.surface_frame). Every kept array,
    here and in the frames over q, is read-only, since the terms of
    ``HamiltonianSpec.at`` are shared by every caller at q.
    """

    def __init__(self, ham, q):
        self.ham = ham
        self.q = q

    @cached_property
    def frames(self):
        return {}

    @cached_property
    def mass(self):
        """G(q), or None for unit masses."""
        fn = self.ham._mass_fn
        return None if fn is None else read_only(np.asarray(fn(self.q), dtype=float))

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
        """Stacked partials dG/dq_c, shape (n, n, n); None when G is constant
        or has no symbolic derivative."""
        fn = self.ham._mass_grad_fn
        if self.mass is None or fn is None:
            return None
        return read_only(np.asarray(fn(self.q), dtype=float))

    @cached_property
    def potential_gradient(self):
        ham = self.ham
        if ham._potential_grad_fn is not None:
            grad = np.asarray(ham._potential_grad_fn(self.q), dtype=float)
        elif ham._potential_fn is not None:
            grad = fd_gradient(ham._potential_fn, self.q, FD_STEP)
        else:
            grad = np.zeros(ham.n)
        return read_only(grad)

    def velocity(self, p):
        if self.mass is None:
            return p
        try:
            return np.linalg.solve(self.mass, p)
        except np.linalg.LinAlgError:
            raise NumericalDomainError("mass matrix is singular") from None

    def value(self, p):
        ham = self.ham
        if ham._general_fn is not None:
            return float(ham._general_fn(self.q, p))
        kinetic = 0.5 * float(p @ self.velocity(p))
        value = kinetic + ham.potential(self.q)
        if not np.isfinite(value):
            raise NumericalDomainError("Hamiltonian is non-finite at the point")
        return value

    def gradient(self, p):
        """Full phase-space gradient (dH/dq, dH/dp) at (q, p) as a 2n vector."""
        ham = self.ham
        n = ham.n
        if ham._general_fn is not None:
            if ham._general_grad_fn is not None:
                grad = np.asarray(ham._general_grad_fn(self.q, p), dtype=float)
            else:
                fn = ham._general_fn
                grad = fd_gradient(lambda v: fn(v[:n], v[n:]),
                                   np.concatenate([self.q, p]), FD_STEP)
        else:
            grad = np.empty(2 * n)
            grad[n:] = self.velocity(p)
            grad[:n] = self._grad_q(p)
        if not np.isfinite(grad).all():
            raise NumericalDomainError("Hamiltonian gradient is non-finite")
        return grad

    def _grad_q(self, p):
        potential_part = self.potential_gradient
        if self.mass is None:
            return potential_part
        velocity = self.inverse @ p
        stacked = self.mass_gradient
        if stacked is not None:
            kinetic_part = np.array(
                [-0.5 * velocity @ stacked[k] @ velocity for k in range(self.ham.n)])
        else:
            mass_fn = self.ham._mass_fn

            def kinetic(qq):
                return 0.5 * p @ np.linalg.solve(np.asarray(mass_fn(qq), float), p)

            kinetic_part = fd_gradient(kinetic, self.q, FD_STEP)
        return kinetic_part + potential_part


class MagneticStructure:
    """Point-wise assembly of the twisted symplectic evaluation matrix."""

    def __init__(self, b_field):
        self.b_field = b_field
        self.n = b_field.n
        self._forms = PointTable()

    @classmethod
    def canonical(cls, n):
        return cls(TwoFormField.zero(n))

    def b_matrix(self, q):
        return self.b_field.matrix(q)

    def form_matrix(self, q):
        """Omega(q) as a read-only array, memoised per distinct q."""
        return self._forms.get(np.asarray(q, dtype=float), self._new_form)

    def _new_form(self, q):
        n = self.n
        omega = np.zeros((2 * n, 2 * n))
        omega[:n, :n] = -self.b_matrix(q)
        omega[:n, n:] = np.eye(n)
        omega[n:, :n] = -np.eye(n)
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
    grad = ham.gradient(z)
    return TangentPhaseVector.from_vec(structure_solve(mag.form_matrix(z.q), grad))


def structure_solve(omega, grad):
    """The x with Omega^T x = grad, by dense solve, with the residual guard
    |Omega^T x - grad| <= SOLVER_TOL (1 + |grad|)."""
    try:
        x = np.linalg.solve(omega.T, grad)
    except np.linalg.LinAlgError:
        raise DegenerateFormError("magnetic structure matrix is singular") from None
    residual = np.linalg.norm(omega.T @ x - grad)
    if not residual <= SOLVER_TOL * (1.0 + np.linalg.norm(grad)):
        raise DegenerateFormError(
            f"structure solve residual {residual:.3e} exceeds tolerance")
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
        image = np.asarray(self.eval_fn(z.vec), dtype=float)
        if not np.isfinite(image).all():
            raise NumericalDomainError("phase map evaluation is non-finite")
        return PhasePoint.from_vec(image)

    def jacobian(self, z):
        if self.jacobian_fn is not None:
            return np.asarray(self.jacobian_fn(z.vec), dtype=float)
        return fd_jacobian(self.eval_fn, z.vec, self.step)

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
    return pullback_defect(mag, z, phase_map.value(z), jac)


def pullback_defect(mag, z, image, jac):
    """|J^T Omega(image) J - Omega(z)| for a map's image eps(z) and Jacobian
    J at z."""
    defect = jac.T @ mag.form_matrix(image.q) @ jac - mag.form_matrix(z.q)
    return float(np.max(np.abs(defect)))


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
