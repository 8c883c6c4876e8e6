"""Flat-chart geometric primitives.

The configuration space is R^n with one global chart, so points are plain
arrays, covector sections are callables with Jacobian access, and two-forms
are antisymmetric evaluation matrices: value(x, y) = x^T M(q) y.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalDomainError
from .linalg import max_abs

DEFAULT_FD_STEP = 1e-5


def ensure_config(q, n=None):
    """Validate and normalize a configuration point to a float array."""
    q = np.asarray(q, dtype=float).reshape(-1)
    if q.size < 1:
        raise NumericalDomainError("configuration point must have dimension >= 1")
    if n is not None and q.size != n:
        raise NumericalDomainError(f"expected dimension {n}, got {q.size}")
    if not np.isfinite(q).all():
        raise NumericalDomainError("configuration point has non-finite entries")
    return q


@dataclass
class PhasePoint:
    """A point (q, p) of the cotangent bundle in chart coordinates."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float).reshape(-1)
        self.p = np.asarray(self.p, dtype=float).reshape(-1)
        if self.q.size != self.p.size:
            raise NumericalDomainError("q and p must have equal dimension")
        if not (np.isfinite(self.q).all() and np.isfinite(self.p).all()):
            raise NumericalDomainError("phase point has non-finite entries")

    @property
    def n(self):
        return self.q.size

    @property
    def vec(self):
        return np.concatenate([self.q, self.p])

    @classmethod
    def from_vec(cls, v):
        v = np.asarray(v, dtype=float).reshape(-1)
        n = v.size // 2
        return cls(v[:n], v[n:])


@dataclass
class TangentPhaseVector:
    """A tangent vector (dq, dp) to the cotangent bundle."""

    dq: np.ndarray
    dp: np.ndarray

    def __post_init__(self):
        self.dq = np.asarray(self.dq, dtype=float).reshape(-1)
        self.dp = np.asarray(self.dp, dtype=float).reshape(-1)
        if self.dq.size != self.dp.size:
            raise NumericalDomainError("dq and dp must have equal dimension")

    @property
    def vec(self):
        return np.concatenate([self.dq, self.dp])

    @classmethod
    def from_vec(cls, v):
        v = np.asarray(v, dtype=float).reshape(-1)
        n = v.size // 2
        return cls(v[:n], v[n:])


def fd_jacobian(fn, x, step=DEFAULT_FD_STEP):
    """Central-difference Jacobian of a vector-valued function.

    Non-finite input values propagate silently into the result; callers
    validate finiteness where it matters.
    """
    x = np.asarray(x, dtype=float)
    base = np.asarray(fn(x), dtype=float)
    jac = np.empty((base.size, x.size))
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(x.size):
            shift = np.zeros_like(x)
            shift[j] = step
            jac[:, j] = (np.asarray(fn(x + shift))
                         - np.asarray(fn(x - shift))) / (2 * step)
    return jac


def fd_gradient(fn, x, step=DEFAULT_FD_STEP):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.empty(x.size)
    for j in range(x.size):
        shift = np.zeros_like(x)
        shift[j] = step
        grad[j] = (fn(x + shift) - fn(x - shift)) / (2 * step)
    return grad


@dataclass
class OneFormSection:
    """A smooth covector section q -> (q, gamma(q)) with Jacobian access.

    ``jacobian_fn`` is the analytic Jacobian d(gamma_i)/d(q_j) when the
    section comes in closed form; otherwise central differences with
    ``step`` are used.
    """

    eval_fn: object
    jacobian_fn: object = None
    step: float = DEFAULT_FD_STEP

    def value(self, q):
        value = np.asarray(self.eval_fn(np.asarray(q, dtype=float)), dtype=float)
        if not np.isfinite(value).all():
            raise NumericalDomainError("one-form evaluation is non-finite")
        return value

    def jacobian(self, q):
        q = np.asarray(q, dtype=float)
        if self.jacobian_fn is not None:
            jac = np.asarray(self.jacobian_fn(q), dtype=float)
        else:
            jac = fd_jacobian(self.eval_fn, q, self.step)
        if not np.isfinite(jac).all():
            raise NumericalDomainError("one-form Jacobian is non-finite")
        return jac

    @classmethod
    def zero(cls, n):
        return cls(lambda q: np.zeros(n), lambda q: np.zeros((n, n)))

    @classmethod
    def linear(cls, matrix, offset=None):
        matrix = np.asarray(matrix, dtype=float)
        offset = np.zeros(matrix.shape[0]) if offset is None else np.asarray(offset, float)
        return cls(lambda q: matrix @ q + offset, lambda q: matrix)


class TwoFormField:
    """A two-form on Q stored through its strictly upper triangle.

    With U(q) the strict upper triangle of ``upper_fn(q)``, the evaluation
    matrix M(q) = U(q) - U(q)^T is exactly antisymmetric by construction,
    whatever the supplied entries do; the entries on and below the diagonal
    are evaluated and ignored.
    """

    def __init__(self, upper_fn, n, constant=None):
        self._upper_fn = upper_fn
        self.n = n
        self._constant = constant

    def matrix(self, q):
        if self._constant is not None:
            return self._constant
        upper = np.triu(np.asarray(self._upper_fn(np.asarray(q, dtype=float)),
                                   dtype=float), 1)
        if not np.isfinite(upper).all():
            raise NumericalDomainError("two-form evaluation is non-finite")
        return upper - upper.T

    @classmethod
    def zero(cls, n):
        return cls.constant(np.zeros((n, n)))

    @classmethod
    def constant(cls, matrix):
        """A q-independent two-form; its (read-only) matrix is built once."""
        matrix = np.asarray(matrix, dtype=float)
        if max_abs(matrix + matrix.T) > 0:
            raise NumericalDomainError("constant two-form matrix is not antisymmetric")
        upper = np.triu(matrix, 1)
        value = upper - upper.T
        value.setflags(write=False)
        # a non-finite matrix keeps the per-call path, which raises on use
        return cls(lambda q: matrix, matrix.shape[0],
                   constant=value if np.isfinite(value).all() else None)

    @classmethod
    def from_matrix_fn(cls, fn, n, check=True):
        def upper(q):
            matrix = np.asarray(fn(q), dtype=float)
            if check and max_abs(matrix + matrix.T) > 1e-9 * (1.0 + max_abs(matrix)):
                raise NumericalDomainError("two-form evaluation is not antisymmetric")
            return matrix

        return cls(upper, n)


def exterior_derivative(section, q):
    """Evaluation matrix of d(gamma) at q.

    With J = d(gamma_i)/d(q_j) the matrix is J^T - J, the convention fixed
    by the pairing value(x, y) = D_x gamma . y - D_y gamma . x. The result
    is exactly antisymmetric.
    """
    jac = section.jacobian(q)
    return jac.T - jac


def two_form_closedness_residual(field, q, step=1e-4):
    """Max cyclic-sum residual of the exterior derivative of a two-form.

    Checks d_i M_jk + d_j M_ki + d_k M_ij over all index triples with
    central differences; exactly zero input derivatives give zero.
    """
    q = ensure_config(q)
    n = q.size
    if n < 3:
        return 0.0
    partials = np.empty((n, n, n))
    for k in range(n):
        shift = np.zeros(n)
        shift[k] = step
        partials[k] = (field.matrix(q + shift) - field.matrix(q - shift)) / (2 * step)
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                cyclic = partials[i][j, k] + partials[j][k, i] + partials[k][i, j]
                worst = max(worst, abs(cyclic))
    return worst


def restricted_form_residual(matrix, basis):
    """Largest absolute value of a bilinear form restricted to a subspace."""
    basis = np.asarray(basis, dtype=float)
    if basis.shape[1] == 0:
        return 0.0
    return max_abs(basis.T @ matrix @ basis)


def magnetic_match_residual(section, b_field, q, basis=None):
    """Residual of the condition d(gamma) = -B on a subspace of T_q Q.

    ``basis`` holds orthonormal columns spanning the subspace; None means
    all of T_q Q. Zero (to tolerance) certifies the twist hypothesis of the
    Type I checks at q.
    """
    q = ensure_config(q)
    total = exterior_derivative(section, q) + b_field.matrix(q)
    if basis is None:
        basis = np.eye(q.size)
    return restricted_form_residual(total, basis)
