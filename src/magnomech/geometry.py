"""Flat-chart geometric primitives.

The configuration space is R^n with one global chart, so points are plain
arrays, covector sections are callables with Jacobian access, and two-forms
are antisymmetric evaluation matrices: value(x, y) = x^T M(q) y.
``TwoFormField.matrix`` and the residual kernels (restricted_form_residual,
twist_residual, closedness_residual) take one point or a stack of points
along leading axes, in the layout rule of :mod:`linalg`, and so do the
section's ``value`` and ``jacobian``; :func:`each` evaluates a one-point
callable at every point of a stack, through its column function when it
has one. A check's phase samples travel as one :class:`PhaseStack`, and
its configuration samples as one (N, n) array; each is validated once, by
one vectorised check.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NumericalDomainError
from .linalg import max_abs, tr

DEFAULT_FD_STEP = 1e-5
# central-difference step of the closedness residual
CLOSEDNESS_STEP = 1e-4


def each(fn, points, shape=()):
    """``fn`` at each point of a stack whose last axis holds one point's
    coordinates, as one float array with the stack's leading axes; one point
    gives fn(point) as an array.

    A stack goes to fn's column function ``fn.columns`` when fn has one
    (compiled scenario expressions do, see expressions.compile_columns),
    in one call with the same bits per point; when that returns None (a
    fault at some point) or fn has none, fn runs at each point in turn, so
    a fault raises the first faulting point's error. ``shape`` is the shape
    of fn's value, which the result of an empty stack takes.
    """
    points = np.asarray(points, dtype=float)
    flat = points.reshape(-1, points.shape[-1])
    values = None
    if points.ndim > 1 and hasattr(fn, "columns"):
        values = fn.columns(flat)
    if values is None:
        values = np.array([fn(point) for point in flat], dtype=float)
        if not len(flat):
            values = values.reshape((0, *shape))
    return values.reshape(points.shape[:-1] + values.shape[1:])


def split(fn, n):
    """``fn(q, p)`` as a function of the phase vector (q, p), with the
    column function of fn's when it has one."""

    def on_vector(vec):
        return fn(vec[:n], vec[n:])

    if hasattr(fn, "columns"):
        on_vector.columns = lambda vecs: fn.columns(vecs[:, :n], vecs[:, n:])
    return on_vector


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


def ensure_configs(qs, n):
    """ensure_config at each point of an (N, m) stack, as one check that
    raises the first failing point's error."""
    qs = np.asarray(qs, dtype=float)
    if qs.shape[-1] < 1:
        raise NumericalDomainError("configuration point must have dimension >= 1")
    if qs.shape[-1] != n:
        raise NumericalDomainError(f"expected dimension {n}, got {qs.shape[-1]}")
    if not np.isfinite(qs).all():
        raise NumericalDomainError("configuration point has non-finite entries")
    return qs


def configs(samples, n):
    """The (N, n) array of configuration samples: an array is checked as a
    whole, any other iterable point by point."""
    if isinstance(samples, np.ndarray) and samples.ndim == 2:
        return ensure_configs(samples, n)
    return np.array([ensure_config(q, n) for q in samples]).reshape(-1, n)


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
    def vec(self):
        return np.concatenate([self.q, self.p])

    @classmethod
    def from_vec(cls, v):
        v = np.asarray(v, dtype=float).reshape(-1)
        n = v.size // 2
        return cls(v[:n], v[n:])


class PhaseStack(Sequence):
    """N phase points held as one read-only (N, 2n) array ``vec``.

    The array is validated once, as each PhasePoint would validate its
    point: a stack that fails raises the message the first failing point
    raises. Indexing and iteration make PhasePoints on demand and a slice
    gives a stack, so code written for a list of points reads a stack too.
    ``frame`` is the SurfaceFrame over the base points of a stack projected
    onto the constraint surface (sampling.surface_phase_samples), for the
    next stage to read A(q) from; None on any other stack, a slice included.
    """

    def __init__(self, vec, frame=None):
        vec = np.array(vec, dtype=float)
        if vec.ndim != 2:
            raise NumericalDomainError("a phase stack needs one row per point")
        if vec.shape[1] % 2:
            raise NumericalDomainError("q and p must have equal dimension")
        if not np.isfinite(vec).all():
            raise NumericalDomainError("phase point has non-finite entries")
        vec.setflags(write=False)
        self.vec = vec
        self.frame = frame

    @classmethod
    def of(cls, q, p, frame=None):
        """The stack of the points (q[i], p[i])."""
        return cls(np.concatenate([q, p], axis=-1), frame)

    def __len__(self):
        return len(self.vec)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PhaseStack(self.vec[index])
        return PhasePoint.from_vec(self.vec[index])

    def __iter__(self):
        return map(PhasePoint.from_vec, self.vec)


def sample_set(samples):
    """A check's samples, read once: a PhaseStack or an array as it is, any
    other iterable as a list."""
    if isinstance(samples, (PhaseStack, np.ndarray)):
        return samples
    return list(samples)


def phase_vectors(samples):
    """The (N, 2n) phase vectors of a sample set: a PhaseStack's own array,
    or the vectors of a sequence of PhasePoints stacked."""
    if isinstance(samples, PhaseStack):
        return samples.vec
    return np.array([z.vec for z in samples])


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


def fd_jacobians(fn, x, step=DEFAULT_FD_STEP, size=0):
    """fd_jacobian of fn at a point x, or at each point of a stack; fn's
    value has ``size`` entries, the rows of an empty stack's Jacobians.

    A stack is differenced in one pass through fn's column function, when
    fn has one, with fd_jacobian's shifts and order of operations, so each
    point keeps its bits. When fn has none, or it faults at some shifted
    point, fd_jacobian runs at each point in turn, which raises the first
    faulting point's error.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim > 1 and hasattr(fn, "columns"):
        flat = x.reshape(-1, x.shape[-1])
        jac = _column_differences(fn.columns, flat, step)
        if jac is not None:
            return jac.reshape(x.shape[:-1] + jac.shape[1:])
    return each(lambda point: fd_jacobian(fn, point, step), x, (size, x.shape[-1]))


def _column_differences(columns, xs, step):
    """fd_jacobian at each row of xs through ``columns``, or None when an
    evaluation faults."""
    count, width = xs.shape
    base = columns(xs)
    if base is None:
        return None
    jac = np.empty((count, int(np.prod(base.shape[1:])), width))
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(width):
            shift = np.zeros(width)
            shift[j] = step
            ahead, behind = columns(xs + shift), columns(xs - shift)
            if ahead is None or behind is None:
                return None
            jac[:, :, j] = (ahead.reshape(count, -1)
                            - behind.reshape(count, -1)) / (2 * step)
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
        """gamma at a point q, or at each point of a stack."""
        value = each(self.eval_fn, q, np.shape(q)[-1:])
        if not np.isfinite(value).all():
            raise NumericalDomainError("one-form evaluation is non-finite")
        return value

    def jacobian(self, q):
        """d(gamma_i)/d(q_j) at a point q, or at each point of a stack."""
        n = np.shape(q)[-1]
        if self.jacobian_fn is not None:
            jac = each(self.jacobian_fn, q, (n, n))
        else:
            jac = fd_jacobians(self.eval_fn, q, self.step, n)
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
        """M(q) at a point or a stack of points; a constant two-form returns
        its one read-only matrix, which broadcasts over any stack."""
        if self._constant is not None:
            return self._constant
        upper = np.triu(each(self._upper_fn, q, (self.n, self.n)), 1)
        if not np.isfinite(upper).all():
            raise NumericalDomainError("two-form evaluation is non-finite")
        return upper - tr(upper)

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


def two_form_closedness_residual(field, q, step=CLOSEDNESS_STEP):
    """Max cyclic-sum residual of the exterior derivative of a two-form.

    Checks d_i M_jk + d_j M_ki + d_k M_ij over all index triples with
    central differences; exactly zero input derivatives give zero.
    """
    return float(closedness_residual(field, ensure_config(q), step))


def closedness_residual(field, q, step):
    """two_form_closedness_residual at a point or at each point of a stack."""
    n = q.shape[-1]
    lead = q.shape[:-1]
    if n < 3:
        return np.zeros(lead)
    partials = np.empty(lead + (n, n, n))
    for k in range(n):
        shift = np.zeros(n)
        shift[k] = step
        partials[..., k, :, :] = (field.matrix(q + shift)
                                  - field.matrix(q - shift)) / (2 * step)
    worst = np.zeros(lead)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                cyclic = (partials[..., i, j, k] + partials[..., j, k, i]
                          + partials[..., k, i, j])
                worst = np.fmax(worst, np.abs(cyclic))
    return worst


def restricted_form_residual(matrix, basis):
    """Largest absolute value of a bilinear form restricted to a subspace."""
    basis = np.asarray(basis, dtype=float)
    return np.abs(tr(basis) @ matrix @ basis).max(axis=(-2, -1), initial=0.0)


def magnetic_match_residual(section, b_field, q, basis=None):
    """Residual of the condition d(gamma) = -B on a subspace of T_q Q.

    ``basis`` holds orthonormal columns spanning the subspace; None means
    all of T_q Q. Zero (to tolerance) certifies the twist hypothesis of the
    Type I checks at q.
    """
    q = ensure_config(q)
    if basis is None:
        basis = np.eye(q.size)
    return float(twist_residual(section.jacobian(q), b_field.matrix(q), basis))


def twist_residual(jac, b, basis):
    """|d(gamma) + B| on the columns of ``basis``, from the section's Jacobian
    J = d(gamma_i)/d(q_j) and B at a point or a stack of points."""
    return restricted_form_residual((tr(jac) - jac) + b, basis)
