"""Dense linear-algebra helpers for small matrices, and the entry to the
checks' orchestration (see stacked.py).

Every helper here takes one matrix (or vector) or a stack of them along
leading sample axes, and gives each stacked matrix the bits it gives that
matrix alone. That holds because numpy's ``svd``, ``solve``, ``inv``,
``cholesky`` and ``@`` run the same routine on every matrix of a stack,
provided each stacked operand has the single operand's layout: a
C-contiguous matrix or the transposed view of one (``tr``). So a
matrix-vector product is written ``mv(a, v)``, that is ``a @ v[..., None]``;
a norm is the square root of ``dots``, as ``np.linalg.norm`` of a vector is;
a slice that is copied for one point is copied for a stack too; and
``np.einsum`` is never used, since it is not bitwise equal to any of them.
The numerical functions of :mod:`dynamics`, :mod:`geometry`,
:mod:`nonholonomic`, :mod:`hj`, :mod:`reduction` and :mod:`sampling` follow
the same rule, so each is defined once for a point or a stack: a residual
is reduced per sample (max_abs_each), a guard names the first failing
sample (first_failing), and a fold over the samples is ``worst``.
"""

import numpy as np

RCOND = 1e-10


class RankSplit(Exception):
    """The stacked matrices of one step differ in rank; ``ranks`` holds each
    matrix's rank (see stacked.by_rank)."""

    def __init__(self, ranks):
        super().__init__()
        self.ranks = ranks


def tr(a):
    return a.swapaxes(-1, -2)


def mv(a, v):
    """``a @ v`` for stacked matrices a and vectors v."""
    return (a @ v[..., None])[..., 0]


def dots(u, v):
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def norms(v):
    return np.sqrt(dots(v, v))


def _ranks(s):
    """The rank of each matrix from its singular values s: the count above
    RCOND times the largest."""
    return np.count_nonzero(s > RCOND * s[..., :1], axis=-1)


def _common_rank(s):
    """The one rank of all stacked matrices; RankSplit when they differ."""
    ranks = np.asarray(_ranks(s))
    if (ranks != ranks.flat[0]).any():
        raise RankSplit(ranks)
    return int(ranks.flat[0])


def null_space(matrix):
    """Orthonormal basis of ker(matrix) as columns, via SVD.

    A matrix with zero rows has the full space as kernel; the identity is
    returned so downstream code sees an explicit basis.
    """
    matrix = np.asarray(matrix, dtype=float)
    *lead, rows, cols = matrix.shape
    if rows == 0:
        return np.zeros((*lead, cols, cols)) + np.eye(cols)
    _, s, vh = np.linalg.svd(matrix)
    return tr(vh[..., _common_rank(s):, :]).copy()


def column_space(matrix):
    """Orthonormal basis of the column space, as columns."""
    matrix = np.asarray(matrix, dtype=float)
    if 0 in matrix.shape[-2:]:
        return np.zeros((*matrix.shape[:-1], 0))
    u, s, _ = np.linalg.svd(matrix)
    return u[..., :_common_rank(s)].copy()


def rank_of(matrix):
    return _ranks(np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False))


def max_abs(array):
    array = np.asarray(array)
    return float(np.abs(array).max()) if array.size else 0.0


def max_abs_each(array, ndim=1):
    """max_abs of a point's array of ``ndim`` axes, or of each sample's in a
    stack of them."""
    return np.abs(array).max(axis=tuple(range(-ndim, 0)), initial=0.0)


def worst(values):
    """``max(0.0, v1, v2, ...)`` over every entry of the arrays in
    ``values``, as the per-sample folds take it: a NaN never replaces the
    running value."""
    return max([0.0, *(v for value in values for v in np.ravel(value).tolist())])


def first_failing(failed):
    """The index of the first sample at which ``failed`` holds; () for a
    point, so that ``array[first_failing(failed)]`` is the point's own."""
    return tuple(np.argwhere(failed)[0])


def solve_small(matrix, rhs):
    """np.linalg.solve for the tiny k x k systems of the constraint code.

    A 1 x 1 system is one division, which is what LAPACK computes for it,
    without the generic solver's per-call overhead. An exactly singular
    matrix raises np.linalg.LinAlgError, as np.linalg.solve does.
    """
    if matrix.shape[-2:] == (1, 1):
        pivot = matrix[..., 0]
        if (pivot == 0.0).any():
            raise np.linalg.LinAlgError("Singular matrix")
        return rhs / pivot
    return np.linalg.solve(matrix, rhs[..., None])[..., 0]


def run_stacked(name, *args):
    """``stacked.<name>(*args)``, one check's work on all its samples at
    once. It returns the entry point's result or raises its error; a fault
    raises the error of the first failing sample (stacked.located). The
    stacked module is imported on first use."""
    from . import stacked

    with np.errstate(all="ignore"):
        return getattr(stacked, name)(*args)
