"""Dense linear-algebra helpers for small matrices, and the entry to the
checks' orchestration (see stacked.py).

Every helper here takes one matrix (or vector) or a stack of them along
leading sample axes, and gives each stacked matrix the bits it gives that
matrix alone. That holds because numpy's ``svd``, ``solve``, ``inv``,
``cholesky`` and ``@``, and the least-squares gufunc that ``np.linalg.lstsq``
runs on one matrix (``lstsq_each`` runs it on a stack), run the same routine
on every matrix of a stack, provided each stacked operand has the single
operand's layout: a C-contiguous matrix or the transposed view of one
(``tr``). So a
matrix-vector product is written ``mv(a, v)``, that is ``a @ v[..., None]``;
a norm is the square root of ``dots``, as ``np.linalg.norm`` of a vector is;
a slice that is copied for one point is copied for a stack too; and
``np.einsum`` is never used, since it is not bitwise equal to any of them.
The numerical functions of :mod:`dynamics`, :mod:`geometry`,
:mod:`nonholonomic`, :mod:`hj`, :mod:`reduction` and :mod:`sampling` follow
the same rule, so each is defined once for a point or a stack: a residual
is reduced per sample (max_abs_each), a guard names the first failing
sample (first_failing), and a fold over the samples is ``worst``, one
numpy reduction. A rank is decided on the SVD of each matrix as it is,
except where the largest singular value overflows (_svd).
"""

import numpy as np
from numpy.linalg import _umath_linalg

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


def _svd(matrix, compute_uv=True):
    """np.linalg.svd of a matrix or a stack, for a rank decision. A matrix
    whose largest singular value overflows (rank 0 by _ranks) is decomposed
    again scaled by the power of two of its largest entry, which is exact;
    every other matrix keeps its bits."""
    out = np.linalg.svd(matrix, compute_uv=compute_uv)
    parts = out if compute_uv else [out]
    over = np.isinf(parts[-2 if compute_uv else 0][..., :1]).any(axis=-1)
    if over.any():
        exponent = np.frexp(np.abs(matrix[over]).max(axis=(-2, -1)))[1][:, None, None]
        again = np.linalg.svd(np.ldexp(matrix[over], -exponent), compute_uv=compute_uv)
        for part, redone in zip(parts, again if compute_uv else [again]):
            part[over] = redone
    return out


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
    _, s, vh = _svd(matrix)
    return tr(vh[..., _common_rank(s):, :]).copy()


def column_space(matrix):
    """Orthonormal basis of the column space, as columns."""
    matrix = np.asarray(matrix, dtype=float)
    if 0 in matrix.shape[-2:]:
        return np.zeros((*matrix.shape[:-1], 0))
    u, s, _ = _svd(matrix)
    return u[..., :_common_rank(s)].copy()


def rank_of(matrix):
    """The rank of a matrix, or of each of a stack, by the SVD rule of
    _ranks; a single row by the single-row rule.

    The single-row rule: a row has rank 1 exactly when some entry is
    nonzero. On a finite row that is the rank the SVD rule gives, since the
    row's one singular value is its norm (scaled by _svd where it
    overflows). The generated RK4 step writes this rule inline for k = 1
    (kernel._Generator.rows), so ConstraintDistribution.matrix and the step
    raise at the same rows. The rule sees the rows only where they are
    evaluated: at RK4 stage points a row that passes through zero between
    two stages is not caught; the row (0, 1 - q1) raises at --dt 0.25,
    where a stage lands on q1 = 1, and runs on at --dt 0.3.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape[-2] == 1:
        return np.count_nonzero(matrix[..., 0, :] != 0.0, axis=-1).clip(max=1)
    return _ranks(_svd(matrix, compute_uv=False))


def max_abs(array):
    array = np.asarray(array)
    return float(np.abs(array).max()) if array.size else 0.0


def max_abs_each(array, ndim=1):
    """max_abs of a point's array of ``ndim`` axes, or of each sample's in a
    stack of them."""
    return np.abs(array).max(axis=tuple(range(-ndim, 0)), initial=0.0)


def worst(values):
    """``max(0.0, v1, v2, ...)`` over every entry of ``values``, an array or
    a sequence of arrays, as the per-sample folds take it: a NaN never
    replaces the running value, and a maximum of -0.0 reads 0.0."""
    if not isinstance(values, np.ndarray):
        values = [np.ravel(value) for value in values]
        values = np.concatenate(values) if values else np.zeros(0)
    return float(np.fmax.reduce(values, axis=None, initial=0.0)) + 0.0


def first_failing(failed):
    """The index of the first sample at which ``failed`` holds; () for a
    point, so that ``array[first_failing(failed)]`` is the point's own."""
    return tuple(np.argwhere(failed)[0])


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def lstsq_each(a, b):
    """``np.linalg.lstsq(a, b, rcond=None)[0]`` for a matrix a and right-hand
    sides b, or for each pair of a stack, in one call of the gufunc that
    np.linalg.lstsq runs on one pair (numpy >= 2), with its rcond, its
    padding of zero right-hand sides and its zero solution when a has no
    rows. A stack in which some solve does not converge raises
    np.linalg.LinAlgError, as np.linalg.lstsq does at that pair."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape[-2:]
    columns = b.shape[-1]
    if columns == 0:
        # LAPACK takes no empty right-hand side: solve for one zero column
        b = np.zeros(b.shape[:-1] + (1,))
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        x = _umath_linalg.lstsq(a, b, np.finfo(float).eps * max(m, n),
                                signature="ddd->ddid")[0]
    if m == 0:
        x[...] = 0.0
    return x[..., :columns]


def run_stacked(name, *args):
    """``stacked.<name>(*args)``, one check's work on all its samples at
    once. It returns the entry point's result or raises its error; a fault
    raises the error of the first failing sample (stacked.located). The
    stacked module is imported on first use."""
    from . import stacked

    with np.errstate(all="ignore"):
        return getattr(stacked, name)(*args)
