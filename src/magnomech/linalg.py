"""Dense linear-algebra helpers for small matrices, and the entry to their
stacked counterparts (see stacked.py)."""

import numpy as np

RCOND = 1e-10


def null_space(matrix):
    """Orthonormal basis of ker(matrix) as columns, via SVD.

    A matrix with zero rows has the full space as kernel; the identity is
    returned so downstream code sees an explicit basis.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    rows, cols = matrix.shape
    if rows == 0:
        return np.eye(cols)
    _, s, vh = np.linalg.svd(matrix)
    cutoff = RCOND * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].T.copy()


def column_space(matrix):
    """Orthonormal basis of the column space, as columns."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        return np.zeros((matrix.shape[0], 0))
    u, s, _ = np.linalg.svd(matrix)
    cutoff = RCOND * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return u[:, :rank].copy()


def rank_of(matrix):
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        return 0
    s = np.linalg.svd(matrix, compute_uv=False)
    return int(np.count_nonzero(s > RCOND * s[0]))


def max_abs(array):
    array = np.asarray(array)
    return float(np.abs(array).max()) if array.size else 0.0


def solve_small(matrix, rhs):
    """np.linalg.solve for the tiny k x k systems of the constraint code.

    A 1 x 1 system is one division, which is what LAPACK computes for it,
    without the generic solver's per-call overhead. An exactly singular
    matrix raises np.linalg.LinAlgError, as np.linalg.solve does.
    """
    if matrix.shape == (1, 1):
        pivot = matrix[0, 0]
        if pivot == 0.0:
            raise np.linalg.LinAlgError("Singular matrix")
        return rhs / pivot
    return np.linalg.solve(matrix, rhs)


def run_stacked(name, *args):
    """``stacked.<name>(*args)``, one check's work on all its samples at once,
    or None when a guard of that stacked run trips or one of its solves
    fails: the caller then runs its per-sample loop, which raises the first
    failing sample's error. The stacked module is imported on first use."""
    from . import stacked
    from .errors import MagnomechError

    try:
        with np.errstate(all="ignore"):
            return getattr(stacked, name)(*args)
    except (MagnomechError, np.linalg.LinAlgError):
        return None
