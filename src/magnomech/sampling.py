"""Deterministic sample generation for checks.

Configuration points come from an unscrambled Sobol sequence over the
scenario's box (seed independent); momentum components come from a seeded
generator, uniform on [-1, 1], so --seed pins the whole sample set.
A sample set is one array from the moment it is drawn: configuration
samples an (N, n) array, phase samples a :class:`geometry.PhaseStack`.
The Newton iteration of :func:`preimage` is defined once, for one phase
vector or a stack; the projections and preimages of a sample set run on
all samples at once (:mod:`stacked`).
"""

from functools import lru_cache

import numpy as np

from .errors import NumericalDomainError
from .geometry import PhasePoint, PhaseStack
from .linalg import run_stacked

# Primitive polynomials and initial direction numbers m_1..m_s of Joe & Kuo,
# SIAM J. Sci. Comput. 30 (2008) 2635 (file new-joe-kuo-6.21201), for
# dimensions 2..40. ``poly`` holds the coefficients of
# x^s + a_1 x^(s-1) + ... + a_(s-1) x + 1 as bits s..0; dimension 1 is the
# van der Corput sequence.
_JOE_KUO = (
    (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)), (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)), (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)), (61, (1, 3, 5, 5, 31)),
    (67, (1, 3, 3, 9, 7, 49)), (91, (1, 1, 1, 15, 21, 21)),
    (97, (1, 3, 1, 13, 27, 49)), (103, (1, 1, 1, 15, 7, 5)),
    (109, (1, 3, 1, 15, 13, 25)), (115, (1, 1, 5, 5, 19, 61)),
    (131, (1, 3, 7, 11, 23, 15, 103)), (137, (1, 3, 7, 13, 13, 15, 69)),
    (143, (1, 1, 3, 13, 7, 35, 63)), (145, (1, 3, 5, 9, 1, 25, 53)),
    (157, (1, 3, 1, 13, 9, 35, 107)), (167, (1, 3, 1, 5, 27, 61, 31)),
    (171, (1, 1, 5, 11, 19, 41, 61)), (185, (1, 3, 5, 3, 3, 13, 69)),
    (191, (1, 1, 7, 13, 1, 19, 1)), (193, (1, 3, 7, 5, 13, 19, 59)),
    (203, (1, 1, 3, 9, 25, 29, 41)), (211, (1, 3, 5, 13, 23, 1, 55)),
    (213, (1, 3, 7, 3, 13, 59, 17)), (229, (1, 3, 1, 3, 5, 53, 69)),
    (239, (1, 1, 5, 5, 23, 33, 13)), (241, (1, 1, 7, 7, 1, 61, 123)),
    (247, (1, 1, 7, 9, 13, 61, 49)), (253, (1, 3, 3, 5, 3, 55, 33)),
    (285, (1, 3, 1, 15, 31, 13, 49, 245)),
    (299, (1, 3, 5, 15, 31, 59, 63, 97)),
    (301, (1, 3, 1, 11, 11, 11, 77, 249)),
)
MAX_DIMENSION = len(_JOE_KUO) + 1
BITS = 30
NEWTON_TOL = 1e-12
NEWTON_ITERATIONS = 25
# Sobol point sets kept, the least recently used dropped first
SOBOL_SETS = 32


def _direction_integers(poly, initial):
    """m_1..m_BITS from the recurrence m_j = 2 a_1 m_(j-1) ^ ... ^
    2^(s-1) a_(s-1) m_(j-s+1) ^ 2^s m_(j-s) ^ m_(j-s)."""
    s = len(initial)
    m = list(initial)
    for j in range(s, BITS):
        value = m[j - s]
        for k in range(1, s + 1):
            if (poly >> (s - k)) & 1:
                value ^= m[j - k] << k
        m.append(value)
    return m


@lru_cache(maxsize=None)
def direction_numbers(d):
    """Read-only (d, BITS) int64 array: v[j, k] = m_(k+1) 2^(BITS-1-k)."""
    if not 1 <= d <= MAX_DIMENSION:
        raise ValueError(f"Sobol dimension {d} outside 1..{MAX_DIMENSION}")
    rows = [[1] * BITS] + [_direction_integers(poly, initial)
                           for poly, initial in _JOE_KUO[:d - 1]]
    v = np.array(rows, dtype=np.int64) << np.arange(BITS - 1, -1, -1)
    v.setflags(write=False)
    return v


def sobol_points(box, count):
    """The first ``count`` points of the unscrambled Sobol sequence in Gray-code
    order (Antonov & Saleev), scaled into the per-coordinate box, as a
    read-only (count, n) array.

    The points are a pure function of the box's bits and the count, so each
    (box, count) is computed once and then handed out again (a check pass
    draws the same few sets many times)."""
    box = np.asarray(box, dtype=float)
    return _sobol_points(box.shape, box.tobytes(), count)


@lru_cache(maxsize=SOBOL_SETS)
def _sobol_points(shape, data, count):
    box = np.frombuffer(data).reshape(shape)
    v = direction_numbers(box.shape[0])
    # Point i is the XOR of v[:, k] over the set bits k of gray(i) = i ^ (i >> 1).
    # Gray codes reflect, gray(2^k + i) = 2^k | gray(2^k - 1 - i), so each
    # block [2^k, 2^(k+1)) is v[:, k] XOR the reversed block before it.
    x = np.zeros((count, v.shape[0]), dtype=np.int64)
    filled = 1
    for k in range(max(count - 1, 0).bit_length()):
        take = min(filled, count - filled)
        x[filled:filled + take] = x[filled - 1::-1][:take] ^ v[:, k]
        filled += take
    raw = x / 2.0**BITS
    points = box[:, 0] + raw * (box[:, 1] - box[:, 0])
    points.setflags(write=False)
    return points


def config_samples(box, count):
    """The first ``count`` Sobol points of the box, as one (count, n) array."""
    return sobol_points(box, count)


def phase_samples(box, count, rng):
    """Sobol configurations with seeded momenta, as one PhaseStack."""
    qs = sobol_points(box, count)
    ps = rng.uniform(-1.0, 1.0, size=qs.shape)
    return PhaseStack.of(qs, ps)


def surface_phase_samples(dist, ham, box, count, rng):
    """Phase samples projected onto the constraint surface, as one PhaseStack;
    with constraints it carries the SurfaceFrame that projected it
    (PhaseStack.frame)."""
    return run_stacked("projections", dist, ham, phase_samples(box, count, rng))


def newton_preimage(phase_map, target):
    """Solve phase_map(z) = target with Newton iteration from z = target.

    Shipped phase maps are translations, for which one step is exact, but
    the iteration handles any smooth invertible map that moves points little.
    """
    return PhasePoint.from_vec(preimage(phase_map, target.vec))


def preimage(phase_map, goal):
    """newton_preimage of the phase vector goal, or of each of a stack, as
    an array; a sample stops once its defect is below NEWTON_TOL."""
    vecs = np.array(goal, dtype=float)
    width = vecs.shape[-1]
    stack = vecs.reshape(-1, width)  # a view: the iterates are updated in place
    goals = np.reshape(goal, (-1, width))
    active = np.arange(len(stack))
    for _ in range(NEWTON_ITERATIONS):
        if not np.isfinite(stack[active]).all():
            raise NumericalDomainError("phase point has non-finite entries")
        defect = phase_map.image(stack[active]) - goals[active]
        moving = ~(np.abs(defect).max(axis=-1) < NEWTON_TOL)
        active, defect = active[moving], defect[moving]
        if not len(active):
            return vecs
        try:
            step = np.linalg.solve(phase_map.jacobians(stack[active]), defect[..., None])
        except np.linalg.LinAlgError:
            raise NumericalDomainError("phase map Jacobian is singular") from None
        stack[active] = stack[active] - step[..., 0]
    raise NumericalDomainError("preimage iteration did not converge")


def newton_preimages(phase_map, targets):
    """newton_preimage of each target, in order, as one PhaseStack."""
    return run_stacked("preimages", phase_map, targets)
