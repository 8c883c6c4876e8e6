"""One numerical layer for a point or a stack.

The linear algebra, Omega, the structure solve, the residual kernels, the
base terms of H, the surface frame, the section hypotheses, the Type I and
Type II kernels, the phase map and its Newton preimage, and the reduced
frame and field take one point or a stack of points along a leading sample
axis. For every sample of a random stack each of them must give the bits
it gives for that sample alone: the stacked checks and their per-sample
reference call the same functions, and the goldens hold only while the two
agree. The invariance residuals fold over the samples, so a stack must
give the fold of the samples' values.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_DIR, random_spd
from test_contract import expressions as expression_texts
from magnomech import expressions
from magnomech.cli import checks_for_system
from magnomech.dynamics import (
    HamiltonianSpec,
    MagneticStructure,
    PhaseMap,
    free_field,
    pullback_defect,
    structure_solve,
)
from magnomech.errors import ExpressionError, MagnomechError, NumericalDomainError
from magnomech.geometry import (
    OneFormSection,
    TwoFormField,
    closedness_residual,
    each,
    restricted_form_residual,
    split,
    two_form_closedness_residual,
)
from magnomech.hj import (
    _type2_residuals,
    constrained_level,
    section_hypotheses,
    tangent_lift,
    type1_residual,
)
from magnomech.linalg import (
    RCOND,
    RankSplit,
    column_space,
    lstsq_each,
    null_space,
    rank_of,
    worst,
)
from magnomech.nonholonomic import (
    ConstraintDistribution,
    admissible,
    compatibility,
    multiplier_correction,
    section_image,
    surface_frame,
    surface_residual,
)
from magnomech.reduction import (
    TranslationSymmetry,
    _reduced_field,
    data_invariance_residual,
    map_equivariance_residual,
    reduced_level,
    relatedness,
    section_invariance_residual,
)
from magnomech.sampling import preimage
from magnomech.scenarios import _compile, build_system, load_scenario
from magnomech.tolerances import Tolerances

seeds = st.integers(0, 2**32 - 1)
counts = st.integers(1, 5)


def same_bits(stacked, alone):
    stacked, alone = np.asarray(stacked), np.asarray(alone)
    assert stacked.shape == alone.shape
    assert stacked.tobytes() == alone.tobytes()


def each_sample(fn, *stacks):
    """fn on the whole stacks against fn on each sample's slices."""
    out = fn(*stacks)
    for i in range(len(stacks[0])):
        same_bits(out[i], fn(*(stack[i] for stack in stacks)))


def each_sample_unless_raised(fn, *stacks):
    """each_sample, unless the stack raises the typed error of a fault or
    splits by rank: the checks then rerun the stage sample by sample, or by
    rank group (linalg.located, linalg.by_rank)."""
    try:
        fn(*stacks)
    except (MagnomechError, RankSplit):
        return
    each_sample(fn, *stacks)


def folds_samples(fn, *stacks):
    """A residual that folds over the samples gives, on the stack, the
    fold (linalg.worst) of its values at each sample."""
    assert fn(*stacks) == worst([fn(*(stack[i] for stack in stacks))
                                 for i in range(len(stacks[0]))])


def _deficient(rng, count, rows, cols, ranks):
    """``count`` random rows x cols matrices of the given ranks."""
    return np.array([rng.normal(size=(rows, r)) @ rng.normal(size=(r, cols))
                     for r in ranks])


@settings(max_examples=60, deadline=None)
@given(seed=seeds, count=counts, rows=st.integers(0, 4), cols=st.integers(1, 5),
       mixed=st.booleans())
def test_subspaces_and_ranks(seed, count, rows, cols, mixed):
    """null_space, column_space and rank_of on zero-row stacks and on stacks
    whose ranks differ: a split names each sample's rank, and each group of
    one rank gives every sample's bits."""
    rng = np.random.default_rng(seed)
    full = min(rows, cols)
    ranks = rng.integers(0, full + 1, size=count) if mixed else np.full(count, full)
    stack = _deficient(rng, count, rows, cols, ranks)
    found = rank_of(stack)
    assert found.tolist() == [int(rank_of(matrix)) for matrix in stack]
    for fn in (null_space, column_space):
        if len(set(found.tolist())) > 1:
            with pytest.raises(RankSplit) as split:
                fn(stack)
            assert split.value.ranks.tolist() == found.tolist()
        for rank in set(found.tolist()):
            each_sample(fn, stack[found == rank])


# single-row entries: zeros, subnormals, moderate values and entries up to
# 1e307, so that a row of at most 6 entries keeps a finite 2-norm
ROW_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    st.floats(-2.2e-308, 2.2e-308),
    st.floats(-1e3, 1e3),
    st.floats(1e300, 1e307),
    st.floats(-1e307, -1e300))


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.lists(ROW_ENTRIES, min_size=6, max_size=6), min_size=1,
                     max_size=8),
       width=st.integers(1, 6))
def test_single_row_rank_rule_is_the_svd_rank(rows, width):
    """On finite rows with a finite 2-norm, subnormal and huge entries among
    them, rank_of's single-row rule (rank 1 exactly when an entry is
    nonzero) gives the rank of the SVD rule, row by row and on the stack."""
    stack = np.array(rows)[:, None, :width]
    singular = np.linalg.svd(stack, compute_uv=False)
    svd_ranks = np.count_nonzero(singular > RCOND * singular[..., :1], axis=-1)
    assert rank_of(stack).tolist() == svd_ranks.tolist()
    assert [int(rank_of(row)) for row in stack] == svd_ranks.tolist()
    assert svd_ranks.tolist() == [int((row != 0.0).any()) for row in stack]


def test_single_row_rank_rule_past_norm_overflow():
    """A finite row whose 2-norm overflows has rank 1; its one singular
    value is inf, which the SVD rule would count as rank 0."""
    row = np.full((1, 4), 1.7e308)
    assert np.linalg.svd(row, compute_uv=False)[0] == np.inf
    assert rank_of(row) == 1


def _lstsq_reference(a, b):
    return [np.linalg.lstsq(ai, bi, rcond=None)[0] for ai, bi in zip(a, b)]


@settings(max_examples=100, deadline=None)
@given(seed=seeds, count=st.integers(1, 59), m=st.integers(0, 6), n=st.integers(0, 6),
       columns=st.integers(0, 6), third=st.integers(0, 2))
def test_stacked_least_squares(seed, count, m, n, columns, third):
    """lstsq_each on a stack of m x n matrices gives at every sample the
    bytes of np.linalg.lstsq(..., rcond=None)[0], on wide and tall
    matrices, zero-row matrices and zero-column right-hand sides; in about
    every third stack the matrices fall short of full rank."""
    rng = np.random.default_rng(seed)
    full = min(m, n)
    ranks = rng.integers(0, full + 1, size=count) if third == 0 else np.full(count, full)
    a = _deficient(rng, count, m, n, ranks)
    b = rng.normal(size=(count, m, columns))
    solved = lstsq_each(a, b)
    assert solved.shape == (count, n, columns)
    for x, expected in zip(solved, _lstsq_reference(a, b)):
        same_bits(x, expected)
    same_bits(lstsq_each(a[0], b[0]), solved[0])


def test_stacked_least_squares_raises_where_lstsq_raises():
    """A solve that does not converge raises LinAlgError, as np.linalg.lstsq
    does, also where the checks ignore floating-point errors."""
    a = np.stack([np.eye(2), np.full((2, 2), np.nan)])
    b = np.ones((2, 2, 1))
    with pytest.raises(np.linalg.LinAlgError):
        _lstsq_reference(a, b)
    with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError,
                                                  match="Linear Least Squares"):
        lstsq_each(a, b)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, count=counts, k=st.integers(1, 3))
def test_projection_solves(seed, count, k):
    """SurfaceFrame.project's k x k Gram solve, for k = 1 and for k >= 2."""
    rng = np.random.default_rng(seed)
    n = k + 1
    dist = _distribution(rng, n, k)
    ham = _hamiltonian(rng, n, "mass")
    qs, ps = rng.normal(size=(2, count, n))
    each_sample(lambda q, p: surface_frame(dist, ham, q).project(p), qs, ps)


def _two_form(rng, n, constant):
    """A two-form that varies with q, with its partials, or a constant one."""
    if constant:
        raw = rng.normal(size=(n, n))
        return TwoFormField.constant(raw - raw.T)
    coeff = rng.normal(size=(n, n))
    # entry (i, j) is c_ij sin(q_i + 2 q_j)
    rates = np.eye(n)[:, :, None] + 2.0 * np.eye(n)[:, None, :]

    def partials(q):
        return rates * (coeff * np.cos(np.add.outer(q, 2.0 * q)))

    return TwoFormField(lambda q: coeff * np.sin(np.add.outer(q, 2.0 * q)), n, partials)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, count=counts, n=st.integers(1, 4), constant=st.booleans(),
       width=st.integers(0, 4))
def test_structure_and_residual_kernels(seed, count, n, constant, width):
    """form_matrix, structure_solve, the pullback defect, tangent_lift,
    restricted_form_residual and the closedness residual."""
    rng = np.random.default_rng(seed)
    field = _two_form(rng, n, constant)
    mag = MagneticStructure(field)
    qs, images = rng.normal(size=(2, count, n))
    jacs = rng.normal(size=(count, 2 * n, 2 * n))
    each_sample(mag.form_matrix, qs)
    if not constant:
        each_sample(field.matrix, qs)
    each_sample(lambda q, g: structure_solve(mag.form_matrix(q), g),
                qs, rng.normal(size=(count, 2 * n)))
    each_sample(lambda q, w, j: pullback_defect(mag, q, w, j), qs, images, jacs)
    each_sample(tangent_lift, rng.normal(size=(count, n, n)), rng.normal(size=(count, n)))
    bases = rng.normal(size=(count, n, min(width, n)))
    each_sample(restricted_form_residual, field.matrix(qs) + np.zeros((count, n, n)),
                bases)
    each_sample(lambda q: closedness_residual(field, q), qs)
    for q, value in zip(qs, closedness_residual(field, qs).tolist()):
        assert two_form_closedness_residual(field, q) == value
    # the Type I and Type II kernels at their magnetic levels, on a free
    # particle and a smooth phase map near the identity
    ham = HamiltonianSpec.free(n)
    ps, ws = rng.normal(size=(count, n)), rng.normal(size=(count, 2 * n))
    section_jacs = rng.normal(size=(count, n, n))
    each_sample(lambda q, p: free_field(ham, mag, q, p), qs, ps)
    each_sample(lambda q, p, j: type1_residual(ham, mag, q, p, j, lambda q, p, free: (
        None, free)), qs, ps, section_jacs)
    shift = 0.1 * rng.normal(size=2 * n)
    eps = PhaseMap(lambda v: v + 0.1 * np.sin(v) + shift,
                   lambda v: np.eye(2 * n) + np.diag(0.1 * np.cos(v)))
    zs = np.concatenate([qs, ps], axis=-1)
    each_sample(eps.image, zs)
    each_sample(eps.jacobians, zs)
    each_sample(lambda w: preimage(eps, w), ws)
    section = OneFormSection(lambda q: np.sin(q) @ section_jacs[0],
                             lambda q: np.cos(q)[:, None] * section_jacs[0])
    for residual in range(2):
        each_sample(lambda z, w, j: _type2_residuals(
            ham, mag, z, w, j, section.jacobian(w[..., :n]),
            lambda q, p, free: (None, None, None))[residual], zs, ws, jacs)


def _mass(rng, n):
    """G(q) = G0 + diag(sin(q)^2) and its partials, direction first."""
    base = random_spd(rng, n)

    def mass(q):
        return base + np.diag(np.sin(q) ** 2)

    def mass_grad(q):
        grads = np.zeros((n, n, n))
        for c in range(n):
            grads[c, c, c] = 2.0 * np.sin(q[c]) * np.cos(q[c])
        return grads

    return mass, mass_grad


def _hamiltonian(rng, n, kind):
    weights = rng.normal(size=n)

    def potential(q):
        return float(weights @ np.cos(q))

    def potential_grad(q):
        return -weights * np.sin(q)

    if kind == "general":
        return HamiltonianSpec.general(
            n, lambda q, p: potential(q) + float(p @ p) * (1.0 + float(q @ q)),
            lambda q, p: np.concatenate([potential_grad(q) + 2.0 * float(p @ p) * q,
                                         2.0 * p * (1.0 + float(q @ q))]))
    if kind == "unit":
        return HamiltonianSpec.quadratic(n, potential_fn=potential,
                                         potential_grad_fn=potential_grad)
    mass, mass_grad = _mass(rng, n)
    return HamiltonianSpec.quadratic(n, mass_fn=mass, mass_grad_fn=mass_grad,
                                     potential_fn=potential,
                                     potential_grad_fn=potential_grad)


KINDS = ("unit", "mass", "general")


@settings(max_examples=60, deadline=None)
@given(seed=seeds, count=counts, n=st.integers(1, 4), kind=st.sampled_from(KINDS))
def test_base_terms(seed, count, n, kind):
    """BaseTerms.value and gradient at unit mass, a symbolic mass and a
    general H."""
    rng = np.random.default_rng(seed)
    ham = _hamiltonian(rng, n, kind)
    qs, ps = rng.normal(size=(2, count, n))
    each_sample(lambda q, p: ham.at(q).value(p), qs, ps)
    each_sample(lambda q, p: ham.at(q).gradient(p), qs, ps)


def _distribution(rng, n, k):
    """A(q) = [I_k | C(q)]: rank k at every q."""
    coeff = rng.normal(size=(k, n - k))

    def rows(q):
        return np.hstack([np.eye(k), coeff * np.cos(q[k:])])

    def rows_grad(q):
        grads = np.zeros((n, k, n))
        for c in range(k, n):
            grads[c, :, c] = -coeff[:, c - k] * np.sin(q[c])
        return grads

    return ConstraintDistribution(n, k, rows, rows_grad)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, count=counts, n=st.integers(2, 4), data=st.data(),
       kind=st.sampled_from(("unit", "mass")))
def test_surface_frame(seed, count, n, data, kind):
    """SurfaceFrame.residual, jacobian, admissible and project, and
    multiplier_correction."""
    rng = np.random.default_rng(seed)
    dist = _distribution(rng, n, data.draw(st.integers(1, n - 1)))
    ham = _hamiltonian(rng, n, kind)
    qs, ps = rng.normal(size=(2, count, n))
    free = rng.normal(size=(count, 2 * n))

    def frame(q):
        return surface_frame(dist, ham, q)

    each_sample(lambda q: frame(q).rows, qs)
    each_sample(lambda q: frame(q).basis, qs)
    for method in ("residual", "jacobian", "admissible", "project"):
        each_sample(lambda q, p: getattr(frame(q), method)(p), qs, ps)
    each_sample(lambda q, p, x: multiplier_correction(frame(q), p, x)[0], qs, ps, free)
    each_sample(lambda q, p, x: multiplier_correction(frame(q), p, x)[1], qs, ps, free)
    # the surface checks, bases and kernels at momenta on the surface, with
    # a section that tolerates any tangent residual
    on = frame(qs).project(ps)
    mag = MagneticStructure(_two_form(rng, n, data.draw(st.booleans())))
    tolerances = Tolerances({"membership": 1e300})
    coeff = rng.normal(size=(n, n))
    section = OneFormSection(lambda q: coeff @ np.sin(q), lambda q: coeff * np.cos(q))
    each_sample(lambda q, p: surface_residual(frame(q), p), qs, on)
    each_sample(lambda q, p: section_image(frame(q), p, 1e-8), qs, on)
    each_sample(lambda q, p: admissible(frame(q), p, 1e-8), qs, on)
    for part in range(3):
        each_sample(lambda q, p: section_hypotheses(
            section, frame(q), p, tolerances)[part], qs, on)
    for field in range(6):
        each_sample_unless_raised(lambda q, p: compatibility(
            frame(q), mag.form_matrix(q), p, 1e-8, 1e-8)[field], qs, on)
    zs = np.concatenate([qs, on], axis=-1)
    for part in (0, 2):
        each_sample_unless_raised(lambda z, x: constrained_level(
            frame(z[..., :n]), tolerances)(z[..., :n], z[..., n:], lambda: x)[part],
            zs, free)
    # the reduced frame and field over the last coordinate, translated
    sym = TranslationSymmetry([n - 1], n)
    each_sample_unless_raised(lambda q, p: _reduced_field(
        sym, frame(q), mag, p, tolerances)[0], qs, on)
    for part in (0, 2):
        each_sample_unless_raised(lambda q, p: reduced_level(
            sym, frame(q), mag, tolerances)(q, p, None)[part], qs, on)
    each_sample_unless_raised(lambda q, p: relatedness(
        sym, frame(q), mag, p, tolerances), qs, on)
    folds_samples(lambda q, p: data_invariance_residual(sym, dist, ham, mag, q, p), qs, on)
    folds_samples(lambda q, g: section_invariance_residual(sym, section, q, g), qs, on)
    eps = PhaseMap.translation(np.eye(n)[n - 1])
    folds_samples(lambda z: map_equivariance_residual(sym, eps, z, eps.image(z)), zs)


def test_constant_two_form_is_read_once_per_stack(systems, monkeypatch):
    """A constant B is one matrix for the whole stack: no check of a pass
    over nh-magnetic-particle evaluates B at a single sample."""
    shapes = Counter()
    matrix = TwoFormField.matrix

    def recording(self, q):
        shapes[np.ndim(q)] += 1
        return matrix(self, q)

    monkeypatch.setattr(TwoFormField, "matrix", recording)
    reports = checks_for_system(systems["nh-magnetic-particle"], 50, 0)
    assert {report.verdict for report in reports} == {"PASS"}
    assert shapes[2] > 0
    assert set(shapes) == {2}


def _stack(rng, count, dim, positive):
    """Points in [-3, 3]^dim, or in [0, 3]^dim where no power of a
    coordinate has a negative base, with a tenth of the coordinates rounded
    to integers so that poles and zero bases come up."""
    points = rng.uniform(0.0 if positive else -3.0, 3.0, size=(count, dim))
    whole = rng.random(size=points.shape) < 0.1
    points[whole] = np.round(points[whole])
    return points


# exponents of the power entry that each drawn array gets: integers, for
# which numpy's power and libm's differ most, fractions and variables
EXPONENTS = ["2", "3", "-2", "0.5", "1.5", "q2", "p1"]
FUNCTIONS = list(expressions.FUNCTIONS)


# no shrinking: each failing example's exception keeps its traceback, and
# with it this test's frames and compiled functions, in the runner's cache
# of results, so a failure grew past 1 GB while shrinking for minutes
@settings(max_examples=150, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
@given(texts=st.lists(expression_texts(expressions.phase_names(2)), min_size=1,
                      max_size=3),
       exponent=st.sampled_from(EXPONENTS), function=st.sampled_from(FUNCTIONS),
       form=st.sampled_from(["bare", "list", "grid"]), seed=seeds,
       count=st.integers(1, 40), positive=st.booleans())
def test_stack_evaluator(texts, exponent, function, form, seed, count, positive):
    """An array of scenario expressions of (q, p), followed by a power of
    the first and a function of the last, as a list, as a grid of it and its
    reverse, or that power alone, evaluated on a random stack.

    At each point, compile_node's one function for the array gives the bits
    of each entry compiled alone, in row-major order, or raises the first
    faulting entry's error, with its class and message. The column
    function gives each sample the bits that the per-point evaluator gives
    it alone, ^ with integer and fractional exponents and sin, cos and exp
    included. When any sample faults, geometry.each raises the first
    faulting sample's per-point error, with its class and message."""
    texts = texts + [f"({texts[0]}) ^ ({exponent})", f"{function}({texts[-1]})"]
    try:
        nodes = [expressions.parse(text) for text in texts]
    except ExpressionError:
        assume(False)
    array = {"bare": nodes[-2], "list": nodes, "grid": [nodes, nodes[::-1]]}[form]
    zs = _stack(np.random.default_rng(seed), count, 4, positive)
    entries, shape = expressions.leaves(array)
    whole = expressions.compile_node(array)
    alone = [expressions.compile_node(node) for node in entries]
    for z in zs:
        q, p = z[:2], z[2:]
        try:
            values = [f(q, p) for f in alone]
        except NumericalDomainError as err:
            with pytest.raises(NumericalDomainError) as raised:
                whole(q, p)
            assert type(raised.value) is type(err) and str(raised.value) == str(err)
            continue
        value = whole(q, p)
        same_bits(value, np.array(values).reshape(shape))
        assert np.ndim(value) == 0 or value.flags.c_contiguous
    evaluate = split(_compile(array), 2)
    try:
        alone = np.array([evaluate(z) for z in zs], dtype=float)
    except NumericalDomainError as err:
        with pytest.raises(NumericalDomainError) as raised:
            each(evaluate, zs)
        assert type(raised.value) is type(err) and str(raised.value) == str(err)
        return
    same_bits(each(evaluate, zs), alone)
    columns = evaluate.columns(zs)
    if columns is not None:
        same_bits(columns, alone)


@pytest.mark.parametrize("name", ["magnetic-hj", "nh-magnetic-reduced"])
def test_checks_evaluate_expressions_on_stacks(name, monkeypatch):
    """A check pass evaluates the scenario's expressions through their
    column functions: the per-point compiled functions run fewer times than
    one check has samples (the per-sample evaluation ran them thousands of
    times per pass)."""
    calls = Counter()
    compile_node = expressions.compile_node

    def counting(node):
        fn = compile_node(node)

        def counted(q, p=None):
            calls[name] += 1
            return fn(q, p)

        return counted

    monkeypatch.setattr(expressions, "compile_node", counting)
    system = build_system(load_scenario(SCENARIO_DIR / f"{name}.json"))
    calls.clear()
    reports = checks_for_system(system, 50, 0)
    assert {report.verdict for report in reports} == {"PASS"}
    assert calls[name] < 50
