"""Generated RK4 runs: one loop of Python floats per system.

This docstring is the one statement of the integration rules; README's
Integration section describes only what a ``simulate`` run shows.

``step_kernel(ham, mag, dist)`` writes, compiles and keeps the source of
``run``, a loop of classical RK4 steps of the closed-form field
X = (H_p, -H_q + B H_p), plus the Lagrange-multiplier correction
sum_a lambda_a (0, -A_a) from one k x k solve when a distribution is given,
each followed by the end-of-step work: the drift residual, the momentum
projection (Hairer, Lubich and Wanner, *Geometric Numerical Integration*,
section IV.4), the post-projection residual and the energy. The four
stages' field code and the end-of-step code are written straight into the
loop body, so a step calls nothing but the called ingredients and the
LAPACK paths below; the state stays in local floats between steps, with
``h = 0.5 * dt`` and ``w = dt / 6.0`` computed once, and each finished row
goes to the caller's ``extend``. ``integrate`` passes the ``extend`` of one
flat buffer, and on a fault takes the failing step from the rows written:
the first step without a row. ``run.field(q1, ..., pn)`` is the same field code as a
function of one point, for the oracle tests.

Cache. The source is written once per (ham, mag, dist) on the first
``integrate`` call that needs it, and the KERNELS most recently used runs
are kept, so the halving checks and repeated runs reuse it. Importing,
parsing and building a system write nothing.

Inline or call. Each ingredient is inlined or called: G, dG/dq, V, dV/dq
(or a general H and its gradient), B, A and dA/dq. Every Hamiltonian and
distribution carries its partials (dynamics, nonholonomic), so the whole
field is always written out. A callable compiled by ``scenarios``
carries the ASTs it evaluates as ``nodes``, partials included, and the
step inlines the statements that ``expressions.guarded``, the one writer
of guarded entry evaluations, writes for them: the statements the callable
itself runs (the evaluation, its fault and its non-finite test, in
row-major order), so each entry gives the same value and faults with the
same error. Any other callable is called and its array unpacked into
floats. G is solved by an unrolled square-root-free Cholesky factorisation
G = L D L^T, and B is a literal when constant.

Value numbering. Each distinct entry is evaluated once per stage point
(local value numbering; Alpern, Wegman and Zadeck, POPL 1988): a table from
the entry's ``expressions.py_source`` text to its atom, emptied at each new
point and cleared of the entries that read p when the projection rebinds
p, gives a repeated entry (a symmetric mass written with the same text on
both sides of the diagonal, or dG/dq sharing the text of dV/dq) its atom,
and the negation -X of an entry X already evaluated (the lower triangle of
a ``b_field`` written as ``-(upper)``) its negated atom, with no statement.
That is exact, since entries are pure functions of (q, p) written in the
per-point order: the first evaluation has run the guards, a repeat gives
the same bits and cannot fault, and a finite float negates exactly.
``compile_node``'s per-point functions and the checks evaluate every entry.

Guards. Every guard of the per-point functions fires at the same RK stage
and step, with the same exception and message, and every entry they
evaluate is evaluated (or is a repeat of one evaluated) in their order, so
the first fault is the same one. The guards:

- non-finite states;
- an expression fault, named as ``expressions.compile_node`` names it,
  every entry evaluated in the same order, the lower triangle of
  ``b_field`` included, bar the repeats and negations that value numbering
  reuses;
- a singular or indefinite mass matrix, and a non-finite gradient or
  Hamiltonian;
- rank-deficient constraint rows: for k = 1 an exactly zero row, the
  single-row rule of ``linalg.rank_of`` written inline, and for k >= 2
  ``linalg.rank_of`` itself. A rule read at the stage points does not see
  a row that passes through zero between two of them (``linalg.rank_of``);
- the structure residual ``|Omega^T X - dH| <= 1e-10 (1 + |dH|)``, in its
  structured form ``Omega^T X = (B X_q - X_p, X_q)``, worded by
  ``dynamics.structure_error``, the one wording of both paths: a non-finite
  residual reads "structure solve residual is non-finite", and a finite one
  keeps its value in the message;
- the Gram rule: a singular multiplier or projection Gram matrix
  A G^{-1} A^T, and one with an infinite entry, which raises as
  ``SurfaceFrame.project`` ("projection Gram matrix is non-finite") and
  ``multiplier_correction`` ("multiplier matrix is non-finite") raise,
  since its solve would give no shift and leave p off the surface. For
  k = 1 one test, finite and nonzero, guards the division, and a nan entry
  goes on to the non-finite state guard;
- a non-quadratic Hamiltonian with constraints, and an off-surface start,
  against the system's scaled ``constraint`` tolerance with the message of
  the checks' surface test (both tested by ``integrate`` before the run).

Decisions that rest on LAPACK stay with LAPACK: a mass matrix whose
factorisation breaks down goes to the LU solve that tells a singular
matrix from an indefinite one, and with k >= 2 constraint rows the rank
test and the k x k solves call ``linalg``.

Cheap first. A finite check reads ``x * 0.0 == 0.0``, false exactly for
inf and nan. Guards are tested cheap first, each deciding exactly as the
full test alone would: a group of entries first tests
``(a + b + ...) * 0.0 == 0.0``, which holds only when every entry is
finite, and only a failed sum (a non-finite entry, or finite ones whose sum
overflows) runs the test of each entry, ``a * 0.0 + b * 0.0 + ... == 0.0``.
The structure residual is computed only when a defect entry is nonzero or
nan: with every entry +-0 it is 0, and the bound is at least 1e-10 because
dH was already checked finite.

Oracles. The dense solve (``dynamics.magnetic_vector_field``), the
multiplier route (``nonholonomic.constrained_field_multiplier``),
``project_to_constraint`` and the restricted solve
(``nonholonomic.constrained_field_restricted``) are not on this path: they
remain the oracles of the checks, and the tests compare the generated
field and whole trajectories with them, including a matrix of faults met
mid-run.
"""

import math
import re
from functools import lru_cache

import numpy as np

from . import expressions as ex
from .dynamics import SOLVER_TOL, structure_error
from .errors import (
    CompatibilityError,
    DegenerateConstraintError,
    NumericalDomainError,
)
from .linalg import rank_of

# generated runs kept, the least recently used dropped first
KERNELS = 32
# an entry's py_source that reads a momentum
_READS_P = re.compile(r"\bp\d")


@lru_cache(maxsize=KERNELS)
def step_kernel(ham, mag, dist):
    """``run(row, dt, project, steps, extend)`` for the field of (ham, mag,
    dist or None).

    ``row`` is (q, p, energy, residual, drift) as 2n + 3 floats. The run
    takes ``steps`` steps from it and passes each next row to ``extend``,
    or raises the per-point functions' error at the first failing step, so
    the rows passed before it count the steps that finished.
    ``run.field(q1, ..., pn)`` is the generated field at one point.
    """
    return _Generator(ham, mag, dist).compile()


def _flat(array):
    return np.asarray(array, dtype=float).ravel().tolist()


def _lu_velocity(mass, p):
    """G^{-1} p by LU, as BaseTerms.velocity computes it; the path for a mass
    matrix whose factorisation broke down."""
    try:
        return np.linalg.solve(np.array(mass), np.array(p)).tolist()
    except np.linalg.LinAlgError:
        raise NumericalDomainError("mass matrix is singular") from None


def _solve(matrix, rhs, error, name):
    """``np.linalg.solve`` of a k x k system (k >= 2) on nested floats,
    raising ``error`` for a matrix ``name`` with an infinite entry or a
    singular one."""
    matrix = np.array(matrix)
    if np.isinf(matrix).any():
        raise error(f"{name} is non-finite")
    try:
        return np.linalg.solve(matrix, np.array(rhs)[:, None])[:, 0].tolist()
    except np.linalg.LinAlgError:
        raise error(f"{name} is singular") from None


def _lit(value):
    value = float(value)
    if value == 0.0:
        return "0.0"
    return f"({value!r})" if value < 0 else repr(value)


def _is_lit(source):
    try:
        float(source.strip("()"))
    except ValueError:
        return False
    return True


def _neg(source):
    if _is_lit(source):
        return _lit(-float(source.strip("()")))
    return f"-{source}"


def _mul(*factors):
    """Source of a product of atoms, folding literal factors 0 and 1."""
    if "0.0" in factors:
        return "0.0"
    kept = [factor for factor in factors if factor != "1.0"]
    return " * ".join(kept) if kept else "1.0"


def _sum(terms):
    """Source of a left-to-right sum, dropping literal zeros."""
    kept = [term for term in terms if term != "0.0"]
    return " + ".join(kept) if kept else "0.0"


def _dot(left, right):
    return _sum(_mul(a, b) for a, b in zip(left, right))


def _tuple(atoms):
    return f"({', '.join(atoms)},)"


class _Generator:
    """Writes the source of ``_field`` and ``run``. Each ingredient method
    emits its code into the function being written and returns the atoms
    (local names or literals) holding its entries."""

    def __init__(self, ham, mag, dist):
        self.ham, self.mag, self.dist = ham, mag, dist
        self.n = ham.n
        self.k = 0 if dist is None else dist.k
        self.qs = [f"q{i + 1}" for i in range(self.n)]
        self.ps = [f"p{i + 1}" for i in range(self.n)]
        self.namespace = dict(
            ex.SOURCE_NAMES, _sqrt=math.sqrt, _nan=math.nan, _array=np.array,
            _flat=_flat, _lu_velocity=_lu_velocity, _solve=_solve, _rank_of=rank_of,
            _structure_error=structure_error, _Constraint=DegenerateConstraintError,
            _Compat=CompatibilityError)
        self.lines = []

    # -- writing -------------------------------------------------------------

    def begin(self, signature):
        self.lines.append(f"def {signature}:")
        self.indent = "    "
        self.names = 0
        self.unique = set()

    def at(self, finite):
        """Start the code at a new point: only ``finite`` is known finite,
        no entry is evaluated yet, and a called ingredient builds its numpy
        q again."""
        self.finite = set(finite)
        self.known = {}
        self.q_array = False

    def emit(self, line):
        self.lines.append(self.indent + line)

    def local(self, tag):
        """A new name, unique in the function being written, so that no
        later stage binds it again."""
        self.names += 1
        name = f"{tag}_{self.names}"
        self.unique.add(name)
        return name

    def fresh(self, tag, source):
        """A new local holding ``source``."""
        name = self.local(tag)
        self.emit(f"{name} = {source}")
        return name

    def assign(self, tag, source):
        """An atom holding ``source``: itself when it is one, else a new local."""
        if source.isidentifier() or _is_lit(source):
            return source
        return self.fresh(tag, source)

    def divide(self, tag, top, bottom):
        if top == "0.0" or bottom == "1.0":
            return top
        return self.assign(tag, f"{top} / {bottom}")

    def check_finite(self, atoms, message):
        """Raise NumericalDomainError(message) unless every atom is finite;
        atoms known to be finite are skipped."""
        unknown = [a for a in atoms if a not in self.finite and not _is_lit(a)]
        if not unknown:
            return
        test = " + ".join(f"{a} * 0.0" for a in unknown)
        failure = f"raise _Domain({message!r})"
        if len(unknown) == 1:
            self.emit(f"if not {test} == 0.0:")
            self.emit(f"    {failure}")
        else:
            # cheap first: a finite sum has finite terms, and only a sum that
            # is not (a non-finite term, or finite terms that overflow) goes
            # on to the test of each term
            self.emit(f"if not ({' + '.join(unknown)}) * 0.0 == 0.0:")
            self.emit(f"    if not {test} == 0.0:")
            self.emit(f"        {failure}")
        self.finite.update(unknown)

    def entries(self, tag, fn, size, with_p=False):
        """The entries of ``fn``'s array at the point in row-major order:
        inlined from ``fn.nodes``, else unpacked from a call of ``fn`` on the
        numpy q (and p when ``with_p``)."""
        nodes = getattr(fn, "nodes", None)
        if nodes is not None:
            return self.inline(tag, nodes)
        self.namespace[f"_{tag}"] = fn
        names = [f"{tag}{i}" for i in range(size)]
        self.emit(f"{_tuple(names)} = _flat(_{tag}({self.arrays(with_p)}))")
        return names

    def value(self, tag, fn, with_p=False):
        """The float ``fn`` returns at the point, inlined or called."""
        if hasattr(fn, "nodes"):
            return self.inline(tag, fn.nodes)[0]
        self.namespace[f"_{tag}"] = fn
        self.emit(f"{tag} = float(_{tag}({self.arrays(with_p)}))")
        return tag

    def arrays(self, with_p):
        """q (and p) as numpy arrays, for a called ingredient; q is built once
        per function."""
        if not self.q_array:
            self.q_array = True
            self.emit(f"_q = _array({_tuple(self.qs)})")
        return f"_q, _array({_tuple(self.ps)})" if with_p else "_q"

    def inline(self, tag, nodes):
        """The atoms of the entries of ``nodes``, evaluated by the statements
        compile_node's function runs (expressions.guarded), each distinct
        entry once per point."""
        lines, atoms = ex.guarded(nodes, tag, lambda node: _lit(node.value), self.known)
        for line in lines:
            self.emit(line)
        self.finite.update(atoms)
        return atoms

    # -- the Hamiltonian -----------------------------------------------------

    def mass(self):
        """G(q) and its factors L D L^T, or None for unit masses. Sets
        ``self.pd`` to the source of the test that every pivot is positive;
        a failed pivot is nan, so nothing divides by zero."""
        fn = self.ham._mass_fn
        if fn is None:
            return None
        n = self.n
        flat = self.entries("G", fn, n * n)
        mass = [flat[i * n:(i + 1) * n] for i in range(n)]
        lower = [[None] * n for _ in range(n)]
        pivots, tests = [], []
        for j in range(n):
            # the lower triangle, as LAPACK's Cholesky reads it
            pivot = _sum([mass[j][j]] + [_neg(_mul(lower[j][m], lower[j][m], pivots[m]))
                                         for m in range(j)])
            if not _is_lit(pivot):
                pivot = self.fresh("d", pivot)
                self.emit(f"if not {pivot} > 0.0:")
                self.emit(f"    {pivot} = _nan")
                tests.append(f"{pivot} > 0.0")
            elif not float(pivot.strip("()")) > 0.0:
                pivot, tests = "_nan", ["False"] + tests
            pivots.append(pivot)
            for i in range(j + 1, n):
                top = _sum([mass[i][j]] + [_neg(_mul(lower[i][m], lower[j][m], pivots[m]))
                                           for m in range(j)])
                lower[i][j] = self.divide("l", self.assign("l", top), pivot)
        self.pd = " and ".join(tests) or "True"
        return mass, lower, pivots

    def solve_mass(self, factors, rhs):
        """G^{-1} rhs by forward substitution, the pivots and back substitution."""
        if factors is None:
            return list(rhs)
        _, lower, pivots = factors
        n = self.n
        y = []
        for i in range(n):
            y.append(self.assign("y", _sum(
                [rhs[i]] + [_neg(_mul(lower[i][m], y[m])) for m in range(i)])))
        y = [self.divide("z", y[i], pivots[i]) for i in range(n)]
        x = [None] * n
        for i in reversed(range(n)):
            x[i] = self.assign("x", _sum(
                [y[i]] + [_neg(_mul(lower[m][i], x[m])) for m in range(i + 1, n)]))
        return x

    def lu_fallback(self, factors, p, target=None):
        """With a broken-down factorisation, the LU velocity and its
        singular-matrix guard (bound to ``target``, or only checked)."""
        if factors is None or self.pd == "True":
            return
        call = f"_lu_velocity({_tuple(_tuple(row) for row in factors[0])}, {_tuple(p)})"
        self.emit(f"if not ({self.pd}):")
        self.emit(f"    {call}" if target is None else f"    {_tuple(target)} = {call}")

    def require_pd(self, factors):
        if factors is not None and self.pd != "True":
            self.emit(f"if not ({self.pd}):")
            self.emit("    raise _Domain('mass matrix is not positive definite')")

    def quadratic_gradient(self):
        """(H_q, H_p, factors of G, dG/dq) in BaseTerms.gradient's order: G
        and its solve for H_p, dV/dq, the positive-definiteness guard, dG/dq."""
        ham, n, p = self.ham, self.n, self.ps
        factors = self.mass()
        v = self.solve_mass(factors, p)
        self.lu_fallback(factors, p)
        fn = ham._potential_grad_fn
        potential = ["0.0"] * n if fn is None else self.entries("dV", fn, n)
        self.require_pd(factors)
        if factors is None:
            return potential, v, None, None
        flat = self.entries("dG", ham._mass_grad_fn, n ** 3)
        gradient = [[flat[(c * n + i) * n:(c * n + i + 1) * n] for i in range(n)]
                    for c in range(n)]
        # -0.5 v^T dG_c v, grouped as ((-0.5 v) @ dG_c) @ v
        half = [_mul("(-0.5)", a) for a in v]
        hq = []
        for c in range(n):
            row = [self.assign("u", _dot(half, [gradient[c][i][j] for i in range(n)]))
                   for j in range(n)]
            kinetic = self.assign("kin", _dot(row, v))
            hq.append(self.assign("hq", _sum([kinetic, potential[c]])))
        return hq, v, factors, gradient

    def gradient(self):
        """(H_q, H_p, factors of G, dG/dq)."""
        n = self.n
        if self.ham.is_quadratic:
            return self.quadratic_gradient()
        grad = self.entries("g", self.ham._general_grad_fn, 2 * n, with_p=True)
        return grad[:n], grad[n:], None, None

    # -- the two-form and the constraints ------------------------------------

    def two_form(self):
        """B(q) as an n x n grid of atoms, evaluating every entry
        TwoFormField.matrix evaluates."""
        n = self.n
        field = self.mag.b_field
        if field._constant is not None:
            flat = [_lit(value) for value in field._constant.ravel()]
        elif hasattr(field._upper_fn, "nodes"):
            flat = self.entries("B", field._upper_fn, n * n)
        else:
            # the called matrix is B itself, with its guard and lower triangle
            flat = self.entries("B", self.mag.b_matrix, n * n)
            return [flat[i * n:(i + 1) * n] for i in range(n)]
        # M = U - U^T from the strict upper triangle U
        return [[flat[i * n + j] if i < j else "0.0" if i == j else _neg(flat[j * n + i])
                 for j in range(n)] for i in range(n)]

    def rows(self):
        """A(q) as k rows of atoms, with the rank guard of
        ConstraintDistribution.matrix."""
        n, k = self.n, self.k
        flat = self.entries("A", self.dist._rows_fn, k * n)
        self.check_finite(flat, "constraint rows are non-finite")
        failure = ("raise _Constraint('constraint rows rank deficient at q=' + "
                   f"str(_array({_tuple(self.qs)})))")
        if k == 1:
            # linalg.rank_of's single-row rule, written inline: one row has
            # rank 0 exactly when every entry is 0
            if not any(_is_lit(a) and a != "0.0" for a in flat):
                test = " and ".join(f"{a} == 0.0" for a in flat if not _is_lit(a))
                self.emit(f"if {test or 'True'}:")
                self.emit(f"    {failure}")
        else:
            grid = _tuple(_tuple(flat[a * n:(a + 1) * n]) for a in range(k))
            self.emit(f"if _rank_of(_array({grid})) < {k}:")
            self.emit(f"    {failure}")
        return [flat[a * n:(a + 1) * n] for a in range(k)]

    def rows_jacobian(self, weighted, gradient, v):
        """The q block of Dc, shape (k, n), as SurfaceFrame.jacobian builds it:
        (dA/dq_c) G^{-1} p, minus (A G^{-1}) (dG/dq_c) G^{-1} p."""
        n, k = self.n, self.k
        flat = self.entries("dA", self.dist._rows_grad_fn, n * k * n)
        jac = [[self.assign("J", _dot(flat[(c * k + a) * n:(c * k + a + 1) * n], v))
                for c in range(n)] for a in range(k)]
        if gradient is not None:
            for c in range(n):
                moved = [self.assign("Gv", _dot(gradient[c][i], v)) for i in range(n)]
                for a in range(k):
                    jac[a][c] = self.assign("J", _sum(
                        [jac[a][c], _neg(self.assign("u", _dot(weighted[a], moved)))]))
        return jac

    def gram(self, weighted, rows):
        return [[self.assign("gram", _dot(weighted[a], rows[b])) for b in range(self.k)]
                for a in range(self.k)]

    def small_solve(self, gram, rhs, negate, error, name):
        """The k x k solve of np.linalg.solve, on -gram and -rhs when
        ``negate``: one division for k = 1, which is what LAPACK computes
        there and where the signs cancel exactly. A Gram matrix with an
        infinite entry raises before the solve, as the per-point functions
        test it, and a nan one goes on to give nan. For k = 1 one test,
        finite and nonzero, passes the division."""
        if self.k == 1:
            entry = gram[0][0]
            self.emit(f"if not {entry} * 0.0 == 0.0 != {entry}:")
            self.emit(f"    if {entry} == 0.0:")
            self.emit(f"        raise {error}({name + ' is singular'!r})")
            self.emit(f"    if {entry} == {entry}:")
            self.emit(f"        raise {error}({name + ' is non-finite'!r})")
            return [self.divide("lam", rhs[0], entry)]
        sign = _neg if negate else str
        names = [f"lam{a}" for a in range(self.k)]
        matrix = _tuple(_tuple(sign(a) for a in row) for row in gram)
        self.emit(f"{_tuple(names)} = _solve({matrix}, {_tuple(sign(a) for a in rhs)}, "
                  f"{error}, {name!r})")
        return names

    # -- the generated functions ---------------------------------------------

    def field(self):
        """Write X at the point (q, p) and return its 2n atoms."""
        n, ps = self.n, self.ps
        self.at(self.qs + ps)
        hq, hp, factors, gradient = self.gradient()
        self.check_finite(hq + hp, "Hamiltonian gradient is non-finite")
        b = self.two_form()
        push = [self.assign("push", _dot(b[i], hp)) for i in range(n)]
        dp = [self.assign("dp", _sum([_neg(hq[i]), push[i]])) for i in range(n)]
        if any(entry != "0.0" for row in b for entry in row):
            self.structure_guard(hq, hp, push, dp)
        if self.dist is not None:
            rows = self.rows()
            weighted = [self.solve_mass(factors, row) for row in rows]
            jac = self.rows_jacobian(weighted, gradient, hp)
            rate = [self.assign("jx", _sum([_dot(jac[a], hp), _dot(weighted[a], dp)]))
                    for a in range(self.k)]
            lam = self.small_solve(self.gram(weighted, rows), rate, True, "_Compat",
                                   "multiplier matrix")
            dp = [self.assign("dp", _sum(
                [dp[j]] + [_neg(_mul(rows[a][j], lam[a])) for a in range(self.k)]))
                for j in range(n)]
        return hp + dp

    def structure_guard(self, hq, hp, push, dp):
        """The structure equation Omega^T X = dH in components,
        (B X_q - X_p, X_q) = (H_q, H_p) with X_q = H_p exactly, checked by
        its residual only where a defect entry is nonzero or nan: with every
        entry +-0 the residual is 0, below the bound, which is at least
        SOLVER_TOL because dH is finite here."""
        defect = [self.assign("e", _sum([push[i], _neg(dp[i]), _neg(hq[i])]))
                  for i in range(self.n)]
        tests = [f"{e} != 0.0" for e in defect if e != "0.0"]
        if not tests:
            return
        self.emit(f"if {' or '.join(tests)}:")
        self.emit(f"    res = _sqrt({_dot(defect, defect)})")
        self.emit(f"    if not res <= {SOLVER_TOL!r} * (1.0 + _sqrt({_dot(hq + hp, hq + hp)})):")
        self.emit("        raise _structure_error(res)")

    def finish(self):
        """Write the end-of-step work on the state (q, p), which rebinds p
        by the projection, and return the atoms of the row."""
        qs, ps = self.qs, self.ps
        self.at([])
        self.check_finite(qs + ps, "state is non-finite")
        if not self.ham.is_quadratic:
            energy = self.value("H", self.ham._general_fn, with_p=True)
            return qs + ps + [energy, "0.0", "0.0"]
        drift = residual = "0.0"
        rows = self.rows() if self.dist is not None else None
        factors = self.mass()
        v = self.solve_mass(factors, ps)
        if factors is not None:
            # own names, rebound by the LU fallback and by the projection
            v = [self.fresh("v", a) for a in v]
        self.lu_fallback(factors, ps, target=v)
        if rows is not None:
            drift = residual = self.max_abs(rows, v, "drift")
            self.emit("if project:")
            outer = self.indent
            self.indent += "    "
            self.require_pd(factors)
            weighted = [self.solve_mass(factors, row) for row in rows]
            shift = self.small_solve(
                self.gram(weighted, rows), [self.assign("wp", _dot(w, ps)) for w in weighted],
                False, "_Constraint", "projection Gram matrix")
            for j, name in enumerate(ps):
                moved = _sum([name] + [_neg(_mul(rows[a][j], shift[a]))
                                       for a in range(self.k)])
                if moved != name:
                    self.emit(f"{name} = {moved}")
            self.finite.difference_update(ps)
            self.known = {source: atom for source, atom in self.known.items()
                          if not _READS_P.search(source)}
            self.check_finite(ps, "phase point has non-finite entries")
            for old, new in zip(v, self.solve_mass(factors, ps)):
                if old != new:
                    self.emit(f"{old} = {new}")
            self.max_abs(rows, v, "residual")
            self.indent = outer
            self.emit("else:")
            self.emit("    residual = drift")
            residual = "residual"
        fn = self.ham._potential_fn
        potential = "0.0" if fn is None else self.value("V", fn)
        self.emit(f"H = 0.5 * ({_dot(ps, v)}) + {potential}")
        self.check_finite(["H"], "Hamiltonian is non-finite at the point")
        return qs + ps + ["H", residual, drift]

    def max_abs(self, rows, v, name):
        values = [f"abs({_dot(row, v)})" for row in rows]
        self.emit(f"{name} = " + (values[0] if len(values) == 1 else
                                  f"max({', '.join(values)})"))
        return name

    def keep(self, stage, atoms):
        """The atoms of a stage's field as atoms that later stages cannot
        rebind: a name that is not unique (a q or p, a guarded entry, a
        called ingredient's entry) is copied to one that is."""
        kept = []
        for i, atom in enumerate(atoms):
            if atom not in self.unique and not _is_lit(atom):
                self.emit(f"k{stage}_{i} = {atom}")
                atom = f"k{stage}_{i}"
            kept.append(atom)
        return kept

    def run(self):
        """``run(row, dt, project, steps, extend)``: ``steps`` steps from
        ``row``, each the four stages and the end-of-step work, written
        inline. The stage points are bound to q and p, the names the
        inlined ingredients read, and the state to Q and P."""
        x = self.qs + self.ps
        start = [name.upper() for name in x]
        self.begin("run(row, dt, project, steps, extend)")
        self.emit(f"{', '.join(x)} = row[:{len(x)}]")
        self.emit("h = 0.5 * dt")
        self.emit("w = dt / 6.0")
        self.emit("for _ in range(steps):")
        self.indent = "        "
        for base, name in zip(start, x):
            self.emit(f"{base} = {name}")
        stages = []
        for s, scale in enumerate(("h", "h", "dt", None)):
            stages.append(self.keep(s, self.field()))
            if scale is None:
                break
            for i, name in enumerate(x):
                self.emit(f"{name} = {start[i]} + {scale} * {stages[s][i]}")
            self.at([])
            self.check_finite(x, "phase point has non-finite entries")
        for i, name in enumerate(x):
            k0, k1, k2, k3 = (stage[i] for stage in stages)
            self.emit(f"{name} = {start[i]} + w * ({k0} + 2.0 * {k1} + 2.0 * {k2} + {k3})")
        self.emit(f"extend({_tuple(self.finish())})")

    def compile(self):
        self.begin(f"_field({', '.join(self.qs + self.ps)})")
        self.emit(f"return {', '.join(self.field())}")
        self.run()
        source = "\n".join(self.lines) + "\n"
        exec(compile(source, "<magnomech-step>", "exec"), self.namespace)
        run = self.namespace["run"]
        run.field = self.namespace["_field"]
        return run
