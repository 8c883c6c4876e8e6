"""Small arithmetic expression language for scenario files.

Grammar (EBNF):

    expr   = term { ("+" | "-") term }
    term   = unary { ("*" | "/") unary }
    unary  = "-" unary | power
    power  = atom [ "^" unary ]            (right associative)
    atom   = NUMBER | NAME | NAME "(" expr ")" | "(" expr ")"

Names are variables ``q1..qn`` / ``p1..pn`` or one of the functions
``sin``, ``cos``, ``exp``, ``log``. Parsing produces a small AST that
supports compilation of an AST or an array of them to a Python function of
one point (compile_node, the evaluator and the reference), whose guarded
statements (guarded) the integrator's generated step writes too, and to a
column function that evaluates an array of ASTs at a whole stack of
points with the same bits per point (compile_columns), exact symbolic
differentiation of every expression (derivative) and round-trippable
printing.
"""

import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np

from .errors import ExpressionError, NumericalDomainError

FUNCTIONS = ("sin", "cos", "exp", "log")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


def tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ExpressionError(f"unexpected character {stripped[0]!r}", bad_at)
        if match.group("num") is not None:
            tokens.append(("num", match.group("num"), match.start("num")))
        elif match.group("name") is not None:
            tokens.append(("name", match.group("name"), match.start("name")))
        else:
            tokens.append(("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, symbol):
        kind, value, pos = self.peek()
        if kind != "op" or value != symbol:
            raise ExpressionError(f"expected {symbol!r}", pos)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected token {value!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = _bin(value, node, self.term(), pos)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = _bin(value, node, self.unary(), pos)
            else:
                return node

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return _neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            node = _bin("^", node, self.unary(), pos)
        return node

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "num":
            number = float(value)
            if not math.isfinite(number):
                raise ExpressionError(f"number {value} is not finite", pos)
            return Num(number)
        if kind == "name":
            next_kind, next_value, _ = self.peek()
            if next_kind == "op" and next_value == "(":
                if value not in FUNCTIONS:
                    raise ExpressionError(f"unknown function {value!r}", pos)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            return Var(value)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        shown = value if value else "end of input"
        raise ExpressionError(f"unexpected token {shown!r}", pos)


def parse(text):
    """Parse ``text`` into an AST, raising ExpressionError with a position."""
    return _Parser(text).parse()


# -- smart constructors with light constant folding --------------------------

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv, "^": operator.pow}


def _num_of(node):
    return node.value if isinstance(node, Num) else None


def _fold(op, lv, rv, position):
    """The constant lv op rv. In the parser (``position`` given) it must be
    a finite real number. A node built by derivative or the builders below
    keeps a constant without one as the node lv op rv, so building never
    fails and evaluating the node raises NumericalDomainError."""
    try:
        value = _OPS[op](lv, rv)
    except ArithmeticError:  # division by zero, overflow
        value = None
    if isinstance(value, float) and math.isfinite(value):
        return Num(value)
    if position is None:
        return Bin(op, Num(lv), Num(rv))
    raise ExpressionError(
        f"constant {lv!r} {op} {rv!r} has no finite real value", position)


def _bin(op, left, right, position=None):
    lv, rv = _num_of(left), _num_of(right)
    if lv is not None and rv is not None:
        return _fold(op, lv, rv, position)
    if op == "+":
        if lv == 0:
            return right
        if rv == 0:
            return left
    if op == "-" and rv == 0:
        return left
    if op == "*":
        if lv == 0 or rv == 0:
            return Num(0.0)
        if lv == 1:
            return right
        if rv == 1:
            return left
    if op == "/" and rv == 1:
        return left
    if op == "^":
        if rv == 1:
            return left
        if rv == 0:
            return Num(1.0)
    return Bin(op, left, right)


def _neg(node):
    value = _num_of(node)
    if value is not None:
        return Num(-value)
    if isinstance(node, Neg):
        return node.arg
    return Neg(node)


# -- analysis -----------------------------------------------------------------

def variables(node):
    """Set of variable names appearing in the AST."""
    if isinstance(node, Num):
        return set()
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        return variables(node.arg)
    if isinstance(node, Call):
        return variables(node.arg)
    return variables(node.left) | variables(node.right)


def check_variables(node, allowed):
    """Raise ExpressionError if the AST references names outside ``allowed``."""
    unknown = sorted(variables(node) - set(allowed))
    if unknown:
        raise ExpressionError(f"unknown identifier {unknown[0]!r}")


def derivative(node, var):
    """Exact symbolic partial derivative with respect to variable name ``var``.

    Every expression of the language has one, and building it never fails.
    A power a^b whose exponent does not depend on ``var`` takes the power
    rule b a^(b-1) a'; one whose exponent does takes
    a^b (b' log(a) + b a'/a), without the last term when a' is zero, so its
    value needs a > 0, and 0^b takes 0. Where a partial has no finite value
    its evaluation raises NumericalDomainError, as any expression's does.
    """
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0) if node.name == var else Num(0.0)
    if isinstance(node, Neg):
        return _neg(derivative(node.arg, var))
    if isinstance(node, Call):
        inner = derivative(node.arg, var)
        if node.fn == "log":
            return Num(0.0) if _num_of(inner) == 0 else _bin("/", inner, node.arg)
        if node.fn == "sin":
            outer = Call("cos", node.arg)
        elif node.fn == "cos":
            outer = _neg(Call("sin", node.arg))
        else:
            outer = Call("exp", node.arg)
        return _bin("*", outer, inner)
    dl = derivative(node.left, var)
    dr = derivative(node.right, var)
    if node.op == "+":
        return _bin("+", dl, dr)
    if node.op == "-":
        return _bin("-", dl, dr)
    if node.op == "*":
        return _bin("+", _bin("*", dl, node.right), _bin("*", node.left, dr))
    if node.op == "/":
        top = _bin("-", _bin("*", dl, node.right), _bin("*", node.left, dr))
        if _num_of(top) == 0:
            # an identically zero partial, not 0 / right^2 with its poles
            return Num(0.0)
        return _bin("/", top, _bin("^", node.right, Num(2.0)))
    base, exponent = node.left, node.right
    if _num_of(dr) == 0:
        lowered = _bin("^", base, _bin("-", exponent, Num(1.0)))
        return _bin("*", _bin("*", exponent, lowered), dl)
    if _num_of(base) == 0:
        return Num(0.0)  # 0^b is 0 wherever b > 0, and log(0) has no value
    rate = _bin("*", dr, Call("log", base))
    if _num_of(dl) != 0:
        rate = _bin("+", rate, _bin("*", exponent, _bin("/", dl, base)))
    return _bin("*", node, rate)


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def to_text(node, parent_level=0):
    """Render an AST back to language syntax; reparsing gives the same tree."""
    if isinstance(node, Num):
        value = float(node.value)
        if value < 0:
            text = repr(value)
            return f"({text})" if parent_level > 0 else text
        if value == int(value) and abs(value) < 1e16:
            return str(int(value))
        return repr(value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = to_text(node.arg, 4)
        text = f"-{inner}"
        return f"({text})" if parent_level > 1 else text
    if isinstance(node, Call):
        return f"{node.fn}({to_text(node.arg)})"
    level = _PRECEDENCE[node.op]
    left = to_text(node.left, level)
    # bump the right side so chains of -, / and ^ re-associate identically
    right = to_text(node.right, level + 1)
    text = f"{left} {node.op} {right}"
    return f"({text})" if parent_level >= level else text


# -- compilation ---------------------------------------------------------------

def py_source(node, columns=False):
    """Python source of an AST over the names q<i>, p<i> and SOURCE_NAMES.

    With ``columns`` the source evaluates the AST at every point of stacks
    ``q`` and ``p`` of shape (N, n) and gives an (N,) array, and it differs
    in three places: q<i> reads the column ``q[:, i - 1]``, and ``^`` and
    the functions apply the point source's own scalar call to each element
    (``_each``). Negation and + - * / are numpy operations, which round as
    the float ones do. A subtree without variables keeps the point source
    and gives one float.
    """
    if columns and not variables(node):
        columns = False
    if isinstance(node, Num):
        return repr(float(node.value))
    if isinstance(node, Var):
        if columns:
            return f"{node.name[0]}[:, {int(node.name[1:]) - 1}]"
        return node.name
    if isinstance(node, Neg):
        return f"(-{py_source(node.arg, columns)})"
    if isinstance(node, Call):
        arg = py_source(node.arg, columns)
        return f"_each(_m.{node.fn}, {arg})" if columns else f"_m.{node.fn}({arg})"
    left, right = py_source(node.left, columns), py_source(node.right, columns)
    if node.op != "^":
        return f"({left} {node.op} {right})"
    exponent = _num_of(node.right)
    whole = exponent is not None and float(exponent).is_integer()
    if columns:
        return f"_each({'_pow' if whole else '_real_pow'}, {left}, {right})"
    return f"({left} ** {right})" if whole else f"_real_pow({left}, {right})"


def _real_pow(base, exponent):
    """base ** exponent for a fractional or variable exponent, kept real."""
    if base < 0 and exponent % 1 != 0:
        raise ValueError("negative base raised to a fractional power")
    return base ** exponent


def _each(fn, *args):
    """fn on each element of the column arguments, as an array; a float
    argument stands for every element, and at least one is a column."""
    return np.array(list(map(fn, *(arg.tolist() if isinstance(arg, np.ndarray)
                                   else repeat(arg) for arg in args))))


# the names besides the variables that py_source and guarded's statements read
SOURCE_NAMES = {"_m": math, "_real_pow": _real_pow, "_Domain": NumericalDomainError}
# and the further names of the column source
COLUMN_NAMES = dict(SOURCE_NAMES, _each=_each, _pow=operator.pow,
                    _raise=np.errstate(over="raise", divide="raise", invalid="raise"))


def leaves(nodes):
    """The ASTs of a bare AST or of nested lists of them in row-major
    order, and the nesting's shape (() for a bare AST)."""
    array = np.asarray(nodes, dtype=object)
    return list(array.flat), array.shape


def guarded(nodes, tag, literal, known=None):
    """(lines, atoms): the statements that evaluate the entries of ``nodes``
    (see leaves) in row-major order, and the atom of each entry. A number's
    atom is ``literal(node)``. Any other entry is bound to a local, ``tag``
    for a bare AST and ``tag<k>`` for the k-th entry, and an arithmetic
    fault while evaluating it (overflow, division by zero, a math domain
    error or a negative base to a fractional power) and a non-finite value
    raise NumericalDomainError naming the expression. compile_node and the
    integrator's generated step (kernel.py) both run these statements.

    ``known``, a dict from an entry's py_source to its atom at one point,
    is read and extended. An entry found there takes that atom, and the
    negation of an entry bound to a name there takes the name negated;
    neither writes a statement, since the first evaluation ran the guards
    and a finite value negates exactly.
    """
    entries, shape = leaves(nodes)
    lines, atoms = [], []
    for k, node in enumerate(entries):
        if isinstance(node, Num):
            atoms.append(literal(node))
            continue
        source = py_source(node)
        name = f"{tag}{k}" if shape else tag
        if known is not None:
            if source not in known and isinstance(node, Neg):
                inner = known.get(py_source(node.arg), "")
                if inner.isidentifier():
                    known[source] = f"-{inner}"
            if source in known:
                atoms.append(known[source])
                continue
            known[source] = name
        head = f"evaluating {to_text(node)!r}: "
        lines += ["try:",
                  f"    {name} = {source}",
                  "except (ArithmeticError, ValueError) as err:",
                  f"    raise _Domain({head!r} + str(err)) from None",
                  f"if not {name} * 0.0 == 0.0:",
                  f"    raise _Domain({head!r} + 'non-finite value ' + str({name}))"]
        atoms.append(name)
    return lines, atoms


def compile_node(nodes):
    """``f(q, p=None)`` evaluating a bare AST to a float, or nested lists of
    them to a C-contiguous array of their shape, by guarded's statements:
    entry by entry in row-major order, so the first faulting one is reported.
    An array of numbers is built once and returned read-only on every call.
    The variables (already validated) are read from q and p as Python
    floats, so numpy arrays and lists evaluate alike.
    """
    entries, shape = leaves(nodes)
    if shape and all(isinstance(node, Num) for node in entries):
        constant = np.array([node.value for node in entries], dtype=float).reshape(shape)
        constant.setflags(write=False)
        return lambda q, p=None: constant
    lines, atoms = guarded(nodes, "e", py_source)
    reads = "".join(f"    {name} = float({name[0]}[{int(name[1:]) - 1}])\n"
                    for name in sorted(set().union(*map(variables, entries))))
    body = "".join(f"    {line}\n" for line in lines)
    value = f"_array([{', '.join(atoms)}]).reshape({shape!r})" if shape else atoms[0]
    namespace = dict(SOURCE_NAMES, _array=np.array)
    exec(_code(f"def _expr(q, p=None):\n{reads}{body}    return {value}\n"), namespace)
    return namespace["_expr"]


@lru_cache(maxsize=1024)
def _code(source):
    """The compiled ``_expr`` definition of one source, kept for rebuilds."""
    return compile(source, "<magnomech-expr>", "exec")


def compile_columns(leaves, shape=()):
    """``f(q, p=None)`` evaluating the ASTs ``leaves``, the row-major entries
    of an array of ``shape``, at every point of stacks q and p of shape
    (N, n), as an (N, *shape) float array.

    Each point's values have the bits that compile_node's function gives at
    that point alone (see py_source). When an entry faults or is non-finite
    at any point the result is None, and the caller evaluates point by
    point, which raises the first faulting point's NumericalDomainError.
    Nothing is compiled until the first call, so building a system costs
    what it did.
    """
    leaves = tuple(leaves)
    compiled = None

    def columns(q, p=None):
        nonlocal compiled
        if compiled is None:
            compiled = _columns(leaves, shape)
        return compiled(q, p)

    return columns


def _columns(leaves, shape):
    """compile_columns' function, built on its first call. Constant entries
    are filled from a template, so only the others are computed, and an
    array of constants is one read-only broadcast."""
    constant = [isinstance(node, Num) for node in leaves]
    template = np.array([node.value if known else 0.0
                         for node, known in zip(leaves, constant)])
    if all(constant):
        template = template.reshape(shape)
        template.setflags(write=False)
        return lambda q, p=None: np.broadcast_to(template, (len(q),) + shape)
    namespace = dict(COLUMN_NAMES)
    exec(_column_code("".join(f"    out[:, {k}] = {py_source(node, columns=True)}\n"
                              for k, node in enumerate(leaves)
                              if not isinstance(node, Num))), namespace)
    fill = namespace["_fill"]
    filled = any(constant)

    def columns(q, p=None):
        out = np.empty((len(q), len(leaves)))
        if filled:
            out[:] = template
        try:
            fill(q, p, out)
        except (ArithmeticError, ValueError):
            return None
        if np.isfinite(out).all():
            return out.reshape((len(q),) + shape)
        return None

    return columns


@lru_cache(maxsize=1024)
def _column_code(body):
    """The compiled ``_fill`` definition for one body, which writes the
    columns of ``out`` under raising numpy error states."""
    return compile(f"@_raise\ndef _fill(q, p, out):\n{body}", "<magnomech-columns>",
                   "exec")


# public AST builders (constant folding included) for emitted scenarios
def add(left, right):
    return _bin("+", left, right)


def subtract(left, right):
    return _bin("-", left, right)


def multiply(left, right):
    return _bin("*", left, right)


def config_names(n):
    return [f"q{i + 1}" for i in range(n)]


def phase_names(n):
    return config_names(n) + [f"p{i + 1}" for i in range(n)]
