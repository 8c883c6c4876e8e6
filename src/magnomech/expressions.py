"""Small arithmetic expression language for scenario files.

Grammar (EBNF):

    expr   = term { ("+" | "-") term }
    term   = unary { ("*" | "/") unary }
    unary  = "-" unary | power
    power  = atom [ "^" unary ]            (right associative)
    atom   = NUMBER | NAME | NAME "(" expr ")" | "(" expr ")"

Names are variables ``q1..qn`` / ``p1..pn`` or one of the functions
``sin``, ``cos``, ``exp``. Parsing produces a small AST that supports
compilation to a Python function of one point (compile_node, the
evaluator and the reference) and to a column function that evaluates an
array of ASTs at a whole stack of points with the same bits per point
(compile_columns), symbolic differentiation (enough for polynomial/trig
closed forms) and round-trippable printing.
"""

import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np

from .errors import ExpressionError, NumericalDomainError

FUNCTIONS = ("sin", "cos", "exp")

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
    """The constant lv op rv, which must be a finite real number."""
    try:
        value = _OPS[op](lv, rv)
    except ArithmeticError:  # division by zero, overflow
        value = None
    if not (isinstance(value, float) and math.isfinite(value)):
        raise ExpressionError(
            f"constant {lv!r} {op} {rv!r} has no finite real value", position)
    return Num(value)


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
    """Symbolic partial derivative with respect to variable name ``var``.

    Exponents must be constants; that covers the polynomial/trig closed
    forms scenarios use. Everything else falls back to finite differences
    at a higher level.
    """
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0) if node.name == var else Num(0.0)
    if isinstance(node, Neg):
        return _neg(derivative(node.arg, var))
    if isinstance(node, Call):
        inner = derivative(node.arg, var)
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
    exponent = _num_of(node.right)
    if exponent is None:
        raise ExpressionError("cannot differentiate a non-constant exponent")
    scaled = _bin("*", Num(exponent), _bin("^", node.left, Num(exponent - 1.0)))
    return _bin("*", scaled, dl)


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


# the names py_source's output reads besides the variables
SOURCE_NAMES = {"_m": math, "_real_pow": _real_pow}
# and the further names of its column source
COLUMN_NAMES = dict(SOURCE_NAMES, _each=_each, _pow=operator.pow,
                    _raise=np.errstate(over="raise", divide="raise", invalid="raise"))


def compile_node(node):
    """Compile an AST to a fast ``f(q, p=None) -> float`` callable.

    Variable names must already be validated (q<i>/p<i> only). The generated
    source reads each variable it uses from the argument sequences as a
    Python float, so numpy arrays and lists evaluate alike. An arithmetic
    fault while evaluating (overflow, division by zero, a math domain error
    or a negative base to a fractional power) and a non-finite result both
    raise NumericalDomainError naming the expression.
    """
    namespace = dict(SOURCE_NAMES, _fault=lambda why: NumericalDomainError(
        f"evaluating {to_text(node)!r}: {why}"))
    reads = "".join(f"        {name} = float({name[0]}[{int(name[1:]) - 1}])\n"
                    for name in sorted(variables(node)))
    exec(_code(reads, py_source(node)), namespace)
    return namespace["_expr"]


@lru_cache(maxsize=1024)
def _code(reads, body):
    """The compiled ``_expr`` definition for one body and its reads. Most
    entries and derivatives of a scenario share a few bodies (0, 1), so
    caching keeps the set-up cost of the try block down."""
    source = (f"def _expr(q, p=None):\n"
              f"    try:\n{reads}"
              f"        value = {body}\n"
              f"    except (ArithmeticError, ValueError) as err:\n"
              f"        raise _fault(err) from None\n"
              f"    if _m.isfinite(value):\n"
              f"        return value\n"
              f"    raise _fault(f'non-finite value {{value}}')\n")
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


def evaluate_text(text, q, p=None):
    """One-shot parse and evaluate; the public scenario-facing helper.

    Evaluates through compile_node, as every scenario expression is
    evaluated. A fault while evaluating raises ExpressionError with
    compile_node's message, which names the expression.
    """
    node = parse(text)
    q = [float(value) for value in q]
    p = [float(value) for value in p or ()]
    check_variables(node, config_names(len(q)) + [f"p{i + 1}" for i in range(len(p))])
    try:
        return compile_node(node)(q, p)
    except NumericalDomainError as err:
        raise ExpressionError(str(err)) from None
