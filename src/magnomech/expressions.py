"""Small arithmetic expression language for scenario files.

Grammar (EBNF):

    expr   = term { ("+" | "-") term }
    term   = unary { ("*" | "/") unary }
    unary  = "-" unary | power
    power  = atom [ "^" unary ]            (right associative)
    atom   = NUMBER | NAME | NAME "(" expr ")" | "(" expr ")"

Names are variables ``q1..qn`` / ``p1..pn`` or one of the functions
``sin``, ``cos``, ``exp``. Parsing produces a small AST that supports
evaluation, symbolic differentiation (enough for polynomial/trig closed
forms) and round-trippable printing.
"""

import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache

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


def evaluate(node, env):
    """Tree-walking evaluation against a name -> float mapping."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise ExpressionError(f"unknown identifier {node.name!r}") from None
    if isinstance(node, Neg):
        return -evaluate(node.arg, env)
    if isinstance(node, Call):
        return getattr(math, node.fn)(evaluate(node.arg, env))
    left = evaluate(node.left, env)
    right = evaluate(node.right, env)
    if node.op == "/" and right == 0:
        raise ExpressionError("division by zero at point")
    return _OPS[node.op](left, right)


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

def py_source(node):
    """Python source of an AST over the names q<i>, p<i> and SOURCE_NAMES."""
    if isinstance(node, Num):
        return repr(float(node.value))
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{py_source(node.arg)})"
    if isinstance(node, Call):
        return f"_m.{node.fn}({py_source(node.arg)})"
    left, right = py_source(node.left), py_source(node.right)
    if node.op != "^":
        return f"({left} {node.op} {right})"
    exponent = _num_of(node.right)
    if exponent is not None and float(exponent).is_integer():
        return f"({left} ** {right})"
    return f"_real_pow({left}, {right})"


def _real_pow(base, exponent):
    """base ** exponent for a fractional or variable exponent, kept real."""
    if base < 0 and exponent % 1 != 0:
        raise ValueError("negative base raised to a fractional power")
    return base ** exponent


# the names py_source's output reads besides the variables
SOURCE_NAMES = {"_m": math, "_real_pow": _real_pow}


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
    """One-shot parse and evaluate; the public scenario-facing helper."""
    node = parse(text)
    env = {}
    for i, value in enumerate(q):
        env[f"q{i + 1}"] = float(value)
    for i, value in enumerate(p if p is not None else ()):
        env[f"p{i + 1}"] = float(value)
    check_variables(node, env.keys())
    return evaluate(node, env)
