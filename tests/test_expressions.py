import json
import math
import operator
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from magnomech import ScenarioError, parse_scenario
from magnomech import expressions as ex
from magnomech.errors import ExpressionError, NumericalDomainError
from magnomech.sampling import sobol_points
from reference import evaluate_text, fd_gradient
from test_contract import expressions as expression_texts

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def test_phase_expression_value():
    value = evaluate_text("q1*p2 + sin(q2)", [0.0, 1.5707963], [0.0, 3.0])
    assert value == pytest.approx(1.0, abs=1e-9)


def test_fd_gradient_by_repeated_calls():
    # the file-format contract: differentiation is possible by re-evaluating
    h = 1e-6
    q = [1.0, 2.0, 3.0]
    grad = []
    for i in range(3):
        up = list(q)
        down = list(q)
        up[i] += h
        down[i] -= h
        grad.append((evaluate_text("q3 - q1*q2", up)
                     - evaluate_text("q3 - q1*q2", down)) / (2 * h))
    assert grad == pytest.approx([-2.0, -1.0, 1.0], abs=1e-6)


def test_parse_error_carries_position():
    with pytest.raises(ExpressionError) as err:
        ex.parse("q1 +")
    assert err.value.position == 4


def test_unknown_identifier_rejected():
    with pytest.raises(ExpressionError, match="unknown identifier"):
        evaluate_text("q1 + bogus", [1.0])


def test_unknown_function_rejected():
    with pytest.raises(ExpressionError, match="unknown function"):
        ex.parse("tan(q1)")


def test_division_by_zero_reported():
    with pytest.raises(ExpressionError, match="division by zero"):
        evaluate_text("1/q1", [0.0])


@pytest.mark.parametrize("text", [
    "q1^0.5",          # a negative base to a fractional power, not complex
    "exp(1000)*q1",    # OverflowError from math.exp
    "1e308*q1*10",     # overflow to inf in a product
])
def test_expression_eval_faults_as_the_compiled_expressions_do(text):
    """The public helper evaluates as every scenario expression does: a
    fault names the expression, and no complex or infinite value escapes."""
    q = [-1.0] if text == "q1^0.5" else [1.0]
    with pytest.raises(ExpressionError, match="evaluating"):
        evaluate_text(text, q)


@pytest.mark.parametrize("text,expected", [
    ("2^3^2", 512.0),          # right associative power
    ("2*3 + 4", 10.0),
    ("-2^2", -4.0),            # unary minus binds below the power
    ("2^-2", 0.25),
    ("6/3/2", 1.0),            # left associative division
    ("1 - 2 - 3", -4.0),
    ("cos(0) + exp(0)", 2.0),
])
def test_precedence_and_associativity(text, expected):
    assert evaluate_text(text, [0.0]) == pytest.approx(expected)


def _scale(node, q):
    """The largest size of a subexpression of ``node`` at q, or None where
    one faults or, unless it is 0, lies outside 1e-150..1e150: there some
    operation may overflow or underflow, and two exact formulas of one
    derivative can then round to different numbers."""
    largest, pending = 0.0, [node]
    while pending:
        sub = pending.pop()
        try:
            size = abs(float(ex.compile_node(sub)(q)))
        except NumericalDomainError:
            return None
        if size and not 1e-150 < size < 1e150:
            return None
        largest = max(largest, size)
        pending += [getattr(sub, part) for part in ("arg", "left", "right")
                    if hasattr(sub, part)]
    return largest


def _agrees_with_differences(text):
    """Each partial of ``text`` by q1 and q2 is built without raising. At
    each point where it and the function are well scaled (_scale), and the
    central differences of tests/reference.py are finite and have
    converged (steps 1e-4 and 1e-5 agree), it agrees with them to their
    truncation and rounding error."""
    node = ex.parse(text)
    fn = ex.compile_node(node)
    partials = [ex.derivative(node, name) for name in ("q1", "q2")]
    for q in ([0.3, -0.8], [1.1, 0.4], [0.7, 1.3]):
        scale = _scale(node, q)
        if scale is None:
            continue
        try:
            coarse, fine = (fd_gradient(fn, q, h) for h in (1e-4, 1e-5))
        except NumericalDomainError:
            continue
        for j, partial in enumerate(partials):
            partial_scale = _scale(partial, q)
            if partial_scale is None or not np.isfinite([coarse[j], fine[j]]).all():
                continue
            if abs(coarse[j] - fine[j]) > 1e-3 * (1.0 + abs(fine[j])):
                continue  # the differences have not converged
            exact = ex.compile_node(partial)(q)
            tol = (2.0 * abs(coarse[j] - fine[j]) + 1e-7 * (1.0 + abs(exact))
                   + 1e-10 * (scale / 1e-5 + partial_scale))
            assert abs(exact - fine[j]) <= tol, (text, q, j, exact, fine[j])


@settings(max_examples=40, deadline=None)
@given(drawn=expression_texts(["q1", "q2"]))
@pytest.mark.parametrize("text", [
    "q1^3 - 2*q2*q1 + sin(q1*q2)",
    "exp(-(q1^2)) * cos(q2)",
    "(q1 + q2)^4 / (1 + q1^2)",
])
def test_symbolic_derivative_matches_finite_differences(text, drawn):
    """The fixed text, and an expression drawn from test_contract's grammar
    (variable exponents and log included), with a power to a variable
    exponent and a log of it."""
    _agrees_with_differences(text)
    try:
        ex.parse(drawn)
    except ExpressionError:
        return
    for variant in (drawn, f"({drawn}) ^ (q2)", f"log({drawn})"):
        _agrees_with_differences(variant)


def test_identically_zero_quotient_partial_folds_to_zero():
    # d(1/q2)/dq1 vanishes wherever 1/q2 is defined: it is the number 0, not
    # 0 / (q2 ^ 2), which would divide by zero at q2 = 0
    partial = ex.derivative(ex.parse("1/q2"), "q1")
    assert partial == ex.Num(0.0)
    assert ex.compile_node(partial)([0.5, 0.0]) == 0.0
    assert ex.to_text(ex.derivative(ex.parse("1/q2"), "q2")) == "(-1.0) / (q2 ^ 2)"
    # only the derivative folds: a written 0/q1 still faults at q1 = 0
    with pytest.raises(NumericalDomainError, match="evaluating"):
        ex.compile_node(ex.parse("0/q1"))([0.0])


def test_variable_exponent_and_log_have_exact_derivatives():
    # d(a^b) = a^b (b' log(a) + b a'/a), without a'/a where a' is 0, the
    # power rule where b' is 0, and 0 for the base 0; d log(u) = u'/u
    cases = {("q1^q1", "q1"): "q1 ^ q1 * (log(q1) + (q1 * (1 / q1)))",
             ("(q1*q2)^q2", "q2"):
                 "(q1 * q2) ^ q2 * (log(q1 * q2) + (q2 * (q1 / (q1 * q2))))",
             ("q1^q2", "q2"): "q1 ^ q2 * log(q1)",
             ("2^q1", "q1"): "2 ^ q1 * log(2)",
             ("q1^q2", "q1"): "q2 * (q1 ^ (q2 - 1))",
             ("q1^3", "q1"): "3 * (q1 ^ 2)",
             ("2^q1", "q2"): "0",
             ("0^q1", "q1"): "0",
             ("log(q1*q2)", "q1"): "q2 / (q1 * q2)",
             ("log(q2)", "q1"): "0"}
    for (text, name), expected in cases.items():
        partial = ex.derivative(ex.parse(text), name)
        assert ex.to_text(partial) == expected
        assert ex.parse(ex.to_text(partial)) == partial
    # the partials of log and of a variable exponent fault where the base is
    # not positive, as log itself does
    for text, q in (("log(q1)", [0.0]), ("q2^q1", [0.5, 0.0]), ("q1^q1", [-0.5])):
        with pytest.raises(NumericalDomainError, match="evaluating"):
            ex.compile_node(ex.derivative(ex.parse(text), "q1"))(q)


@pytest.mark.parametrize("text", [
    "q1*p2 + sin(q2)",
    "-(q1 - q2)^3 / 2 + exp(q1/4)",
    "1.5e-3 * q1 - 0.25",
    "2^3^2 - q1*(q2 - 3)",
    "q1 ",                 # trailing whitespace
])
def test_printer_round_trips(text):
    node = ex.parse(text)
    assert ex.parse(ex.to_text(node)) == node


def test_evaluation_is_deterministic():
    args = ("q1^2 - sin(q2)*exp(q1)", [0.37, -1.22])
    assert evaluate_text(*args) == evaluate_text(*args)


def _corpus_nodes():
    """(n, node) for every expression of the shipped scenarios and every
    symbolic first derivative of it that exists."""
    out = []
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        raw = json.loads(path.read_text())
        texts = []

        def walk(value):
            if isinstance(value, str) and value != "identity":
                texts.append(value)
            elif isinstance(value, list):
                for item in value:
                    walk(item)

        for key in ("mass_matrix", "potential", "b_field", "constraints",
                    "gamma", "epsilon", "general_h"):
            walk(raw.get(key))
        for text in texts:
            node = ex.parse(text)
            out.append((raw["n"], node))
            for name in ex.phase_names(raw["n"]):
                try:
                    out.append((raw["n"], ex.derivative(node, name)))
                except ExpressionError:
                    pass
    return out


def _walk(node, env):
    """A tree-walking evaluation of an AST: the oracle of compile_node."""
    if isinstance(node, ex.Num):
        return node.value
    if isinstance(node, ex.Var):
        return env[node.name]
    if isinstance(node, ex.Neg):
        return -_walk(node.arg, env)
    if isinstance(node, ex.Call):
        return getattr(math, node.fn)(_walk(node.arg, env))
    left, right = _walk(node.left, env), _walk(node.right, env)
    return {"+": operator.add, "-": operator.sub, "*": operator.mul,
            "/": operator.truediv, "^": operator.pow}[node.op](left, right)


def test_compiled_matches_tree_walker():
    node = ex.parse("q1^3 - 2*p1*q2 + cos(q1)")
    fn = ex.compile_node(node)
    env = {"q1": 0.7, "q2": -0.3, "p1": 1.2}
    assert fn([0.7, -0.3], [1.2]) == pytest.approx(_walk(node, env))
    # every corpus expression and derivative, bit for bit, at Sobol points
    # taken as the checks take them (numpy arrays)
    nodes = _corpus_nodes()
    assert len(nodes) > 100
    points = sobol_points(np.array([[-2.0, 2.0]] * 6), 32)
    for n, node in nodes:
        fn = ex.compile_node(node)
        for point in points:
            q, p = point[:n], point[n:2 * n]
            env = {name: float(v) for name, v in
                   zip(ex.phase_names(n), np.concatenate([q, p]))}
            assert fn(q, p) == _walk(node, env), ex.to_text(node)


def test_constant_folding_keeps_value():
    node = ex.parse("0*q1 + 1*(q2 - 0) + 2*3")
    assert ex.compile_node(node)([9.0, 4.0]) == pytest.approx(10.0)


@pytest.mark.parametrize("text,position", [
    ("(-8)^(1/3)", 4),      # complex value
    ("10^400", 2),          # overflow
    ("0^-1", 1),            # zero to a negative power
    ("q1 + 1/0", 6),        # division by zero
    ("2*1e400", 2),         # literal overflows to infinity
])
def test_constant_without_finite_value_is_positioned_error(text, position):
    with pytest.raises(ExpressionError) as err:
        ex.parse(text)
    assert err.value.position == position


def test_constant_rule_becomes_scenario_expression_error():
    doc = {"name": "tiny", "n": 1, "potential": "(-8)^(1/3)"}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.code == "expression"
    assert err.value.field == "potential"


@pytest.mark.parametrize("text,q", [
    ("exp(1000)*q1", 1.0),      # OverflowError from math.exp
    ("1/sin(q1)", 0.0),         # ZeroDivisionError on a float
    ("sin(q1)^0.5", -1.0),      # negative base, fractional power
    ("q1^0.5", -1.0),
    ("exp(q1)^400", 3.0),       # OverflowError from a float power
    ("1/q1", 0.0),              # inf with a numpy warning on an array entry
    ("q1^800", 3.0),
    ("exp(400)*exp(400)*q1", 1.0),  # float overflow in * gives inf
    ("1/(q1-q1)", 0.5),
])
def test_compiled_evaluation_faults_are_domain_errors(text, q):
    fn = ex.compile_node(ex.parse(text))
    for args in (np.array([q]), [q]):  # the rule holds for any argument type
        with pytest.raises(NumericalDomainError, match="evaluating"):
            fn(args)


def test_fractional_powers_of_nonnegative_bases_still_evaluate():
    fn = ex.compile_node(ex.parse("q1^0.5 + q1^q1"))
    assert fn(np.array([4.0])) == 2.0 + 256.0
    assert ex.compile_node(ex.parse("q1^q2"))(np.array([-2.0, 3.0])) == -8.0
