"""The statements map (docs/statements.md) and the package surface it bounds.

Each row of the map names a statement of the paper, its check, the
functions that compute it, the tolerances it reads, its acceptance
criterion and its tier-1 tests; the first test resolves every one of them,
so the map cannot name what no longer exists. The second keeps the
package to what runs: every public function or method of src/magnomech
has a caller in the package, in bench/ or in the map.
"""

import ast
import importlib
import json
import re
from functools import cache
from pathlib import Path

from magnomech.tolerances import DEFAULTS

ROOT = Path(__file__).resolve().parents[1]
MAP = ROOT / "docs" / "statements.md"
PACKAGE = ROOT / "src" / "magnomech"
BENCH = ROOT / "bench"
TESTS = ROOT / "tests"
GOLDEN = TESTS / "data" / "golden" / "check_all.json"
COMMANDS = {"simulate", "construct-b"}
TICKED = re.compile(r"`([^`]+)`")


def _rows():
    """{statement: {column: cell}} of the map's table."""
    lines = [line for line in MAP.read_text().splitlines() if line.startswith("|")]
    header = [cell.strip() for cell in lines[0].strip("|").split("|")]
    rows = {}
    for line in lines[2:]:
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        assert len(cells) == len(header), line
        rows[cells[0]] = dict(zip(header, cells))
    return rows


ROWS = _rows()
REPORTS = json.loads(GOLDEN.read_text())["reports"]


def _function(dotted):
    """The package object that ``module.name`` or ``module.Class.method``
    names."""
    module, *path = dotted.split(".")
    target = importlib.import_module(f"magnomech.{module}")
    for name in path:
        target = vars(target)[name] if isinstance(target, type) else getattr(target, name)
    return target


@cache
def _test_names(path):
    tree = ast.parse(path.read_text())
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def _resolve(row):
    """Each function is a callable of the package, the check a report's
    check in the golden report (its data keys among that check's keys) or
    a CLI command, each tolerance a key of DEFAULTS, the criterion one of
    tests/test_acceptance.py's and each test a test function of its file."""
    functions = TICKED.findall(row["functions"])
    assert functions
    for dotted in functions:
        assert callable(_function(dotted)), dotted

    check, *keys = TICKED.findall(row["check"]) or [None]
    if check is not None and check not in COMMANDS:
        data = [report["data"] for report in REPORTS if report["check"] == check]
        assert data, check
        assert all(any(key in each for each in data) for key in keys), keys

    for name in TICKED.findall(row["tolerances and rules"]):
        if re.fullmatch(r"[a-z_]+", name):
            assert name in DEFAULTS, name

    criterion = f"test_criterion_{row['criterion']}_"
    assert any(name.startswith(criterion)
               for name in _test_names(TESTS / "test_acceptance.py")), criterion

    tests = TICKED.findall(row["tier-1 tests"])
    assert tests
    for test_id in tests:
        file, name = test_id.split("::")
        assert name in _test_names(TESTS / file), test_id


def test_the_statements_map_resolves():
    """Closedness, the pairing, Type I and Type II at three levels each,
    relatedness, level agreement, compatibility, energy conservation and
    the constructive direction each have a row, and every name in a row
    resolves (_resolve)."""
    assert len(ROWS) == 13
    checks = {tuple(TICKED.findall(row["check"])[:1]) for row in ROWS.values()}
    assert {("hj1-magnetic",), ("hj1-distributional",), ("hj1-reduced",), ("hj2-magnetic",),
            ("hj2-distributional",), ("hj2-reduced",), ("geometry",), ("simulate",),
            ("construct-b",), ()} == checks
    for statement, row in ROWS.items():
        try:
            _resolve(row)
        except (AssertionError, AttributeError, KeyError, ImportError, ValueError) as err:
            raise AssertionError(f"{statement}: {err!r}") from err


# -- the surface ---------------------------------------------------------------

def _public_functions():
    """(module, qualified name, name, first line, last line) of every public
    function and method of the package; classmethod constructors aside,
    since the tests build systems with them."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found.append((path.stem, node.name, node.name, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for method in node.body:
                    if (isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
                            and not any(getattr(d, "id", None) == "classmethod"
                                        for d in method.decorator_list)):
                        found.append((path.stem, f"{node.name}.{method.name}", method.name,
                                      method.lineno, method.end_lineno))
    return found


def _references(tree, dotted_strings=False):
    """(line, name) of every name read in the tree: names, attributes, the
    entry point named by ``linalg.run_stacked``'s first argument (it calls
    ``stacked.<name>``) and, with ``dotted_strings``, each part of a string
    that is a dotted name (bench/tracing.py names its targets so).
    Docstrings and imports read no name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            found.append((node.lineno, node.attr))
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run_stacked"
              and node.args and isinstance(node.args[0], ast.Constant)):
            found.append((node.lineno, node.args[0].value))
        elif (dotted_strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)):
            found += [(node.lineno, part) for part in node.value.split(".")]
    return found


def test_every_public_function_has_a_caller():
    """A public function or method of src/magnomech that nothing in the
    package (its own body and __init__'s re-exports aside), in bench/
    (its tests aside) or in the map names is either a wrapper that its
    callers can do without, a capability that nothing uses, or a helper of
    the tests, which belongs in tests/reference.py."""
    package = {path.stem: _references(ast.parse(path.read_text()))
               for path in PACKAGE.glob("*.py") if path.name != "__init__.py"}
    outside = {name for path in BENCH.rglob("*.py") if "tests" not in path.parts
               for _, name in _references(ast.parse(path.read_text()), dotted_strings=True)}
    outside |= {dotted.split(".")[-1] for row in ROWS.values()
                for dotted in TICKED.findall(row["functions"])}
    uncalled = [f"{module}.{qualified}" for module, qualified, name, first, last
                in _public_functions()
                if name not in outside
                and not any(ref == name and not (where == module and first <= line <= last)
                            for where, refs in package.items() for line, ref in refs)]
    assert not uncalled, uncalled
