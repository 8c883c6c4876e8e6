"""The command line's input contract, as a property.

Whatever scenario file (any document, or bytes that are not UTF-8), flags
and MAGNOMECH_TOL_SCALE it is given, `magnomech` returns 0, 1 or 2 without
raising; exit 2 writes exactly one JSON object to stderr, and exits 0 and 1
write nothing there. Every document the parser accepts also passes the
published JSON schema.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from magnomech.cli import main
from magnomech.errors import ScenarioError
from magnomech.expressions import config_names, phase_names
from magnomech.scenarios import parse_scenario
from magnomech.tolerances import DEFAULTS, ENV_VAR

SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "scenario.schema.json"

# the override names drawn: every tolerance the checks read. The energy
# tolerance, read only by simulate, is left out so that the derandomized
# draws of tests/differential.py, and the outputs compared from them, are
# those of the nine check tolerances; test_cli overrides it on its own.
DRAWN_TOLERANCES = sorted(set(DEFAULTS) - {"energy"})

# constants without a finite real value, and expressions that fault only
# when evaluated (overflow, division by zero, negative fractional powers)
FAULTS = ["(-8)^(1/3)", "10^400", "0^-1", "1e400", "exp(1000)*q1", "1/q1",
          "q1^0.5", "1/sin(q1)"]


def mostly(common, rare, odds=20):
    """``rare`` one draw in ``odds``, ``common`` otherwise: most documents
    then get past parsing, so the checks themselves run too."""
    return st.integers(1, odds).flatmap(lambda i: rare if i == odds else common)


NUMBERS = mostly(st.sampled_from([0, 1, -1, 2, 0.5, 0.1]),
                 st.floats(allow_nan=True, allow_infinity=True))


def expressions(names):
    atoms = mostly(st.one_of(st.sampled_from(names),
                             st.sampled_from(["0", "1", "2", "0.5", "1e300"])),
                   st.sampled_from(FAULTS))
    return st.recursive(atoms, lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map(
            lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), inner).map(
            lambda t: f"{t[0]}({t[1]})"),
        inner.map(lambda t: f"-({t})")), max_leaves=4)


def entries(names):
    return st.one_of(NUMBERS, expressions(names))


def matrices(rows, cols, entry):
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def negated(entry):
    return f"-({entry})" if isinstance(entry, str) else -entry


def diagonal(entries):
    """A mass matrix positive definite wherever its entries are finite."""
    n = len(entries)
    return [[f"2 + sin({e})" if i == j else 0 for j in range(n)]
            for i, e in enumerate(entries)]


@st.composite
def antisymmetric(draw, n, entry):
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = draw(entry)
            matrix[j][i] = negated(matrix[i][j])
    return matrix


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 3))
    qn, pn = config_names(n), phase_names(n)
    doc = {"name": "fuzz", "n": n}
    optional = {
        "mass_matrix": st.one_of(st.just("identity"),
                                 st.lists(expressions(qn), min_size=n,
                                          max_size=n).map(diagonal),
                                 matrices(n, n, entries(qn))),
        "potential": entries(qn),
        "b_field": mostly(antisymmetric(n, entries(qn)),
                          matrices(n, n, entries(qn)), odds=5),
        "constraints": st.integers(0, n - 1).flatmap(
            lambda k: matrices(k, n, entries(qn))),
        "gamma": st.lists(entries(qn), min_size=n, max_size=n),
        "epsilon": st.one_of(
            st.lists(entries(pn), min_size=2 * n, max_size=2 * n),
            st.just([f"{v} + 0.25" for v in pn])),
        "symmetry": st.lists(st.integers(1, n), min_size=1, max_size=n,
                             unique=True),
        "sample_box": st.lists(
            mostly(st.tuples(NUMBERS, st.sampled_from([0.5, 1, 2])).map(
                lambda t: [t[0], t[0] + t[1]]),
                   st.tuples(NUMBERS, NUMBERS).map(list), odds=5),
            min_size=n, max_size=n),
        "tolerances": st.dictionaries(
            mostly(st.sampled_from(DRAWN_TOLERANCES), st.just("bogus")),
            mostly(st.sampled_from([1e-12, 1e-6, 1.0, 1e300]),
                   st.sampled_from([0, -1]))),
        "initial_state": st.fixed_dictionaries({
            "q": st.lists(NUMBERS, min_size=n, max_size=n),
            "p": st.lists(NUMBERS, min_size=n, max_size=n)}),
    }
    for key, strategy in optional.items():
        # the section and the map in three documents of four, the rest in half
        if draw(st.integers(1, 4)) <= (3 if key in ("gamma", "epsilon") else 2):
            doc[key] = draw(strategy)
    if draw(st.integers(0, 9)) == 0:
        doc["general_h"] = draw(expressions(pn))
    return doc


# bytes put in front of the document: none, or raw bytes that are not UTF-8
# (a UTF-16 byte-order mark, a lone continuation byte, Latin-1 text) or that
# make the JSON invalid
PREFIXES = mostly(st.just(b""),
                  st.one_of(st.sampled_from([b"\xff\xfe", b"\x80",
                                             "caf\xe9 ".encode("latin-1"),
                                             b"\xef\xbb\xbf"]),
                            st.binary(min_size=1, max_size=4)), odds=8)
COUNTS = mostly(st.sampled_from(["1", "2", "3"]), st.sampled_from(["-1", "0"]))
SEEDS = mostly(st.sampled_from(["0", "5"]), st.just("-1"))
ENDS = mostly(st.sampled_from(["0", "0.05"]),
              st.sampled_from(["-1", "nan", "inf"]))
STEPS = mostly(st.sampled_from(["0.01", "0.05", "1e300"]),
               st.sampled_from(["0", "-0.1", "nan", "inf"]))


@st.composite
def invocations(draw, scenario, directory, out):
    command = draw(st.sampled_from(["check", "simulate", "construct-b"]))
    if command == "check":
        kind = draw(st.sampled_from(["hj1", "hj2", "geometry", "all"]))
        # now and then a directory where a scenario file is expected
        target = (directory if kind == "all" else
                  draw(mostly(st.just(scenario), st.just(directory))))
        argv = ["check", kind, target,
                "--samples", draw(COUNTS), "--seed", draw(SEEDS)]
        if draw(mostly(st.just(False), st.just(True), odds=3)):
            argv.append("--reduced")
        return argv
    if command == "simulate":
        argv = ["simulate", scenario, "--t-end", draw(ENDS), "--dt", draw(STEPS),
                "--field", draw(st.sampled_from(["magnetic", "distributional"])),
                "--out", out]
        if draw(st.booleans()):
            argv.append("--no-project")
        return argv
    return ["construct-b", scenario, "--out", out]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=scenarios(), data=st.data(),
       scale=mostly(st.sampled_from([None, "1", "1e6"]),
                    st.sampled_from(["abc", "0"])),
       prefix=PREFIXES)
def test_cli_input_contract(doc, data, scale, prefix):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "corpus"
        directory.mkdir()
        scenario = directory / "fuzz.json"
        scenario.write_bytes(prefix + json.dumps(doc).encode())
        argv = data.draw(invocations(str(scenario), str(directory),
                                     str(Path(tmp) / "out")))
        previous = os.environ.pop(ENV_VAR, None)
        if scale is not None:
            os.environ[ENV_VAR] = scale
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.environ.pop(ENV_VAR, None)
            if previous is not None:
                os.environ[ENV_VAR] = previous
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert isinstance(json.loads(lines[0]), dict)
    else:
        assert err.getvalue() == ""


def test_accepted_documents_match_the_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA.read_text())
    validator = jsonschema.validators.validator_for(schema)(schema)

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(doc=scenarios())
    def accepted_documents_validate(doc):
        text = json.dumps(doc)
        try:
            parse_scenario(text)
        except ScenarioError:
            return
        validator.validate(json.loads(text))

    accepted_documents_validate()
