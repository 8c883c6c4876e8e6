import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnomech import ScenarioError, build_system, load_scenario, parse_scenario
from magnomech import expressions
from magnomech import scenarios as scenarios_module
from magnomech.cli import checks_for_system
from magnomech.hj import type1_magnetic
from magnomech.sampling import MAX_DIMENSION, config_samples
from magnomech.scenarios import (
    CheckReport,
    construct_induced_scenario,
    indented_json,
    reports_to_json,
    serialize_scenario,
)
from magnomech.tolerances import DEFAULTS as TOLERANCE_DEFAULTS

DOCS = Path(__file__).resolve().parents[1] / "docs"


def minimal(**extra):
    doc = {"name": "tiny", "n": 2}
    doc.update(extra)
    return json.dumps(doc)


def test_golden_charged_particle(scenario_dir):
    spec = load_scenario(scenario_dir / "charged-particle.json")
    assert spec.n == 2
    assert spec.constraints == []
    system = build_system(spec)
    assert system.dist.k == 0
    assert system.mag.b_matrix(np.zeros(2)) == pytest.approx(
        np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_round_trip_all_shipped(scenario_dir):
    for path in sorted(scenario_dir.glob("*.json")):
        spec = load_scenario(path)
        again = parse_scenario(serialize_scenario(spec))
        assert again == spec, path.name


@pytest.mark.parametrize("doc,code,field", [
    ("{not json", "parse", None),
    (minimal(b_field=[[0, 1], [-2, 0]]), "antisymmetry", "b_field"),
    (minimal(constraints=[["q1"]]), "dimension_mismatch", "constraints[0]"),
    (minimal(constraints=[["0", "1"], ["1", "0"]]), "constraint_count", None),
    (minimal(gamma=["q1"]), "dimension_mismatch", "gamma"),
    (minimal(gamma=["q1 +", "0"]), "expression", "gamma[0]"),
    (minimal(gamma=["q9", "0"]), "expression", "gamma[0]"),
    (minimal(potential="p1"), "expression", "potential"),
    (minimal(epsilon=["q1", "q2", "p1"]), "dimension_mismatch", "epsilon"),
    (minimal(symmetry=[0]), "symmetry_index", "symmetry"),
    (minimal(symmetry=[3]), "symmetry_index", "symmetry"),
    (minimal(sample_box=[[1, -1], [0, 1]]), "dimension_mismatch", "sample_box[0]"),
    (minimal(tolerances={"bogus": 1e-3}), "tolerance", None),
    (minimal(initial_state={"q": [0, 0]}), "initial_state", None),
    (minimal(general_h="q1*p1", constraints=[["0", "1"]]),
     "general_h_with_constraints", None),
    (minimal(surprise=1), "unknown_field", None),
    (json.dumps({"n": 2}), "missing_field", "name"),
    (json.dumps({"name": "x", "n": 0}), "bad_dimension", "n"),
    (minimal(tolerances={"hypothesis": math.inf, "equation": math.inf}),
     "tolerance", "tolerances"),
    (minimal(symmetry=[True]), "symmetry_index", "symmetry"),
    (minimal(description=5), "description", "description"),
    (minimal(initial_state={"q": [math.inf, 0], "p": [0, 0]}),
     "initial_state", "initial_state.q"),
    (minimal(initial_state={"q": [0, 0], "p": [0, -math.inf]}),
     "initial_state", "initial_state.p"),
])
def test_validation_errors(doc, code, field):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.code == code
    if field is not None:
        assert err.value.field == field


def test_non_utf8_file_is_parse_error(tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert err.value.code == "parse"


def test_antisymmetry_error_names_entries():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(minimal(b_field=[[0, 1], [-2, 0]]))
    assert "[0][1]" in str(err.value) or "[1][0]" in str(err.value)


def test_expression_b_field_probed_for_antisymmetry():
    doc = minimal(b_field=[["0", "q1"], ["q1", "0"]])
    spec = parse_scenario(doc)
    with pytest.raises(ScenarioError) as err:
        build_system(spec)
    assert err.value.code == "antisymmetry"


def test_mass_matrix_must_be_spd():
    spec = parse_scenario(minimal(mass_matrix=[["-1", "0"], ["0", "1"]]))
    with pytest.raises(ScenarioError) as err:
        build_system(spec)
    assert err.value.code == "mass_not_spd"


def test_declared_symmetry_is_verified():
    doc = json.dumps({
        "name": "broken-symmetry", "n": 3,
        "constraints": [["0", "-q1", "1"]],
        "symmetry": [1],
    })
    with pytest.raises(ScenarioError) as err:
        build_system(parse_scenario(doc))
    assert err.value.code == "invariance"


def test_general_h_system_builds_and_differentiates():
    spec = parse_scenario(json.dumps({
        "name": "kepler-ish", "n": 2,
        "general_h": "0.5*(p1^2 + p2^2) + q1*p2",
    }))
    system = build_system(spec)
    from magnomech import PhasePoint
    z = PhasePoint([0.3, -0.2], [0.4, 0.9])
    assert system.ham.value(z) == pytest.approx(0.5 * (0.16 + 0.81) + 0.3 * 0.9)
    assert system.ham.gradient(z) == pytest.approx(
        np.array([0.9, 0.0, 0.4, 0.3 + 0.9]))


def test_shipped_scenarios_match_published_schema(scenario_dir):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((DOCS / "scenario.schema.json").read_text())
    for path in sorted(scenario_dir.glob("*.json")):
        jsonschema.validate(json.loads(path.read_text()), schema)


def test_schema_names_every_tolerance_and_the_dimension_limit():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((DOCS / "scenario.schema.json").read_text())
    names = schema["properties"]["tolerances"]["propertyNames"]["enum"]
    assert sorted(names) == sorted(TOLERANCE_DEFAULTS)
    assert schema["properties"]["n"]["maximum"] == MAX_DIMENSION
    doc = json.loads(minimal(tolerances={"closedness": 2.0}))
    jsonschema.validate(doc, schema)
    assert parse_scenario(json.dumps(doc)).tolerances == {"closedness": 2.0}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(json.loads(minimal(tolerances={"bogus": 1.0})), schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"name": "too-wide", "n": 41}, schema)


def expression_strings(spec):
    """How many expression strings the declared fields of a spec hold."""
    def count(value):
        if isinstance(value, list):
            return sum(count(item) for item in value)
        return int(isinstance(value, str))

    return sum(count(value) for value in (
        spec.mass_matrix, spec.potential, spec.b_field, spec.constraints,
        spec.gamma, spec.epsilon, spec.general_h) if value != "identity")


def test_each_expression_is_parsed_once(scenario_dir, monkeypatch):
    parsed_texts = []
    parse = expressions.parse
    monkeypatch.setattr(expressions, "parse",
                        lambda text: parsed_texts.append(text) or parse(text))
    strings = 0
    for path in sorted(scenario_dir.glob("*.json")):
        strings += expression_strings(build_system(load_scenario(path)).spec)
    assert strings > 0
    assert len(parsed_texts) == strings
    # construct-b reads the section's ASTs: only the new document is parsed
    spec = load_scenario(scenario_dir / "broken-gamma.json")
    parsed_texts.clear()
    new_spec, _ = construct_induced_scenario(spec)
    assert len(parsed_texts) == expression_strings(new_spec)


def test_construct_induced_scenario_end_to_end(scenario_dir):
    spec = load_scenario(scenario_dir / "broken-gamma.json")
    new_spec, system = construct_induced_scenario(spec)
    assert new_spec.name.endswith("-induced")
    report = type1_magnetic(system.gamma, system.ham, system.mag,
                            config_samples(system.sample_box, 20))
    assert report.verdict == "PASS"
    # emitted document is itself a valid scenario
    assert parse_scenario(serialize_scenario(new_spec)) == new_spec


def test_construct_induced_closed_section_gives_zero_field():
    spec = parse_scenario(json.dumps({
        "name": "closed", "n": 2, "gamma": ["q2", "q1"],
    }))
    new_spec, system = construct_induced_scenario(spec)
    assert np.max(np.abs(system.mag.b_matrix(np.array([0.3, 0.7])))) == 0.0


def test_construct_induced_requires_gamma():
    spec = parse_scenario(minimal())
    with pytest.raises(ScenarioError) as err:
        construct_induced_scenario(spec)
    assert err.value.code == "missing_field"


def test_check_report_round_trip():
    reports = [
        CheckReport("a", "geometry", "PASS", {"x": 1.5, "nested": {"y": [1, 2]}},
                    wall_time_s=0.25),
        CheckReport("b", "hj1-magnetic", "VACUOUS", {"defects": ["d"]}),
    ]
    payload = json.loads(reports_to_json(reports))
    assert payload["reports"] == [r.to_dict() for r in reports]
    assert payload["summary"] == {"PASS": 1, "FAIL": 0, "VACUOUS": 1}


def _stdlib_text(value):
    return json.dumps(value, indent=2, sort_keys=True)


FLOATS = st.one_of(
    st.floats(),  # NaN, +-Infinity and subnormals included
    st.sampled_from([-0.0, 5e-324, -1.5e-310, 0.1, 1e16, 1.7976931348623157e308]),
    st.floats().map(np.float64),
)
STRINGS = st.one_of(st.text(max_size=6),
                    st.sampled_from(["", "\x00\x1f\x7f", "\u00e9\u2028", "\U0001f600", '"\\/']))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-2**200, 2**200),
                    FLOATS, STRINGS)
TREES = st.recursive(SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.lists(FLOATS, min_size=1, max_size=4),
    st.dictionaries(STRINGS, children, max_size=4)), max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(tree=TREES)
def test_report_writer_gives_the_json_module_bytes(tree):
    """The report writer gives json.dumps(..., indent=2, sort_keys=True)
    byte for byte on JSON-like trees: nested dicts, lists and tuples, floats
    with NaN, +-Infinity, -0.0, subnormals and numpy float64s, lists of
    floats alone, big ints, bools, None, and non-ASCII and control
    characters in strings and keys."""
    assert indented_json(tree) == _stdlib_text(tree)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_corpus_report_is_the_json_module_text(systems, seed, monkeypatch):
    """reports_to_json over the corpus checks is the text json.dumps gives
    for the same payload."""
    reports = [report for system in systems.values()
               for report in checks_for_system(system, 50, seed)]
    text = reports_to_json(reports)
    monkeypatch.setattr(scenarios_module, "indented_json", _stdlib_text)
    assert text == reports_to_json(reports)


@pytest.mark.parametrize("value", [
    np.int64(3), {"a": [1.0, np.int64(3)]}, {"a": np.bool_(True)}, {(1,): 2.0},
    {"a": 1, 2: 3}, {1j: 1},
    # repr(object()) holds a memory address; a fixed id keeps the name stable.
    pytest.param([object()], id="[object()]"),
], ids=repr)
def test_report_writer_rejects_what_json_rejects(value):
    """A value json.dumps cannot write (a numpy integer or bool, a tuple or
    complex key, keys that do not sort) raises its TypeError here too."""
    with pytest.raises(TypeError) as expected:
        _stdlib_text(value)
    with pytest.raises(TypeError) as raised:
        indented_json(value)
    assert str(raised.value) == str(expected.value)


def test_report_writer_rejects_a_circular_reference():
    loop = {"a": []}
    loop["a"].append(loop)
    with pytest.raises(ValueError, match="Circular reference detected"):
        indented_json(loop)
