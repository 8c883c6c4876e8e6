"""Declarative scenario files: parsing, validation and compiled systems.

A scenario is a JSON document describing one system: dimension, mass
matrix, potential, magnetic two-form, constraint rows, optional covector
section, phase map and cyclic coordinates. Entries may be numbers or
expression strings in the small language of :mod:`magnomech.expressions`.
Structural problems raise ScenarioError with a stable code and the field
path. Parsing keeps each expression's AST in the spec's ``model``, so every
string is parsed once; building compiles the model, with symbolic partials
where they exist, and runs the semantic probes (positive definiteness,
antisymmetry of expression matrices, declared invariance).
"""

import json
import math
from dataclasses import dataclass, field as dataclass_field
from json.encoder import encode_basestring_ascii as _encode_string

import numpy as np

from . import expressions as ex
from .dynamics import HamiltonianSpec, MagneticStructure, PhaseMap
from .errors import ExpressionError, ScenarioError
from .geometry import OneFormSection, PhasePoint, TwoFormField, split
from .linalg import worst
from .nonholonomic import ConstraintDistribution
from .reduction import TranslationSymmetry, data_invariance_residual
from .sampling import MAX_DIMENSION, sobol_points
from .tolerances import DEFAULTS as TOLERANCE_NAMES
from .tolerances import Tolerances

SCHEMA_VERSION = 1

_KNOWN_FIELDS = {
    "name", "n", "mass_matrix", "potential", "b_field", "constraints",
    "gamma", "epsilon", "symmetry", "sample_box", "tolerances",
    "initial_state", "general_h", "description",
}


@dataclass
class ScenarioSpec:
    """Validated, normalized scenario data (still declarative).

    ``model`` maps each declared expression field (mass_matrix, potential,
    b_field, constraints, gamma, epsilon, general_h) to its ASTs, nested in
    the field's shape. It is derived from the fields above, so it takes no
    part in equality or in ``to_dict``.
    """

    name: str
    n: int
    mass_matrix: object = "identity"
    potential: object = 0.0
    b_field: list = None
    constraints: list = dataclass_field(default_factory=list)
    gamma: list = None
    epsilon: list = None
    symmetry: list = None
    sample_box: list = None
    tolerances: dict = dataclass_field(default_factory=dict)
    initial_state: dict = None
    general_h: str = None
    description: str = None
    model: dict = dataclass_field(default_factory=dict, compare=False, repr=False)

    def to_dict(self):
        out = {"name": self.name, "n": self.n}
        if self.description is not None:
            out["description"] = self.description
        if self.mass_matrix != "identity":
            out["mass_matrix"] = self.mass_matrix
        if self.potential not in (0.0, "0"):
            out["potential"] = self.potential
        if self.b_field is not None:
            out["b_field"] = self.b_field
        if self.constraints:
            out["constraints"] = self.constraints
        if self.gamma is not None:
            out["gamma"] = self.gamma
        if self.epsilon is not None:
            out["epsilon"] = self.epsilon
        if self.symmetry is not None:
            out["symmetry"] = self.symmetry
        out["sample_box"] = self.sample_box
        if self.tolerances:
            out["tolerances"] = self.tolerances
        if self.initial_state is not None:
            out["initial_state"] = self.initial_state
        if self.general_h is not None:
            out["general_h"] = self.general_h
        return out


def _require(condition, code, message, field=None):
    if not condition:
        raise ScenarioError(code, message, field=field)


def _is_integer(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _entry_is_literal(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite_number(value):
    return _entry_is_literal(value) and math.isfinite(value)


def _all_literal(rows):
    return all(_entry_is_literal(v) for row in rows for v in row)


def _parse_entry(value, names, field):
    """Accept a finite number or an expression string; return the AST."""
    if _entry_is_literal(value):
        _require(math.isfinite(value), "expression",
                 f"number {value!r} is not finite", field)
        return ex.Num(float(value))
    _require(isinstance(value, str), "expression",
             f"expected number or expression string, got {type(value).__name__}",
             field)
    try:
        node = ex.parse(value)
        ex.check_variables(node, names)
    except ExpressionError as err:
        raise ScenarioError("expression", str(err), field=field) from None
    return node


def _parse_array(value, shape, names, field):
    """The ASTs of nested lists of entries in ``shape`` (one entry for ());
    a list of the wrong length is a dimension_mismatch at its own path."""
    if not shape:
        return _parse_entry(value, names, field)
    _require(isinstance(value, list) and len(value) == shape[0],
             "dimension_mismatch", f"{field} must have {shape[0]} entries", field)
    return [_parse_array(v, shape[1:], names, f"{field}[{i}]")
            for i, v in enumerate(value)]


def _require_antisymmetric(matrix, rtol, where=""):
    """ScenarioError unless the b_field matrix is antisymmetric to ``rtol``
    relative to its largest entry. The message names up to four entries off
    by more than 1e-12, or by any amount for the exact check (``rtol`` 0)."""
    defect = np.abs(matrix + matrix.T)
    if np.max(defect) > rtol * (1 + np.max(np.abs(matrix))):
        bad = np.argwhere(defect > min(rtol, 1e-12))
        raise ScenarioError(
            "antisymmetry", f"b_field is not antisymmetric{where}; entries "
            + ", ".join(f"[{i}][{j}]" for i, j in bad[:4]), field="b_field")


def parse_scenario(text):
    """Parse and structurally validate a scenario document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioError("parse", f"invalid JSON: {err}") from None
    _require(isinstance(raw, dict), "parse", "top level must be an object")
    unknown = sorted(set(raw) - _KNOWN_FIELDS)
    _require(not unknown, "unknown_field", f"unknown field(s): {unknown}")
    _require("name" in raw and isinstance(raw["name"], str) and raw["name"],
             "missing_field", "scenario needs a non-empty name", "name")
    _require("n" in raw, "missing_field", "scenario needs a dimension n", "n")
    n = raw["n"]
    _require(_is_integer(n) and n >= 1,
             "bad_dimension", "n must be an integer >= 1", "n")
    _require(n <= MAX_DIMENSION, "bad_dimension",
             f"n = {n} exceeds {MAX_DIMENSION}, the largest dimension of the "
             "built-in Sobol direction numbers", "n")

    qn = ex.config_names(n)
    pn = ex.phase_names(n)
    model = {}

    mass = raw.get("mass_matrix", "identity")
    if mass != "identity":
        model["mass_matrix"] = _parse_array(mass, (n, n), qn, "mass_matrix")

    potential = raw.get("potential", 0.0)
    model["potential"] = _parse_entry(potential, qn, "potential")

    b_field = raw.get("b_field")
    if b_field is not None:
        model["b_field"] = _parse_array(b_field, (n, n), qn, "b_field")
        if _all_literal(b_field):
            _require_antisymmetric(np.asarray(b_field, dtype=float), 0.0)

    constraints = raw.get("constraints", [])
    _require(isinstance(constraints, list), "dimension_mismatch",
             "constraints must be a list of rows", "constraints")
    _require(len(constraints) < n or not constraints, "constraint_count",
             f"need fewer than n={n} constraint rows", "constraints")
    model["constraints"] = _parse_array(constraints, (len(constraints), n), qn,
                                        "constraints")

    gamma = raw.get("gamma")
    if gamma is not None:
        model["gamma"] = _parse_array(gamma, (n,), qn, "gamma")

    epsilon = raw.get("epsilon")
    if epsilon is not None:
        model["epsilon"] = _parse_array(epsilon, (2 * n,), pn, "epsilon")

    symmetry = raw.get("symmetry")
    if symmetry is not None:
        _require(isinstance(symmetry, list) and symmetry, "symmetry_index",
                 "symmetry must be a non-empty list of 1-based indices",
                 "symmetry")
        for idx in symmetry:
            _require(_is_integer(idx) and 1 <= idx <= n, "symmetry_index",
                     f"cyclic index {idx!r} outside 1..{n}", "symmetry")
        _require(len(set(symmetry)) == len(symmetry), "symmetry_index",
                 "cyclic indices must be distinct", "symmetry")
        symmetry = sorted(symmetry)

    box = raw.get("sample_box")
    if box is None:
        box = [[-1.0, 1.0] for _ in range(n)]
    _require(isinstance(box, list) and len(box) == n, "dimension_mismatch",
             f"sample_box must have {n} coordinate ranges", "sample_box")
    for i, pair in enumerate(box):
        _require(isinstance(pair, list) and len(pair) == 2
                 and all(_is_finite_number(v) for v in pair)
                 and pair[0] < pair[1],
                 "dimension_mismatch",
                 "each range must be finite [lo, hi] with lo < hi",
                 f"sample_box[{i}]")
    box = [[float(lo), float(hi)] for lo, hi in box]

    overrides = raw.get("tolerances", {})
    _require(isinstance(overrides, dict), "tolerance",
             "tolerances must be an object", "tolerances")
    for key, value in overrides.items():
        _require(key in TOLERANCE_NAMES, "tolerance",
                 f"unknown tolerance {key!r}", "tolerances")
        _require(_is_finite_number(value) and value > 0, "tolerance",
                 f"tolerance {key!r} must be a finite positive number",
                 "tolerances")

    state = raw.get("initial_state")
    if state is not None:
        _require(isinstance(state, dict) and set(state) == {"q", "p"},
                 "initial_state", "initial_state needs exactly q and p arrays",
                 "initial_state")
        for part in ("q", "p"):
            values = state[part]
            _require(isinstance(values, list) and len(values) == n
                     and all(_is_finite_number(v) for v in values),
                     "initial_state", f"{part} must be {n} finite numbers",
                     f"initial_state.{part}")
        state = {"q": [float(v) for v in state["q"]],
                 "p": [float(v) for v in state["p"]]}

    general_h = raw.get("general_h")
    if general_h is not None:
        _require(isinstance(general_h, str), "expression",
                 "general_h must be an expression string", "general_h")
        model["general_h"] = _parse_entry(general_h, pn, "general_h")
        _require(not constraints, "general_h_with_constraints",
                 "general Hamiltonians cannot be combined with constraints: "
                 "the constraint surface needs the kinetic-energy form",
                 "general_h")

    description = raw.get("description")
    _require(description is None or isinstance(description, str),
             "description", "description must be a string", "description")

    return ScenarioSpec(
        name=raw["name"], n=n, mass_matrix=mass, potential=potential,
        b_field=b_field, constraints=constraints, gamma=gamma, epsilon=epsilon,
        symmetry=symmetry, sample_box=box, tolerances=dict(overrides),
        initial_state=state, general_h=general_h, description=description,
        model=model)


def scenario_violations(text):
    """All schema violations in a document, each with code and field path.

    Repeatedly re-validates with offending fields removed, so independent
    problems are reported together; an empty list means the document parses.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        return [ScenarioError("parse", f"invalid JSON: {err}")]
    violations = []
    for _ in range(len(_KNOWN_FIELDS) + 1):
        try:
            parse_scenario(json.dumps(raw))
            break
        except ScenarioError as err:
            violations.append(err)
            field = (err.field or "").split("[")[0].split(".")[0]
            if not isinstance(raw, dict) or field not in raw:
                break
            del raw[field]
    return violations


def serialize_scenario(spec):
    return json.dumps(spec.to_dict(), indent=2, sort_keys=False) + "\n"


def load_scenario(path):
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise ScenarioError("parse", f"{path} is not UTF-8 text: {err}") from None
    return parse_scenario(text)


# -- compilation to a runnable system ----------------------------------------


def _map(fn, nodes):
    """``fn`` applied to each AST of nested lists (or to one bare AST)."""
    if isinstance(nodes, list):
        return [_map(fn, node) for node in nodes]
    return fn(nodes)


def _compile(nodes):
    """``f(q, p=None)`` evaluating an array of ASTs entry by entry.

    A bare AST gives its float-valued function. Nested lists give a
    C-contiguous array of their shape, filled in row-major order, so the
    first faulting entry is the one reported. An array whose entries are
    all numbers is built once and returned read-only on every call. The
    function keeps ``nodes`` as its ``nodes`` attribute, which the
    integrator's generated step inlines (see kernel.py), and the column
    function of the same array as ``columns``, which geometry.each calls on
    a stack of points.
    """
    if not isinstance(nodes, list):
        evaluate = ex.compile_node(nodes)
        leaves, shape = [nodes], ()
    else:
        array = np.asarray(nodes, dtype=object)
        leaves, shape = list(array.flat), array.shape
        if all(isinstance(node, ex.Num) for node in leaves):
            constant = np.array([node.value for node in leaves], dtype=float)
            constant = constant.reshape(shape)
            constant.setflags(write=False)

            def evaluate(q, p=None):
                return constant
        else:
            fns = [ex.compile_node(node) for node in leaves]

            def evaluate(q, p=None):
                return np.array([f(q, p) for f in fns]).reshape(shape)

    evaluate.nodes = nodes
    evaluate.columns = ex.compile_columns(leaves, shape)
    return evaluate


def _compile_partials(nodes, names, direction_first=False):
    """Compiled symbolic partials of an array of ASTs by each of ``names``,
    or None when an entry has none (callers then take finite differences).

    The layout is the one the caller uses: (names, *shape) direction first,
    as for the stacked dG/dq and dA/dq; (*shape, names) otherwise, as for
    gradients and Jacobians.
    """
    try:
        if direction_first:
            partials = [_map(lambda node: ex.derivative(node, name), nodes)
                        for name in names]
        else:
            partials = _map(lambda node: [ex.derivative(node, name)
                                          for name in names], nodes)
    except ExpressionError:
        return None
    return _compile(partials)


@dataclass
class System:
    """A compiled scenario ready for checks and integration."""

    spec: ScenarioSpec
    ham: HamiltonianSpec
    mag: MagneticStructure
    dist: ConstraintDistribution
    gamma: OneFormSection = None
    epsilon: PhaseMap = None
    symmetry: TranslationSymmetry = None
    tolerances: Tolerances = None
    initial_state: PhasePoint = None

    @property
    def name(self):
        return self.spec.name

    @property
    def n(self):
        return self.spec.n

    @property
    def sample_box(self):
        return np.asarray(self.spec.sample_box, dtype=float)

    @property
    def constrained(self):
        return self.dist.k > 0


def _probe_points(box):
    """The load-time probes: four Sobol points and the box centre."""
    box = np.asarray(box, dtype=float)
    return list(sobol_points(box, 4)) + [box.mean(axis=1)]


def _require_spd(matrix, q):
    """ScenarioError unless the mass matrix at q is symmetric positive definite."""
    if np.max(np.abs(matrix - matrix.T)) > 1e-12 * (1 + np.max(np.abs(matrix))):
        raise ScenarioError("mass_not_spd", "mass matrix is not symmetric",
                            field="mass_matrix")
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        raise ScenarioError("mass_not_spd",
                            f"mass matrix is not positive definite at q={q}",
                            field="mass_matrix") from None


def build_system(spec):
    """Compile a ScenarioSpec's model and run the load-time semantic probes."""
    n, model = spec.n, spec.model
    qn = ex.config_names(n)
    pn = ex.phase_names(n)
    probes = _probe_points(spec.sample_box)

    if spec.general_h is not None:
        node = model["general_h"]
        ham = HamiltonianSpec.general(n, _compile(node), _compile_partials(node, pn))
    else:
        mass_fn = mass_grad = None
        if "mass_matrix" in model:
            mass_fn = _compile(model["mass_matrix"])
            mass_grad = _compile_partials(model["mass_matrix"], qn,
                                          direction_first=True)
            for q in probes:
                _require_spd(mass_fn(q), q)
        ham = HamiltonianSpec.quadratic(
            n, mass_fn=mass_fn, potential_fn=_compile(model["potential"]),
            mass_grad_fn=mass_grad,
            potential_grad_fn=_compile_partials(model["potential"], qn))

    if spec.b_field is None:
        b_field = TwoFormField.zero(n)
    elif _all_literal(spec.b_field):
        b_field = TwoFormField.constant(np.asarray(spec.b_field, dtype=float))
    else:
        matrix_fn = _compile(model["b_field"])
        for q in probes:
            _require_antisymmetric(matrix_fn(q), 1e-9, f" at q={q}")
        b_field = TwoFormField(matrix_fn, n)
    mag = MagneticStructure(b_field)

    rows = model["constraints"]
    if rows:
        dist = ConstraintDistribution(
            n, len(rows), _compile(rows),
            rows_grad_fn=_compile_partials(rows, qn, direction_first=True))
    else:
        dist = ConstraintDistribution.unconstrained(n)

    gamma = epsilon = None
    if "gamma" in model:
        gamma = OneFormSection(_compile(model["gamma"]),
                               _compile_partials(model["gamma"], qn))
    if "epsilon" in model:
        partials = _compile_partials(model["epsilon"], pn)
        epsilon = PhaseMap(split(_compile(model["epsilon"]), n),
                           None if partials is None else split(partials, n))

    tolerances = Tolerances(spec.tolerances)
    symmetry = None
    if spec.symmetry is not None:
        symmetry = TranslationSymmetry([i - 1 for i in spec.symmetry], n)
        p = np.linspace(0.1, 0.7, n)
        residual = worst([data_invariance_residual(symmetry, dist, ham, mag, q, p)
                          for q in probes])
        if residual > tolerances.get("invariance"):
            raise ScenarioError(
                "invariance",
                f"declared cyclic coordinates are not cyclic (residual "
                f"{residual:.3e})", field="symmetry")

    initial_state = None
    if spec.initial_state is not None:
        initial_state = PhasePoint(spec.initial_state["q"], spec.initial_state["p"])

    return System(spec=spec, ham=ham, mag=mag, dist=dist, gamma=gamma,
                  epsilon=epsilon, symmetry=symmetry,
                  tolerances=tolerances,
                  initial_state=initial_state)


def load_system(path):
    return build_system(load_scenario(path))


# -- induced-field construction ----------------------------------------------


def construct_induced_scenario(spec):
    """New scenario whose two-form is minus the section's exterior derivative.

    The potential is replaced so the Hamiltonian is constant along the
    section; together with the induced two-form this makes the section an
    exact Type I solution of the new system. Requires a constant mass
    matrix (identity or numeric) so the matched potential stays a closed
    form.
    """
    if spec.gamma is None:
        raise ScenarioError("missing_field",
                            "construct-b needs a scenario with gamma", "gamma")
    n = spec.n
    if spec.mass_matrix == "identity":
        inverse = np.eye(n)
    else:
        if not _all_literal(spec.mass_matrix):
            raise ScenarioError(
                "unsupported", "construct-b needs a constant mass matrix",
                "mass_matrix")
        mass = np.asarray(spec.mass_matrix, dtype=float)
        _require_spd(mass, np.mean(spec.sample_box, axis=1))
        inverse = np.linalg.inv(mass)
    nodes = spec.model["gamma"]
    partials = [[ex.derivative(node, name) for name in ex.config_names(n)]
                for node in nodes]
    # induced two-form entry: d(gamma_i)/dq_j - d(gamma_j)/dq_i
    b_rows = [["0" if i == j else
               ex.to_text(ex.subtract(partials[i][j], partials[j][i]))
               for j in range(n)] for i in range(n)]

    matched = ex.Num(0.0)
    for i in range(n):
        for j in range(n):
            if inverse[i, j] == 0.0:
                continue
            term = ex.multiply(ex.Num(-0.5 * inverse[i, j]),
                               ex.multiply(nodes[i], nodes[j]))
            matched = ex.add(matched, term)

    raw = spec.to_dict()
    raw["name"] = spec.name + "-induced"
    raw["b_field"] = b_rows
    raw["potential"] = ex.to_text(matched)
    new_spec = parse_scenario(json.dumps(raw))
    try:
        system = build_system(new_spec)
    except ScenarioError as err:
        if err.code != "invariance":
            raise
        raw.pop("symmetry", None)
        new_spec = parse_scenario(json.dumps(raw))
        system = build_system(new_spec)
    return new_spec, system


# -- check reports -------------------------------------------------------------


@dataclass
class CheckReport:
    """One check's outcome on one scenario, serializable both ways."""

    scenario: str
    check: str
    verdict: str
    data: dict
    wall_time_s: float = 0.0

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "check": self.check,
            "verdict": self.verdict,
            "data": self.data,
            "wall_time_s": self.wall_time_s,
        }

    @classmethod
    def from_dict(cls, raw):
        return cls(raw["scenario"], raw["check"], raw["verdict"],
                   raw["data"], raw.get("wall_time_s", 0.0))

    def table_row(self):
        return f"{self.scenario:<24} {self.check:<16} {self.verdict:<8}"


def reports_to_json(reports):
    counts = {"PASS": 0, "FAIL": 0, "VACUOUS": 0}
    for report in reports:
        counts[report.verdict] = counts.get(report.verdict, 0) + 1
    payload = {
        "schema_version": SCHEMA_VERSION,
        "summary": counts,
        "reports": [report.to_dict() for report in reports],
    }
    return indented_json(payload) + "\n"


def indented_json(value):
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    json.dumps runs its pure-Python encoder whenever ``indent`` is set;
    this writer makes the same text with less work per value: it
    dispatches on the exact type first, and writes a list of floats as one
    join of ``float.__repr__``. Whatever json.dumps rejects raises here
    too: a non-serializable value or key, and a circular reference.
    """
    chunks = []
    _write(value, "\n", chunks, set())
    return "".join(chunks)


# float.__repr__ of the floats that json writes otherwise
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value):
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


def _scalar_text(value):
    """json's text of a str, None, bool, int or float (a subclass too), in
    json's order of tests (a bool is not written as an int), or None for
    anything else."""
    if isinstance(value, str):
        return _encode_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    return None


def _key_text(key):
    """json's text of a dict key: a str, or a float, bool, None or int
    written as its value's text in quotes."""
    if isinstance(key, str):
        return _encode_string(key)
    text = _scalar_text(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {key.__class__.__name__}")
    return _encode_string(text)


def _write(value, newline, out, open_ids):
    """Append the text of ``value``, at the depth whose line break and
    indent is ``newline``, to ``out``; ``open_ids`` holds the containers
    being written, for json's circular-reference check."""
    kind = type(value)
    if kind is float:
        out.append(_float_text(value))
        return
    if kind is not dict and kind is not list:
        text = _scalar_text(value)
        if text is not None:
            out.append(text)
            return
        if not isinstance(value, (list, tuple, dict)):
            raise TypeError(
                f"Object of type {value.__class__.__name__} is not JSON serializable")
    is_dict = isinstance(value, dict)
    if not value:
        out.append("{}" if is_dict else "[]")
        return
    inner = newline + "  "
    separator = "," + inner
    if not is_dict and all(type(item) is float for item in value):
        text = separator.join(map(float.__repr__, value))
        # no finite float's repr has an n, so there is no NaN or Infinity to write
        if "n" not in text:
            out.append("[" + inner + text + newline + "]")
            return
    if id(value) in open_ids:
        raise ValueError("Circular reference detected")
    open_ids.add(id(value))
    out.append("{" if is_dict else "[")
    lead = inner
    for item in sorted(value.items()) if is_dict else value:
        out.append(lead)
        lead = separator
        if is_dict:
            key, item = item
            out.append(_key_text(key) + ": ")
        if type(item) is float:
            out.append(_float_text(item))
        else:
            _write(item, inner, out, open_ids)
    open_ids.discard(id(value))
    out.append(newline + ("}" if is_dict else "]"))


def reports_from_json(text):
    payload = json.loads(text)
    return [CheckReport.from_dict(raw) for raw in payload["reports"]]


# public alias for the expression evaluator (part of the file-format surface)
expression_eval = ex.evaluate_text
