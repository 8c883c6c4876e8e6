"""Span tracing of magnomech's public functions, installed from outside.

`Tracer.install` replaces each traced function at every `magnomech` module
binding that holds it (or, for a method, on its class) with a wrapper that
records one span per call: name, start, end and the enclosing span. Spans
stay in memory. `Tracer.uninstall` puts the original objects back, so no
file of the package is edited and untraced code runs the originals.

Expression evaluation happens in lambdas that `expressions.compile_node`
returns, which no module binding holds; the wrapped `compile_node` hands
out traced lambdas instead, so a system built while the tracer is
installed attributes its expression calls to the `expressions` layer.
"""

import sys
import time
from collections import Counter

PACKAGE = "magnomech"

# (defining module, attribute) of every traced function. A dotted attribute
# names a method on a class; `PhasePoint.__init__` times point construction.
TARGETS = (
    ("scenarios", "reports_to_json"),
    ("expressions", "compile_node"),
    ("geometry", "PhasePoint.__init__"),
    ("geometry", "TwoFormField.matrix"),
    ("geometry", "exterior_derivative"),
    ("geometry", "two_form_closedness_residual"),
    ("geometry", "magnetic_match_residual"),
    ("dynamics", "HamiltonianSpec.value"),
    ("dynamics", "HamiltonianSpec.gradient"),
    ("dynamics", "HamiltonianSpec.mass_inverse"),
    ("dynamics", "HamiltonianSpec.velocity"),
    ("dynamics", "MagneticStructure.form_matrix"),
    ("dynamics", "magnetic_vector_field"),
    ("dynamics", "coordinate_formula_field"),
    ("dynamics", "symplectic_residual"),
    ("nonholonomic", "ConstraintDistribution.matrix"),
    ("nonholonomic", "constraint_residual"),
    ("nonholonomic", "constraint_jacobian"),
    ("nonholonomic", "constrained_field_multiplier"),
    ("nonholonomic", "project_to_constraint"),
    ("nonholonomic", "admissible_basis"),
    ("nonholonomic", "compatibility_report"),
    ("nonholonomic", "constrained_field_restricted"),
    ("linalg", "null_space"),
    ("integrate", "integrate"),
    ("integrate", "Trajectory.write_csv"),
    ("sampling", "sobol_points"),
    ("sampling", "surface_phase_samples"),
    ("sampling", "newton_preimage"),
    ("hj", "type1_magnetic"),
    ("hj", "type1_constrained"),
    ("hj", "type2_magnetic"),
    ("hj", "type2_constrained"),
    ("reduction", "type1_reduced"),
    ("reduction", "type2_reduced"),
    ("reduction", "relatedness_check"),
    ("reduction", "reduced_field"),
    ("cli", "check_geometry"),
    ("cli", "check_hj1"),
    ("cli", "check_hj2"),
)
COMPILED = "expressions.compiled"
MODULES = ("cli", "scenarios", "expressions", "geometry", "dynamics",
           "nonholonomic", "linalg", "integrate", "sampling", "hj",
           "reduction")


def span_name(module, attr):
    return f"{module}.{attr.removesuffix('.__init__')}"


SPAN_NAMES = tuple(span_name(m, a) for m, a in TARGETS
                   if (m, a) != ("expressions", "compile_node")) + (COMPILED,)


class Tracer:
    """Records spans of the wrapped functions while `active` is true."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []      # (name id, start, end, parent index)
        self.active = False
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name):
        name_id = self._ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name_id, start, clock(), parent)
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module_name, attr in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, self._wrap(original, name))
                continue
            original = getattr(module, attr)
            if attr == "compile_node":
                wrapper = self._compile_wrapper(original)
            else:
                wrapper = self._wrap(original, name)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def _compile_wrapper(self, compile_node):
        def traced_compile(node):
            return self._wrap(compile_node(node), COMPILED)

        return traced_compile

    def uninstall(self):
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def reset(self):
        self.spans.clear()

    def summary(self):
        """Calls per span name, self seconds per module, root-span seconds.

        A span's self time is its duration minus the durations of the spans
        it directly encloses.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = dict.fromkeys(MODULES, 0.0)
        covered = 0.0
        for index, (name_id, start, end, parent) in enumerate(spans):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name.split(".")[0]] += end - start - child[index]
            if parent < 0:
                covered += end - start
        return calls, self_s, covered
