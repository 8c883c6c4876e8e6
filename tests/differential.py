"""Differential harness: the check outcomes of generated scenario documents.

Draws N derandomized documents, each with a sample count and a seed, from
the strategy ``test_contract.scenarios``; builds each one and runs the
geometry check and hj1 and hj2 at every level, as ``check all`` would.
It writes one JSON line per document: the build error, or each check's
verdict and data or its error class and message, and the bits of every
compiled field of the document evaluated over a fixed stack of its box's
first BITS_POINTS Sobol points (with momenta drawn from the document's
seed). The checks' data show an evaluator bit only where a check reads
it, and most do not; the bits show every one, at more points than a
check's 1-9 samples. Two checkouts are compared by running the script in
each and comparing the outputs with ``cmp``:

    PYTHONPATH=src python tests/differential.py 300 > outcomes.jsonl

The documents are fixed data: ``draw(count)`` reads them from
tests/data/drawn_documents.json, which holds the draws of 60 and of 300
documents (53 of the first 60 of the 300 differ from the 60). Hypothesis
also draws literal numbers and strings that it finds in the package's
source, so a fresh draw moves with any new or deleted literal in
src/magnomech; the recorded documents do not. To draw them again from the
current source and rewrite the file:

    PYTHONPATH=src python tests/differential.py --redraw

With ``--reference`` every check runs the per-sample loops of
tests/reference.py instead of the package's staged entries
(``reference.per_sample_only``). pytest does not collect this file;
``test_differential`` compares the two modes on the 60 recorded documents.
"""

import argparse
import contextlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_contract import scenarios  # noqa: E402
from reference import per_sample_only  # noqa: E402
from magnomech.cli import check_geometry, check_hj1, check_hj2  # noqa: E402
from magnomech.geometry import each, split  # noqa: E402
from magnomech.sampling import config_samples, phase_samples  # noqa: E402
from magnomech.scenarios import build_system, parse_scenario  # noqa: E402

BITS_POINTS = 64
DRAWN = Path(__file__).resolve().parent / "data" / "drawn_documents.json"
RECORDED = (60, 300)


@lru_cache(maxsize=4)
def draw(count):
    """The recorded (document, samples, seed) of a derandomized run of
    ``count`` documents, read once per count in a process (the suite reads
    60 in two tests)."""
    recorded = json.loads(DRAWN.read_text())
    if str(count) not in recorded:
        raise ValueError(f"{DRAWN.name} records the draws of {sorted(map(int, recorded))} "
                         f"documents, not of {count}")
    return tuple(tuple(drawn) for drawn in recorded[str(count)])


def fresh_draw(count):
    """The first ``count`` (document, samples, seed) of a derandomized
    Hypothesis run over the current source."""
    drawn = []

    @settings(max_examples=count, derandomize=True, database=None, deadline=None,
              phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(doc=scenarios(), samples=st.integers(1, 9), seed=st.integers(0, 3))
    def collect(doc, samples, seed):
        drawn.append((doc, samples, seed))

    collect()
    return tuple(drawn)


def error(err):
    return {"error": type(err).__name__, "message": str(err)}


def outcome(run):
    """A check's verdict and data, or the error it raised."""
    try:
        with np.errstate(all="ignore"):
            report = run()
    except Exception as err:  # a bare exception is a finding too
        return error(err)
    return {"check": report.check, "verdict": report.verdict, "data": report.data}


def compiled_fields(system):
    """{name: (callable, stack kind)} of every compiled scenario field and
    its compiled partials; the kind is "q" for a function of the
    configuration and "z" for one of the phase vector."""
    spec, ham, n = system.spec, system.ham, system.n
    fields = {}
    if spec.general_h is not None:
        fields["general_h"] = (split(ham._general_fn, n), "z")
        if ham._general_grad_fn is not None:
            fields["general_h'"] = (split(ham._general_grad_fn, n), "z")
    else:
        fields["potential"] = (ham._potential_fn, "q")
        fields["potential'"] = (ham._potential_grad_fn, "q")
        fields["mass_matrix"] = (ham._mass_fn, "q")
        fields["mass_matrix'"] = (ham._mass_grad_fn, "q")
    if spec.b_field is not None and system.mag.b_field._constant is None:
        fields["b_field"] = (system.mag.b_field._upper_fn, "q")
    if spec.constraints:
        fields["constraints"] = (system.dist._rows_fn, "q")
        fields["constraints'"] = (system.dist._rows_grad_fn, "q")
    if system.gamma is not None:
        fields["gamma"] = (system.gamma.eval_fn, "q")
        fields["gamma'"] = (system.gamma.jacobian_fn, "q")
    if system.epsilon is not None:
        fields["epsilon"] = (system.epsilon.eval_fn, "z")
        fields["epsilon'"] = (system.epsilon.jacobian_fn, "z")
    return {name: field for name, field in fields.items() if field[0] is not None}


def field_bits(system, seed):
    """The hex bits of each compiled field evaluated by geometry.each over
    BITS_POINTS configuration points or phase points of the document's box,
    or its error."""
    stacks = {"q": config_samples(system.sample_box, BITS_POINTS),
              "z": phase_samples(system.sample_box, BITS_POINTS,
                                 np.random.default_rng(seed)).vec}
    bits = {}
    for name, (fn, kind) in compiled_fields(system).items():
        try:
            with np.errstate(all="ignore"):
                bits[name] = each(fn, stacks[kind]).tobytes().hex()
        except Exception as err:
            bits[name] = error(err)
    return bits


def outcomes(doc, samples, seed):
    try:
        with np.errstate(all="ignore"):
            system = build_system(parse_scenario(json.dumps(doc)))
    except Exception as err:
        return {"build": error(err)}
    runs = [lambda: check_geometry(system, samples, seed)]
    if system.gamma is not None:
        runs += [lambda: check_hj1(system, samples, seed),
                 lambda: check_hj1(system, samples, seed, reduced=True)]
        if system.epsilon is not None:
            runs += [lambda: check_hj2(system, samples, seed),
                     lambda: check_hj2(system, samples, seed, reduced=True)]
    return {"checks": [outcome(run) for run in runs],
            "bits": field_bits(system, seed)}


def record(index, doc, samples, seed):
    """The JSON line of one drawn document."""
    return json.dumps({"index": index, "doc": doc, "samples": samples, "seed": seed,
                       **outcomes(doc, samples, seed)}, sort_keys=True, default=repr)


def redraw():
    """Rewrite DRAWN with fresh draws of the RECORDED counts, one document
    a line."""
    blocks = [f'"{count}": [\n' + ",\n".join(json.dumps(list(drawn))
                                            for drawn in fresh_draw(count)) + "\n]"
              for count in RECORDED]
    DRAWN.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("count", type=int, nargs="?", help="number of documents")
    parser.add_argument("--reference", action="store_true",
                        help="run the per-sample loops only")
    parser.add_argument("--redraw", action="store_true",
                        help=f"draw {' and '.join(map(str, RECORDED))} documents again "
                             f"and rewrite {DRAWN.name}")
    args = parser.parse_args(argv)
    if args.redraw:
        redraw()
        return
    if args.count is None:
        parser.error("count is required")
    with per_sample_only() if args.reference else contextlib.nullcontext():
        for index, drawn in enumerate(draw(args.count)):
            print(record(index, *drawn))


if __name__ == "__main__":
    main()
