"""Differential harness: the check outcomes of generated scenario documents.

Draws N derandomized documents, each with a sample count and a seed, from
the strategy ``test_contract.scenarios``; builds each one and runs the
geometry check and hj1 and hj2 at every level, as ``check all`` would.
It writes one JSON line per document: the build error, or each check's
verdict and data or its error class and message. Two checkouts are
compared by running the script in each and comparing the outputs with
``cmp``:

    PYTHONPATH=src python tests/differential.py 300 > outcomes.jsonl

With ``--reference`` every check runs its per-sample loop instead of its
stacked entry point (``test_stacked.per_sample_only``). pytest does not
collect this file; ``test_stacked`` compares the two modes on the first 60
documents.
"""

import argparse
import contextlib
import json
import sys
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_contract import scenarios  # noqa: E402
from test_stacked import per_sample_only  # noqa: E402
from magnomech.cli import check_geometry, check_hj1, check_hj2  # noqa: E402
from magnomech.scenarios import build_system, parse_scenario  # noqa: E402


def draw(count):
    """The first ``count`` (document, samples, seed) of a derandomized run."""
    drawn = []

    @settings(max_examples=count, derandomize=True, database=None, deadline=None,
              phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(doc=scenarios(), samples=st.integers(1, 9), seed=st.integers(0, 3))
    def collect(doc, samples, seed):
        drawn.append((doc, samples, seed))

    collect()
    return drawn


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
    return {"checks": [outcome(run) for run in runs]}


def record(index, doc, samples, seed):
    """The JSON line of one drawn document."""
    return json.dumps({"index": index, "doc": doc, "samples": samples, "seed": seed,
                       **outcomes(doc, samples, seed)}, sort_keys=True, default=repr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("count", type=int, help="number of documents")
    parser.add_argument("--reference", action="store_true",
                        help="run the per-sample loops only")
    args = parser.parse_args(argv)
    with per_sample_only() if args.reference else contextlib.nullcontext():
        for index, drawn in enumerate(draw(args.count)):
            print(record(index, *drawn))


if __name__ == "__main__":
    main()
