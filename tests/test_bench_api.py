"""The library surface the benchmark calls.

`bench/` is the benchmark definition and does not change with the library,
so every function its tracer wraps must still resolve, and every per-layer
call list must still build and run against the current signatures. These
tests read `bench/` and change nothing in it.
"""

import importlib
import sys
from pathlib import Path

import pytest

from magnomech.scenarios import build_system, load_scenario

BENCH = Path(__file__).resolve().parents[1] / "bench"
SUBJECTS = ("nh-magnetic-particle", "magnetic-trap")


@pytest.fixture(scope="module")
def bench():
    """The bench modules `tracing`, `workloads` and `layers`, imported from
    `bench/` as `bench/run.py` imports them."""
    sys.path.insert(0, str(BENCH))
    try:
        yield tuple(importlib.import_module(name)
                    for name in ("tracing", "workloads", "layers"))
    finally:
        sys.path.remove(str(BENCH))


def test_every_traced_target_resolves(bench):
    tracing = bench[0]
    for module_name, attr in tracing.TARGETS:
        module = importlib.import_module(f"magnomech.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            target = vars(getattr(module, cls_name))[method]
        else:
            target = getattr(module, attr)
        assert callable(target), f"{module_name}.{attr}"


def _subject(layers, workloads, path, tmp_path):
    system = build_system(load_scenario(path))
    states = workloads.phase_states(system, 2, 0)
    return layers.Subject(system, path, states, "distributional", 0, 5,
                          tmp_path / f"{path.stem}.csv")


def test_every_layer_call_list_builds_and_runs(bench, scenario_dir, tmp_path):
    """Each layer is built as `layers.measure` builds it: on the two
    workload systems that have its data, else on the corpus; every call
    then runs once."""
    _, workloads, layers = bench
    own = [_subject(layers, workloads, scenario_dir / f"{name}.json", tmp_path)
           for name in SUBJECTS]
    corpus = None
    for name, needs, make_calls in layers.LAYERS:
        subjects = [sub for sub in own if needs(sub.system)]
        if not subjects:
            if corpus is None:
                corpus = [_subject(layers, workloads, path, tmp_path)
                          for path in sorted(scenario_dir.glob("*.json"))]
            subjects = [sub for sub in corpus if needs(sub.system)]
        assert subjects, name
        calls = [call for sub in subjects for call in make_calls(sub)]
        assert calls, name
        for fn, args, kwargs in calls:
            fn(*args, **kwargs)

