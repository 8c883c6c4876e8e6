"""Self-test of the benchmark: smoke run, output checks, tracer undo.

    python3 -m pytest bench/tests -q
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import magnomech as mm  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ALIASES = {"check-corpus": ("checks_per_s", "check_pass_s"),
           "simulate-constrained": ("steps_per_s", "simulate_s"),
           "simulate-free": ("steps_per_s", "simulate_s")}


def test_smoke_run_prints_every_metric_with_unit():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all",
         "--seconds", "1", "--steps", "20", "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    combined = json.loads(done.stdout.strip().splitlines()[-1])
    assert combined["correct"] and combined["failed"] == 0
    lines = done.stdout.splitlines()
    assert [w["name"] for w in SPEC["workloads"]] == list(ALIASES)
    for workload in ALIASES:
        for kind, trace in (("end_to_end", "end-to-end"), ("per_layer", "traced")):
            start = next(i for i, line in enumerate(lines)
                         if line.startswith(f"{workload} ({trace},"))
            table = lines[start + 1:next(i for i in range(start, len(lines))
                                         if lines[i].startswith("environment"))]
            printed = {line.split()[0]: line.split()[-1] for line in table
                       if not line.strip().startswith("failure")}
            for metric in SPEC[kind]:
                assert printed.get(metric["name"]) == metric["unit"], metric["name"]
                value = combined["metrics"][f"{workload}.{metric['name']}"]
                assert value["unit"] == metric["unit"]
            if kind == "end_to_end":
                for alias in ALIASES[workload]:
                    assert alias in printed
            error_line = next(line for line in table
                              if line.split()[0] == "error_rate")
            assert error_line.split()[1] == "0"


def test_report_check_fires_on_a_wrong_reference():
    golden = json.loads((ROOT / workloads.GOLDEN).read_text())
    text = json.dumps(golden)
    assert workloads.check_report_text(text, golden) == []
    wrong = copy.deepcopy(golden)
    wrong["reports"][0]["data"]["b_closedness_residual"] = 1.0
    assert workloads.check_report_text(text, wrong) == [
        "seed-0 report differs from the golden report"]
    wrong_summary = copy.deepcopy(golden)
    wrong_summary["summary"]["PASS"] -= 1
    assert workloads.check_report_text(json.dumps(wrong_summary))


def _trajectory_csv(tmp_path, steps=20):
    wl = workloads.make("simulate-free", ROOT, seed=1, steps=steps)
    system = wl.build()[0]
    path = tmp_path / "traj.csv"
    trajectory, _, _ = wl.run(system, steps, path)
    return path, system.n, trajectory


def test_trajectory_check_passes_a_real_run(tmp_path):
    path, n, trajectory = _trajectory_csv(tmp_path)
    assert workloads.check_trajectory_csv(path, n, 20, trajectory.aborted) == []


@pytest.mark.parametrize("defect", ["missing_row", "header", "energy",
                                    "constraint", "aborted"])
def test_trajectory_check_fires_on_a_wrong_output(tmp_path, defect):
    path, n, _ = _trajectory_csv(tmp_path)
    lines = path.read_text().splitlines()
    fields = lines[5].split(",")
    if defect == "missing_row":
        del lines[-1]
    elif defect == "header":
        lines[0] = lines[0].replace("constraint_res", "residual")
    elif defect == "energy":
        fields[2 * n + 1] = repr(float(fields[2 * n + 1]) + 1e-5)
    elif defect == "constraint":
        fields[2 * n + 2] = "1e-6"
    if defect in ("energy", "constraint"):
        lines[5] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    problems = workloads.check_trajectory_csv(path, n, 20, defect == "aborted")
    assert len(problems) == 1, problems


def test_tracer_records_spans_and_restores_every_binding():
    from magnomech import cli, nonholonomic

    before = (cli.project_to_constraint, mm.project_to_constraint,
              nonholonomic.ConstraintDistribution.__dict__["matrix"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        system = mm.build_system(mm.load_scenario(ROOT / "scenarios" /
                                                  "nh-magnetic-particle.json"))
        assert cli.project_to_constraint is not before[0]
        tracer.active = True
        cli.project_to_constraint(system.dist, system.ham, system.initial_state)
    finally:
        tracer.active = False
        tracer.uninstall()
    after = (cli.project_to_constraint, mm.project_to_constraint,
             nonholonomic.ConstraintDistribution.__dict__["matrix"])
    assert all(a is b for a, b in zip(before, after))
    calls, self_s, covered = tracer.summary()
    assert calls["nonholonomic.project_to_constraint"] == 1
    assert calls["nonholonomic.ConstraintDistribution.matrix"] >= 1
    assert calls["expressions.compiled"] >= 1
    assert 0 < self_s["nonholonomic"] <= covered
