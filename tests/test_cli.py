import json
import os
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from fingerprints import check_all_fingerprint, differing, fingerprints
from reference import per_sample_only
from magnomech import PhasePoint, build_system, load_scenario
from magnomech.cli import main
from magnomech.tolerances import DEFAULTS, Tolerances

GOLDEN = Path(__file__).resolve().parent / "data" / "golden" / "check_all.json"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def normalize(payload):
    """Strip volatile fields from a report payload."""
    for report in payload["reports"]:
        report["wall_time_s"] = 0.0
    return payload


def compare_values(left, right, path=""):
    """Structural equality with a tolerance on floats."""
    assert type(left) is type(right), f"type mismatch at {path}"
    if isinstance(left, dict):
        assert left.keys() == right.keys(), f"keys differ at {path}"
        for key in left:
            compare_values(left[key], right[key], f"{path}.{key}")
    elif isinstance(left, list):
        assert len(left) == len(right), f"length differs at {path}"
        for i, (a, b) in enumerate(zip(left, right)):
            compare_values(a, b, f"{path}[{i}]")
    elif isinstance(left, float):
        assert left == pytest.approx(right, rel=1e-9, abs=1e-12), path
    else:
        assert left == right, path


def check_all_payloads(scenario_dir, tmp_path, *flags):
    """The normalized `check all` report of each orchestration: the
    package's stacked run, and the per-sample reference of
    tests/reference.py. Both must reproduce the goldens, which predate the
    stacked run."""
    payloads = []
    for path in (nullcontext, per_sample_only):
        out = tmp_path / "report.json"
        with path():
            code = main(["check", "all", str(scenario_dir), "--report", str(out),
                         *flags])
        assert code == 0
        payloads.append(normalize(json.loads(out.read_text())))
    return payloads


def same_bytes(produced, golden):
    assert json.dumps(produced, sort_keys=True) == json.dumps(golden, sort_keys=True)


def test_check_all_exits_zero_and_matches_golden(scenario_dir, tmp_path):
    golden = normalize(json.loads(GOLDEN.read_text()))
    produced, reference = check_all_payloads(scenario_dir, tmp_path, "--seed", "0")
    compare_values(produced, golden)
    same_bytes(reference, golden)


@pytest.mark.parametrize("seed", [1, 7])
def test_check_all_matches_golden_at_other_seeds(scenario_dir, tmp_path, seed):
    """The seed-1 and seed-7 reports equal their golden files exactly,
    modulo wall time, as acceptance criterion 10 compares the seed-0 one."""
    golden = normalize(json.loads(
        (GOLDEN.parent / f"check_all_seed{seed}.json").read_text()))
    for produced in check_all_payloads(scenario_dir, tmp_path, "--seed", str(seed)):
        same_bytes(produced, golden)


def test_check_all_matches_golden_at_seven_samples(scenario_dir, tmp_path):
    """Below ten samples the geometry check's short draws are the whole
    draw; the seed-3, 7-sample report equals its golden file exactly."""
    golden = normalize(json.loads(
        (GOLDEN.parent / "check_all_samples7.json").read_text()))
    for produced in check_all_payloads(scenario_dir, tmp_path, "--seed", "3",
                                       "--samples", "7"):
        same_bytes(produced, golden)


def test_check_all_is_deterministic(scenario_dir, tmp_path):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    assert main(["check", "all", str(scenario_dir), "--report", str(first)]) == 0
    assert main(["check", "all", str(scenario_dir), "--report", str(second)]) == 0
    a = normalize(json.loads(first.read_text()))
    b = normalize(json.loads(second.read_text()))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_check_hj1_vacuous_is_not_failure(scenario_dir, capsys):
    code = main(["check", "hj1", str(scenario_dir / "broken-gamma.json")])
    assert code == 0
    captured = capsys.readouterr()
    assert "VACUOUS" in captured.out


def test_vacuous_report_names_the_failed_hypothesis(scenario_dir, tmp_path):
    out = tmp_path / "r.json"
    main(["check", "hj1", str(scenario_dir / "broken-gamma.json"),
          "--report", str(out)])
    payload = json.loads(out.read_text())
    report = payload["reports"][0]
    assert report["verdict"] == "VACUOUS"
    assert any("hypothesis" in d for d in report["data"]["defects"])


def test_help_exits_0_in_process_and_as_a_module(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: magnomech")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-m", "magnomech", "check", "--help"],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.startswith("usage: magnomech check")
    assert result.stderr == ""


def test_missing_file_is_input_error(capsys):
    code = main(["check", "hj1", "no-such-file.json"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "missing_file"


def test_directory_as_scenario_is_input_error(scenario_dir, capsys):
    code = main(["check", "hj1", str(scenario_dir)])
    assert code == 2
    assert _single_json_error(capsys.readouterr())["code"] == "file_error"


def test_unreadable_scenario_path_is_input_error(scenario_dir, capsys):
    # a path through a regular file cannot be opened, whoever runs the test
    path = scenario_dir / "magnetic-hj.json" / "inner.json"
    code = main(["check", "hj1", str(path)])
    assert code == 2
    assert _single_json_error(capsys.readouterr())["code"] == "file_error"


def test_non_utf8_scenario_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    code = main(["check", "hj1", str(bad)])
    assert code == 2
    assert _single_json_error(capsys.readouterr())["code"] == "parse"


def test_invalid_scenario_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad", "n": 2, "b_field": [[0, 1], [-2, 0]]}))
    code = main(["check", "geometry", str(bad)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "antisymmetry"


def test_reduced_flag_requires_symmetry(scenario_dir, capsys):
    code = main(["check", "hj1", str(scenario_dir / "magnetic-hj.json"),
                 "--reduced"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "missing_field"


def test_bad_usage_exits_two(capsys):
    assert main(["check", "bogus-kind", "x.json"]) == 2


def test_simulate_writes_csv_contract(scenario_dir, tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["simulate", str(scenario_dir / "nh-free-particle.json"),
                 "--field", "distributional", "--t-end", "1.0",
                 "--dt", "0.01", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,q1,q2,q3,p1,p2,p3,H,constraint_res,drift"
    assert len(lines) == 102
    rows = np.genfromtxt(out, delimiter=",", names=True)
    assert np.max(rows["constraint_res"]) < 1e-8


def test_simulate_no_project_shows_drift(scenario_dir, tmp_path):
    kept = tmp_path / "kept.csv"
    free = tmp_path / "free.csv"
    base = ["simulate", str(scenario_dir / "nh-free-particle.json"),
            "--field", "distributional", "--t-end", "5.0", "--dt", "0.05"]
    assert main(base + ["--out", str(kept)]) == 0
    assert main(base + ["--out", str(free), "--no-project"]) == 0
    kept_rows = np.genfromtxt(kept, delimiter=",", names=True)
    free_rows = np.genfromtxt(free, delimiter=",", names=True)
    assert np.max(free_rows["constraint_res"]) > np.max(kept_rows["constraint_res"])


def test_simulate_momentum_magnitude_conserved(scenario_dir, tmp_path):
    out = tmp_path / "orbit.csv"
    code = main(["simulate", str(scenario_dir / "charged-particle.json"),
                 "--field", "magnetic", "--t-end", "62.83", "--dt", "0.001",
                 "--out", str(out)])
    assert code == 0
    rows = np.genfromtxt(out, delimiter=",", names=True)
    speed = np.hypot(rows["p1"], rows["p2"])
    assert abs(speed[-1] - speed[0]) < 1e-6


def test_construct_b_cli_round_trip(scenario_dir, tmp_path):
    out = tmp_path / "induced.json"
    assert main(["construct-b", str(scenario_dir / "broken-gamma.json"),
                 "--out", str(out)]) == 0
    assert main(["check", "hj1", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["name"] == "broken-gamma-induced"


def test_construct_b_without_gamma_is_input_error(scenario_dir, capsys):
    code = main(["construct-b", str(scenario_dir / "charged-particle.json"),
                 "--out", "/tmp/unused.json"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["code"] == "missing_field"


@pytest.mark.parametrize("source", [
    # a constant numeric mass: the potential is matched through G^-1
    {"mass_matrix": [[2, 0.5], [0.5, 1]], "gamma": ["0.3*q2", "-0.2*q1"]},
    # a section that reads its declared cyclic coordinate: the matched
    # potential -0.5 q2^2 breaks the invariance, so the symmetry is dropped
    {"gamma": ["q2", "0"], "symmetry": [2]},
    # a section with a variable exponent, whose exact partials hold log(2)
    {"gamma": ["0.35*q2", "-0.35*q1 + 2^q1"]},
], ids=["numeric-mass", "cyclic-section", "variable-exponent"])
def test_construct_b_writes_a_scenario_that_passes_hj1(tmp_path, capsys, source):
    """H is zero along the section of the written scenario, which builds
    without the symmetry that its potential breaks, and hj1 PASSes."""
    path = _write_scenario(tmp_path / "source.json", {"name": "source", "n": 2, **source})
    out = tmp_path / "induced.json"
    assert main(["construct-b", path, "--out", str(out)]) == 0
    system = build_system(load_scenario(out))
    assert "symmetry" not in json.loads(out.read_text())
    for q in ([0.3, -0.7], [-0.9, 0.4]):
        section_point = PhasePoint(q, system.gamma.value(np.array(q)))
        assert system.ham.value(section_point) == pytest.approx(0.0, abs=1e-15)
    capsys.readouterr()
    assert main(["check", "hj1", str(out)]) == 0
    assert "hj1-magnetic     PASS" in capsys.readouterr().out


def test_tolerance_scale_env_widens_thresholds(scenario_dir, monkeypatch,
                                               capsys):
    monkeypatch.setenv("MAGNOMECH_TOL_SCALE", "1e9")
    code = main(["check", "hj1", str(scenario_dir / "broken-gamma.json")])
    assert code == 0
    # with thresholds scaled far up the hypothesis no longer fails
    assert "VACUOUS" not in capsys.readouterr().out


@pytest.mark.parametrize("raw", ["abc", "0", "-1", "nan", "inf"])
def test_malformed_tolerance_scale_is_input_error(scenario_dir, monkeypatch,
                                                  capsys, raw):
    monkeypatch.setenv("MAGNOMECH_TOL_SCALE", raw)
    code = main(["check", "hj1", str(scenario_dir / "broken-gamma.json")])
    assert code == 2
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["code"] == "tol_scale"
    assert err["field"] == "MAGNOMECH_TOL_SCALE"
    assert captured.out == ""


def _write_scenario(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_simulate_prints_abort_reason_outside_the_csv(tmp_path, capsys):
    # G_22 = 1 - q1 stops being positive definite once q1 passes 1
    scenario = _write_scenario(tmp_path / "softening.json", {
        "name": "softening-mass", "n": 2,
        "mass_matrix": [["1", "0"], ["0", "1 - q1"]],
        "sample_box": [[-1.0, 0.5], [-1.0, 1.0]],
        "initial_state": {"q": [0.0, 0.0], "p": [1.0, 0.0]}})
    out = tmp_path / "traj.csv"
    code = main(["simulate", scenario, "--t-end", "3", "--dt", "0.03",
                 "--out", str(out)])
    assert code == 1
    line = capsys.readouterr().out.strip()
    assert line.startswith("wrote 34 states")
    assert line.endswith("ABORTED at step 34 (t=1.02): NumericalDomainError: "
                         "mass matrix is not positive definite")
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,q1,q2,p1,p2,H,constraint_res,drift"
    assert len(lines) == 35


def _gyration_scenario(path, b, **extra):
    """The charged particle at unit speed in a constant field of strength b."""
    return _write_scenario(path, dict({
        "name": "gyration", "n": 2, "b_field": [[0, b], [-b, 0]],
        "initial_state": {"q": [0.0, 0.0], "p": [1.0, 0.0]}}, **extra))


@pytest.mark.parametrize("b", [50, 60, 80])
def test_simulate_stops_at_the_first_row_past_the_energy_tolerance(tmp_path, capsys, b):
    # b dt = 2.5, 3 and 4 at dt 0.05: RK4 damps the gyration at 2.5 and
    # grows it past 2.83, while the exact flow keeps H = 0.5
    out = tmp_path / "t.csv"
    code = main(["simulate", _gyration_scenario(tmp_path / "g.json", b), "--t-end", "10",
                 "--dt", "0.05", "--out", str(out)])
    assert code == 1
    assert ("ABORTED at step 1 (t=0.05): NumericalDomainError: energy drift "
            in capsys.readouterr().out)
    assert len(out.read_text().splitlines()) == 2


def test_the_energy_tolerance_follows_overrides_and_the_scale(tmp_path, monkeypatch):
    # at b = 50 H falls from 0.5 towards 0, a drift of at most 0.5 / 1.5 of
    # 1 + |H0|: a tolerance of 1 lets the run finish
    flags = ["--t-end", "10", "--dt", "0.05", "--out", str(tmp_path / "t.csv")]
    default = _gyration_scenario(tmp_path / "default.json", 50)
    assert main(["simulate", default, *flags]) == 1
    wide = _gyration_scenario(tmp_path / "wide.json", 50, tolerances={"energy": 1.0})
    assert main(["simulate", wide, *flags]) == 0
    monkeypatch.setenv("MAGNOMECH_TOL_SCALE", "1000")
    assert main(["simulate", default, *flags]) == 0


def test_simulate_outputs_match_the_recorded_fingerprints(tmp_path):
    changed = differing(fingerprints(tmp_path))
    assert not changed, changed


def test_check_all_matches_the_recorded_fingerprint(tmp_path):
    """check all at seed 5 (the golden is seed 0): the report, wall times
    aside, and the stdout."""
    changed = differing(check_all_fingerprint(tmp_path))
    assert not changed, changed


def test_simulate_rank_loss_is_input_error(tmp_path, capsys):
    # the single row (0, 1 - q1) vanishes at the stage point q1 = 1
    scenario = _write_scenario(tmp_path / "vanishing.json", {
        "name": "vanishing-row", "n": 2, "constraints": [["0", "1 - q1"]],
        "initial_state": {"q": [0.0, 0.0], "p": [1.0, 0.0]}})
    code = main(["simulate", scenario, "--field", "distributional",
                 "--t-end", "2", "--dt", "0.25", "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["code"] == "DegenerateConstraintError"


def test_simulate_reads_the_scenario_constraint_tolerance(scenario_dir, tmp_path, capsys):
    # nh-magnetic-particle from this initial state projects to a start
    # 5.551e-17 off the surface: on it at the default constraint tolerance,
    # off it at an override of 1e-30, where simulate stops as check hj2 does
    doc = json.loads((scenario_dir / "nh-magnetic-particle.json").read_text())
    doc["initial_state"] = {"q": [0.3, 0.2, 0.0], "p": [0.5, 0.9, 0.1]}
    out = tmp_path / "t.csv"
    simulate = ["--field", "distributional", "--t-end", "0.01", "--dt", "1e-3",
                "--out", str(out)]
    assert main(["simulate", _write_scenario(tmp_path / "default.json", doc),
                 *simulate]) == 0
    assert len(out.read_text().splitlines()) == 12
    out.unlink()
    doc["tolerances"] = {"constraint": 1e-30}
    scenario = _write_scenario(tmp_path / "tight.json", doc)
    capsys.readouterr()
    errors = []
    for argv in (["check", "hj2", scenario], ["simulate", scenario, *simulate]):
        assert main(argv) == 2
        errors.append(json.loads(capsys.readouterr().err))
    assert errors[0] == errors[1] == {
        "code": "OffConstraintError",
        "message": "constraint residual 5.551e-17 exceeds 1.0e-30"}
    assert not out.exists()


def test_an_overflowing_projection_gram_matrix_is_one_input_error(tmp_path, capsys):
    # with the single row (2, -1e300) A G^{-1} A^T overflows, and a solve
    # with it gives no shift, which would leave p off the surface
    scenario = _write_scenario(tmp_path / "huge-row.json", {
        "name": "huge-row", "n": 2, "constraints": [[2, -1e300]],
        "initial_state": {"q": [0.0, 0.0], "p": [1.0, 0.0]}})
    out = tmp_path / "t.csv"
    errors = []
    for argv in (["check", "geometry", scenario],
                 ["simulate", scenario, "--field", "distributional", "--t-end", "1",
                  "--dt", "0.1", "--out", str(out)]):
        assert main(argv) == 2
        errors.append(json.loads(capsys.readouterr().err))
    assert errors[0] == errors[1] == {
        "code": "DegenerateConstraintError",
        "message": "projection Gram matrix is non-finite"}
    assert not out.exists()


def test_simulate_singular_mass_aborts_without_traceback(tmp_path, capsys):
    # G_22 = 1 - q1 is exactly singular at q1 = 1, a stage point at dt = 0.25
    scenario = _write_scenario(tmp_path / "singular.json", {
        "name": "singular-mass", "n": 2,
        "mass_matrix": [["1", "0"], ["0", "1 - q1"]],
        "initial_state": {"q": [0.0, 0.0], "p": [1.0, 0.0]}})
    code = main(["simulate", scenario, "--t-end", "2", "--dt", "0.25",
                 "--out", str(tmp_path / "t.csv")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.strip().endswith(
        "ABORTED at step 4 (t=1): NumericalDomainError: mass matrix is singular")


def test_check_singular_mass_is_input_error(tmp_path, capsys):
    # the sixth Sobol sample of the box lands on q1 = -0.75 + 0.875 * 2 = 1,
    # past the load-time probes, where G_22 = 1 - q1 is exactly singular
    scenario = _write_scenario(tmp_path / "singular.json", {
        "name": "singular-mass", "n": 2,
        "mass_matrix": [["1", "0"], ["0", "1 - q1"]],
        "gamma": ["1", "0"],
        "sample_box": [[-0.75, 1.25], [-1.0, 1.0]]})
    assert main(["check", "hj1", scenario]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"code": "NumericalDomainError",
                   "message": "mass matrix is singular"}


def _open_form_scenario(tmp_path, **extra):
    # B_12 = q3 is not closed: dB = dq3 ^ dq1 ^ dq2, closedness residual 1
    doc = {"name": "open-form", "n": 3,
           "b_field": [[0, "q3", 0], ["-q3", 0, 0], [0, 0, 0]]}
    doc.update(extra)
    return _write_scenario(tmp_path / "open.json", doc)


def test_closedness_tolerance_override_flips_geometry_verdict(tmp_path, capsys):
    assert main(["check", "geometry", _open_form_scenario(tmp_path)]) == 1
    assert "FAIL" in capsys.readouterr().out
    widened = _open_form_scenario(tmp_path, tolerances={"closedness": 2.0})
    assert main(["check", "geometry", widened]) == 0
    assert " PASS " in capsys.readouterr().out


def test_closedness_tolerance_follows_scale_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MAGNOMECH_TOL_SCALE", "2e6")
    assert main(["check", "geometry", _open_form_scenario(tmp_path)]) == 0
    assert " PASS " in capsys.readouterr().out


def test_check_all_reads_every_declared_tolerance(scenario_dir, monkeypatch,
                                                  tmp_path):
    """check all reads every tolerance but the trajectory's energy
    tolerance, which simulate reads."""
    read = set()
    original = Tolerances.get

    def recording(self, name):
        read.add(name)
        return original(self, name)

    monkeypatch.setattr(Tolerances, "get", recording)
    assert main(["check", "all", str(scenario_dir), "--samples", "4",
                 "--report", str(tmp_path / "r.json")]) == 0
    assert read == set(DEFAULTS) - {"energy"}
    read.clear()
    assert main(["simulate", str(scenario_dir / "charged-particle.json"), "--t-end", "0.1",
                 "--dt", "0.01", "--out", str(tmp_path / "t.csv")]) == 0
    assert read == {"energy"}


def _single_json_error(captured):
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    return json.loads(captured.err)


CHECK = ["check", "hj1", "magnetic-hj.json"]
SIMULATE = ["simulate", "charged-particle.json", "--out", "t.csv"]


@pytest.mark.parametrize("command,flag,value,other", [
    (CHECK, "--samples", "0", []),
    (CHECK, "--samples", "-3", []),
    (CHECK, "--seed", "-1", []),
    (SIMULATE, "--dt", "0", ["--t-end", "1"]),
    (SIMULATE, "--dt", "-0.1", ["--t-end", "1"]),
    (SIMULATE, "--t-end", "nan", ["--dt", "0.1"]),
    (SIMULATE, "--t-end", "inf", ["--dt", "0.1"]),
])
def test_out_of_range_flag_is_input_error(scenario_dir, tmp_path, capsys,
                                          command, flag, value, other):
    argv = [str(scenario_dir / a) if a.endswith(".json")
            else str(tmp_path / a) if a.endswith(".csv") else a
            for a in command] + [flag, value] + other
    assert main(argv) == 2
    err = _single_json_error(capsys.readouterr())
    assert err["code"] == "usage"
    assert f"argument {flag}: {value!r}" in err["message"]
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("t_end,dt", [("1e300", "1e-300"), ("1e308", "1e-10")])
def test_a_step_count_that_is_not_finite_is_input_error(scenario_dir, tmp_path, capsys,
                                                        t_end, dt):
    """t_end / dt overflows to inf: the run is refused before any step, and
    no step is blamed for it."""
    out = tmp_path / "t.csv"
    assert main(["simulate", str(scenario_dir / "magnetic-trap.json"), "--t-end", t_end,
                 "--dt", dt, "--out", str(out)]) == 2
    err = _single_json_error(capsys.readouterr())
    assert err["code"] == "usage"
    assert err["message"].endswith("is not a finite number of steps")
    assert not out.exists()


@pytest.mark.parametrize("potential,message", [
    ("q1 $ 2", "unexpected character '$' (at position 3)"),
    ("sin(q1", "expected ')' (at position 6)"),
    ("q1 q2", "unexpected token 'q2' (at position 3)"),
])
def test_a_malformed_expression_is_one_positioned_error(tmp_path, capsys, potential,
                                                        message):
    scenario = _write_scenario(tmp_path / "syntax.json", {
        "name": "syntax", "n": 1, "potential": potential})
    assert main(["check", "geometry", scenario]) == 2
    err = _single_json_error(capsys.readouterr())
    assert (err["code"], err["field"]) == ("expression", "potential")
    assert err["message"].endswith(f"potential: {message}")


@pytest.mark.parametrize("argv,code,field,message", [
    (["check", "hj1", "magnetic-trap.json"], "missing_field", "gamma", "needs gamma"),
    (["check", "hj2", "magnetic-trap.json"], "missing_field", "gamma",
     "needs gamma and epsilon"),
    (["check", "hj2", "no-epsilon.json"], "missing_field", "epsilon",
     "needs gamma and epsilon"),
    (["check", "all", "magnetic-trap.json"], "parse", None, "is not a directory"),
    (["check", "all", "empty"], "parse", None, "no scenario files"),
    (["simulate", "no-state.json", "--t-end", "1", "--dt", "0.1", "--out", "t.csv"],
     "initial_state", None, "no initial_state"),
], ids=["hj1-without-gamma", "hj2-without-gamma", "hj2-without-epsilon", "all-on-a-file",
        "all-on-no-files", "simulate-without-initial-state"])
def test_a_run_the_scenario_cannot_serve_is_one_input_error(
        scenario_dir, tmp_path, capsys, argv, code, field, message):
    """check hj1 needs gamma, check hj2 gamma and then epsilon, check all a
    directory with scenario files, and simulate an initial state; the error
    names the first missing field, and a refused simulate writes no CSV."""
    (tmp_path / "empty").mkdir()
    _write_scenario(tmp_path / "no-state.json", {"name": "no-state", "n": 1,
                                                 "potential": "q1^2"})
    _write_scenario(tmp_path / "no-epsilon.json", {"name": "no-epsilon", "n": 1,
                                                   "gamma": ["q1"]})
    written = ("empty", "no-state.json", "no-epsilon.json", "t.csv")
    argv = [str(scenario_dir / a) if a == "magnetic-trap.json"
            else str(tmp_path / a) if a in written else a
            for a in argv]
    assert main(argv) == 2
    err = _single_json_error(capsys.readouterr())
    assert (err["code"], err.get("field")) == (code, field)
    assert message in err["message"]
    assert not (tmp_path / "t.csv").exists()


def test_usage_error_is_one_json_object(capsys):
    assert main(["check", "hj1"]) == 2
    err = _single_json_error(capsys.readouterr())
    assert err["code"] == "usage"
    assert "target" in err["message"]


def test_constant_without_finite_value_is_expression_error(tmp_path, capsys):
    scenario = _write_scenario(tmp_path / "pow.json", {
        "name": "bad-constant", "n": 1, "potential": "0^-1"})
    assert main(["check", "geometry", scenario]) == 2
    err = _single_json_error(capsys.readouterr())
    assert err["code"] == "expression"
    assert err["field"] == "potential"
    assert "position 1" in err["message"]


def test_overflow_while_checking_is_numerical_domain_error(tmp_path, capsys):
    scenario = _write_scenario(tmp_path / "overflow.json", {
        "name": "overflow", "n": 1, "potential": "exp(1000)*q1",
        "gamma": ["0"]})
    assert main(["check", "hj1", scenario]) == 2
    err = _single_json_error(capsys.readouterr())
    assert err["code"] == "NumericalDomainError"
    assert "exp(1000)" in err["message"]


def test_numpy_warnings_stay_off_stderr(tmp_path):
    # 1/q2 divides by zero at the sample q2 = 0: the q2 partial (the q1 one
    # is the number 0) raises, naming itself, with no numpy warning on stderr
    scenario = _write_scenario(tmp_path / "pole.json", {
        "name": "pole", "n": 2, "potential": "1/q2", "gamma": ["0", "0"]})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-m", "magnomech", "check", "hj1",
                             scenario], env=env, capture_output=True, text=True)
    assert result.returncode == 2
    assert json.loads(result.stderr) == {
        "code": "NumericalDomainError",
        "message": "evaluating '(-1.0) / (q2 ^ 2)': float division by zero"}


def _near_surface_gamma(scenario_dir, tmp_path, tolerances=None):
    """nh-free-particle with a section 1e-6 off the constraint surface."""
    doc = json.loads((scenario_dir / "nh-free-particle.json").read_text())
    doc["gamma"] = ["0", "0", "1e-6"]
    del doc["epsilon"]
    if tolerances is not None:
        doc["tolerances"] = tolerances
    return _write_scenario(tmp_path / "near-surface.json", doc)


@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("widen", ["override", "scale"])
def test_every_level_reads_the_scaled_constraint_tolerance(
        scenario_dir, tmp_path, monkeypatch, capsys, widen, reduced):
    """A widened ``constraint`` tolerance admits the same section at the
    distributional and the reduced level."""
    if widen == "override":
        scenario = _near_surface_gamma(scenario_dir, tmp_path,
                                       {"constraint": 1e-4})
    else:
        scenario = _near_surface_gamma(scenario_dir, tmp_path)
        monkeypatch.setenv("MAGNOMECH_TOL_SCALE", "1000")
    argv = ["check", "hj1", scenario] + (["--reduced"] if reduced else [])
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "PASS" in captured.out


def test_non_finite_b_field_entry_is_one_named_error(tmp_path, capsys):
    # 1/(q1 - q1) is inf or nan with numpy arguments; the compiled entry
    # raises instead of handing the antisymmetry probe a NaN it passes
    scenario = _write_scenario(tmp_path / "nan-b.json", {
        "name": "nan-b", "n": 2,
        "b_field": [["0", "1/(q1-q1)"], ["-1/(q1-q1)", "0"]]})
    assert main(["check", "geometry", scenario]) == 2
    captured = capsys.readouterr()
    err = _single_json_error(captured)
    assert err["code"] == "NumericalDomainError"
    assert "1 / (q1 - q1)" in err["message"]


def test_check_geometry_draws_phase_samples_once(systems, monkeypatch):
    """One draw serves the compatibility, symplectic and relatedness data."""
    from magnomech import cli

    calls = []
    draw = cli._phase_points
    monkeypatch.setattr(cli, "_phase_points",
                        lambda *args: calls.append(args) or draw(*args))
    for system in systems.values():
        calls.clear()
        cli.check_geometry(system, 12, 0)
        assert len(calls) <= 1, system.name
