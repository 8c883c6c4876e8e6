"""Fingerprints of the package's outputs, kept in tests/data/fingerprints.json.

The file records, by name:

- ``simulate ...``: the 2000-step (``--t-end 2 --dt 1e-3``) runs of
  ``magnomech simulate``, each as its exit code and the SHA-256 of the CSV
  bytes and of the stdout text, with the CSV path written as ``run.csv``:
  every shipped scenario with the magnetic field, and each constrained one
  also with the distributional field, with and without ``--no-project``;
- ``check all scenarios --seed 5``: the exit code and the SHA-256 of the
  report, with every ``wall_time_s`` written as 0.0, and of the stdout;
- ``fault <name>``: the abort step and message of ``integrate`` on each
  case of ``tests/test_integrate.py``'s ``FAULTS``, or the class and
  message of the error it raised;
- ``differential draw(60)``: the SHA-256 of the records that
  ``tests/differential.py`` writes for its 60 recorded documents, one line
  each;
- ``differential draw(300) #<index>``: the SHA-256 of the record of each
  of its 300 recorded documents, one entry per line, so a change names the
  documents it moves.

It also records the numpy version, the Python version and the platform the
fingerprints were taken on. Tier-1 tests recompute each group where it is
computed anyway: ``test_cli.py`` the simulate and check entries,
``test_integrate.py::test_fault_stops_the_run_where_the_per_point_run_stops``
the faults and ``test_differential.py`` the differential records. A change
that moves an output on purpose rewrites the file and names each entry that
changed:

    PYTHONPATH=src python tests/fingerprints.py

With ``--compare`` it names the entries that differ from the recorded ones
and leaves the file as it is; it exits 1 when any differs. The per-document
entries of the 300 documents are compared by this mode only.

pytest does not collect this file.
"""

import argparse

import contextlib
import hashlib
import io
import json
import platform
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from magnomech.cli import main

ROOT = Path(__file__).resolve().parents[1]
FINGERPRINTS = ROOT / "tests" / "data" / "fingerprints.json"
STEPS = ["--t-end", "2", "--dt", "1e-3"]
CONSTRAINED = ("nh-free-particle", "nh-magnetic-particle", "nh-magnetic-reduced")
RUNS = {f"simulate {path.stem}": [path.name]
        for path in sorted((ROOT / "scenarios").glob("*.json"))}
RUNS.update({" ".join(["simulate", name, *flags]): [f"{name}.json", *flags]
             for name in CONSTRAINED
             for flags in (["--field", "distributional"],
                           ["--field", "distributional", "--no-project"])})
CHECK_ALL = "check all scenarios --seed 5"
DIFFERENTIAL = "differential draw(60)"
WALL_TIME = re.compile(rb'"wall_time_s": [^,\n]+')


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def environment():
    return {"numpy": np.__version__, "python": platform.python_version(),
            "platform": platform.platform()}


def differing(current):
    """The names among ``current``'s whose entry differs from the recorded
    one, with where each side was taken, for an assertion message; empty
    when every entry matches."""
    stored = json.loads(FINGERPRINTS.read_text())
    changed = sorted(name for name in current
                     if current[name] != stored["outputs"].get(name))
    if not changed:
        return ""
    return (f"{changed} differ from the fingerprints recorded on "
            f"{stored['environment']}; this run: {environment()}")


def _run(argv, path):
    """main(argv)'s exit code and the SHA-256 of its stdout, with ``path``
    written as its file name."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    return code, _sha256(stdout.getvalue().replace(str(path), path.name).encode())


def fingerprints(directory):
    """Each simulate run's exit code and the SHA-256 of its CSV and stdout,
    by name."""
    path = Path(directory) / "run.csv"
    entries = {}
    for name, (scenario, *flags) in RUNS.items():
        code, stdout = _run(["simulate", str(ROOT / "scenarios" / scenario), *flags,
                             *STEPS, "--out", str(path)], path)
        entries[name] = {"exit": code, "csv": _sha256(path.read_bytes()), "stdout": stdout}
    return entries


def check_all_fingerprint(directory):
    """{CHECK_ALL: its exit code and the SHA-256 of its report, wall times
    written as 0.0, and of its stdout}."""
    path = Path(directory) / "report.json"
    code, stdout = _run(["check", "all", str(ROOT / "scenarios"), "--seed", "5",
                         "--report", str(path)], path)
    report = WALL_TIME.sub(b'"wall_time_s": 0.0', path.read_bytes())
    return {CHECK_ALL: {"exit": code, "report": _sha256(report), "stdout": stdout}}


def fault_entry(outcome):
    """A FAULTS case's entry from integrate's outcome: the Trajectory, or
    the raised error as (class, message)."""
    if isinstance(outcome, tuple):
        return {"error": outcome[0].__name__, "message": outcome[1]}
    reason = outcome.abort_reason
    return {"step": reason.step, "message": reason.message}


def fault_fingerprints():
    """Each FAULTS case's entry, by ``fault <name>``."""
    from test_integrate import FAULTS, _outcome  # noqa: PLC0415
    from magnomech.integrate import integrate  # noqa: PLC0415

    entries = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, (system, kind, t_end, dt) in sorted(FAULTS.items()):
            dist = system.dist if kind == "distributional" else None
            entries[f"fault {name}"] = fault_entry(_outcome(lambda: integrate(
                system.ham, system.mag, system.initial_state, t_end, dt,
                dist=dist, kind=kind)))
    return entries


def differential_fingerprint(records):
    """{DIFFERENTIAL: the SHA-256 of the records, one line each}."""
    return {DIFFERENTIAL: _sha256("".join(line + "\n" for line in records).encode())}


def document_fingerprints(records):
    """{``differential draw(300) #<index>``: the SHA-256 of that record's line}."""
    return {f"differential draw(300) #{index:03d}": _sha256(line.encode())
            for index, line in enumerate(records)}


def main_script(argv=None):
    from differential import draw, record  # noqa: PLC0415

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", action="store_true",
                        help=f"name the entries that differ from {FINGERPRINTS.name} "
                             "without rewriting it")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as directory:
        entries = {**fingerprints(directory), **check_all_fingerprint(directory)}
    entries.update(fault_fingerprints())
    entries.update(differential_fingerprint(
        [record(index, *drawn) for index, drawn in enumerate(draw(60))]))
    entries.update(document_fingerprints(
        [record(index, *drawn) for index, drawn in enumerate(draw(300))]))
    old = json.loads(FINGERPRINTS.read_text())["outputs"] if FINGERPRINTS.exists() else {}
    changed = [name for name in sorted(set(entries) | set(old))
               if entries.get(name) != old.get(name)]
    for name in changed:
        print(f"changed: {name}")
    if args.compare:
        return 1 if changed else 0
    FINGERPRINTS.write_text(json.dumps({"environment": environment(), "outputs": entries},
                                       indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main_script())
