"""SHA-256 fingerprints of `simulate`'s outputs, kept in tests/data/fingerprints.json.

Each entry runs ``magnomech simulate`` for 2000 steps (``--t-end 2 --dt
1e-3``) of one shipped scenario and records its exit code and the SHA-256
of the CSV bytes and of the stdout text, with the CSV path written as
``run.csv``. The file also records the numpy version, the Python version
and the platform the fingerprints were taken on.
``tests/test_cli.py::test_simulate_outputs_match_the_recorded_fingerprints``
recomputes them. A change that moves an output on purpose rewrites the
file and names each entry that changed:

    PYTHONPATH=src python tests/fingerprints.py

pytest does not collect this file.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from magnomech.cli import main

ROOT = Path(__file__).resolve().parents[1]
FINGERPRINTS = ROOT / "tests" / "data" / "fingerprints.json"
STEPS = ["--t-end", "2", "--dt", "1e-3"]
RUNS = {
    "simulate nh-magnetic-particle --field distributional": [
        "nh-magnetic-particle.json", "--field", "distributional"],
    "simulate nh-magnetic-particle --field distributional --no-project": [
        "nh-magnetic-particle.json", "--field", "distributional", "--no-project"],
    "simulate magnetic-trap": ["magnetic-trap.json"],
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def environment():
    return {"numpy": np.__version__, "python": platform.python_version(),
            "platform": platform.platform()}


def fingerprints(directory):
    """Each run's exit code and the SHA-256 of its CSV and stdout, by name."""
    path = Path(directory) / "run.csv"
    entries = {}
    for name, (scenario, *flags) in RUNS.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["simulate", str(ROOT / "scenarios" / scenario), *flags, *STEPS,
                         "--out", str(path)])
        entries[name] = {"exit": code, "csv": _sha256(path.read_bytes()),
                         "stdout": _sha256(stdout.getvalue().replace(
                             str(path), "run.csv").encode())}
    return entries


def main_script():
    with tempfile.TemporaryDirectory() as directory:
        entries = fingerprints(directory)
    old = json.loads(FINGERPRINTS.read_text())["outputs"] if FINGERPRINTS.exists() else {}
    for name in sorted(set(entries) | set(old)):
        if entries.get(name) != old.get(name):
            print(f"changed: {name}")
    FINGERPRINTS.write_text(json.dumps({"environment": environment(), "outputs": entries},
                                       indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main_script())
