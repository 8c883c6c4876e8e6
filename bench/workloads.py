"""The benchmark workloads: inputs made from the seed, operations, output checks.

Each workload builds its systems from the shipped scenario files and then
repeats one operation: a full 23-check pass over the corpus, or one whole
simulate (integration plus CSV write). Every operation's output is checked;
a check that misses is a failed operation, never a silent pass.
"""

import copy
import csv
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import magnomech as mm
from magnomech import cli
from magnomech import scenarios as scenarios_mod

GOLDEN = Path("tests") / "data" / "golden" / "check_all.json"
SAMPLES = 50                      # the CLI default of `check --samples`
EXPECTED_SUMMARY = {"PASS": 22, "FAIL": 0, "VACUOUS": 1}
STEPS = 10_000                    # `--t-end 10 --dt 1e-3`
DT = 1e-3
MOMENTUM_JITTER = 0.1             # half-width of the seeded momentum offset
ENERGY_BOUND = 1e-6               # acceptance criterion 6
CONSTRAINT_BOUND = 1e-8           # acceptance criterion 6


@dataclass
class Op:
    """One operation: its wall time, the work units done in `work_s` of
    that time, and the output checks it missed."""

    wall_s: float
    work: int
    work_s: float
    problems: list


def check_report_text(text, golden=None):
    """Problems with one `check all` report; `golden` is compared if given.

    The golden comparison ignores `wall_time_s`, as acceptance criterion 10
    does.
    """
    payload = json.loads(text)
    problems = []
    if payload.get("summary") != EXPECTED_SUMMARY:
        problems.append(f"summary {payload.get('summary')} != {EXPECTED_SUMMARY}")
    if golden is not None:
        expected = copy.deepcopy(golden)
        for doc in (payload, expected):
            for report in doc["reports"]:
                report["wall_time_s"] = 0.0
        if json.dumps(payload, sort_keys=True) != json.dumps(expected, sort_keys=True):
            problems.append("seed-0 report differs from the golden report")
    return problems


def csv_header(n):
    """The trajectory CSV header documented in the README."""
    return (["t"] + [f"q{i + 1}" for i in range(n)]
            + [f"p{i + 1}" for i in range(n)] + ["H", "constraint_res", "drift"])


def check_trajectory_csv(path, n, steps, aborted=False):
    """Problems with a written trajectory: abort, row count, bounds."""
    problems = ["integration aborted"] if aborted else []
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != csv_header(n):
        return problems + [f"CSV header {rows[:1]} != {csv_header(n)}"]
    body = rows[1:]
    if len(body) != steps + 1:
        problems.append(f"CSV has {len(body)} rows, expected {steps + 1}")
    if any(len(row) != 2 * n + 4 for row in body):
        return problems + ["CSV row with the wrong number of fields"]
    values = np.array(body, dtype=float)
    if not np.all(np.isfinite(values)):
        return problems + ["CSV holds non-finite values"]
    energy = values[:, 2 * n + 1]
    drift = float(np.max(np.abs(energy - energy[0])))
    if not drift < ENERGY_BOUND:
        problems.append(f"|dH| = {drift:.3e} >= {ENERGY_BOUND:g}")
    residual = float(np.max(values[:, 2 * n + 2]))
    if not residual < CONSTRAINT_BOUND:
        problems.append(f"constraint residual {residual:.3e} >= {CONSTRAINT_BOUND:g}")
    return problems


def phase_states(system, count, seed):
    """Seeded phase points in the sample box, on the surface if constrained."""
    rng = np.random.default_rng(seed)
    if system.constrained:
        return mm.sampling.surface_phase_samples(system.dist, system.ham,
                                                 system.sample_box, count, rng)
    return mm.sampling.phase_samples(system.sample_box, count, rng)


class CheckCorpus:
    """`check all` over the shipped scenarios, one pass per operation.

    Pass 0 runs at seed 0 and is compared with the golden report; pass i > 0
    runs at the workload seed + i - 1.
    """

    name = "check-corpus"
    unit = "checks"

    def __init__(self, root, seed):
        self.seed = seed
        self.paths = sorted((root / "scenarios").glob("*.json"))
        self.golden = json.loads((root / GOLDEN).read_text())

    def build(self):
        return [mm.build_system(mm.load_scenario(path)) for path in self.paths]

    def pass_seed(self, index):
        return 0 if index == 0 else self.seed + index - 1

    def op(self, systems, index, tmpdir):
        seed = self.pass_seed(index)
        start = time.perf_counter()
        reports = [report for system in systems
                   for report in cli.checks_for_system(system, SAMPLES, seed)]
        text = scenarios_mod.reports_to_json(reports)
        wall = time.perf_counter() - start
        problems = check_report_text(text, self.golden if seed == 0 else None)
        return Op(wall, len(reports), wall, problems)

    def states(self, system):
        return phase_states(system, 10, self.seed)


class Simulate:
    """The calls `magnomech simulate` makes, from a seeded initial state.

    Seed 0 starts at the scenario's `initial_state`; any other seed adds a
    seeded offset to the initial momentum. In distributional mode the start
    is then projected onto the constraint surface, as the CLI does.
    """

    unit = "steps"

    def __init__(self, root, seed, name, scenario, field, steps=STEPS):
        self.seed = seed
        self.name = name
        self.field = field
        self.steps = steps
        self.paths = [root / "scenarios" / f"{scenario}.json"]

    def build(self):
        system = mm.build_system(mm.load_scenario(self.paths[0]))
        return [system]

    def start_state(self, system):
        z0 = system.initial_state
        if self.seed:
            rng = np.random.default_rng(self.seed)
            offset = MOMENTUM_JITTER * rng.uniform(-1.0, 1.0, z0.p.size)
            z0 = mm.PhasePoint(z0.q, z0.p + offset)
        if self.field == "distributional" and system.constrained:
            z0 = mm.project_to_constraint(system.dist, system.ham, z0)
        return z0

    def run(self, system, steps, path):
        start = time.perf_counter()
        z0 = self.start_state(system)
        started = time.perf_counter()
        trajectory = mm.integrate(system.ham, system.mag, z0, steps * DT, DT,
                                  dist=system.dist, kind=self.field, project=True)
        integrated = time.perf_counter()
        trajectory.write_csv(path)
        written = time.perf_counter()
        return trajectory, integrated - started, written - start

    def op(self, systems, index, tmpdir):
        system = systems[0]
        path = Path(tmpdir) / f"{self.name}-{index}.csv"
        trajectory, integrate_s, wall = self.run(system, self.steps, path)
        problems = check_trajectory_csv(path, system.n, self.steps,
                                        trajectory.aborted)
        path.unlink()
        return Op(wall, self.steps, integrate_s, problems)

    def states(self, system):
        """Ten states along the start of this workload's own trajectory."""
        z0 = self.start_state(system)
        trajectory = mm.integrate(system.ham, system.mag, z0, 100 * DT, DT,
                                  dist=system.dist, kind=self.field, project=True)
        return [trajectory.state(i) for i in range(0, 100, 10)]


def make(name, root, seed, steps=STEPS):
    if name == "check-corpus":
        return CheckCorpus(root, seed)
    if name == "simulate-constrained":
        return Simulate(root, seed, name, "nh-magnetic-particle",
                        "distributional", steps)
    if name == "simulate-free":
        return Simulate(root, seed, name, "magnetic-trap", "magnetic", steps)
    raise ValueError(f"unknown workload {name!r}")
