"""The magnomech benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--steps K]

Run from the repository root. One run measures one workload for about S
seconds in this interpreter and prints a table, an `environment` line and,
as its last line, one JSON object with `correct`, `attempted`, `failed`
and `metrics`. `--trace 0` gives the end-to-end metrics; `--trace 1` gives
the per-layer metrics of a separate traced run. `--workload all` runs
every workload at both trace settings, each in a fresh interpreter.
`--steps` shortens the simulate horizon for a smoke run. See README.md.
"""

import os
import sys

# Pinned before numpy loads: one BLAS thread, and no tolerance scaling,
# which would change verdicts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MAGNOMECH_TOL_SCALE", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("check-corpus", "simulate-constrained", "simulate-free")
SETUP_REPEATS = 3       # fresh interpreters per run for `setup_s`
IMPORT_REPEATS = 3      # fresh interpreters per traced run for `import.*`
TRACE_STEPS = 1000      # simulate horizon of the traced run

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s", "pass_s": "s",
}
# Workload-specific names of the shared end-to-end metrics, per work unit.
ALIASES = {
    "checks": {"ops_per_s": "checks_per_s", "pass_s": "check_pass_s"},
    "steps": {"ops_per_s": "steps_per_s", "pass_s": "simulate_s"},
}


def program_missing():
    """What the benchmark needs from the checkout and cannot find."""
    needed = [SRC / "magnomech" / "__init__.py", ROOT / "scenarios"]
    return [str(p.relative_to(ROOT)) for p in needed if not p.exists()]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steps", type=int, default=None,
                        help="simulate horizon in RK4 steps (default 10000)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0 or (args.steps is not None and args.steps < 1):
        parser.error("--seconds and --steps must be positive")
    return args


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    import numpy  # noqa: PLC0415
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "commit": commit,
            "threads": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "MAGNOMECH_TOL_SCALE": None}


def probe(paths, repeats, importtime=False):
    """Run the set-up probe `repeats` times, each in a fresh interpreter."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(BENCH / "setup_probe.py"), str(SRC)] + [str(p) for p in paths]
    results = []
    for _ in range(repeats):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if importtime:
            cumulative = {}
            for line in done.stderr.splitlines():
                fields = line.split("|")
                if line.startswith("import time:") and len(fields) == 3:
                    try:
                        cumulative[fields[2].strip()] = int(fields[1]) * 1e-6
                    except ValueError:
                        continue        # the column header line
            result["magnomech_s"] = cumulative.get("magnomech", 0.0)
            result["scipy_stats_s"] = cumulative.get("scipy.stats", 0.0)
        results.append(result)
    return results


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def run(self, op, *args):
        self.attempted += 1
        try:
            result = op(*args)
        except Exception as err:  # a raising operation is a failed one
            self._fail([f"{type(err).__name__}: {err}"])
            return None
        if result.problems:
            self._fail(result.problems)
            return None
        return result

    def _fail(self, problems):
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.extend(problems)


def end_to_end(wl, seconds, tally, tmpdir):
    setups = probe(wl.paths, SETUP_REPEATS)
    systems = wl.build()
    results = []
    start = time.perf_counter()
    index, last = 0, 0.0
    # start an operation only if one as long as the last still fits
    while index == 0 or time.perf_counter() - start + last <= seconds:
        begun = time.perf_counter()
        result = tally.run(wl.op, systems, index, tmpdir)
        last = time.perf_counter() - begun
        if result is not None:
            results.append(result)
        index += 1
    if not results:
        raise SystemExit("no operation succeeded: " + "; ".join(tally.reasons))
    return {
        "setup_s": median(r["setup_s"] for r in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": median(r.work / r.work_s for r in results),
        "pass_s": median(r.wall_s for r in results),
    }, len(results)


def traced(wl, args, tally, tmpdir):
    import tracing  # noqa: PLC0415
    import workloads  # noqa: PLC0415

    imports = probe(wl.paths, IMPORT_REPEATS, importtime=True)
    start = time.perf_counter()
    short = workloads.make(wl.name, ROOT, args.seed,
                           min(args.steps or workloads.STEPS, TRACE_STEPS))
    systems = short.build()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_systems = short.build()
    finally:
        tracer.uninstall()

    ratios, first_calls = [], None
    self_s = dict.fromkeys(tracing.MODULES, 0.0)
    covered_s = wall_s = 0.0
    last = 0.0
    while not ratios or time.perf_counter() - start + last <= args.seconds / 2:
        begun = time.perf_counter()
        plain = tally.run(short.op, systems, 0, tmpdir)
        tracer.reset()
        tracer.install()
        tracer.active = True
        try:
            result = tally.run(short.op, traced_systems, 0, tmpdir)
        finally:
            tracer.active = False
            tracer.uninstall()
        if plain is None or result is None:
            if tally.failed > 2:
                raise SystemExit("traced operations fail: " + "; ".join(tally.reasons))
            continue
        calls, module_s, covered = tracer.summary()
        if first_calls is None:
            # per operation: one RK4 step, or one 23-check pass
            per_op = result.work if short.unit == "steps" else 1
            first_calls = {name: calls.get(name, 0) / per_op
                           for name in tracing.SPAN_NAMES}
        for module, seconds in module_s.items():
            self_s[module] += seconds
        covered_s += covered
        wall_s += result.wall_s
        ratios.append(result.wall_s / plain.wall_s)
        last = time.perf_counter() - begun

    metrics = {"import.magnomech_s": median(r["magnomech_s"] for r in imports),
               "import.scipy_stats_s": median(r["scipy_stats_s"] for r in imports)}
    metrics.update(layer_times(wl, args, systems, tmpdir,
                               args.seconds - (time.perf_counter() - start)))
    for name in tracing.SPAN_NAMES:
        metrics[f"trace.{name}.calls"] = first_calls[name]
    for module in tracing.MODULES:
        metrics[f"trace.{module}.self_share"] = self_s[module] / wall_s
    metrics["trace.unaccounted_share"] = 1.0 - covered_s / wall_s
    metrics["trace.overhead_share"] = median(ratios) - 1.0
    return metrics, len(ratios)


def layer_times(wl, args, systems, tmpdir, remaining_s):
    import layers  # noqa: PLC0415
    import magnomech  # noqa: PLC0415
    import workloads  # noqa: PLC0415

    steps = args.steps or workloads.STEPS
    csv_path = Path(tmpdir) / "layer.csv"
    corpus = []
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        system = magnomech.build_system(magnomech.load_scenario(path))
        corpus.append(layers.Subject(system, path,
                                     workloads.phase_states(system, 10, args.seed),
                                     "distributional", args.seed, steps, csv_path))
    if wl.unit == "checks":
        own = corpus
    else:
        own = [layers.Subject(systems[0], wl.paths[0], wl.states(systems[0]),
                              wl.field, args.seed, steps, csv_path)]
    return layers.measure(own, corpus, max(remaining_s, 0.0) / len(layers.LAYERS))


def unit_of(name):
    import layers  # noqa: PLC0415

    if name.endswith(".calls"):
        return "count"
    if name.endswith("_share"):
        return "share"
    return layers.unit_of(name)


def run_one(args):
    missing = program_missing()
    if missing:
        print("magnomech benchmark: not a magnomech checkout, missing "
              + ", ".join(missing), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: PLC0415

    env = environment()
    wl = workloads.make(args.workload, ROOT, args.seed,
                        args.steps or workloads.STEPS)
    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmpdir:
        if args.trace:
            metrics, ops = traced(wl, args, tally, tmpdir)
            units = {name: unit_of(name) for name in metrics}
        else:
            metrics, ops = end_to_end(wl, args.seconds, tally, tmpdir)
            units = END_TO_END
    kind = "traced" if args.trace else "end-to-end"
    print(f"{wl.name} ({kind}, seed {args.seed}, {ops} measured operations)")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")
    if not args.trace:
        for name, alias in ALIASES[wl.unit].items():
            print(f"  {alias:<48} {metrics[name]:>14.6g} {units[name]}")
    print(f"  {'error_rate':<48} {tally.failed / tally.attempted:>14.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for reason in tally.reasons:
        print(f"  failure: {reason}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload at both trace settings, each in a fresh interpreter."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            if args.steps is not None:
                cmd += ["--steps", str(args.steps)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                status = done.returncode
                combined["correct"] = False
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
