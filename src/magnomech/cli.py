"""Batch command-line interface.

Exit codes: 0 when every check is PASS or VACUOUS, 1 when any check FAILs,
2 for input errors (reported as one JSON object on stderr), including
malformed or out-of-range flags. Output is deterministic for a fixed --seed.
The geometry battery (:func:`geometry_check`) lives here, beside its one
caller, since it reads :mod:`nonholonomic` and :mod:`reduction` alike.
"""

import argparse
import json
import math
import sys
import time
from functools import cache
from pathlib import Path

import numpy as np

from . import hj, reduction
from .errors import MagnomechError, NumericalDomainError, ScenarioError
from .geometry import (
    CLOSEDNESS_STEP,
    PhaseStack,
    closedness_residual,
    configs,
    phase_vectors,
    sample_set,
    twist_residual,
)
from .hj import FAIL, PASS, _symplectic
from .integrate import integrate
from .linalg import by_rank, located, worst
from .nonholonomic import compatibility, project_to_constraint, surface_frame
from .reduction import data_invariance_residual, related_verdict, relatedness
from .sampling import (
    config_samples,
    newton_preimages,
    phase_samples,
    surface_phase_samples,
)
from .scenarios import (
    CheckReport,
    construct_induced_scenario,
    load_scenario,
    build_system,
    reports_to_json,
    serialize_scenario,
)
from .tolerances import env_scale

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ScenarioError("usage") instead of printing usage
    text, so they reach stderr as one JSON object like every input error."""

    def error(self, message):
        raise ScenarioError("usage", message)


def _flag(convert, valid, requirement):
    """An argparse type: ``convert`` the text, then require ``valid``."""

    def parse(text):
        value = convert(text)
        if not valid(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {requirement}")
        return value

    parse.__name__ = convert.__name__
    return parse


_SAMPLES = _flag(int, lambda v: v >= 1, "an integer >= 1")
_SEED = _flag(int, lambda v: v >= 0, "an integer >= 0")
_STEP = _flag(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
_END = _flag(float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")


def build_parser():
    parser = _Parser(
        prog="magnomech",
        description="Magnetic and constrained Hamiltonian dynamics checks")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate a scenario trajectory")
    sim.add_argument("scenario")
    sim.add_argument("--field", choices=["magnetic", "distributional"],
                     default="magnetic")
    sim.add_argument("--t-end", type=_END, required=True)
    sim.add_argument("--dt", type=_STEP, required=True)
    sim.add_argument("--out", required=True)
    sim.add_argument("--no-project", action="store_true",
                     help="disable per-step constraint projection")

    chk = sub.add_parser("check", help="run verification checks")
    chk.add_argument("kind", choices=["hj1", "hj2", "geometry", "all"])
    chk.add_argument("target", help="scenario file, or a directory for 'all'")
    chk.add_argument("--reduced", action="store_true",
                     help="run the symmetry-reduced variant")
    chk.add_argument("--samples", type=_SAMPLES, default=50)
    chk.add_argument("--seed", type=_SEED, default=0)
    chk.add_argument("--report", help="write a JSON report to this path")

    con = sub.add_parser("construct-b",
                         help="emit a scenario with the section-induced two-form")
    con.add_argument("scenario")
    con.add_argument("--out", required=True)
    return parser


def _input_error(code, message, field=None):
    payload = {"code": code, "message": message}
    if field:
        payload["field"] = field
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return EXIT_INPUT


def _phase_points(system, count, seed):
    rng = np.random.default_rng(seed)
    if system.constrained:
        return surface_phase_samples(system.dist, system.ham,
                                     system.sample_box, count, rng)
    return phase_samples(system.sample_box, count, rng)


def _type2_samples(system, count, seed):
    """Sample points for the Type II checks.

    Half are preimages of generic points (surface points when constrained),
    half are preimages of section points so both status branches appear.
    """
    targets = _phase_points(system, count - count // 2, seed)
    qs = config_samples(system.sample_box, count // 2)
    if system.gamma is not None and len(qs):
        section_points = np.concatenate([qs, system.gamma.value(qs)], axis=-1)
        targets = PhaseStack(np.concatenate([targets.vec, section_points]))
    return newton_preimages(system.epsilon, targets)


def geometry_check(dist, ham, mag, gamma, epsilon, symmetry, qs, draw, tolerances):
    """The geometry battery of one system: (verdict, data).

    Closedness of B at the configuration samples ``qs``; compatibility and
    dimensions (constrained systems), the symplectic residual of eps and
    quotient relatedness at the phase samples that ``draw()`` returns
    (None when the system is unconstrained and has no phase map). ``draw``
    is called once, after the closedness check. An empty sample set raises
    NumericalDomainError: the battery's maxima have no value on it.
    """

    def nonempty(samples):
        if not len(samples):
            raise NumericalDomainError("the geometry check needs at least one sample")
        return samples

    return _geometry(dist, ham, mag, gamma, epsilon, symmetry, nonempty(sample_set(qs)),
                     None if draw is None else lambda: nonempty(draw()), tolerances)


def _geometry(dist, ham, mag, gamma, epsilon, symmetry, qs, draw, tolerances):
    """geometry_check on nonempty samples. Each branch is a stage over its
    own samples: the configuration samples ``qs``, the drawn phase samples,
    or the first 10 of them."""
    data = {}
    verdict = PASS
    n = mag.n
    qs = configs(qs, n)
    closedness = max(located(len(qs), lambda idx: closedness_residual(
        mag.b_field, qs[idx], CLOSEDNESS_STEP)).tolist())
    data["b_closedness_residual"] = closedness
    if closedness > tolerances.get("closedness"):
        verdict = FAIL
    if draw is not None:
        drawn = draw()
        zs = phase_vectors(drawn)
        # one SurfaceFrame over the drawn base points serves every branch:
        # the one that projected the draw onto this system's surface, if any
        frame = getattr(drawn, "frame", None)
        if frame is None or frame.dist is not dist or frame.terms.ham is not ham:
            frame = surface_frame(dist, ham, zs[:, :n])
    if dist.k > 0:
        tols = tolerances.get("compat_sigma"), tolerances.get("constraint")
        dim_f, dim_tm, dim_k, sigma, _, passed = by_rank(len(zs), lambda idx: compatibility(
            frame.take(idx), mag.form_matrix(zs[idx, :n]), zs[idx, n:], *tols))
        dims = sorted(set(zip(dim_f.tolist(), dim_tm.tolist(), dim_k.tolist())))
        data["dims"] = [list(d) for d in dims]
        data["dims_constant"] = len(dims) == 1
        data["sigma_min"] = min(sigma.tolist())
        data["compatibility_passed"] = bool(passed.all())
        if not data["compatibility_passed"] or not data["dims_constant"]:
            verdict = FAIL
    if gamma is not None:
        twist_frame = frame if draw is not None and np.array_equal(zs[:, :n], qs) else (
            surface_frame(dist, ham, qs))

        def twist(idx):
            # in magnetic_match_residual's order: the basis, J, then B
            basis = twist_frame.take(idx).basis
            return (twist_residual(gamma.jacobian(qs[idx]), mag.b_matrix(qs[idx]), basis),)

        (match,) = by_rank(len(qs), twist)
        data["gamma_match_residual"] = max(match.tolist())
    if epsilon is not None:
        head = zs[:10]
        data["symplectic_residual"] = max(located(len(head), lambda idx: _symplectic(
            epsilon, mag, head[idx])[2]).tolist())
    if symmetry is not None and dist.k > 0:
        qh, ph = zs[:10, :n], zs[:10, n:]
        invariance = located(len(qh), lambda idx: data_invariance_residual(
            symmetry, dist, ham, mag, qh[idx], ph[idx], frame.take(idx)))

        def residual():
            (values,) = by_rank(len(qh), lambda idx: (relatedness(
                symmetry, frame.take(idx), mag, ph[idx], tolerances),))
            return worst(values)

        related, related_data = related_verdict(invariance, residual, tolerances)
        data.update(related_data)
        data["relatedness_verdict"] = related
        if related == FAIL:
            verdict = FAIL
    return verdict, data


def check_geometry(system, count, seed):
    """Closedness, compatibility, dimensions and map diagnostics."""
    start = time.perf_counter()
    draw = None
    if system.constrained or system.epsilon is not None:
        # one draw serves every branch: Sobol points come in prefix order and
        # momenta fill row by row, so zs[:10] is the draw of min(count, 10)
        draw = cache(lambda: _phase_points(system, count, seed))
    verdict, data = geometry_check(
        system.dist, system.ham, system.mag, system.gamma, system.epsilon,
        system.symmetry, config_samples(system.sample_box, count), draw,
        system.tolerances)
    return CheckReport(system.name, "geometry", verdict, data,
                       time.perf_counter() - start)


def _report_from_hj(system, hj_report, start):
    elapsed = time.perf_counter() - start
    return CheckReport(system.name, hj_report.check, hj_report.verdict,
                       hj_report.as_dict(), elapsed)


def check_hj1(system, count, seed, reduced=False):
    if system.gamma is None:
        raise ScenarioError("missing_field", "check hj1 needs gamma", "gamma")
    start = time.perf_counter()
    qs = config_samples(system.sample_box, count)
    if reduced:
        if system.symmetry is None:
            raise ScenarioError("missing_field",
                                "check hj1 --reduced needs symmetry",
                                "symmetry")
        report = reduction.type1_reduced(
            system.gamma, system.symmetry, system.dist, system.ham,
            system.mag, qs, tolerances=system.tolerances)
    elif system.constrained:
        report = hj.type1_constrained(system.gamma, system.dist, system.ham,
                                      system.mag, qs,
                                      tolerances=system.tolerances)
    else:
        report = hj.type1_magnetic(system.gamma, system.ham, system.mag, qs,
                                   tolerances=system.tolerances)
    return _report_from_hj(system, report, start)


def check_hj2(system, count, seed, reduced=False):
    if system.gamma is None or system.epsilon is None:
        raise ScenarioError("missing_field", "check hj2 needs gamma and epsilon")
    start = time.perf_counter()
    zs = _type2_samples(system, count, seed)
    if reduced:
        if system.symmetry is None:
            raise ScenarioError("missing_field",
                                "check hj2 --reduced needs symmetry",
                                "symmetry")
        report = reduction.type2_reduced(
            system.gamma, system.epsilon, system.symmetry, system.dist,
            system.ham, system.mag, zs, tolerances=system.tolerances)
    elif system.constrained:
        report = hj.type2_constrained(system.gamma, system.epsilon,
                                      system.dist, system.ham, system.mag,
                                      zs, tolerances=system.tolerances)
    else:
        report = hj.type2_magnetic(system.gamma, system.epsilon, system.ham,
                                   system.mag, zs,
                                   tolerances=system.tolerances)
    return _report_from_hj(system, report, start)


def checks_for_system(system, count, seed):
    """Every check applicable to one scenario, in a stable order."""
    reports = [check_geometry(system, count, seed)]
    if system.gamma is not None:
        reports.append(check_hj1(system, count, seed))
        if system.symmetry is not None:
            reports.append(check_hj1(system, count, seed, reduced=True))
    if system.gamma is not None and system.epsilon is not None:
        reports.append(check_hj2(system, count, seed))
        if system.symmetry is not None:
            reports.append(check_hj2(system, count, seed, reduced=True))
    return reports


def _print_reports(reports):
    for report in reports:
        extras = []
        for key in ("equation_residual", "hypothesis_residual",
                    "b_closedness_residual", "sigma_min"):
            if key in report.data and report.data[key] is not None:
                extras.append(f"{key}={report.data[key]:.3e}")
        print(f"{report.table_row()} {' '.join(extras)}".rstrip())


def run_check(args):
    samples = args.samples
    if args.kind == "all":
        directory = Path(args.target)
        if not directory.is_dir():
            raise ScenarioError("parse", f"{args.target} is not a directory")
        paths = sorted(directory.glob("*.json"))
        if not paths:
            raise ScenarioError("parse", f"no scenario files in {args.target}")
        reports = []
        for path in paths:
            system = build_system(load_scenario(path))
            reports.extend(checks_for_system(system, samples, args.seed))
    else:
        system = build_system(load_scenario(args.target))
        if args.kind == "geometry":
            reports = [check_geometry(system, samples, args.seed)]
        elif args.kind == "hj1":
            reports = [check_hj1(system, samples, args.seed, reduced=args.reduced)]
        else:
            reports = [check_hj2(system, samples, args.seed, reduced=args.reduced)]
    _print_reports(reports)
    if args.report:
        Path(args.report).write_text(reports_to_json(reports))
    failed = sum(1 for r in reports if r.verdict == "FAIL")
    print(f"{len(reports)} checks: "
          f"{sum(1 for r in reports if r.verdict == 'PASS')} pass, "
          f"{failed} fail, "
          f"{sum(1 for r in reports if r.verdict == 'VACUOUS')} vacuous")
    return EXIT_FAIL if failed else EXIT_OK


def run_simulate(args):
    if not math.isfinite(args.t_end / args.dt):
        raise ScenarioError("usage", f"--t-end {args.t_end:g} over --dt {args.dt:g} "
                            "is not a finite number of steps")
    system = build_system(load_scenario(args.scenario))
    if system.initial_state is None:
        raise ScenarioError("initial_state",
                            "scenario has no initial_state to integrate from")
    z0 = system.initial_state
    if args.field == "distributional" and system.constrained:
        z0 = project_to_constraint(system.dist, system.ham, z0)
    trajectory = integrate(system.ham, system.mag, z0, args.t_end, args.dt,
                           dist=system.dist, kind=args.field,
                           project=not args.no_project, tolerances=system.tolerances)
    trajectory.write_csv(args.out)
    reason = trajectory.abort_reason
    print(f"wrote {len(trajectory.times)} states to {args.out}; "
          f"|dH|={trajectory.energy_drift():.3e} "
          f"max_drift={float(np.max(trajectory.drifts)):.3e}"
          + (f" ABORTED at step {reason.step} (t={reason.t:g}): {reason.message}"
             if reason else ""))
    return EXIT_FAIL if trajectory.aborted else EXIT_OK


def run_construct(args):
    spec = load_scenario(args.scenario)
    new_spec, _system = construct_induced_scenario(spec)
    Path(args.out).write_text(serialize_scenario(new_spec))
    print(f"wrote {new_spec.name} to {args.out}")
    return EXIT_OK


def main(argv=None):
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        env_scale()  # a malformed MAGNOMECH_TOL_SCALE is an input error
        run = {"simulate": run_simulate, "check": run_check,
               "construct-b": run_construct}[args.command]
        # every non-finite value that matters is checked explicitly, so
        # numpy's floating-point warnings would only add non-JSON stderr
        with np.errstate(all="ignore"):
            return run(args)
    except ScenarioError as err:
        return _input_error(err.code, str(err), getattr(err, "field", None))
    except FileNotFoundError as err:
        return _input_error("missing_file", str(err))
    except OSError as err:  # a directory, a bad path, no permission
        return _input_error("file_error", str(err))
    except MagnomechError as err:
        return _input_error(type(err).__name__, str(err))


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
