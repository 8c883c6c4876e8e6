"""The per-sample reference orchestration of every check.

Each loop here computes what one staged entry of the package computes
(STAGED pairs them: ``type1_constrained`` with ``hj._type1_constrained``,
and so on), one sample at a time, through the same kernels called on single
points. It is the test oracle of the package's one orchestration, kept
beside the code under test as differential testing keeps an independent
reference (McKeeman, "Differential Testing for Software", DTJ 10(1),
1998): ``per_sample_only()`` swaps these loops in for the staged entries,
and the goldens, the read counts and the differential tests compare the
two.

The loops follow the package's fault-order rule (``linalg.located``):
the samples are validated first; then each stage runs sample by sample,
every sample taking the stage's steps in the staged entry's order, so a
fault raises the error of the first failing sample, at its first failing
step, and an earlier stage's fault comes first. The stages end where the
package's stages end: at the reduced checks' hypothesis battery, at
the relatedness gate and at each branch of the geometry check. The
magnetic checks have no loops of their own: they run the distributional
stages with D = TQ, so per_sample_only() swaps the distributional loops in
for them too.

The last section holds the helpers that only the tests call and that state
nothing of the paper, so the package does not carry them, among them the
central differences (fd_jacobian, fd_gradient) that stay the oracle of the
package's exact symbolic partials.
"""

import sys
from contextlib import ExitStack, contextmanager

import numpy as np

from magnomech import cli, hj, reduction, sampling
from magnomech import expressions as ex
from magnomech.dynamics import pullback_defect, symplectic_residual
from magnomech.errors import ExpressionError, NumericalDomainError
from magnomech.geometry import (
    PhasePoint,
    PhaseStack,
    ensure_config,
    magnetic_match_residual,
    phase_vectors,
    two_form_closedness_residual,
)
from magnomech.hj import (
    _type2_residuals,
    constrained_level,
    distributional_rows,
    section_hypotheses,
    twist_on_distribution,
)
from magnomech.linalg import worst
from magnomech.nonholonomic import compatibility, surface_frame
from magnomech.reduction import (
    data_invariance_residual,
    map_defects,
    map_equivariance_residual,
    reduced_defects,
    reduced_equation,
    reduced_level,
    related_verdict,
    relatedness,
    section_invariance_residual,
)
from magnomech.sampling import newton_preimage


def _stack(points):
    """The PhaseStack of a list of PhasePoints."""
    return PhaseStack(np.array([z.vec for z in points]) if points else np.zeros((0, 0)))


def _residuals(section, ham, mag, z, image, jac, level):
    """The two Type II residuals at one sample, as floats."""
    return tuple(float(r) for r in _type2_residuals(ham, mag, z.vec, image.vec, jac,
                                                    section.jacobian(image.q), level))


def _columns(first, width):
    """The columns of the per-sample tuples ``first`` of ``width`` values."""
    return tuple(map(list, zip(*first))) if first else ([],) * width


def _configs(samples, n):
    """The validated configuration samples, as an (N, n) array."""
    return np.array([ensure_config(q, n) for q in samples]).reshape(-1, n)


def _battery(section, sym, frame, mag, tolerances):
    """The reduced hypothesis battery at the frame's one base point:
    (gamma, data invariance, section invariance, twist)."""
    q = frame.terms.q
    g = section.value(q)
    return (g,
            data_invariance_residual(sym, frame.dist, frame.terms.ham, mag, q, g, frame),
            section_invariance_residual(sym, section, q, g),
            twist_on_distribution(section, frame, g, mag, tolerances)[3])


def _battery_verdict(batteries, tolerances):
    """(worst twist residual, defects, gamma at each sample) of the
    per-sample batteries."""
    invariance, section_invariance, twist = (
        worst([battery[part] for battery in batteries]) for part in (1, 2, 3))
    return (twist, reduced_defects(invariance, section_invariance, twist, tolerances),
            [battery[0] for battery in batteries])


def type1_constrained(section, dist, ham, mag, samples, tolerances):
    qs = _configs(samples, dist.n)
    return qs, _columns([distributional_rows(section, dist, ham, mag, q, tolerances)
                         for q in qs], 4)


def type1_reduced(section, sym, dist, ham, mag, samples, tolerances):
    qs = _configs(samples, sym.n)
    frames = [surface_frame(dist, ham, q) for q in qs]
    twist, defects, gs = _battery_verdict(
        [_battery(section, sym, frame, mag, tolerances) for frame in frames], tolerances)
    if defects:
        return twist, defects, None
    return twist, defects, (qs, ([
        reduced_equation(section, sym, frame, ham, mag, g, tolerances)
        for g, frame in zip(gs, frames)],))


def type2_constrained(section, phase_map, dist, ham, mag, samples, tolerances):
    samples, rows = list(samples), []
    for z in samples:
        image = phase_map.value(z)
        frame = surface_frame(dist, ham, image.q)
        section_hypotheses(section, frame, section.value(image.q), tolerances)
        jac = phase_map.jacobian(z)
        rows.append((float(pullback_defect(mag, z.q, image.q, jac)),
                     *_residuals(section, ham, mag, z, image, jac,
                                 constrained_level(frame, tolerances))))
    return phase_vectors(samples), _columns(rows, 3)


def type2_reduced(section, phase_map, sym, dist, ham, mag, samples, tolerances):
    samples = list(samples)
    images, frames, jacs, batteries, symplectic, equivariance = [], [], [], [], [], []
    for z in samples:
        images.append(phase_map.value(z))
        frames.append(surface_frame(dist, ham, images[-1].q))
        batteries.append(_battery(section, sym, frames[-1], mag, tolerances))
        jacs.append(phase_map.jacobian(z))
        symplectic.append(pullback_defect(mag, z.q, images[-1].q, jacs[-1]))
        equivariance.append(map_equivariance_residual(sym, phase_map, z.vec,
                                                      images[-1].vec))
    twist, defects, _ = _battery_verdict(batteries, tolerances)
    symp_worst = worst(symplectic)
    defects += map_defects(symp_worst, worst(equivariance), tolerances)
    if defects:
        return twist, symp_worst, defects, None
    return twist, symp_worst, defects, (phase_vectors(samples), (None, *_columns([
        _residuals(section, ham, mag, z, image, jac,
                   reduced_level(sym, frame, mag, tolerances))
        for z, image, jac, frame in zip(samples, images, jacs, frames)], 2)))


def geometry(dist, ham, mag, gamma, epsilon, symmetry, qs, draw, tolerances):
    data = {}
    verdict = "PASS"
    closedness = max(two_form_closedness_residual(mag.b_field, q) for q in qs)
    data["b_closedness_residual"] = closedness
    if closedness > tolerances.get("closedness"):
        verdict = "FAIL"
    if draw is not None:
        zs = draw()
        # one SurfaceFrame per drawn base point serves every branch: those
        # that projected the draw onto this system's surface, if any
        frames = getattr(zs, "frame", None)
        if frames is None or any(frame.dist is not dist or frame.terms.ham is not ham
                                 for frame in frames):
            frames = [surface_frame(dist, ham, z.q) for z in zs]
    if dist.k > 0:
        reports = [[value.item() for value in compatibility(
            frame, mag.form_matrix(z.q), z.p, tolerances.get("compat_sigma"),
            tolerances.get("constraint"))]
            for z, frame in zip(zs, frames)]
        dims = sorted({tuple(report[:3]) for report in reports})
        data["dims"] = [list(d) for d in dims]
        data["dims_constant"] = len(dims) == 1
        data["sigma_min"] = min(report[3] for report in reports)
        data["compatibility_passed"] = all(report[5] for report in reports)
        if not data["compatibility_passed"] or not data["dims_constant"]:
            verdict = "FAIL"
    if gamma is not None:
        twist_frames = frames if draw is not None and np.array_equal(
            [z.q for z in zs], qs) else [surface_frame(dist, ham, q) for q in qs]
        data["gamma_match_residual"] = max(
            magnetic_match_residual(gamma, mag.b_field, q, basis=frame.basis)
            for q, frame in zip(qs, twist_frames))
    if epsilon is not None:
        data["symplectic_residual"] = max(
            symplectic_residual(epsilon, mag, z) for z in zs[:10])
    if symmetry is not None and dist.k > 0:
        related, related_data = _related_points(symmetry, frames[:10], mag,
                                                [z.p for z in zs[:10]], tolerances)
        data.update(related_data)
        data["relatedness_verdict"] = related
        if related == "FAIL":
            verdict = "FAIL"
    return verdict, data


def _related_points(sym, frames, mag, ps, tolerances):
    """The relatedness verdict and data at the momenta ps over one
    SurfaceFrame per base point."""
    points = list(zip(frames, ps))
    return related_verdict(
        worst([data_invariance_residual(sym, frame.dist, frame.terms.ham, mag,
                                        frame.terms.q, p, frame) for frame, p in points]),
        lambda: worst([relatedness(sym, frame, mag, p, tolerances) for frame, p in points]),
        tolerances)


def related(sym, frame, mag, p, tolerances):
    return _related_points(sym, [surface_frame(frame.dist, frame.terms.ham, q)
                                 for q in frame.terms.q], mag, p, tolerances)


def projections(dist, ham, samples):
    """project_to_constraint at each sample, as a stack whose ``frame`` is
    the list of the samples' SurfaceFrames."""
    if dist.k == 0:
        return samples
    frames, points = [], []
    for z in samples:
        frames.append(surface_frame(dist, ham, z.q))
        points.append(PhasePoint(z.q, frames[-1].project(z.p)))
    stack = _stack(points)
    stack.frame = frames
    return stack


def preimages(phase_map, targets):
    return _stack([newton_preimage(phase_map, target) for target in targets])


STAGED = {
    hj._type1_constrained: type1_constrained,
    reduction._type1_reduced: type1_reduced,
    hj._type2_constrained: type2_constrained,
    reduction._type2_reduced: type2_reduced,
    reduction._related: related,
    cli._geometry: geometry,
    sampling._projections: projections,
    sampling._preimages: preimages,
}


def _per_row_csv(traj):
    """The CSV text of a trajectory as the row-by-row writer gave it: the
    columns stacked as float64 and every value of every row put through
    repr, comma-joined, each row ending in \\r\\n. ``Trajectory.to_csv``
    formats column by column and each distinct value of a chunk once; the
    tests compare it with this. (Private, as the public names here are the
    check loops that per_sample_only swaps in.)"""
    n = traj.n
    header = (["t"] + [f"q{i + 1}" for i in range(n)] + [f"p{i + 1}" for i in range(n)]
              + ["H", "constraint_res", "drift"])
    columns = [traj.times[:, None], traj.states, traj.energies[:, None],
               traj.constraint_residuals[:, None], traj.drifts[:, None]]
    rows = np.hstack([np.asarray(column, dtype=float) for column in columns]).tolist()
    return ",".join(header) + "\r\n" + "".join(",".join(map(repr, row)) + "\r\n"
                                                for row in rows)


@contextmanager
def swapped(fn, replacement):
    """``replacement`` in place of ``fn`` at every attribute of a loaded
    magnomech module that holds fn, the originals put back afterwards (as
    bench/tracing.py installs its wrappers)."""
    held = [(module, name) for module_name, module in list(sys.modules.items())
            if module_name == "magnomech" or module_name.startswith("magnomech.")
            for name, value in list(vars(module).items()) if value is fn]
    try:
        for module, name in held:
            setattr(module, name, replacement)
        yield
    finally:
        for module, name in held:
            setattr(module, name, fn)


@contextmanager
def per_sample_only():
    """Every staged entry of the package runs its reference loop instead:
    the per-sample orchestration."""
    with ExitStack() as stack:
        for fn, loop in STAGED.items():
            stack.enter_context(swapped(fn, loop))
        yield


# -- helpers that only the tests call --------------------------------------------

def fd_jacobian(fn, x, step=1e-5):
    """Central-difference Jacobian of a vector-valued function: the oracle
    of the exact partials. Non-finite values propagate into the result."""
    x = np.asarray(x, dtype=float)
    base = np.asarray(fn(x), dtype=float)
    jac = np.empty((base.size, x.size))
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(x.size):
            shift = np.zeros_like(x)
            shift[j] = step
            jac[:, j] = (np.asarray(fn(x + shift))
                         - np.asarray(fn(x - shift))) / (2 * step)
    return jac


def fd_gradient(fn, x, step=1e-5):
    """Central-difference gradient of a scalar function."""
    return fd_jacobian(lambda y: [fn(y)], x, step)[0]


def evaluate_text(text, q, p=None):
    """One-shot parse and evaluation of an expression at (q, p), through
    compile_node, as every scenario expression is evaluated. A fault while
    evaluating raises ExpressionError with compile_node's message, which
    names the expression."""
    node = ex.parse(text)
    q = [float(value) for value in q]
    p = [float(value) for value in p or ()]
    ex.check_variables(node, ex.config_names(len(q)) + [f"p{i + 1}" for i in range(len(p))])
    try:
        return ex.compile_node(node)(q, p)
    except NumericalDomainError as err:
        raise ExpressionError(str(err)) from None


def project_point(sym, z):
    """The reduced point (q_bar, p) of the phase point z under the quotient
    map of the translation symmetry ``sym``."""
    return np.concatenate([z.q[sym.kept], z.p])


def lift_point(sym, zbar, fill=None):
    """A representative phase point over the reduced point zbar of the
    translation symmetry ``sym``. ``fill`` supplies values for the cyclic
    coordinates (zeros by default); every reduced quantity must not depend
    on it."""
    zbar = np.asarray(zbar, dtype=float)
    q = np.zeros(sym.n)
    q[sym.kept] = zbar[: len(sym.kept)]
    if fill is not None:
        q[sym.cyclic] = np.asarray(fill, dtype=float)
    return PhasePoint(q, zbar[len(sym.kept):])


# not loops of a staged entry (test_stacked counts the loops without them)
HELPERS = {fn.__name__: fn for fn in (fd_jacobian, fd_gradient, evaluate_text,
                                      project_point, lift_point)}
