"""Fixed-step trajectory generation with constraint projection.

The integrator is the classical 4th-order one-step method. In constrained
mode every step is followed by a momentum projection back onto the
constraint surface; the pre-projection drift is recorded so the projection
error stays visible instead of hidden.
"""

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import SOLVER_TOL, BaseTerms
from .errors import (
    CompatibilityError,
    DegenerateFormError,
    NumericalDomainError,
    OffConstraintError,
)
from .geometry import PhasePoint
from .linalg import max_abs, solve_small
from .nonholonomic import SurfaceFrame, require_quadratic
from .tolerances import DEFAULT_TOLERANCES

FIELD_KINDS = ("magnetic", "distributional")


class AbortReason(NamedTuple):
    """Why a run stopped early: the step that failed, its time and the error."""

    step: int
    t: float
    message: str


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    constraint_residuals: np.ndarray
    drifts: np.ndarray
    abort_reason: AbortReason = None

    @property
    def aborted(self):
        return self.abort_reason is not None

    @property
    def n(self):
        return self.states.shape[1] // 2

    def state(self, index):
        return PhasePoint.from_vec(self.states[index])

    def final_state(self):
        return self.state(len(self.times) - 1)

    def energy_drift(self):
        return float(np.max(np.abs(self.energies - self.energies[0])))

    def to_csv(self, fileobj):
        n = self.n
        writer = csv.writer(fileobj)
        header = (["t"] + [f"q{i + 1}" for i in range(n)]
                  + [f"p{i + 1}" for i in range(n)]
                  + ["H", "constraint_res", "drift"])
        writer.writerow(header)
        for i, t in enumerate(self.times):
            row = [repr(float(t))]
            row += [repr(float(v)) for v in self.states[i]]
            row += [repr(float(self.energies[i])),
                    repr(float(self.constraint_residuals[i])),
                    repr(float(self.drifts[i]))]
            writer.writerow(row)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            self.to_csv(fh)


def _rk4_step(rhs, vec, dt):
    k1 = rhs(vec)
    k2 = rhs(vec + 0.5 * dt * k1)
    k3 = rhs(vec + 0.5 * dt * k2)
    k4 = rhs(vec + dt * k3)
    return vec + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class FieldKernel:
    """The integrated field and the end-of-step work on flat 2n vectors.

    The field is the closed form X = (H_p, -H_q + B H_p), plus the Lagrange
    multiplier correction sum_a lambda_a (0, -A_a) when a distribution is
    given. The q-only data (A(q), dA/dq, G^{-1}(q), dG/dq, dV/dq) is kept
    for the latest base point: projection only moves p, so the drift and
    post-projection residuals, the projection, the energy and the next
    step's first stage share one evaluation. Only the field reads B(q), once
    per RK stage, at four distinct base points. Each part is computed on
    first use, so every guard fires at the same stage as in the per-point
    functions it replaces (magnetic_vector_field, constrained_field_multiplier,
    project_to_constraint, constraint_residual), which remain as oracles.
    """

    def __init__(self, ham, mag, dist=None):
        if dist is not None:
            require_quadratic(ham)
        self.ham = ham
        self.mag = mag
        self.dist = dist
        self.n = ham.n
        self._key = None
        self._point = None

    def _at(self, q):
        """(BaseTerms, SurfaceFrame or None) of the latest q, built directly
        and writable: a trajectory rarely revisits a q, so the memo tables of
        ``ham.at`` would only grow, and no other caller sees these arrays."""
        key = q.tobytes()
        if key != self._key:
            self._key = key
            terms = BaseTerms(self.ham, q, frozen=False)
            frame = None if self.dist is None else SurfaceFrame(self.dist, terms)
            self._point = terms, frame
        return self._point

    def rhs(self, vec):
        if not np.isfinite(vec).all():
            raise NumericalDomainError("phase point has non-finite entries")
        n = self.n
        q, p = vec[:n], vec[n:]
        terms, frame = self._at(q)
        grad = terms.gradient(p)
        hq, hp = grad[:n], grad[n:]
        push = self.mag.b_matrix(q) @ hp
        dp = -hq + push
        # structure equation Omega^T X = dH in components:
        # (B X_q - X_p, X_q) = (H_q, H_p), with X_q = H_p exactly
        defect = push - dp - hq
        residual = math.sqrt(defect @ defect)
        if not residual <= SOLVER_TOL * (1.0 + math.sqrt(grad @ grad)):
            raise DegenerateFormError(
                f"structure solve residual {residual:.3e} exceeds tolerance")
        x = np.concatenate([hp, dp])
        if frame is None:
            return x
        jac = frame.jacobian(p)
        try:
            lam = solve_small(-frame.gram, -jac @ x)
        except np.linalg.LinAlgError:
            raise CompatibilityError("multiplier matrix is singular") from None
        x[n:] -= frame.rows.T @ lam
        return x

    def finish_step(self, vec, project):
        """(vec, drift, residual, energy) at the end of a step.

        With a distribution, the drift is the residual before projection and
        the residual the one after it; both are 0.0 without one.
        """
        if not np.isfinite(vec).all():
            raise NumericalDomainError("state is non-finite")
        n = self.n
        q, p = vec[:n], vec[n:]
        terms, frame = self._at(q)
        drift = residual = 0.0
        if frame is not None:
            drift = max_abs(frame.residual(p))
            if project:
                p = frame.project(p)
                if not np.isfinite(p).all():
                    raise NumericalDomainError("phase point has non-finite entries")
                vec = np.concatenate([q, p])
            residual = max_abs(frame.residual(p))
        return vec, drift, residual, terms.value(p)


def integrate(ham, mag, z0, t_end, dt, dist=None, kind="magnetic",
              project=True):
    """Integrate the chosen field from z0 over [0, t_end] with step dt.

    Distributional mode requires the start point on the constraint surface
    (within the scaled ``constraint`` tolerance) and re-projects after every
    step unless ``project`` is False. A non-finite or out-of-domain state
    aborts the run: the partial trajectory is returned with ``abort_reason``
    naming the step, time and error.
    """
    if kind not in FIELD_KINDS:
        raise ValueError(f"unknown field kind {kind!r}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    constrained = kind == "distributional" and dist is not None and dist.k > 0

    kernel = FieldKernel(ham, mag, dist if constrained else None)
    terms, frame = kernel._at(z0.q)
    residual = 0.0
    if constrained:
        residual = max_abs(frame.residual(z0.p))
        if residual > DEFAULT_TOLERANCES.get("constraint"):
            raise OffConstraintError(
                f"initial state off the constraint surface ({residual:.3e})")

    steps = int(round(t_end / dt))
    times = [0.0]
    states = [z0.vec]
    energies = [terms.value(z0.p)]
    residuals = [residual]
    drifts = [residual]
    vec = z0.vec
    abort_reason = None
    for step in range(1, steps + 1):
        try:
            vec, drift, residual, energy = kernel.finish_step(
                _rk4_step(kernel.rhs, vec, dt), project)
        except (NumericalDomainError, OverflowError) as err:
            abort_reason = AbortReason(step, step * dt, f"{type(err).__name__}: {err}")
            break
        times.append(step * dt)
        states.append(vec)
        energies.append(energy)
        residuals.append(residual)
        drifts.append(drift)
    return Trajectory(np.asarray(times), np.asarray(states),
                      np.asarray(energies), np.asarray(residuals),
                      np.asarray(drifts), abort_reason=abort_reason)


def halving_errors(ham, mag, z0, t_end, dt, dist=None, kind="magnetic",
                   project=True):
    """Endpoint differences at steps (dt, dt/2) and (dt/2, dt/4)."""
    ends = []
    for scale in (1.0, 0.5, 0.25):
        traj = integrate(ham, mag, z0, t_end, dt * scale, dist=dist, kind=kind,
                         project=project)
        if traj.aborted:
            raise NumericalDomainError("trajectory aborted during order check")
        ends.append(traj.states[-1])
    return (float(np.linalg.norm(ends[0] - ends[1])),
            float(np.linalg.norm(ends[1] - ends[2])))


def halving_ratio(ham, mag, z0, t_end, dt, dist=None, kind="magnetic",
                  project=True):
    """Endpoint-error ratio under step halving; near 16 for a 4th-order
    method on smooth problems with a genuinely dt-dependent solution."""
    coarse, fine = halving_errors(ham, mag, z0, t_end, dt, dist=dist,
                                  kind=kind, project=project)
    if fine == 0:
        raise NumericalDomainError("order check degenerate: zero fine error")
    return coarse / fine
