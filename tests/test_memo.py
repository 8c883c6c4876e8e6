"""The base-point data of the per-sample functions and of the check path.

``HamiltonianSpec.at(q)`` builds the q-dependent terms of H and
``surface_frame`` a SurfaceFrame on them; each keeps its arrays for the
callers at that one point. Their arrays are read-only, their guards raise
on every call, and a check reads each sample's base point once per stage.
"""

from collections import Counter
from contextlib import nullcontext

import numpy as np
import pytest

from conftest import SCENARIO_DIR, free_particle_constraint
from reference import per_sample_only
from magnomech import ConstraintDistribution, HamiltonianSpec, PhasePoint, load_system
from magnomech.cli import check_geometry, check_hj1, check_hj2
from magnomech.errors import (
    DegenerateConstraintError,
    NumericalDomainError,
    OffConstraintError,
)
from magnomech.nonholonomic import (
    admissible_basis,
    constraint_residual,
    project_to_constraint,
    surface_frame,
)


def _mass(q):
    return np.diag([2.0 + np.sin(q[0]), 1.0, 1.5 + q[1] ** 2])


def _mass_grad(q):
    grads = np.zeros((3, 3, 3))
    grads[0, 0, 0] = np.cos(q[0])
    grads[1, 2, 2] = 2.0 * q[1]
    return grads


def _ham():
    return HamiltonianSpec.quadratic(3, mass_fn=_mass, mass_grad_fn=_mass_grad,
                                     potential_fn=lambda q: q @ q,
                                     potential_grad_fn=lambda q: 2.0 * q)


def _on_surface(dist, ham, q):
    return project_to_constraint(dist, ham, PhasePoint(q, [0.3, -0.2, 0.5]))


def test_cached_arrays_are_read_only(systems):
    ham = _ham()
    dist = free_particle_constraint()
    q = np.array([0.1, 0.2, 0.3])
    terms = ham.at(q)
    z = _on_surface(dist, ham, q)
    frame = surface_frame(dist, ham, q)
    frame.jacobian(z.p)
    cached = [terms.q, terms.mass, terms.inverse, terms.mass_gradient,
              terms.potential_gradient, frame.rows, frame.rows_gradient,
              frame.rows_inverse, frame.gram, frame.rows_mass_gradient,
              frame.basis, admissible_basis(dist, ham, z),
              systems["magnetic-trap"].mag.form_matrix(q)]
    for array in cached:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0.0


def test_read_only_values_leave_the_callers_arrays_writable():
    rows = np.array([[0.0, 1.0, 1.0]])
    dist = ConstraintDistribution.constant(rows)
    surface_frame(dist, _ham(), np.zeros(3)).rows
    assert rows.flags.writeable


def test_rank_deficient_point_raises_on_every_call():
    # rows (q1, 0, 0) vanish at q1 = 0
    dist = ConstraintDistribution(3, 1, lambda q: np.array([[q[0], 0.0, 0.0]]))
    ham = HamiltonianSpec.free(3)
    z = PhasePoint([0.0, 0.5, 0.5], [0.0, 1.0, 0.0])
    for _ in range(2):
        with pytest.raises(DegenerateConstraintError):
            constraint_residual(dist, ham, z)
    for _ in range(2):
        with pytest.raises(DegenerateConstraintError):
            admissible_basis(dist, ham, z)


def test_non_spd_mass_raises_on_every_call():
    ham = HamiltonianSpec.quadratic(2, mass_fn=lambda q: -np.eye(2))
    q = np.array([0.3, 0.4])
    for _ in range(2):
        with pytest.raises(NumericalDomainError, match="positive definite"):
            ham.mass_inverse(q)


def test_off_surface_point_raises_on_every_call():
    ham = _ham()
    dist = free_particle_constraint()
    q = np.array([0.1, 0.2, 0.3])
    on = _on_surface(dist, ham, q)
    admissible_basis(dist, ham, on)
    off = PhasePoint(q, on.p + [0.0, 0.0, 1.0])
    for _ in range(2):
        with pytest.raises(OffConstraintError):
            admissible_basis(dist, ham, off)
    # the surface check reads its tolerance on every call, cached basis or not
    admissible_basis(dist, ham, off, tol=10.0)
    with pytest.raises(OffConstraintError):
        admissible_basis(dist, ham, off)


def _rows_reads(scenario, run):
    """The reads of A(q) per point while ``run(system)`` checks the scenario,
    as a Counter of read counts, on the stacked path and on the per-sample
    path (the two must agree)."""
    found = []
    for path in (nullcontext, per_sample_only):
        system = load_system(SCENARIO_DIR / f"{scenario}.json")
        dist = system.dist
        seen = Counter()
        rows_fn = dist._rows_fn

        def counted(q):
            seen[np.asarray(q, dtype=float).tobytes()] += 1
            return rows_fn(q)

        dist._rows_fn = counted
        with path():
            report = run(system)
        assert report.verdict == "PASS"
        found.append(Counter(seen.values()))
    assert found[0] == found[1]
    return found[0]


def test_check_hj2_reads_each_base_point_once():
    """A(q) is read once per sample and stage: at the 25 surface samples'
    base points to project them, and at the 50 image points, where the
    section hypotheses and the constrained level share it. The surface and
    section samples share their Sobol base points, so each of the 25 base
    points is read three times, by the stacked run and by the per-sample
    reference alike."""
    assert _rows_reads("nh-magnetic-particle", lambda system: check_hj2(
        system, 50, 0)) == {3: 25}


def test_reduced_checks_read_each_base_point_once_per_stage():
    """The reduced checks read A(q) once per sample and stage as well: the
    invariance residual, the section hypotheses and the reduced equation or
    level share one SurfaceFrame.

    - hj1-reduced reads each of its 50 samples once, and each sample's two
      cyclic translates once: 150 points, one read each.
    - hj2-reduced reads each of the 25 image base points once per image,
      and two images share each; 18 of them are also the base point of a
      surface sample, which is read once more to project it (the other 7
      come back from the round trip through the phase map's Newton
      preimage with other bits, and are read once). Each of the
      50 cyclic translates of the image base points is read once per image.
    """
    assert _rows_reads("nh-magnetic-reduced", lambda system: check_hj1(
        system, 50, 0, reduced=True)) == {1: 150}
    assert _rows_reads("nh-magnetic-reduced", lambda system: check_hj2(
        system, 50, 0, reduced=True)) == {1: 7, 2: 7 + 50, 3: 18}


def test_check_geometry_reads_each_base_point_once_per_stage():
    """The geometry check builds one SurfaceFrame over its drawn base points
    (one per point on the per-sample path), and the compatibility data, the
    twist residual at the same Sobol points, the invariance residual and the
    relatedness residual all read A(q) from it. Each of the 50 Sobol points
    is read twice, once to project its draw onto the surface and once for
    the geometry battery, and each of the 20 cyclic translates of the 10
    relatedness points once; without the shared frame, 40 points were read
    three times and 10 five times."""
    assert _rows_reads("nh-magnetic-reduced", lambda system: check_geometry(
        system, 50, 0)) == {2: 50, 1: 20}
