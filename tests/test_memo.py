"""The per-base-point memo of the check path.

``HamiltonianSpec.at(q)`` and ``MagneticStructure.form_matrix(q)`` keep one
value per distinct q, each ``BaseTerms`` keeps one ``SurfaceFrame`` per
distribution, and a frame keeps its D_q basis and its admissible bases.
The memo must be invisible: read-only values, immune to later mutation of
the caller's q, guards that raise on every call, a fixed bound, and an
integrator that never touches the tables.
"""

from collections import Counter

import numpy as np
import pytest

from conftest import SCENARIO_DIR, free_particle_constraint
from magnomech import ConstraintDistribution, HamiltonianSpec, PhasePoint, load_system
from magnomech.cli import check_hj2
from magnomech.dynamics import MEMO_ENTRIES
from magnomech.errors import (
    DegenerateConstraintError,
    NumericalDomainError,
    OffConstraintError,
)
from magnomech.integrate import integrate
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


def test_equal_points_share_one_entry():
    ham = _ham()
    q = np.array([0.1, 0.2, 0.3])
    assert ham.at(q) is ham.at(q.copy())
    assert ham.at(q) is ham.at([0.1, 0.2, 0.3])
    assert ham.at(q) is not ham.at(q + 1e-9)
    dist = free_particle_constraint()
    assert surface_frame(dist, ham, q) is surface_frame(dist, ham, q.copy())
    assert surface_frame(dist, ham, q).terms is ham.at(q)


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


def test_mutating_the_callers_q_leaves_the_memo_intact():
    ham = _ham()
    dist = free_particle_constraint()
    q = np.array([0.1, 0.2, 0.3])
    terms = ham.at(q)
    inverse = terms.inverse.copy()
    rows = surface_frame(dist, ham, q).rows.copy()
    q[:] = [5.0, -4.0, 3.0]
    original = np.array([0.1, 0.2, 0.3])
    assert np.array_equal(terms.q, original)
    assert ham.at(original) is terms
    assert np.array_equal(ham.at(original).inverse, inverse)
    assert np.array_equal(surface_frame(dist, ham, original).rows, rows)
    assert ham.at(q) is not terms
    assert np.array_equal(ham.at(q).inverse, np.linalg.inv(_mass(q)))


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


def test_tables_stay_within_their_bound():
    ham = _ham()
    for i in range(MEMO_ENTRIES + 10):
        ham.at(np.array([i * 1e-3, 0.0, 0.0]))
        assert len(ham._terms) <= MEMO_ENTRIES
    assert len(ham._terms) == 10


def test_check_hj2_reads_each_base_point_once():
    system = load_system(SCENARIO_DIR / "nh-magnetic-particle.json")
    dist = system.dist
    seen = Counter()
    rows_fn = dist._rows_fn

    def counted(q):
        seen[np.asarray(q, dtype=float).tobytes()] += 1
        return rows_fn(q)

    dist._rows_fn = counted
    report = check_hj2(system, 50, 0)
    assert report.verdict == "PASS"
    assert seen and max(seen.values()) == 1


def _entries(table):
    return {key: id(value) for key, value in table._values.items()}


def test_integrator_builds_no_table_entries():
    system = load_system(SCENARIO_DIR / "nh-magnetic-particle.json")
    ham, mag, dist = system.ham, system.mag, system.dist
    z0 = project_to_constraint(dist, ham, system.initial_state)
    terms, forms = _entries(ham._terms), _entries(mag._forms)
    trajectory = integrate(ham, mag, z0, 0.1, 1e-3, dist=dist,
                           kind="distributional")
    assert len(trajectory.times) == 101 and not trajectory.aborted
    assert _entries(ham._terms) == terms
    assert _entries(mag._forms) == forms
