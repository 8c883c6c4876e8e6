"""Shared fixtures and system builders for the test suite."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from magnomech import build_system, load_scenario
from magnomech.dynamics import HamiltonianSpec, MagneticStructure
from magnomech.geometry import OneFormSection, TwoFormField
from magnomech.nonholonomic import ConstraintDistribution

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
DATA_DIR = Path(__file__).resolve().parent / "data"

# Property tests draw the same examples on every run, so a verdict never
# depends on the run or on a local example database.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def scenario_dir():
    return SCENARIO_DIR


@pytest.fixture(scope="session")
def systems():
    """All shipped scenarios, compiled once per session."""
    return {path.stem: build_system(load_scenario(path))
            for path in sorted(SCENARIO_DIR.glob("*.json"))}


def free_particle_constraint(n=3):
    """The textbook constraint dq3 = q1 dq2 as row (0, -q1, 1)."""

    def rows(q):
        return np.array([[0.0, -q[0], 1.0]])

    def rows_grad(q):
        grads = np.zeros((n, 1, n))
        grads[0, 0, 1] = -1.0
        return grads

    return ConstraintDistribution(n, 1, rows, rows_grad)


def constant_field_system(b_matrix, potential=None, potential_grad=None):
    """Free-mass Hamiltonian with an optional potential and constant field."""
    b_matrix = np.asarray(b_matrix, dtype=float)
    n = b_matrix.shape[0]
    ham = HamiltonianSpec.quadratic(n, potential_fn=potential,
                                    potential_grad_fn=potential_grad)
    return ham, MagneticStructure(TwoFormField.constant(b_matrix))


def matched_linear_section(b_matrix, offset=None):
    """Linear section with curl equal to minus the given constant field,
    paired with the potential that keeps the energy zero along it.

    Returns (section, ham, mag); the Type I hypothesis and equation both
    hold exactly for this triple.
    """
    b_matrix = np.asarray(b_matrix, dtype=float)
    coeff = 0.5 * b_matrix
    n = b_matrix.shape[0]
    offset = np.zeros(n) if offset is None else np.asarray(offset, float)
    section = OneFormSection(lambda q: coeff @ q + offset, lambda q: coeff)

    def potential(q):
        value = coeff @ q + offset
        return -0.5 * float(value @ value)

    def potential_grad(q):
        return -coeff.T @ (coeff @ q + offset)

    ham = HamiltonianSpec.quadratic(n, potential_fn=potential,
                                    potential_grad_fn=potential_grad)
    return section, ham, MagneticStructure(TwoFormField.constant(b_matrix))


def random_antisymmetric(rng, n, scale=1.0):
    raw = rng.normal(scale=scale, size=(n, n))
    return raw - raw.T


def random_spd(rng, n):
    raw = rng.normal(size=(n, n))
    return raw @ raw.T + n * np.eye(n)
