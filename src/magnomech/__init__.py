"""Magnetic and nonholonomic Hamiltonian dynamics on flat cotangent bundles.

The package builds twisted symplectic systems from declarative scenario
files, integrates their free and constrained dynamics, and verifies the two
Hamilton-Jacobi equation types plus the translation-symmetry reduction
relations as quantitative residual checks.

The package namespace holds what a script needs to load and run a
scenario: parsing and building it, a phase point, the projection onto the
constraint surface, the integrator and its trajectory, and the errors the
package raises. Everything else is imported from its module (README,
Package layout); which function carries which statement of the paper is
in docs/statements.md.
"""

from .errors import (
    CompatibilityError,
    DegenerateConstraintError,
    DegenerateFormError,
    ExpressionError,
    MagnomechError,
    NumericalDomainError,
    OffConstraintError,
    ScenarioError,
    SectionImageError,
    SectionTangentError,
)
from .geometry import PhasePoint
from .integrate import Trajectory, integrate
from .nonholonomic import project_to_constraint
from .scenarios import build_system, load_scenario, parse_scenario

__version__ = "0.1.0"
