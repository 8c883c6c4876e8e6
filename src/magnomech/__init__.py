"""Magnetic and nonholonomic Hamiltonian dynamics on flat cotangent bundles.

The package builds twisted symplectic systems from declarative scenario
files, integrates their free and constrained dynamics, and verifies the two
Hamilton-Jacobi equation types plus the translation-symmetry reduction
relations as quantitative residual checks.
"""

from .dynamics import (
    HamiltonianSpec,
    MagneticStructure,
    PhaseMap,
    coordinate_formula_field,
    energy_rate,
    magnetic_vector_field,
    pullback_hamiltonian,
    symplectic_residual,
)
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
from .geometry import (
    OneFormSection,
    PhasePoint,
    PhaseStack,
    TangentPhaseVector,
    TwoFormField,
    exterior_derivative,
    magnetic_match_residual,
    two_form_closedness_residual,
)
from .hj import (
    HJReport,
    induced_magnetic_field,
    type1_constrained,
    type1_magnetic,
    type2_constrained,
    type2_magnetic,
)
from .integrate import Trajectory, halving_ratio, integrate
from .nonholonomic import (
    CompatibilityReport,
    ConstrainedField,
    ConstraintDistribution,
    admissible_basis,
    compatibility_report,
    constrained_field_multiplier,
    constrained_field_restricted,
    constraint_residual,
    field_tangency_residual,
    project_to_constraint,
)
from .reduction import (
    TranslationSymmetry,
    descent_basis,
    reduced_field,
    reduced_frame,
    relatedness_check,
    relatedness_residual,
    type1_reduced,
    type2_level_agreement,
    type2_reduced,
    vertical_basis,
)
from .scenarios import (
    CheckReport,
    ScenarioSpec,
    System,
    build_system,
    construct_induced_scenario,
    expression_eval,
    load_scenario,
    load_system,
    parse_scenario,
    serialize_scenario,
)
from .tolerances import Tolerances

__version__ = "0.1.0"
