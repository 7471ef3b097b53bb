"""Gauss quadrature for continuous, discrete, and mixed measures.

Rules are built from the three-term recurrence coefficients of orthonormal
polynomial families via the spectral decomposition of the associated Jacobi
matrix, and applied to approximate integrals, (possibly infinite) weighted
sums, and mixed integral-plus-sum functionals.
"""

from .apply import (
    Functional,
    adaptive_integral,
    approximate,
    continuous_part_estimate,
    exact_exponential_sum,
    exact_shifted_power_sum,
    relative_error,
    spectral_reference,
)
from .eig import ConvergenceError, EigenDecomposition, decompose, deleted_submatrix_eigenvalues, eigenvalues
from .errors import NumericalError, ValidationError
from .families import (
    Charlier,
    ContinuousDualHahn,
    Custom,
    FamilySpec,
    Krawtchouk,
    MeasureSpec,
    Meixner,
    RecurrenceStream,
    TruncationPolicy,
    Wilson,
    eval_poly,
    measure,
    recurrence,
)
from .jacobi import JacobiMatrix, build, matrix_function_element, power_element
from .rule import (
    InterlacingError,
    QuadratureRule,
    derivative_weights,
    gauss_rule,
    gauss_rule_eigenvalue_only,
)
from .tables import TableReport, run_table

__all__ = [
    "Charlier",
    "ContinuousDualHahn",
    "ConvergenceError",
    "Custom",
    "EigenDecomposition",
    "FamilySpec",
    "Functional",
    "InterlacingError",
    "JacobiMatrix",
    "Krawtchouk",
    "MeasureSpec",
    "Meixner",
    "NumericalError",
    "QuadratureRule",
    "RecurrenceStream",
    "TableReport",
    "TruncationPolicy",
    "ValidationError",
    "Wilson",
    "adaptive_integral",
    "approximate",
    "build",
    "continuous_part_estimate",
    "decompose",
    "deleted_submatrix_eigenvalues",
    "derivative_weights",
    "eigenvalues",
    "eval_poly",
    "exact_exponential_sum",
    "exact_shifted_power_sum",
    "gauss_rule",
    "gauss_rule_eigenvalue_only",
    "matrix_function_element",
    "measure",
    "power_element",
    "recurrence",
    "relative_error",
    "run_table",
    "spectral_reference",
]
