"""Gauss quadrature for continuous, discrete, and mixed measures.

Rules are built from the three-term recurrence coefficients of orthonormal
polynomial families via the spectral decomposition of the associated Jacobi
matrix, and applied to approximate integrals, (possibly infinite) weighted
sums, and mixed integral-plus-sum functionals.
"""

from .apply import (
    Functional,
    approximate,
    relative_error,
    spectral_reference,
)
from .eig import ConvergenceError, EigenDecomposition, decompose, eigenvalues
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
    Wilson,
    measure,
    recurrence,
)
from .jacobi import JacobiMatrix, build
from .rule import QuadratureRule, derivative_weights, gauss_rule
from .tables import TableReport, run_table

__all__ = [
    "Charlier",
    "ContinuousDualHahn",
    "ConvergenceError",
    "Custom",
    "EigenDecomposition",
    "FamilySpec",
    "Functional",
    "JacobiMatrix",
    "Krawtchouk",
    "MeasureSpec",
    "Meixner",
    "NumericalError",
    "QuadratureRule",
    "RecurrenceStream",
    "TableReport",
    "ValidationError",
    "Wilson",
    "approximate",
    "build",
    "decompose",
    "derivative_weights",
    "eigenvalues",
    "gauss_rule",
    "measure",
    "recurrence",
    "relative_error",
    "run_table",
    "spectral_reference",
]
