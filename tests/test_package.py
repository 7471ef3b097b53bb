"""Tests for the package surface: its public names and its dependencies."""

import os
import subprocess
import sys
from pathlib import Path

import quadsum

# Changing this list is a deliberate change of the public API.
_PUBLIC_NAMES = [
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
    "exact_exponential_sum",
    "exact_shifted_power_sum",
    "gauss_rule",
    "measure",
    "recurrence",
    "relative_error",
    "run_table",
    "spectral_reference",
]


def test_public_names_are_pinned():
    assert quadsum.__all__ == _PUBLIC_NAMES
    for name in _PUBLIC_NAMES:
        assert hasattr(quadsum, name), name


def test_library_imports_neither_scipy_nor_mpmath():
    # scipy and mpmath are test oracles; the library and CLI need numpy only
    src = str(Path(quadsum.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, quadsum, quadsum.cli, quadsum.tables\n"
        "print(sorted(m for m in ('scipy', 'mpmath') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
