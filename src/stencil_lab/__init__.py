"""Learned energy-conserving finite-difference stencils for 1D Maxwell.

The package learns convolution stencils from band-limited training data by
solving a linearly constrained convex quadratic program, and validates them
with Crank-Nicolson simulation, energy diagnostics, Fourier-symbol analysis,
and convergence studies.
"""

from .core import (
    FieldPair,
    Grid1D,
    NumericalError,
    Stencil,
    apply_stencil,
    centered_difference_stencil,
    discrete_energy,
    inner_product,
    load_stencil,
    save_stencil,
)

__version__ = "0.1.0"

__all__ = [
    "FieldPair",
    "Grid1D",
    "NumericalError",
    "Stencil",
    "apply_stencil",
    "centered_difference_stencil",
    "discrete_energy",
    "inner_product",
    "load_stencil",
    "save_stencil",
    "__version__",
]
