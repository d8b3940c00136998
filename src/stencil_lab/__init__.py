"""Learned energy-conserving finite-difference stencils for 1D Maxwell.

The package learns convolution stencils from band-limited training data by
solving a linearly constrained convex quadratic program, and validates them
with Crank-Nicolson simulation, energy diagnostics, Fourier-symbol analysis,
and convergence studies.
"""

__version__ = "0.1.0"
