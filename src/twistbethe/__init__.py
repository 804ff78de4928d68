"""Solver workbench for the massive spin-1/2 XXZ chain with twisted
(antiperiodic) and periodic closure.

Submodules:
    model     spin-chain operators (bit-rule parity blocks, matrix-free t(u)) and
              exact diagonalization in the parity sectors
    baes      Bethe-ansatz root finding (reduced log form and inhomogeneous T-Q form)
    thermo    thermodynamic-limit series (energy density, hole energy, boundary energy, gap)
    scaling   finite-size scaling-law fits and extrapolation
    workbench experiment orchestration, persistence, CLI
"""

__version__ = "0.1.0"

from .common import Boundary, Parity

__all__ = ["Boundary", "Parity", "__version__"]
