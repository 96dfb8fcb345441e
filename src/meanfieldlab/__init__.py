"""Numerical laboratory for the mean-field limit of weakly interacting bosons.

The package evolves the same physical system at three levels of description,
all sharing one periodic-grid convention:

* exact N-body Schroedinger dynamics on a tensor-product grid (``nbody``),
* the Hartree equation for the condensate wavefunction (``hartree``),
* quadratic fluctuation dynamics, both as a pair of Bogoliubov kernels
  (``bogoliubov``) and as a truncated Fock-space engine (``fock``).

``combinatorics`` evaluates the number-sector overlap coefficients that link
product states to coherent states, and ``harness`` wires everything into
reproducible convergence experiments with CSV/JSON output.
"""

from .grid import GridSpec, PotentialSpec
from .harness import ExperimentConfig

__all__ = [
    "GridSpec",
    "PotentialSpec",
    "ExperimentConfig",
]

__version__ = "0.1.0"
