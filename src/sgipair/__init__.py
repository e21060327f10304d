"""Phase-space dynamics and entanglement analysis for paired Stern-Gerlach interferometers.

Two qubit-controlled oscillators coupled by a weak bilinear interaction are
solved in closed form: symplectic propagators and covariances
(``phase_space``), branch trajectories and the qubit reduced density matrix
(``dynamics``), negativities and witnesses (``entanglement``), coupling
catalogues and unit conversions (``potentials``), design bounds
(``design``), and independent numerical oracles (``oracle``).  The ``cli``
module exposes batch commands emitting plot-ready data files.
"""

import gc

from . import design, dynamics, entanglement, oracle, phase_space, potentials
from .dynamics import BranchLabel, ContrastSet, GaussianCatState
from .potentials import NVParams, PhysicalParams, UnitlessParams

__version__ = "0.1.0"

# Importing numpy and the package leaves about 4600 objects in the young GC generations;
# collecting them once here (about 1 ms) keeps that pause out of the first computation of a
# fresh process, which would otherwise pay it wherever its allocations cross the threshold.
gc.collect(1)

__all__ = [
    "design",
    "dynamics",
    "entanglement",
    "oracle",
    "phase_space",
    "potentials",
    "BranchLabel",
    "ContrastSet",
    "GaussianCatState",
    "NVParams",
    "PhysicalParams",
    "UnitlessParams",
    "__version__",
]
