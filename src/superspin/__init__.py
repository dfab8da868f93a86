"""Exact-arithmetic spin symmetric group algebras and graded structure theory.

Modules:
  exactnum     scalars: the real multi-quadratic field
  linalg       sparse exact linear algebra over those scalars
  spinalg      the spin algebra: signed words, YJM elements, supercenters
  gradedstruct graded matrix algebras: classification and block decomposition
  shiftedcomb  strict partitions, shifted tableaux, branching graphs
  seminormal   seminormal matrix models and the regular-representation oracle
  checks       aggregated acceptance criteria
  cli          the superspin command-line tool
"""

from .exactnum import SqrtNumber, sqrt_rational
from .shiftedcomb import ShiftedTableau, StrictPartition
from .spinalg import SpinElement, SpinWord

__all__ = [
    "SqrtNumber",
    "sqrt_rational",
    "StrictPartition",
    "ShiftedTableau",
    "SpinElement",
    "SpinWord",
]

__version__ = "0.1.0"
