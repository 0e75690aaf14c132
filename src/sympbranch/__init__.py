"""Exact combinatorics and verification for symplectic branching data."""

from sympbranch import diagrams, exacteval, hibi, lattice, monomials, straighten  # noqa: F401
from sympbranch.lattice import ColumnIndex
from sympbranch.straighten import FormalPolynomial

__version__ = "0.1.0"

__all__ = [
    "ColumnIndex", "FormalPolynomial",
    "diagrams", "exacteval", "hibi", "lattice", "monomials", "straighten",
]
