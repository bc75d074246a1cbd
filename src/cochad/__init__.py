"""Cocyclic Hadamard matrices over Z_t x Z_2 x Z_2 for odd t.

Matrices of order 4t are assembled from a fixed representative table
and a subset of coboundary tables; the Hadamard property reduces to
exact row conditions on rows 5..2t+2, which a pruned exhaustive search
decides through per-class head profiles without assembling anything.
The package exports the entry points and exceptions a caller needs;
the building blocks stay importable from their submodules.
"""

from .cocyclic import CoboundarySubset, MatrixFormatError, assemble_cocyclic, is_hadamard_direct
from .group import GroupContext
from .paths import is_hadamard_paths
from .search import (
    ResourceLimitError,
    brute_force,
    export_solutions,
    run_search,
    verify_matrix_file,
)

__all__ = [
    "CoboundarySubset",
    "GroupContext",
    "MatrixFormatError",
    "ResourceLimitError",
    "assemble_cocyclic",
    "brute_force",
    "export_solutions",
    "is_hadamard_direct",
    "is_hadamard_paths",
    "run_search",
    "verify_matrix_file",
]
