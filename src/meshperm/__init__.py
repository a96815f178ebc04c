"""
meshperm: exact enumeration of mesh-pattern statistics in permutations.

The package couples a brute-force oracle (count every occurrence of a mesh
pattern in every permutation of S_n, exactly) with independently
implemented closed forms, recurrences, and explicit bijections, so that
each side checks the other.  The 58 built-in pattern pairs live in
:mod:`meshperm.catalog`; the CLI entry point is ``meshperm``.
"""

from .bijections import verify_swap_bijection
from .catalog import builtin_catalog, get_pair, load_catalog, validate_derivations
from .dist import (
    JointTable,
    avoider_count,
    joint_distribution,
    joint_tables,
    marginal,
    merge,
)
from .mesh import (
    MeshPattern,
    classify_shading,
    complement_pattern,
    count_occurrences,
    inverse_pattern,
    is_occurrence,
    joint_counts,
    parse_pattern,
    reverse_pattern,
)
from .perms import (
    Perm,
    complement,
    enumerate_sn,
    inverse,
    parse_perm,
    reverse,
    standardize,
)

__version__ = "0.1.0"

__all__ = [
    "JointTable",
    "MeshPattern",
    "Perm",
    "avoider_count",
    "builtin_catalog",
    "classify_shading",
    "complement",
    "complement_pattern",
    "count_occurrences",
    "enumerate_sn",
    "get_pair",
    "inverse",
    "inverse_pattern",
    "is_occurrence",
    "joint_counts",
    "joint_distribution",
    "joint_tables",
    "load_catalog",
    "marginal",
    "merge",
    "parse_pattern",
    "parse_perm",
    "reverse",
    "reverse_pattern",
    "standardize",
    "validate_derivations",
    "verify_swap_bijection",
]
