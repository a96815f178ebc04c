"""
meshperm: exact enumeration of mesh-pattern statistics in permutations.

The package couples a brute-force oracle (count every occurrence of a mesh
pattern in every permutation of S_n, exactly) with independently
implemented closed forms, recurrences, and explicit bijections, so that
each side checks the other.  The 58 built-in pattern pairs live in
:mod:`meshperm.catalog`; the CLI entry point is ``meshperm``.
"""

__version__ = "0.1.0"
