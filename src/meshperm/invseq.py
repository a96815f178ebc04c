"""
Inversion sequences and the adjacent-equal-pair statistic.

An inversion sequence of length n is an integer sequence (e_1, ..., e_n)
with 0 <= e_i <= i-1; there are n! of them.  The statistic counted here is
the number of adjacent equal *nonzero* pairs, i.e. positions j with
e_j = e_{j+1} != 0.  Adjacent zero pairs do not count: since e_1 = 0, a
nonzero adjacent pair is the same thing as an adjacent equal pair preceded
somewhere by a strictly smaller entry.

The distribution of this statistic over all inversion sequences of length n
coincides, for every k, with the occurrence-count distribution shared by
the catalog pairs A25..A36 (closed_forms.a25_family_marginal).  Its k = 0
slice counts the inversion sequences avoiding the vincular pattern 0-11.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import Iterator, Sequence

from . import perms

InvSeq = tuple[int, ...]


def enumerate_inversion_sequences(n: int) -> Iterator[InvSeq]:
    """All n! inversion sequences of length n, in lexicographic order.

    >>> list(enumerate_inversion_sequences(3))[:3]
    [(0, 0, 0), (0, 0, 1), (0, 0, 2)]
    """
    perms.check_capacity(n)
    return iter(itertools.product(*(range(i) for i in range(1, n + 1))))


def adjacent_nonzero_pairs(entries: Sequence[int]) -> int:
    """Number of positions j with e_j = e_{j+1} != 0; a ValueError unless
    0 <= e_j <= j - 1 for every j.

    >>> adjacent_nonzero_pairs((0, 0, 0))
    0
    >>> adjacent_nonzero_pairs((0, 1, 1, 1, 0, 0))
    2
    """
    seq = tuple(entries)
    for i, e in enumerate(seq, start=1):
        if not 0 <= e <= i - 1:
            raise ValueError(f"entry {e} at position {i} violates 0 <= e_i <= i-1")
    return _adjacent_nonzero_pairs(seq)


def _adjacent_nonzero_pairs(seq: InvSeq) -> int:
    """The statistic of a sequence known to be an inversion sequence."""
    return sum(1 for a, b in zip(seq, seq[1:]) if a == b != 0)


def count_with_stat(n: int, k: int) -> int:
    """Inversion sequences of length n whose statistic equals k, by brute force.

    >>> count_with_stat(3, 1)
    1
    >>> count_with_stat(3, 0)
    5
    """
    return _stat_counts(n)[k]


@functools.lru_cache(maxsize=None)
def _stat_counts(n: int) -> Counter:
    """The statistic's counts over the inversion sequences of length n, in one pass."""
    return Counter(map(_adjacent_nonzero_pairs, enumerate_inversion_sequences(n)))

