"""
Permutations of {1, 2, ..., n} in one-line notation.

A permutation is a plain tuple of ints, 1-based both in positions and in
values: ``(2, 3, 1, 5, 4)`` is the permutation sending position 1 to the
value 2.  All operations here are pure functions on such tuples, so they
are safe to share between threads and to use as dict keys.

Serialization is one line of text: a space-free digit run for n <= 9
(``"23154"``) and comma-separated values for n >= 10 (``"10,2,1,..."``).
"""

from __future__ import annotations

import itertools
import os
from typing import Iterator, Sequence

Perm = tuple[int, ...]

DEFAULT_MAX_N = 10
_NMAX_ENV = "MESHPERM_NMAX"


class CapacityError(ValueError):
    """Raised when an enumeration would exceed the configured ceiling."""


def max_n() -> int:
    """Current enumeration ceiling (default 10, overridable via MESHPERM_NMAX).

    The limit keeps brute-force runs within a desk-scale time budget; the
    sweep in :mod:`meshperm.dist` also needs C(n, m) <= 255 (m: length).
    """
    raw = os.environ.get(_NMAX_ENV)
    if raw is None:
        return DEFAULT_MAX_N
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_NMAX_ENV} must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ValueError(f"{_NMAX_ENV} must be nonnegative, got {value}")
    return value


def check_capacity(n: int) -> None:
    limit = max_n()
    if not 0 <= n <= limit:
        raise CapacityError(
            f"n={n} is outside the supported range 0..{limit} "
            f"(raise the ceiling via {_NMAX_ENV})"
        )


def as_perm(values: Sequence[int]) -> Perm:
    """Validate that ``values`` rearranges 1..n and return it as a tuple.

    >>> as_perm([2, 3, 1])
    (2, 3, 1)
    """
    perm = tuple(values)
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise ValueError(f"not a permutation of 1..{len(perm)}: {perm}")
    return perm


def enumerate_sn(n: int) -> Iterator[Perm]:
    """Yield all n! permutations of 1..n in lexicographic order.

    >>> list(enumerate_sn(0))
    [()]
    >>> [format_perm(p) for p in enumerate_sn(3)]
    ['123', '132', '213', '231', '312', '321']
    """
    check_capacity(n)
    return iter(itertools.permutations(range(1, n + 1)))


def rank(perm: Sequence[int]) -> int:
    """The index of ``perm`` in :func:`enumerate_sn`'s order (its Lehmer code).

    >>> [rank(p) for p in enumerate_sn(3)]
    [0, 1, 2, 3, 4, 5]
    """
    r, unseen = 0, (2 << len(perm)) - 2  # bits 1..n: the values still to come
    for v in perm:  # digit: the values to come below v, in base: all values to come
        r = r * unseen.bit_count() + (unseen & (1 << v) - 1).bit_count()
        unseen ^= 1 << v
    return r


def complement(perm: Perm) -> Perm:
    """Replace each entry v by n+1-v.

    >>> format_perm(complement(parse_perm("23154")))
    '43512'
    """
    n = len(perm)
    return tuple(n + 1 - v for v in perm)


def reverse(perm: Perm) -> Perm:
    """Read the one-line notation right to left.

    >>> format_perm(reverse(parse_perm("23154")))
    '45132'
    """
    return perm[::-1]


def inverse(perm: Perm) -> Perm:
    """Group-theoretic inverse: entry j of the result is the position of j.

    >>> format_perm(inverse(parse_perm("231")))
    '312'
    """
    inv = [0] * len(perm)
    for pos, value in enumerate(perm, start=1):
        inv[value - 1] = pos
    return tuple(inv)


def standardize(values: Sequence[int]) -> Perm:
    """The unique permutation with the same relative order as ``values``.

    Entries must be distinct.

    >>> standardize((2, 3, 5))
    (1, 2, 3)
    >>> standardize((1, 4, 3))
    (1, 3, 2)
    """
    seq = tuple(values)
    if len(set(seq)) != len(seq):
        raise ValueError(f"entries must be distinct: {seq}")
    rank = {v: i for i, v in enumerate(sorted(seq), start=1)}
    return tuple(rank[v] for v in seq)


def format_perm(perm: Perm) -> str:
    """One-line text form: digit run for n <= 9, comma-separated for n >= 10.

    The empty permutation serializes to the empty string.
    """
    if len(perm) <= 9:
        return "".join(str(v) for v in perm)
    return ",".join(str(v) for v in perm)


def parse_perm(text: str) -> Perm:
    """Inverse of :func:`format_perm`.

    >>> parse_perm("23154")
    (2, 3, 1, 5, 4)
    >>> parse_perm("10,2,1,3,4,5,6,7,8,9")[0]
    10
    """
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        values = [int(tok) for tok in text.split(",")]
    else:
        if not text.isdigit():
            raise ValueError(f"not a permutation string: {text!r}")
        values = [int(ch) for ch in text]
    return as_perm(values)
