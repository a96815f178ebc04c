"""
Mesh patterns and their occurrence semantics.

A mesh pattern of length m is a classical pattern tau (a permutation of
1..m) together with a set of shaded boxes in the (m+1) x (m+1) grid drawn
around tau's plot; box (i, j) has its lower-left corner at grid point
(i, j), so 0 <= i, j <= m.

A subsequence of a permutation at positions p_1 < ... < p_m is an
occurrence of (tau, R) when it is order-isomorphic to tau and, for every
shaded box (a, b), no other entry of the permutation lies strictly between
the chosen positions p_a, p_{a+1} and strictly between the chosen values
q_b, q_{b+1} (values sorted ascending, with sentinels p_0 = q_0 = 0 and
p_{m+1} = q_{m+1} = n+1).  The chosen entries themselves never block a box:
every open position interval between consecutive chosen positions is free
of chosen entries by construction.

:func:`is_occurrence` checks one position tuple by a direct scan of each
shaded box; it is the reference semantics.  The occurrence engine is one
step, :func:`extend_matches`, which appends one entry to a prefix, and
:func:`filled_boxes`, an occurrence's boxes, read from the value bitsets
of the prefixes, as one bitmask that serves every shading on its pattern.
The S_n sweep in :mod:`meshperm.dist` takes the step at every node of the
prefix tree of S_n; :func:`occurrences` at every position of one permutation.

Pattern text form (used by the catalog file and the CLI):
``<tau>|<i1,j1;i2,j2;...>`` with boxes semicolon-separated, e.g.
``123|0,0;1,2;2,1;3,1``; an empty shading is written ``123|``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import perms
from .perms import Perm

Box = tuple[int, int]


@dataclass(frozen=True)
class MeshPattern:
    """A classical pattern plus a shading; immutable and hashable."""

    tau: Perm
    shading: frozenset[Box]

    def __post_init__(self) -> None:
        perms.as_perm(self.tau)
        m = len(self.tau)
        if m < 1:
            raise ValueError("patterns must have length at least 1")
        for i, j in self.shading:
            if not (0 <= i <= m and 0 <= j <= m):
                raise ValueError(f"box {(i, j)} outside the grid of side {m}")

    @property
    def length(self) -> int:
        return len(self.tau)

    def __str__(self) -> str:
        return format_pattern(self)


def pattern(tau: Sequence[int], boxes: Sequence[Box] | frozenset[Box]) -> MeshPattern:
    """Convenience constructor; deduplicates boxes.

    >>> str(pattern((1, 2, 3), [(0, 0), (1, 2), (2, 1), (3, 1)]))
    '123|0,0;1,2;2,1;3,1'
    """
    return MeshPattern(tuple(tau), frozenset(boxes))


def format_pattern(pat: MeshPattern) -> str:
    """Canonical text form; boxes sorted lexicographically."""
    boxes = ";".join(f"{i},{j}" for i, j in sorted(pat.shading))
    return f"{perms.format_perm(pat.tau)}|{boxes}"


def parse_pattern(text: str) -> MeshPattern:
    """Parse the ``<tau>|<boxes>`` form. Duplicate boxes are deduplicated.

    >>> parse_pattern("123|0,0;1,2;2,1;3,1").shading == frozenset(
    ...     {(0, 0), (1, 2), (2, 1), (3, 1)})
    True
    >>> parse_pattern("123|").shading
    frozenset()
    """
    text = text.strip()
    if "|" not in text:
        raise ValueError(f"pattern text needs a '|' separator: {text!r}")
    tau_part, _, box_part = text.partition("|")
    tau = perms.parse_perm(tau_part)
    boxes = set()
    if box_part:
        for tok in box_part.split(";"):
            tok = tok.strip()
            if not tok:
                continue
            try:
                i_str, j_str = tok.split(",")
                boxes.add((int(i_str), int(j_str)))
            except ValueError as exc:
                raise ValueError(f"bad box {tok!r} in pattern {text!r}") from exc
    return MeshPattern(tau, frozenset(boxes))


class DominanceTable:
    """Prefix counts of a permutation, for O(1) rectangle-emptiness tests.

    ``count(p_lo, p_hi, v_lo, v_hi)`` is the number of entries with position
    strictly between p_lo and p_hi and value strictly between v_lo and v_hi.
    It serves only ``is_occurrence(..., table=...)``; the naive per-box scan
    (``table=None``) is the reference, and the two are tested to agree.
    """

    __slots__ = ("n", "_prefix")

    def __init__(self, perm: Perm):
        n = len(perm)
        self.n = n
        # _prefix[p][v] = #{positions <= p with value <= v}, 0-padded borders.
        rows = [[0] * (n + 1)]
        for pos in range(1, n + 1):
            prev = rows[pos - 1]
            row = list(prev)
            for v in range(perm[pos - 1], n + 1):
                row[v] += 1
            rows.append(row)
        self._prefix = rows

    def count(self, p_lo: int, p_hi: int, v_lo: int, v_hi: int) -> int:
        if p_hi - p_lo < 2 or v_hi - v_lo < 2:
            return 0
        pre = self._prefix
        return (
            pre[p_hi - 1][v_hi - 1]
            - pre[p_lo][v_hi - 1]
            - pre[p_hi - 1][v_lo]
            + pre[p_lo][v_lo]
        )


def _check_positions(n: int, positions: Sequence[int], m: int) -> tuple[int, ...]:
    pos = tuple(positions)
    if len(pos) != m:
        raise ValueError(f"expected {m} positions, got {len(pos)}")
    if any(not 1 <= p <= n for p in pos):
        raise ValueError(f"positions out of range 1..{n}: {pos}")
    if any(a >= b for a, b in zip(pos, pos[1:])):
        raise ValueError(f"positions must be strictly increasing: {pos}")
    return pos


def is_occurrence(
    pi: Perm,
    positions: Sequence[int],
    pat: MeshPattern,
    table: DominanceTable | None = None,
) -> bool:
    """Whether the subsequence of ``pi`` at ``positions`` realizes ``pat``.

    With ``table=None`` every shaded box is checked by a direct scan over
    the permutation (the reference semantics); passing a
    :class:`DominanceTable` built from ``pi`` switches to O(1) box tests.

    >>> p = parse_pattern("123|0,0;1,2;2,1;3,1")
    >>> is_occurrence(perms.parse_perm("23154"), (1, 2, 4), p)
    True
    >>> is_occurrence(perms.parse_perm("14325"), (1, 2, 5), p)
    False
    """
    n = len(pi)
    m = pat.length
    pos = _check_positions(n, positions, m)
    chosen = [pi[p - 1] for p in pos]
    if perms.standardize(chosen) != pat.tau:
        return False
    if not pat.shading:
        return True
    pgrid = (0, *pos, n + 1)
    vgrid = (0, *sorted(chosen), n + 1)
    if table is not None:
        return all(
            table.count(pgrid[a], pgrid[a + 1], vgrid[b], vgrid[b + 1]) == 0
            for a, b in pat.shading
        )
    chosen_set = set(pos)
    for a, b in pat.shading:
        p_lo, p_hi = pgrid[a], pgrid[a + 1]
        v_lo, v_hi = vgrid[b], vgrid[b + 1]
        for p in range(p_lo + 1, p_hi):
            if p not in chosen_set and v_lo < pi[p - 1] < v_hi:
                return False
    return True


def shading_mask(pat: MeshPattern) -> int:
    """Bit (m+1)*i + j is set for each shaded box (i, j) of ``pat``.

    >>> shading_mask(parse_pattern("12|0,0;2,1"))
    129
    """
    side = pat.length + 1
    return sum(1 << side * i + j for i, j in pat.shading)


@functools.lru_cache(maxsize=None)
def extension_bounds(tau: Perm) -> tuple[tuple[int, int], ...]:
    """For each index t of ``tau``, where to find the nearest smaller and the
    nearest larger of the values chosen for tau[:t].

    Indices point into ``(0, n+1, *chosen values)``: 0 and 1 are the
    sentinels for "no smaller" and "no larger".
    """
    bounds = []
    for t, v in enumerate(tau):
        below = [s for s in range(t) if tau[s] < v]
        above = [s for s in range(t) if tau[s] > v]
        lo = max(below, key=tau.__getitem__) + 2 if below else 0
        hi = min(above, key=tau.__getitem__) + 2 if above else 1
        bounds.append((lo, hi))
    return tuple(bounds)


def extend_matches(levels: list, bounds: tuple, v: int, d: int, left: int) -> tuple[list, list]:
    """Append the entry ``v`` at position d of a permutation, with ``left``
    positions after it.

    ``levels[t]`` lists the partial matches of tau[:t] that end before d, as
    (positions, values), the values led by the sentinels 0 and n+1, so
    ``levels[0]`` is ``[((), (0, n + 1))]``; the entry extends a match when
    it lies between the values ``bounds[t]`` points to
    (:func:`extension_bounds`), and only matches that can still complete are
    grown.  Return the levels after d and the occurrences that end at d.
    ``levels`` is not changed, and the new levels share every list the entry
    leaves alone.  Each list is in colexicographic order: by last position,
    then the one before, and so on.
    """
    m = len(bounds)
    after = [*levels, []]
    for t in range(max(m - 1 - left, 0), m):
        lo, hi = bounds[t]
        grown = [(pos + (d,), vals + (v,)) for pos, vals in levels[t] if vals[lo] < v < vals[hi]]
        if grown:
            after[t + 1] = after[t + 1] + grown
    done = after.pop()
    return after, done


class _Rows(dict):
    """``column | chosen << s`` -> bit j set when a value in the bitset
    ``column`` has j values of ``chosen`` below it; ``chosen`` holds the
    sentinel s = n+1, so the key's length tells s, whatever n."""
    def __missing__(self, key: int) -> int:
        s = key.bit_length() // 2
        chosen, column = key >> s, key & (1 << s) - 1
        self[key] = rows = sum({1 << (chosen & (1 << v) - 1).bit_count() for v in range(s) if column >> v & 1})
        return rows


_ROWS = _Rows()  # a dict lookup: cheaper than a call to a cached function


def filled_boxes(seen: Sequence[int], positions: tuple[int, ...], values: tuple[int, ...]) -> int:
    """Bit (m+1)*i + j is set when box (i, j) of the occurrence at
    ``positions`` holds an entry, ``seen[d]`` being the bitset of the first
    d values: column i holds ``seen[p_{i+1} - 1] ^ seen[p_i]``, the last
    the values not seen by p_m, and its rows are one cached lookup.

    >>> filled_boxes([0, 0b100, 0b1100], (1, 2), (0, 4, 2, 3))
    64
    """
    high = 0  # the chosen values and n+1, shifted past the column
    for v in values[1:]:
        high |= 1 << v
    high <<= values[1]
    side = len(positions) + 1
    filled = shift = prev = 0
    for p in positions:
        filled |= _ROWS[seen[p - 1] ^ prev | high] << shift
        prev = seen[p]
        shift += side
    return filled | _ROWS[(1 << values[1]) - 2 ^ prev | high] << shift


def occurrences(pi: Perm, pat: MeshPattern) -> Iterator[tuple[int, ...]]:
    """Yield the position tuples of all occurrences in colexicographic order,
    each as soon as the walk along ``pi`` reaches its last entry.

    >>> list(occurrences((1, 2, 3, 4), parse_pattern("12|")))
    [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
    """
    pi = perms.as_perm(pi)
    n = len(pi)
    bounds = extension_bounds(pat.tau)
    levels = [[((), (0, n + 1))]] + [[]] * (len(bounds) - 1)
    shaded = shading_mask(pat)
    seen = [0]
    for d, v in enumerate(pi, 1):
        seen.append(seen[-1] | 1 << v)
        levels, done = extend_matches(levels, bounds, v, d, n - d)
        for pos, vals in done:
            if not shaded & filled_boxes(seen, pos, vals):
                yield pos


def count_occurrences(pi: Perm, pat: MeshPattern) -> int:
    """Exact number of occurrences of ``pat`` in ``pi``.

    >>> p = parse_pattern("123|0,0;1,2;2,1;3,1")
    >>> count_occurrences(perms.parse_perm("23154"), p)
    2
    >>> count_occurrences(perms.parse_perm("14325"), p)
    0
    >>> count_occurrences(perms.parse_perm("14325"), parse_pattern("123|"))
    3
    """
    return sum(1 for _ in occurrences(pi, pat))


def joint_counts(pi: Perm, q1: MeshPattern, q2: MeshPattern) -> tuple[int, int]:
    """Occurrence counts of both patterns of a pair.  No module of the package
    calls it; it stays because the benchmark's tracer wraps it by name
    (``tests/test_perfbench.py``)."""
    return count_occurrences(pi, q1), count_occurrences(pi, q2)


def complement_pattern(pat: MeshPattern) -> MeshPattern:
    """Complement tau and flip the shading vertically: (x, y) -> (x, m-y).

    >>> str(complement_pattern(parse_pattern("123|0,0;1,2;2,1;3,1")))
    '321|0,3;1,1;2,2;3,2'
    """
    m = pat.length
    return MeshPattern(
        perms.complement(pat.tau), frozenset((x, m - y) for x, y in pat.shading)
    )


def reverse_pattern(pat: MeshPattern) -> MeshPattern:
    """Reverse tau and flip the shading horizontally: (x, y) -> (m-x, y).

    >>> str(reverse_pattern(parse_pattern("321|0,3;1,1;2,2;3,2")))
    '123|0,2;1,2;2,1;3,3'
    """
    m = pat.length
    return MeshPattern(
        perms.reverse(pat.tau), frozenset((m - x, y) for x, y in pat.shading)
    )


def inverse_pattern(pat: MeshPattern) -> MeshPattern:
    """Invert tau and transpose the shading: (x, y) -> (y, x).

    >>> str(inverse_pattern(parse_pattern("123|0,2;1,2;2,1;3,3")))
    '123|1,2;2,0;2,1;3,3'
    """
    return MeshPattern(
        perms.inverse(pat.tau), frozenset((y, x) for x, y in pat.shading)
    )


PATTERN_OPS = {
    "c": complement_pattern,
    "r": reverse_pattern,
    "i": inverse_pattern,
}


def apply_pattern_ops(pat: MeshPattern, ops: str) -> MeshPattern:
    """Apply a word in the operators c, r, i left to right, e.g. ``"cr"``."""
    for op in ops:
        pat = PATTERN_OPS[op](pat)
    return pat


@dataclass(frozen=True)
class ShadingClass:
    symmetric: bool
    minus_antipodal: bool


def classify_shading(pat: MeshPattern) -> ShadingClass:
    """Classify the shading geometry.

    symmetric: closed under the transposition (i, j) -> (j, i).
    minus_antipodal: for every off-diagonal pair {(i, j), (j, i)} exactly one
    box is shaded; diagonal boxes are unconstrained.

    >>> classify_shading(parse_pattern("123|"))
    ShadingClass(symmetric=True, minus_antipodal=False)
    """
    m = pat.length
    shading = pat.shading
    symmetric = all((j, i) in shading for i, j in shading)
    minus_antipodal = all(
        ((i, j) in shading) != ((j, i) in shading)
        for i in range(m + 1)
        for j in range(i + 1, m + 1)
    )
    return ShadingClass(symmetric=symmetric, minus_antipodal=minus_antipodal)
