"""
Joint occurrence-count distributions over S_n.

The central object is the :class:`JointTable`: an exact-integer matrix
whose (k, l) entry counts the n-permutations with exactly k occurrences of
a first pattern and l occurrences of a second.  Every table over S_n sums
to n!.  The same matrix is the table's generating polynomial, whose
coefficient of x^k y^l is the (k, l) entry; :meth:`JointTable.render`
prints it.  Closed forms, recurrences and split tables use this one type.

Every table comes from one sweep (:func:`_sweep`), a depth-first walk of
the prefix tree of S_n, which counts the occurrences of many patterns in
packed 8-bit fields, so C(n, m) <= 255 for each pattern length m.  Its
jobs are first-entry subtrees that also count the patterns' complements,
reverses and reverse-complements, so each stands for other leaves too
(:func:`_walk`); the partial tallies are summed, as :func:`merge` sums
whole tables, so results do not depend on the schedule.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

from . import mesh, perms
from .mesh import MeshPattern
from .perms import Perm

Pair = tuple[MeshPattern, MeshPattern]


def _trimmed(counts: dict[tuple[int, int], int]) -> tuple[tuple[int, ...], ...]:
    """Dense row-major matrix from a sparse (k, l) -> count dict."""
    if not counts:
        return ((0,),)
    kmax = max(k for k, _ in counts)
    lmax = max(l for _, l in counts)
    return tuple(
        tuple(counts.get((k, l), 0) for l in range(lmax + 1)) for k in range(kmax + 1)
    )


@dataclass(frozen=True)
class JointTable:
    """Counts of S_n by the occurrence pair (k, l); exact integers.

    The matrix is trimmed: its dimensions are (K+1) x (L+1) for the largest
    observed counts K and L (at least 1 x 1).
    """

    n: int
    counts: tuple[tuple[int, ...], ...]

    @classmethod
    def from_dict(cls, n: int, counts: dict[tuple[int, int], int]) -> "JointTable":
        return cls(n, _trimmed(counts))

    def entry(self, k: int, l: int) -> int:
        if 0 <= k < len(self.counts) and 0 <= l < len(self.counts[k]):
            return self.counts[k][l]
        return 0

    def total(self) -> int:
        return sum(map(sum, self.counts))

    def cells(self) -> Iterable[tuple[int, int, int]]:
        """Yield (k, l, count) for nonzero entries, sorted by (k, l)."""
        for k, row in enumerate(self.counts):
            for l, c in enumerate(row):
                if c:
                    yield k, l, c

    def to_dict(self) -> dict[tuple[int, int], int]:
        """The nonzero entries as a sparse (k, l) -> count dict."""
        return {(k, l): c for k, l, c in self.cells()}

    def render(self) -> str:
        """The generating polynomial as text, descending total degree,
        x-powers before y-powers.

        >>> JointTable.from_dict(3, {(0, 0): 4, (1, 0): 1, (0, 1): 1}).render()
        'x + y + 4'
        """
        terms = sorted(self.cells(), key=lambda t: (-(t[0] + t[1]), -t[0]))
        if not terms:
            return "0"
        parts = []
        for k, l, c in terms:
            xpart = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
            ypart = "" if l == 0 else ("y" if l == 1 else f"y^{l}")
            body = xpart + ypart
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            else:
                parts.append(f"{c}{body}")
        return " + ".join(parts)


def merge(t1: JointTable, t2: JointTable) -> JointTable:
    """Elementwise sum of two partial tables over the same n.

    >>> a = JointTable.from_dict(3, {(0, 0): 2, (1, 0): 1})
    >>> merge(a, JointTable.from_dict(3, {(0, 1): 3})).counts
    ((2, 3), (1, 0))
    """
    if t1.n != t2.n:
        raise ValueError(f"cannot merge tables for n={t1.n} and n={t2.n}")
    acc: dict[tuple[int, int], int] = {}
    for t in (t1, t2):
        for k, l, c in t.cells():
            acc[(k, l)] = acc.get((k, l), 0) + c
    return JointTable.from_dict(t1.n, acc)


def marginal(t: JointTable, axis: str = "first") -> list[int]:
    """Row sums (axis="first", over l) or column sums (axis="second")."""
    if axis == "first":
        return [sum(row) for row in t.counts]
    if axis == "second":
        width = max(len(row) for row in t.counts)
        return [sum(row[l] if l < len(row) else 0 for row in t.counts) for l in range(width)]
    raise ValueError(f"axis must be 'first' or 'second', got {axis!r}")


# ---------------------------------------------------------------------------
# Brute-force enumeration: one sweep over S_n
# ---------------------------------------------------------------------------


class _Fields(dict):
    """Filled-box mask -> packed int, a 1 in the 8-bit field of each pattern
    in ``slots`` (bit offset, shading mask) that no filled box rules out."""

    def __init__(self, slots: list[tuple[int, int]], boxes: int):
        self.every = sum(1 << at for at, _ in slots)
        self.keep = [self.every - sum(1 << at for at, shaded in slots if shaded >> b & 1)
                     for b in range(boxes)]

    def __missing__(self, filled: int) -> int:
        packed, rest = self.every, filled
        while rest:
            b = rest.bit_length() - 1
            packed &= self.keep[b]
            rest ^= 1 << b
        self[filled] = packed
        return packed


def _walk(job) -> Counter:
    """Count the keys ``cells(pi, counts)`` lists for each pi in S_n with
    first entry ``first``, counts[i] being the occurrences of patterns[i].
    A node of the prefix tree carries the partial matches of each tau and
    the packed counts of the occurrences its prefix completes: the entries
    to come lie in their last column, so their masks are known at once.
    The patterns' images under c, then r, are counted too: q occurs in
    c(pi) as c(q) in pi and in r(pi) as r(q) in pi, so a leaf also reports
    c(pi), r(pi) and rc(pi).  So only leaves whose last entry b has
    first < b <= n + 1 - first are walked; at b = n + 1 - first, r(pi) has
    the ends of c(pi) and rc(pi) is a leaf too, so neither is reported.
    """
    n, patterns, cells, first = job
    p = len(patterns)
    for op in "cr":
        patterns = [*patterns, *map(mesh.PATTERN_OPS[op], patterns)]
    slots: dict[Perm, list[tuple[int, int]]] = {}
    for i, q in enumerate(patterns):
        slots.setdefault(q.tau, []).append((8 * i, mesh.shading_mask(q)))
    taus = [(mesh.extension_bounds(tau), _Fields(s, (len(tau) + 1) ** 2)) for tau, s in slots.items()]
    hi = n + 1 - first
    tally, path = Counter(), []

    def grow(v: int, unused: list[int], states: list, total: int, ends: int) -> None:
        path.append(v)
        d = len(path)
        children = []
        for (bounds, fields), levels in zip(taus, states):
            kids, done = mesh.extend_matches(levels, bounds, v, d, n - d)
            if done:
                seq = path + unused
                total += sum(fields[mesh.filled_boxes(seq, pos, vals)] for pos, vals in done)
            children.append(kids)
        for i, w in enumerate(unused):
            left = ends - (first < w <= hi)  # allowed last entries below w
            if left or not unused[1:]:  # else no leaf below w is walked
                grow(w, unused[:i] + unused[i + 1:], children, total, left)
        if not unused:
            counts = total.to_bytes(len(patterns), "little")
            images = [path, [n + 1 - w for w in path]]
            if v != hi:
                images += [image[::-1] for image in images]
            for i, image in enumerate(images):
                tally.update(cells(image, counts[i * p:i * p + p]))
        path.pop()

    rest = [w for w in range(1, n + 1) if w != first]
    roots = [[[((), (0, n + 1))]] + [[]] * (len(tau) - 1) for tau in slots]
    grow(first, rest, roots, 0, sum(first < w <= hi for w in rest))
    del grow  # it refers to itself: free the subtree's masks now
    return tally


def _sweep(n: int, patterns: Sequence[MeshPattern], cells, workers: int) -> Counter:
    """:func:`_walk` over all of S_n, one job per first entry f <= n/2; for
    n <= 1 there is none, and the one permutation is counted directly.  With
    ``workers`` > 1 the jobs go to a process pool, so ``cells`` must pickle."""
    perms.check_capacity(n)
    m = max((q.length for q in patterns), key=lambda m: math.comb(n, m), default=0)
    if math.comb(n, m) > 255:  # the largest count of a length-m pattern
        raise ValueError(f"n={n}, m={m}: C(n, m)={math.comb(n, m)} overflows the 8-bit counts")
    if n <= 1:
        pi = tuple(range(1, n + 1))
        return Counter(cells(pi, bytes(mesh.count_occurrences(pi, q) for q in patterns)))
    jobs = [(n, patterns, cells, first) for first in range(1, n // 2 + 1)]
    if workers <= 1 or len(jobs) < 2:
        return sum(map(_walk, jobs), Counter())
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        return sum(pool.map(_walk, jobs), Counter())


def _pair_cells(pi, counts: bytes):  # the patterns are listed pair by pair
    return zip(itertools.count(), counts[0::2], counts[1::2])


def joint_tables(
    n: int, pairs: Sequence[Pair], workers: int = 1
) -> list[JointTable]:
    """Brute-force joint tables over S_n for many pattern pairs in one sweep.

    All pairs share the per-permutation bookkeeping, so verifying the whole
    catalog at one n costs little more than verifying a single pair.
    """
    tables: list[dict[tuple[int, int], int]] = [{} for _ in pairs]
    for (i, k, l), c in _sweep(n, [q for pair in pairs for q in pair], _pair_cells, workers).items():
        tables[i][k, l] = c
    return [JointTable.from_dict(n, t) for t in tables]


def split_distribution(
    n: int,
    q1: MeshPattern,
    q2: MeshPattern,
    classify: Callable[[Perm], Hashable],
) -> dict[Hashable, JointTable]:
    """Joint tables of S_n partitioned by an arbitrary classifier.

    Used to check structural splits (e.g. by sign of the initial step, or by
    the position of the largest entry) against recurrence-built tables.
    """
    tallies: dict[Hashable, dict[tuple[int, int], int]] = {}
    split = _sweep(n, (q1, q2), lambda pi, kl: ((classify(tuple(pi)), *kl),), 1)
    for (key, k, l), c in split.items():
        tallies.setdefault(key, {})[k, l] = c
    return {key: JointTable.from_dict(n, t) for key, t in sorted(tallies.items(), key=lambda kv: str(kv[0]))}


def avoider_count(n: int, q: MeshPattern) -> int:
    """Number of n-permutations with zero occurrences of ``q``.

    >>> from .mesh import parse_pattern
    >>> avoider_count(2, parse_pattern("123|"))
    2
    """
    return _sweep(n, (q,), lambda pi, counts: counts, 1)[0]


def distribution(n: int, q: MeshPattern) -> list[int]:
    """Single-pattern occurrence distribution: entry k counts permutations
    with exactly k occurrences of ``q``."""
    tally = _sweep(n, (q,), lambda pi, counts: counts, 1)
    return [tally[k] for k in range(max(tally) + 1)]


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def table_to_json(t: JointTable, q1: MeshPattern, q2: MeshPattern) -> str:
    """Byte-stable JSON export of a table; every exported table is swept."""
    obj = {
        "n": t.n,
        "q1": mesh.format_pattern(q1),
        "q2": mesh.format_pattern(q2),
        "counts": [list(row) for row in t.counts],
        "source": "brute_force",
    }
    return json.dumps(obj, sort_keys=True)


def table_to_csv(t: JointTable) -> str:
    """CSV export: header ``k,l,count``, nonzero entries sorted by (k, l)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "l", "count"])
    for k, l, c in t.cells():
        writer.writerow([k, l, c])
    return buf.getvalue()
