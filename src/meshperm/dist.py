"""
Joint occurrence-count distributions over S_n.

The central object is the :class:`JointTable`: an exact-integer matrix
whose (k, l) entry counts the n-permutations with exactly k occurrences of
a first pattern and l occurrences of a second.  Every table over S_n sums
to n!.  The same matrix is the table's generating polynomial, whose
coefficient of x^k y^l is the (k, l) entry; :meth:`JointTable.render`
prints it.  Closed forms, recurrences and split tables use this one type.

Every table comes from one sweep over S_n (:func:`_sweep`), which counts
the occurrences of many patterns in each permutation with the box masks of
:func:`meshperm.mesh.box_masks`.  The sweep can be partitioned by the first
entry of the permutation; the partial tallies are summed, as :func:`merge`
sums whole tables, so results do not depend on the schedule.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Sequence

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


def is_jointly_symmetric(t: JointTable) -> bool:
    """True when the table equals its transpose (missing entries read 0)."""
    dim = max(len(t.counts), max(len(row) for row in t.counts))
    return all(
        t.entry(k, l) == t.entry(l, k) for k in range(dim) for l in range(dim)
    )


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


def _sweep(
    patterns: Sequence[MeshPattern], pis: Iterable[Perm]
) -> Iterator[tuple[Perm, list[int]]]:
    """Yield ``(pi, counts)`` for each permutation, where ``counts[i]`` is
    the number of occurrences of ``patterns[i]`` in ``pi``.

    The box masks of each distinct classical pattern are built once per
    permutation and shared by every shading on it.
    """
    taus = list(dict.fromkeys(q.tau for q in patterns))
    slots = [(taus.index(q.tau), mesh.shading_mask(q)) for q in patterns]
    for pi in pis:
        # ~mask: the boxes of an occurrence that hold some entry.
        filled = [[~mask for _, mask in mesh.box_masks(pi, tau)] for tau in taus]
        yield pi, [sum(1 for f in filled[t] if not shaded & f) for t, shaded in slots]


def _perms_with_first(n: int, firsts: Sequence[int]) -> Iterable[Perm]:
    for first in firsts:
        rest = [v for v in range(1, n + 1) if v != first]
        for tail in itertools.permutations(rest):
            yield (first, *tail)


def _tally(pairs: Sequence[Pair], pis: Iterable[Perm]) -> list[dict]:
    tallies: list[dict[tuple[int, int], int]] = [{} for _ in pairs]
    for _, counts in _sweep([q for pair in pairs for q in pair], pis):
        for tally, kl in zip(tallies, zip(counts[::2], counts[1::2])):
            tally[kl] = tally.get(kl, 0) + 1
    return tallies


def _tally_worker(args) -> list[dict]:
    n, pairs, firsts = args
    return _tally(pairs, _perms_with_first(n, firsts))


def joint_tables(
    n: int, pairs: Sequence[Pair], workers: int = 1
) -> list[JointTable]:
    """Brute-force joint tables over S_n for many pattern pairs in one sweep.

    All pairs share the per-permutation bookkeeping, so verifying the whole
    catalog at one n costs little more than verifying a single pair.
    """
    perms.check_capacity(n)
    if n == 0:
        return [JointTable.from_dict(0, {(0, 0): 1}) for _ in pairs]
    if workers <= 1 or n < 2:
        return [JointTable.from_dict(n, t) for t in _tally(pairs, perms.enumerate_sn(n))]
    jobs = [(n, pairs, [first]) for first in range(1, n + 1)]
    with ProcessPoolExecutor(max_workers=min(workers, n)) as pool:
        parts = list(pool.map(_tally_worker, jobs))
    # parts[j][i] is pair i's tally over partition j; sum each pair's column.
    return [JointTable.from_dict(n, sum(map(Counter, col), Counter())) for col in zip(*parts)]


def joint_distribution(
    n: int, q1: MeshPattern, q2: MeshPattern, workers: int = 1
) -> JointTable:
    """Exact joint table of one pattern pair over S_n.

    >>> from .mesh import parse_pattern
    >>> s19 = parse_pattern("123|0,0;0,1;0,2;1,0;1,1;1,2;2,0;2,1;2,2")
    >>> s19c = parse_pattern("321|0,0;0,1;0,2;1,0;1,1;1,2;2,0;2,1;2,2")
    >>> joint_distribution(2, s19, s19c).counts
    ((2,),)
    """
    return joint_tables(n, [(q1, q2)], workers=workers)[0]


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
    perms.check_capacity(n)
    tallies: dict[Hashable, dict[tuple[int, int], int]] = {}
    for pi, (k, l) in _sweep((q1, q2), perms.enumerate_sn(n)):
        bucket = tallies.setdefault(classify(pi), {})
        bucket[(k, l)] = bucket.get((k, l), 0) + 1
    return {key: JointTable.from_dict(n, t) for key, t in sorted(tallies.items(), key=lambda kv: str(kv[0]))}


def avoider_count(n: int, q: MeshPattern) -> int:
    """Number of n-permutations with zero occurrences of ``q``.

    >>> from .mesh import parse_pattern
    >>> avoider_count(2, parse_pattern("123|"))
    2
    """
    perms.check_capacity(n)
    return sum(1 for _, (k,) in _sweep((q,), perms.enumerate_sn(n)) if k == 0)


def distribution(n: int, q: MeshPattern) -> list[int]:
    """Single-pattern occurrence distribution: entry k counts permutations
    with exactly k occurrences of ``q``."""
    perms.check_capacity(n)
    tally: dict[int, int] = {}
    for _, (k,) in _sweep((q,), perms.enumerate_sn(n)):
        tally[k] = tally.get(k, 0) + 1
    return [tally.get(k, 0) for k in range(max(tally, default=0) + 1)]


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def table_to_json(
    t: JointTable,
    q1: MeshPattern | None = None,
    q2: MeshPattern | None = None,
    source: str = "brute_force",
) -> str:
    """Byte-stable JSON export of a table."""
    obj = {
        "n": t.n,
        "q1": mesh.format_pattern(q1) if q1 is not None else None,
        "q2": mesh.format_pattern(q2) if q2 is not None else None,
        "counts": [list(row) for row in t.counts],
        "source": source,
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
