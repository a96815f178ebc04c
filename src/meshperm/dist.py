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
packed 8-bit fields, so C(n, m) <= 255 for each pattern length m.  It
walks one leaf per orbit of S_n under the eight symmetries of the square
(complement, reverse, inverse): the smallest, which reports every image of
itself (:func:`_walk`).  Its jobs are first-entry subtrees whose partial
tallies are summed, as :func:`merge` sums whole tables, so results do not
depend on the schedule.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import sys
from collections import Counter
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
    """Count (j, k, l), input pair j having counts (k, l), over the pi in
    S_n whose orbit's smallest image has first entry ``first``; with ``out``,
    out[perms.rank(pi)] = (k, l) instead.  q occurs in c(pi) as c(q) in pi,
    in r(pi) as r(q) and in i(pi) as i(q), so pair j's counts in image t of
    a leaf (pi, c, r, rc of pi, then of i(pi)) are those of
    ``pairs[slot[t][j]]`` in the leaf.  Only the smallest of these eight
    images is walked, decided at the node with two entries left, and it
    reports each distinct image once.  A node carries each tau's partial
    matches and the packed counts of the occurrences it completes (the
    entries to come lie in their last column).  A leaf tallies its 16-bit
    words (k, l) as ``slot << 24 | tag << 16 | word``, the tag holding a bit
    per image reported."""
    n, pairs, slot, out, first = job
    by_tau: dict[Perm, list[tuple[int, int]]] = {}
    for i, q in enumerate(q for pair in pairs for q in pair):
        by_tau.setdefault(q.tau, []).append((8 * i, mesh.shading_mask(q)))
    taus = [(mesh.extension_bounds(tau), _Fields(s, (len(tau) + 1) ** 2)) for tau, s in by_tau.items()]
    hi, extremes = n + 1 - first, 1 << 1 | 1 << n
    tally, path, seen, offsets = Counter(), [], [0], {}

    def images(pi: Perm) -> list[Perm]:
        """pi, c, r and rc of pi, then of i(pi): slot order."""
        found = []
        for sigma in (pi, perms.inverse(pi)):
            c = tuple([n + 1 - v for v in sigma])  # tuple(generator) resizes: freed n-tuples pile up
            found += [sigma, c, sigma[::-1], c[::-1]]
        return found

    def reported(leaf: Perm) -> int:
        """One bit per distinct image of ``leaf``, at its first index; 0 if it
        is not the smallest.  Images start with b or n + 1 - b (b its last
        entry), or the positions of 1 and n or their mirrors: a tie builds them."""
        heads = (leaf[-1], leaf.index(1) + 1, leaf.index(n) + 1)
        low = min(min(heads), n + 1 - max(heads))  # the head h or the mirror n + 1 - h
        if low != first:
            return 0xFF if low > first else 0
        found = images(leaf)
        if min(found) != leaf:
            return 0
        if found.count(leaf) == 1:  # no symmetry fixes leaf: its images are distinct
            return 0xFF
        return sum(1 << t for t, image in enumerate(found) if image not in found[:t])

    def grow(v: int, unused: list[int], states: list, total: int, tag: int) -> None:
        path.append(v)
        seen.append(seen[-1] | 1 << v)
        d = len(path)
        children = []
        for (bounds, fields), levels in zip(taus, states):
            kids, done = mesh.extend_matches(levels, bounds, v, d, n - d)
            for pos, vals in done:
                total += fields[mesh.filled_boxes(seen, pos, vals)]
            children.append(kids)
        for i, w in enumerate(unused):
            rest = unused[:i] + unused[i + 1:]
            if len(rest) == 1:
                tag = reported((*path, w, *rest))
                if not tag:
                    continue
            elif rest and (  # 1 and n sit at positions first..hi
                    1 << w & extremes and d + 1 < first or d + 1 >= hi and ~(seen[-1] | 1 << w) & extremes):
                continue
            grow(w, rest, children, total, tag)
        if not unused:
            words = memoryview(total.to_bytes(2 * len(pairs), "little")).cast("H")
            if out is None:
                keys = offsets.get(tag) or offsets.setdefault(
                    tag, [s << 24 | tag << 16 for s in range(len(pairs))])
                tally.update(map(operator.or_, keys, words))
            else:
                for image, row in zip(images(tuple(path)), slot):  # a repeated image, the same bytes
                    out[perms.rank(image)] = words[row[0]]
        path.pop()
        seen.pop()

    rest = [w for w in range(1, n + 1) if w != first]
    roots = [[[((), (0, n + 1))]] + [[]] * (len(tau) - 1) for tau in by_tau]
    # n = 2 has no node with two entries left: its one leaf is decided here
    grow(first, rest, roots, 0, len(rest) == 1 and reported((first, *rest)))
    del grow  # it refers to itself: free the subtree's masks now
    owners = {tag: [[] for _ in pairs] for tag in offsets}  # tag -> s -> the input pairs s stands for
    for tag, by_slot in owners.items():
        for j, s in ((j, s) for t, row in enumerate(slot) if tag >> t & 1 for j, s in enumerate(row)):
            by_slot[s].append(j)
    by_pair = Counter()
    for key, c in tally.items():
        k, l = (key & 0xFFFF).to_bytes(2, sys.byteorder)  # the word's bytes in memory order
        for j in owners[key >> 16 & 0xFF][key >> 24]:
            by_pair[j, k, l] += c
    return by_pair


def _sweep(n: int, pairs: Sequence[Pair], workers: int = 1, by_rank: bool = False) -> Counter | bytearray:
    """:func:`_walk` over all of S_n, one job per first entry f <= n/2 (n <= 1
    has none: its one permutation is counted directly), folded by c, r and i
    for every pattern set: an image that is a new pair is one more field.
    With ``workers`` > 1 the jobs go to a process pool.  With ``by_rank``
    (one pair, one worker) they fill 2 * n! bytes by rank instead."""
    perms.check_capacity(n)
    m = max((q.length for pair in pairs for q in pair), key=lambda m: math.comb(n, m), default=0)
    if math.comb(n, m) > 255:  # the largest count of a length-m pattern
        raise ValueError(f"n={n}, m={m}: C(n, m)={math.comb(n, m)} overflows the 8-bit counts")
    if n <= 1:
        pi = tuple(range(1, n + 1))
        counts = [mesh.count_occurrences(pi, q) for pair in pairs for q in pair]
        return bytearray(counts) if by_rank else Counter(zip(range(len(pairs)), counts[0::2], counts[1::2]))
    index: dict[Pair, int] = {}  # the distinct image pairs, numbered as found
    # c(i(pi)) = i(r(pi)) has the counts of r(i(q)) in pi, r(i(pi)) those of c(i(q))
    slot = [[index.setdefault(tuple(mesh.apply_pattern_ops(q, w) for q in pair), len(index)) for pair in pairs]
            for w in ("", "c", "r", "cr", "i", "ir", "ic", "icr")]
    out = memoryview(bytearray(2 * math.factorial(n))).cast("H") if by_rank else None
    jobs = [(n, list(index), slot, out, f) for f in range(1, n // 2 + 1)]
    if workers <= 1 or len(jobs) < 2:
        tally = sum(map(_walk, jobs), Counter())
        return tally if out is None else out.obj
    from concurrent.futures import ProcessPoolExecutor  # only here: it is slow to import
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        return sum(pool.map(_walk, jobs), Counter())


def joint_tables(n: int, pairs: Sequence[Pair], workers: int = 1) -> list[JointTable]:
    """Brute-force joint tables over S_n for many pattern pairs in one sweep.

    All pairs share the per-permutation bookkeeping, so verifying the whole
    catalog at one n costs little more than verifying a single pair.
    """
    tables: list[dict[tuple[int, int], int]] = [{} for _ in pairs]
    for (j, k, l), c in _sweep(n, pairs, workers).items():
        tables[j][k, l] = c
    return [JointTable.from_dict(n, t) for t in tables]


def counts_by_rank(n: int, q1: MeshPattern, q2: MeshPattern) -> bytearray:
    """The counts of (q1, q2) in each pi in S_n, from one serial sweep:
    bytes 2r and 2r + 1 are (k, l) for the pi of rank r (:func:`perms.rank`)."""
    return _sweep(n, [(q1, q2)], by_rank=True)


def split_distribution(
    n: int,
    q1: MeshPattern,
    q2: MeshPattern,
    classify: Callable[[Perm], Hashable],
) -> dict[Hashable, JointTable]:
    """Joint tables of S_n partitioned by an arbitrary classifier: the
    counts of :func:`counts_by_rank` grouped by classify(pi), in rank order.

    Used to check structural splits (e.g. by sign of the initial step, or by
    the position of the largest entry) against recurrence-built tables.
    """
    counts = counts_by_rank(n, q1, q2)
    tallies: dict[Hashable, dict[tuple[int, int], int]] = {}
    for (key, k, l), c in Counter(zip(map(classify, perms.enumerate_sn(n)), counts[0::2], counts[1::2])).items():
        tallies.setdefault(key, {})[k, l] = c
    return {key: JointTable.from_dict(n, t) for key, t in sorted(tallies.items(), key=lambda kv: str(kv[0]))}


def avoider_count(n: int, q: MeshPattern) -> int:
    """Number of n-permutations with zero occurrences of ``q``.

    >>> from .mesh import parse_pattern
    >>> avoider_count(2, parse_pattern("123|"))
    2
    """
    return _sweep(n, [(q, q)])[0, 0, 0]


def distribution(n: int, q: MeshPattern) -> list[int]:
    """Single-pattern occurrence distribution: entry k counts permutations
    with exactly k occurrences of ``q``."""
    tally = _sweep(n, [(q, q)])
    return [tally[0, k, k] for k in range(max(k for _, k, _ in tally) + 1)]


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
