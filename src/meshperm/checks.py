"""
Every claim the package checks by a second route, once each.

A check is a function of ``(n, workers)`` that yields
``(table, k, l, want, got)`` for every value it compares: ``table`` names
the table or route compared (a pair id, a pair id with a split class,
a pattern, or an inversion-sequence counter), k or l is None where it does
not apply and ``want`` comes from the closed form or the claim.
:func:`run` reduces a check over a range of n to a record: name, title,
n range, pass, the first mismatch as ``[n, k, l, want, got]`` and the table
it lies in (both None on a pass), and the seconds taken.  A run over no n
fails.

``crosscheck`` runs the closed-form checks.  Each route in :data:`ROUTES`
is compared with every pair in its anchor's frame, as
:func:`catalog.frames` groups them, and those pairs' tables come from one
sweep per n.  ``verify`` runs the catalog checks in :data:`VERIFY` (joint
symmetry, never-both, frame equality).  They take two more arguments, the
selected pair ids as :func:`catalog.get_pair` names them and the ones the
check covers, and read their tables from one sweep of the selection per n.
"""

from __future__ import annotations

import functools
import itertools
import time
from typing import Iterable, Iterator

from . import catalog, closed_forms as cf, dist, invseq, mesh

# anchor -> (the closed_forms function, looked up at call time, that gives
# the table of every pair in the anchor's frame; the record's title)
ROUTES = {
    "S19": ("s19_table", "S19 split recurrence total == brute force for S19 and S20"),
    "A17": ("a17_table", "A17 closed form == brute force for A17..A24"),
    "A25": ("a25_table", "A25 split recurrence total == brute force for A25..A32"),
    "A33": ("a33_polynomial", "A33 polynomial recurrence == brute force for A33..A36"),
}


def _frame(anchor: str) -> list[str]:
    """The ids of the pairs in ``anchor``'s frame, in catalog order."""
    return [p.id for p in catalog.frames()[catalog.get_pair(anchor).frame]]


@functools.lru_cache(maxsize=None)
def _brute(n: int, workers: int, ids: tuple | None = None) -> dict[str, dist.JointTable]:
    """Brute-force tables of the pairs ``ids`` over S_n, from one sweep; by
    default the pairs in the frames of :data:`ROUTES`."""
    ids = ids or tuple(pid for anchor in ROUTES for pid in _frame(anchor))
    pairs = [(p.q1, p.q2) for p in map(catalog.get_pair, ids)]
    return dict(zip(ids, dist.joint_tables(n, pairs, workers=workers)))


def _grid(table: str, want: dist.JointTable, got: dist.JointTable) -> Iterator[tuple]:
    """Every (k, l) cell of two tables, missing entries read 0."""
    rows = max(len(want.counts), len(got.counts))
    cols = max(map(len, want.counts + got.counts))
    for k, l in itertools.product(range(rows), range(cols)):
        yield table, k, l, want.entry(k, l), got.entry(k, l)


def _row(table: str, want: list[int], got: list[int]) -> Iterator[tuple]:
    """Every k of two sequences, missing entries read 0."""
    for k in range(max(len(want), len(got))):
        yield table, k, None, want[k] if k < len(want) else 0, got[k] if k < len(got) else 0


def _split(pid: str, n: int, classify, rec: dict) -> Iterator[tuple]:
    """The recurrence's split classes against the brute-force classes; a
    class missing on one side reads as an all-zero table."""
    p = catalog.get_pair(pid)
    split = dist.split_distribution(n, p.q1, p.q2, classify)
    empty = dist.JointTable.from_dict(n, {})
    for key in sorted(rec.keys() | split.keys(), key=str):
        table = f"{pid} {classify.__name__}={key}"
        yield from _grid(table, rec.get(key, empty), split.get(key, empty))


def closed_form(anchor: str):
    """The check that compares ``anchor``'s route in :data:`ROUTES` with
    the brute-force table of every pair in its frame."""
    route, title = ROUTES[anchor]

    def check(n: int, workers: int) -> Iterator[tuple]:
        want = getattr(cf, route)(n)
        for pid in _frame(anchor):
            yield from _grid(pid, want, _brute(n, workers)[pid])

    check.__doc__ = title
    return check


def s19_split(n: int, workers: int) -> Iterator[tuple]:
    """S19 split parts == sign-of-first-step classes"""
    yield from _split("S19", n, cf.first_step_descends, cf.s19_split_tables(n))


def stirling_pairs(n: int, workers: int) -> Iterator[tuple]:
    """tilde_T(n,k) == c(n,k+1) for the three length-2 patterns"""
    want = [cf.stirling_pair_count(n, k) for k in range(n)]
    p12, flip, p21 = cf.STIRLING_PAIR_12, cf.STIRLING_PAIR_12_FLIP, cf.STIRLING_PAIR_21
    t12, t21 = dist.joint_tables(n, [(p12, flip), (p21, p21)])  # one sweep
    for pat, t, axis in ((p12, t12, "first"), (flip, t12, "second"), (p21, t21, "first")):
        yield from _row(mesh.format_pattern(pat), want, dist.marginal(t, axis))


def a17_convolution(n: int, workers: int) -> Iterator[tuple]:
    """A17 closed form == binomial convolution (k, l <= n)"""
    for k, l in itertools.product(range(n + 1), repeat=2):
        yield "A17", k, l, cf.a17_entry(n, k, l), cf.a17_entry_by_convolution(n, k, l)


def a17_avoiders(n: int, workers: int) -> Iterator[tuple]:
    """A17..A24 double avoiders == 2*harmonic_factorial(n-2)"""
    want = cf.a17_double_avoiders(n)
    for pid in _frame("A17"):
        yield pid, 0, 0, want, _brute(n, workers)[pid].entry(0, 0)


def a25_split(n: int, workers: int) -> Iterator[tuple]:
    """A25 split parts == position-of-max classes"""
    yield from _split("A25", n, cf.position_of_max_class, cf.a25_split_tables(n))


def a33_coefficients(n: int, workers: int) -> Iterator[tuple]:
    """A33 coefficient recurrence == polynomial"""
    poly = cf.a33_polynomial(n)
    for k, l in itertools.product(range(n), repeat=2):
        yield "A33", k, l, poly.entry(k, l), cf.a33_entry_by_recurrence(n, k, l)


def marginals(n: int, workers: int) -> Iterator[tuple]:
    """A25..A36 brute-force marginals == marginal recurrence"""
    want = cf.a25_family_marginal(n)
    for pid in _frame("A25") + _frame("A33"):
        yield from _row(pid, want, dist.marginal(_brute(n, workers)[pid], "first"))


def inversion_sequences(n: int, workers: int) -> Iterator[tuple]:
    """I(n,k) == T(n,k) for all k, by count and by recurrence"""
    want = cf.a25_family_marginal(n)
    for count in (invseq.count_with_stat, invseq.count_by_recurrence):
        yield from _row(count.__name__, want, [count(n, k) for k in range(len(want))])


def stirling_convolution(n: int, workers: int) -> Iterator[tuple]:
    """Stirling convolution identity, 0<=r<=m<=n, as (k, l) = (m, r)"""
    for m in range(n + 1):
        for r in range(m + 1):
            yield "stirling1", m, r, True, cf.stirling_convolution_identity(n, m, r)


def _transposes(pids: list[str], tables: dict) -> Iterator[tuple]:
    """Every cell of each table against its transpose: (pid, k, l, T[l][k], T[k][l])."""
    for pid in pids:
        t = tables[pid]
        dim = range(max(len(t.counts), len(t.counts[0])))
        for k, l in itertools.product(dim, repeat=2):
            yield pid, k, l, t.entry(l, k), t.entry(k, l)


def symmetry(status: str):
    """The catalog check of each covered table against its transpose; ``status`` titles it."""

    def check(n: int, workers: int, selected: tuple, covered: list) -> Iterator[tuple]:
        yield from _transposes(covered, _brute(n, workers, selected))

    check.__doc__ = f"{status} pairs: joint table == its transpose"
    return check


def never_both(n: int, workers: int, selected: tuple, covered: list) -> Iterator[tuple]:
    """S9..S18 never both: T[k][l] == 0 for k, l > 0"""
    tables = _brute(n, workers, selected)
    for pid in covered:
        t = tables[pid]
        for k, l in itertools.product(range(1, len(t.counts)), range(1, len(t.counts[0]))):
            yield pid, k, l, 0, t.entry(k, l)


def frame_tables(n: int, workers: int, selected: tuple, covered: list) -> Iterator[tuple]:
    """tables within each frame == its first selected member's"""
    tables = _brute(n, workers, selected)
    for first, *rest in covered:
        for pid in rest:
            yield from _grid(pid, tables[first], tables[pid])


# name -> (check, the n range that ``--n n_max`` runs it over)
CHECKS = {
    "S19": (closed_form("S19"), lambda n_max: range(2, n_max + 1)),
    "S19-split": (s19_split, lambda n_max: range(2, min(n_max, 6) + 1)),
    "stirling-pairs": (stirling_pairs, lambda n_max: range(1, min(n_max, 8) + 1)),
    "A17": (closed_form("A17"), lambda n_max: range(2, n_max + 1)),
    "A17-convolution": (a17_convolution, lambda n_max: range(2, max(n_max, 9) + 1)),
    "A17-avoiders": (a17_avoiders, lambda n_max: range(2, n_max + 1)),
    "A25": (closed_form("A25"), lambda n_max: range(2, n_max + 1)),
    "A25-split": (a25_split, lambda n_max: range(2, min(n_max, 6) + 1)),
    "A33": (closed_form("A33"), lambda n_max: range(2, n_max + 1)),
    "A33-coefficients": (a33_coefficients, lambda n_max: range(4, max(n_max, 9) + 1)),
    "marginals": (marginals, lambda n_max: range(2, n_max + 1)),
    "invseq": (inversion_sequences, lambda n_max: range(2, min(n_max, 8) + 1)),
    "stirling-convolution": (stirling_convolution, lambda n_max: range(11)),
    "symmetric": (symmetry("proven"), lambda n_max: range(2, n_max + 1)),
    "conjectures": (symmetry("conjectured"), lambda n_max: range(2, n_max + 1)),
    "never-both": (never_both, lambda n_max: range(2, n_max + 1)),
    "frames": (frame_tables, lambda n_max: range(2, n_max + 1)),
}

# The catalog checks, run by ``verify``: name -> the selected pairs the
# check covers (for frames, grouped by frame).  ``crosscheck`` runs the rest.
VERIFY = {
    "symmetric": lambda ids: [i for i in ids if catalog.get_pair(i).status == "proven"],
    "conjectures": lambda ids: [i for i in ids if catalog.get_pair(i).status == "conjectured"],
    "never-both": lambda ids: [i for i in ids if i in catalog.NEVER_BOTH_IDS],
    "frames": lambda ids: [
        [p.id for p in members]
        for members in catalog.frames([catalog.get_pair(i) for i in ids]).values()
        if len(members) > 1
    ],
}
CROSSCHECK = tuple(name for name in CHECKS if name not in VERIFY)


def run(
    name: str, ns: Iterable[int], workers: int = 1, pairs: Iterable[str] | None = None
) -> dict | None:
    """Run check ``name`` over every n in ``ns`` and return its record.

    A catalog check runs on the pairs ``pairs``, ids in either case (all 58
    by default), and returns None when it covers none of them.

    >>> record = run("A17-convolution", range(2, 4))
    >>> record["pass"], record["n"], record["mismatch"], record["table"]
    (True, [2, 3], None, None)
    >>> run("never-both", range(2, 4), pairs=["S19"]) is None
    True
    """
    check, _ = CHECKS[name]
    args: tuple = (workers,)
    if name in VERIFY:
        if pairs is None:
            pairs = (p.id for p in catalog.builtin_catalog())
        pairs = tuple(dict.fromkeys(catalog.get_pair(pid).id for pid in pairs))
        covered = VERIFY[name](pairs)
        if not covered:
            return None
        args = (workers, pairs, covered)
    ns = list(ns)
    t0 = time.perf_counter()
    cells = ((table, [n, *cell]) for n in ns for table, *cell in check(n, *args))
    table, mismatch = next(((t, c) for t, c in cells if c[-2] != c[-1]), (None, None))
    return {
        "name": name,
        "title": check.__doc__,
        "n": [ns[0], ns[-1]] if ns else [],
        "pass": bool(ns) and mismatch is None,
        "mismatch": mismatch,
        "table": table,
        "seconds": round(time.perf_counter() - t0, 3),
    }
