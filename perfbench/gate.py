"""Correctness gate, run on the outputs of every repetition and never timed.

A failed check becomes a :class:`Failure` naming the first mismatching
cell as (workload, pair, n, k, l, want, got); checks without a cell leave
k and l as None.

Catalog workloads: every table sums to n!; every pair's table is symmetric
(the 56 proven pairs, and the conjectured S21/S22, which still hold at
n <= 8); the tables in each frame are equal; S19, A17, A25 and A33 equal
their closed forms or recurrences; the A25..A36 marginals equal both
``closed_forms.a25_family_marginal`` and ``invseq.count_with_stat``; and
the digest of the export lines equals the golden one.

Generic workload: every pattern and pair is checked at a small n against
the reference scan ``mesh.is_occurrence(..., table=None)``; at the
workload's n the calls are checked against each other; the default seed's
digest equals the golden one.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter
from dataclasses import dataclass
from math import factorial

from meshperm import catalog, closed_forms, dist, invseq, mesh

import workloads

REFERENCE_N = 5
CLOSED_FORM_IDS = ("S19", "A17", "A25", "A33")
MARGINAL_IDS = tuple(f"A{i}" for i in range(25, 37))


@dataclass(frozen=True)
class Failure:
    workload: str
    check: str
    pair: str
    n: int
    k: int | None
    l: int | None
    want: object
    got: object

    def __str__(self) -> str:
        return (f"({self.workload}, {self.pair}, n={self.n}, k={self.k}, "
                f"l={self.l}, want={self.want}, got={self.got})  [{self.check}]")


def cells(counts) -> dict[tuple[int, int], int]:
    """Nonzero cells of a dense row-major matrix."""
    return {(k, l): c for k, row in enumerate(counts) for l, c in enumerate(row) if c}


def first_mismatch(want: dict, got: dict):
    """(k, l, want, got) at the first differing cell in (k, l) order, or None."""
    for kl in sorted(want.keys() | got.keys()):
        if want.get(kl, 0) != got.get(kl, 0):
            return (*kl, want.get(kl, 0), got.get(kl, 0))
    return None


def first_asymmetry(got: dict):
    """The first cell (k, l) with k > l whose mirror differs: want is the
    mirror's count.  Scanning only below the diagonal names one cell of
    each mismatched mirror pair."""
    for k, l in sorted({kl for kl in got} | {(l, k) for k, l in got}):
        if k > l and got.get((k, l), 0) != got.get((l, k), 0):
            return k, l, got.get((l, k), 0), got.get((k, l), 0)
    return None


def first_list_mismatch(want: list, got: list):
    for k in range(max(len(want), len(got))):
        w = want[k] if k < len(want) else 0
        g = got[k] if k < len(got) else 0
        if w != g:
            return k, w, g
    return None


class Checks:
    """Accumulates attempted checks and failures for one workload."""

    def __init__(self, workload: str, n: int) -> None:
        self.workload, self.n = workload, n
        self.attempted = 0
        self.failures: list[Failure] = []

    def cell(self, check: str, pair: str, mismatch) -> None:
        self.attempted += 1
        if mismatch is not None:
            k, l, want, got = mismatch
            self.failures.append(Failure(self.workload, check, pair, self.n, k, l, want, got))

    def row(self, check: str, pair: str, want: list, got: list) -> None:
        m = first_list_mismatch(want, got)
        self.cell(check, pair, None if m is None else (m[0], None, m[1], m[2]))

    def value(self, check: str, pair: str, want, got) -> None:
        self.cell(check, pair, None if want == got else (None, None, want, got))


class CatalogGate:
    """Independent routes computed once per run; ``check`` per repetition."""

    def __init__(self, workload: str, inputs: workloads.CatalogInputs,
                 golden: str | None) -> None:
        self.workload, self.inputs, self.golden = workload, inputs, golden
        self.n = n = inputs.n
        t0 = time.perf_counter()
        self.closed = {
            "S19": cells(closed_forms.s19_table(n).counts),
            "A17": cells(closed_forms.a17_table(n).counts),
            "A25": cells(closed_forms.a25_table(n).counts),
            "A33": closed_forms.a33_polynomial(n).to_dict(),
        }
        self.marginal_cf = closed_forms.a25_family_marginal(n)
        t1 = time.perf_counter()
        self.marginal_inv = [invseq.count_with_stat(n, k) for k in range(len(self.marginal_cf))]
        t2 = time.perf_counter()
        self.closed_forms_s, self.invseq_s = t1 - t0, t2 - t1
        self.pairs = catalog.builtin_catalog()

    def run(self, outputs: list[dict]) -> list[Checks]:
        return [self.check(out) for out in outputs]

    def check(self, out: dict[str, str]) -> Checks:
        """``out`` maps pair id to its export line (see workloads.canonical)."""
        c = Checks(self.workload, self.n)
        tables = {pid: cells(json.loads(line)["counts"]) for pid, line in out.items()}
        for p in self.pairs:
            got = tables[p.id]
            c.value("sum", p.id, factorial(self.n), sum(got.values()))
            check = "symmetric" if p.status == "proven" else "conjecture"
            c.cell(check, p.id, first_asymmetry(got))
        for members in catalog.frames(self.pairs).values():
            if len(members) < 2:
                continue
            # The most common table is the reference, so a single corrupt
            # member is the one reported (ties go to catalog order).
            frozen = [frozenset(tables[p.id].items()) for p in members]
            ref = dict(Counter(frozen).most_common(1)[0][0])
            for p in members:
                c.cell("frame", p.id, first_mismatch(ref, tables[p.id]))
        for pid in CLOSED_FORM_IDS:
            c.cell("closed_form", pid, first_mismatch(self.closed[pid], tables[pid]))
        for pid in MARGINAL_IDS:
            got = row_sums(tables[pid])
            c.row("marginal_closed_form", pid, self.marginal_cf, got)
            c.row("marginal_invseq", pid, self.marginal_inv, got)
        if self.golden is not None:
            c.value("digest", "*", self.golden, workloads.digest(self.inputs, out))
        return c


def row_sums(table: dict) -> list[int]:
    """Row sums of a sparse table (the first pattern's distribution)."""
    width = max((k for k, _ in table), default=-1) + 1
    return [sum(v for (k, _), v in table.items() if k == kk) for kk in range(width)]


def reference_count(pi, q: mesh.MeshPattern) -> int:
    positions = itertools.combinations(range(1, len(pi) + 1), q.length)
    return sum(1 for pos in positions if mesh.is_occurrence(pi, pos, q, table=None))


class GenericGate:
    """Reference scan at a small n once per run; ``check`` per repetition."""

    def __init__(self, workload: str, inputs: workloads.GenericInputs,
                 golden: str | None) -> None:
        self.workload, self.inputs, self.golden = workload, inputs, golden
        self.reference_n = min(inputs.n, REFERENCE_N)
        self.closed_forms_s = self.invseq_s = 0.0

    def run(self, outputs: list[dict]) -> list[Checks]:
        return [self.check_reference()] + [self.check(out) for out in outputs]

    def check_reference(self) -> Checks:
        """The public calls at a small n against the reference scan."""
        n, pairs = self.reference_n, self.inputs.pairs
        c = Checks(self.workload, n)
        perms_n = list(itertools.permutations(range(1, n + 1)))
        joint = dist.joint_tables(n, pairs)
        for idx, (q1, q2) in enumerate(pairs):
            label = f"G{idx + 1}"
            ref = Counter((reference_count(pi, q1), reference_count(pi, q2)) for pi in perms_n)
            c.cell("reference_joint", label, first_mismatch(dict(ref), cells(joint[idx].counts)))
            for slot, q in (("q1", q1), ("q2", q2)):
                ref1 = Counter(reference_count(pi, q) for pi in perms_n)
                want = [ref1.get(k, 0) for k in range(max(ref1) + 1)]
                c.row("reference_distribution", f"{label}.{slot}", want, dist.distribution(n, q))
                c.value("reference_avoider_count", f"{label}.{slot}", ref1.get(0, 0),
                        dist.avoider_count(n, q))
        return c

    def check(self, out: dict) -> Checks:
        n = self.inputs.n
        c = Checks(self.workload, n)
        for idx, counts in enumerate(out["joint"]):
            label = f"G{idx + 1}"
            table = cells(counts)
            c.value("sum", label, factorial(n), sum(table.values()))
            c.row("distribution_marginal", f"{label}.q1", row_sums(table),
                  out["distribution"][idx])
            zero_column = sum(v for (_, l), v in table.items() if l == 0)
            c.value("avoider_zero_column", f"{label}.q2", zero_column, out["avoider_count"][idx])
        merged: Counter = Counter()
        for counts in out["split"].values():
            merged.update(cells(counts))
        c.cell("split_merge", "G1", first_mismatch(cells(out["joint"][0]), dict(merged)))
        report = out["bijection"]
        c.value("bijection", report["map"], True, report["pass"])
        c.value("bijection_size", report["map"], factorial(n - 2), report["stats"].get("size"))
        if self.golden is not None:
            c.value("digest", "*", self.golden, workloads.digest(self.inputs, out))
        return c
