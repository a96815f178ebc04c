"""Benchmark workloads: inputs made from a seed, one timed repetition, and
the canonical form of a repetition's outputs.

Everything here calls meshperm only through its public functions, looked
up as module attributes at call time, so that the tracing wrappers in
``tracing.py`` see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from math import factorial

from meshperm import bijections, catalog, cli, dist, mesh

# The seed whose generic-workload outputs have a golden digest.
DEFAULT_SEED = 0

# (length of q1, length of q2) for each generic pair.  Every length 1..4
# appears once and the mix is fixed, so the work does not depend on the seed.
GENERIC_LENGTHS = ((4, 1), (3, 2))

# Swap maps expected to pass; S21 is left out because its check fails on
# purpose (see the package README, "Known limitation").  The map is checked
# over S_{n-2}: small enough that the seed's choice of map (S17 costs twice
# as much as the others) barely changes the work.
SWAP_MAPS = ("S9", "S11", "S13", "S15", "S17")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "catalog" or "generic"
    n: int
    workers: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("catalog-n8", "catalog", 8, workers=1),
        Workload("catalog-n8-w2", "catalog", 8, workers=2),
        Workload("generic-n7", "generic", 7),
    )
}


@dataclass(frozen=True)
class CatalogInputs:
    n: int
    ids: tuple[str, ...]  # pair ids in command-line order
    argv: tuple[str, ...]


@dataclass(frozen=True)
class GenericInputs:
    n: int
    pairs: tuple[tuple[mesh.MeshPattern, mesh.MeshPattern], ...]
    map_id: str


def catalog_ids() -> list[str]:
    return [p.id for p in catalog.builtin_catalog()]


def random_pattern(rng: random.Random, m: int) -> mesh.MeshPattern:
    """A random tau of length m with a random third of its boxes shaded."""
    tau = list(range(1, m + 1))
    rng.shuffle(tau)
    boxes = [(i, j) for i in range(m + 1) for j in range(m + 1)]
    return mesh.pattern(tau, rng.sample(boxes, len(boxes) // 3))


def make_inputs(w: Workload, seed: int, n: int) -> CatalogInputs | GenericInputs:
    rng = random.Random(seed)
    if w.kind == "catalog":
        ids = catalog_ids()
        rng.shuffle(ids)
        argv = ("export", "--pairs", ",".join(ids), "--n", str(n),
                "--format", "json", "--workers", str(w.workers))
        return CatalogInputs(n, tuple(ids), argv)
    pairs = tuple(
        (random_pattern(rng, a), random_pattern(rng, b)) for a, b in GENERIC_LENGTHS
    )
    return GenericInputs(n, pairs, rng.choice(SWAP_MAPS))


def first_step(pi) -> str:
    return "desc" if pi[0] > pi[1] else "asc"


def run_once(inputs: CatalogInputs | GenericInputs):
    """One repetition: exactly the calls whose wall time is measured."""
    if isinstance(inputs, CatalogInputs):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(inputs.argv))
        if code != 0:
            raise RuntimeError(f"meshperm {inputs.argv[0]} exited {code}")
        return buf.getvalue()
    n, pairs = inputs.n, inputs.pairs
    joint = dist.joint_tables(n, pairs)
    distributions = [dist.distribution(n, q1) for q1, _ in pairs]
    avoiders = [dist.avoider_count(n, q2) for _, q2 in pairs]
    q1, q2 = pairs[0]
    split = dist.split_distribution(n, q1, q2, first_step)
    report = bijections.verify_swap_bijection(inputs.map_id, n - 2)
    return joint, distributions, avoiders, split, report


def canonical(inputs: CatalogInputs | GenericInputs, raw) -> dict:
    """JSON-ready outputs of one repetition, independent of argument order.

    Catalog: pair id -> the table's export line, in catalog order.
    Generic: every call's result, keyed by call.
    """
    if isinstance(inputs, CatalogInputs):
        lines = raw.splitlines()
        if len(lines) != len(inputs.ids):
            raise RuntimeError(f"expected {len(inputs.ids)} tables, got {len(lines)} lines")
        by_id = dict(zip(inputs.ids, lines))
        return {pid: by_id[pid] for pid in catalog_ids()}
    joint, distributions, avoiders, split, report = raw
    return {
        "patterns": [[mesh.format_pattern(q) for q in pair] for pair in inputs.pairs],
        "joint": [[list(row) for row in t.counts] for t in joint],
        "distribution": distributions,
        "avoider_count": avoiders,
        "split": {key: [list(row) for row in t.counts] for key, t in split.items()},
        "bijection": json.loads(report.to_json()),
    }


def digest(inputs: CatalogInputs | GenericInputs, out: dict) -> str:
    """sha256 of the byte-stable outputs: for the catalog, the export lines
    in catalog order; for the generic workload, the sorted-key JSON."""
    if isinstance(inputs, CatalogInputs):
        text = "\n".join(out.values()) + "\n"
    else:
        text = json.dumps(out, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def perm_patterns(inputs: CatalogInputs | GenericInputs) -> int:
    """Permutations swept times patterns evaluated, per repetition."""
    n = inputs.n
    if isinstance(inputs, CatalogInputs):
        return factorial(n) * 2 * len(inputs.ids)
    pairs = len(inputs.pairs)
    # joint tables (2 patterns a pair), distribution and avoider_count (1 a
    # pair), split_distribution (2), and the swap map over S_{n-2} (2).
    return factorial(n) * (2 * pairs + pairs + pairs + 2) + factorial(n - 2) * 2
