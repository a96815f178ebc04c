"""
The built-in registry of the 58 pattern pairs under study.

Each pair couples a mesh pattern on 123 with one on 321 carrying the same
shading.  Pairs are grouped into frames: every pair in a frame has the same
joint table over S_n for every n.  :func:`frames` is the one list of who
shares a table: ``meshperm.checks`` compares the tables within each frame,
and each closed form with every pair in its anchor's frame.  The
data lives in ``catalog_data.txt`` next to this module, one pair per line:

    <id> <family> <frame> <status> <q1-pattern-text> <q2-pattern-text>

with ``#`` starting a comment.  The same format is accepted from user files
via :func:`load_catalog`, which validates every invariant and deduplicates
repeated boxes with a warning.

Most non-anchor pairs are derived from an anchor pair by a documented word
in the complement/reverse/inverse operators; :func:`validate_derivations`
recomputes every chain and confirms it lands exactly on the catalog entry,
and returns one ``(name, passed, detail)`` record per check.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import mesh
from .mesh import MeshPattern

FAMILIES = ("symmetric", "minus_antipodal")
STATUSES = ("proven", "conjectured")
CONJECTURED_IDS = ("S21", "S22")
# The element-swap pairs: no permutation contains both of their patterns.
NEVER_BOTH_IDS = tuple(f"S{i}" for i in range(9, 19))

# How each pair's joint equidistribution is established.
METHODS = {
    **{f"S{i}": "complement_reverse" for i in range(1, 9)},
    **{f"S{i}": "element_swap" for i in range(9, 19)},
    "S19": "recurrence",
    "S20": "recurrence",
    "S21": "conjecture",
    "S22": "conjecture",
    **{f"A{i}": "complement_reverse" for i in range(1, 17)},
    **{f"A{i}": "closed_form" for i in range(17, 25)},
    **{f"A{i}": "recurrence" for i in range(25, 37)},
}


class CatalogError(ValueError):
    """Raised for malformed or invariant-violating catalog data."""


@dataclass(frozen=True)
class PatternPair:
    id: str
    q1: MeshPattern
    q2: MeshPattern
    family: str
    frame: str
    status: str
    method: str

    def validate(self) -> None:
        if self.q1.tau != (1, 2, 3):
            raise CatalogError(f"{self.id}: q1 must be a pattern on 123")
        if self.q2.tau != (3, 2, 1):
            raise CatalogError(f"{self.id}: q2 must be a pattern on 321")
        if self.family not in FAMILIES:
            raise CatalogError(f"{self.id}: unknown family {self.family!r}")
        if self.status not in STATUSES:
            raise CatalogError(f"{self.id}: unknown status {self.status!r}")
        cls1 = mesh.classify_shading(self.q1)
        if self.family == "symmetric":
            if self.q1.shading != self.q2.shading:
                raise CatalogError(
                    f"{self.id}: symmetric pairs need identical shadings"
                )
            if not cls1.symmetric:
                raise CatalogError(
                    f"{self.id}: shading is not closed under transposition"
                )
        else:
            cls2 = mesh.classify_shading(self.q2)
            if not (cls1.minus_antipodal and cls2.minus_antipodal):
                raise CatalogError(f"{self.id}: shading is not minus-antipodal")


def _parse_line(line: str, lineno: int) -> PatternPair:
    fields = line.split()
    if len(fields) != 6:
        raise CatalogError(f"line {lineno}: expected 6 fields, got {len(fields)}")
    pid, family, frame, status, q1_text, q2_text = fields
    raw_boxes = [tok for tok in q1_text.partition("|")[2].split(";") if tok] + [
        tok for tok in q2_text.partition("|")[2].split(";") if tok
    ]
    try:
        q1 = mesh.parse_pattern(q1_text)
        q2 = mesh.parse_pattern(q2_text)
    except ValueError as exc:
        raise CatalogError(f"line {lineno}: {exc}") from exc
    if len(raw_boxes) != len(q1.shading) + len(q2.shading):
        warnings.warn(
            f"catalog line {lineno} ({pid}): duplicate boxes deduplicated",
            stacklevel=3,
        )
    pair = PatternPair(
        id=pid,
        q1=q1,
        q2=q2,
        family=family,
        frame=frame,
        status=status,
        method=METHODS.get(pid, "unknown"),
    )
    pair.validate()
    return pair


def _parse_text(text: str) -> tuple[PatternPair, ...]:
    pairs = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        pair = _parse_line(line, lineno)
        if pair.id in seen:
            raise CatalogError(f"line {lineno}: duplicate pair id {pair.id}")
        seen.add(pair.id)
        pairs.append(pair)
    return tuple(pairs)


@functools.lru_cache(maxsize=1)
def builtin_catalog() -> tuple[PatternPair, ...]:
    """All 58 pairs, in order S1..S22, A1..A36.

    >>> cat = builtin_catalog()
    >>> len(cat), cat[0].id, cat[-1].id
    (58, 'S1', 'A36')
    """
    text = resources.files(__package__).joinpath("catalog_data.txt").read_text()
    pairs = _parse_text(text)
    _validate_global(pairs)
    return pairs


def load_catalog(path: str | Path) -> tuple[PatternPair, ...]:
    """Parse and validate a catalog file in the standard text format."""
    pairs = _parse_text(Path(path).read_text())
    _validate_global(pairs)
    return pairs


def _validate_global(pairs: tuple[PatternPair, ...]) -> None:
    conjectured = {p.id for p in pairs if p.status == "conjectured"}
    known = set(CONJECTURED_IDS) & {p.id for p in pairs}
    if conjectured != known:
        raise CatalogError(
            f"conjectured entries must be exactly {sorted(known)}, got {sorted(conjectured)}"
        )


def by_id(catalog: tuple[PatternPair, ...] | None = None) -> dict[str, PatternPair]:
    if catalog is None:
        catalog = builtin_catalog()
    return {p.id: p for p in catalog}


_index = functools.cache(by_id)  # the built-in catalog by id, built once; only read


def get_pair(pid: str) -> PatternPair:
    try:
        return _index()[pid.upper()]
    except KeyError:
        raise KeyError(f"unknown catalog pair {pid!r} (expected S1..S22 or A1..A36)")


def frames(catalog: tuple[PatternPair, ...] | None = None) -> dict[str, list[PatternPair]]:
    """Pairs grouped by frame, in catalog order."""
    if catalog is None:
        catalog = builtin_catalog()
    grouped: dict[str, list[PatternPair]] = {}
    for pair in catalog:
        grouped.setdefault(pair.frame, []).append(pair)
    return grouped


# ---------------------------------------------------------------------------
# Derivation chains
# ---------------------------------------------------------------------------

# Each chain starts from the q1 pattern of an anchor pair and applies words
# in the operators c (complement), r (reverse), i (inverse).  The waypoint
# after each word names the catalog pair the intermediate pattern must match,
# in the slot of its tau: q1 if it lies on 123, q2 if on 321 (c and r swap
# the two, i fixes both).
DERIVATION_CHAINS: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = (
    ("S9", (("cr", "S10"),)),
    ("S11", (("cr", "S12"),)),
    ("S13", (("c", "S14"),)),
    ("S15", (("cr", "S16"),)),
    ("S17", (("cr", "S18"),)),
    ("S19", (("cr", "S20"),)),
    ("S21", (("cr", "S22"),)),
    ("A1", (("r", "A2"), ("i", "A4"), ("c", "A3"))),
    ("A5", (("r", "A6"), ("i", "A8"), ("c", "A7"))),
    ("A9", (("r", "A10"), ("i", "A12"), ("c", "A11"))),
    ("A13", (("r", "A14"), ("i", "A16"), ("c", "A15"))),
    ("A17", (("c", "A18"), ("r", "A22"), ("c", "A21"))),
    ("A17", (("i", "A19"), ("r", "A20"), ("c", "A23"), ("r", "A24"))),
    ("A25", (("r", "A32"), ("c", "A27"), ("r", "A28"))),
    ("A25", (("i", "A30"), ("c", "A29"), ("r", "A31"), ("c", "A26"))),
    ("A33", (("cr", "A34"),)),
    ("A33", (("i", "A35"), ("cr", "A36"))),
)

# Within-pair relation for the pairs proved by a single global symmetry:
# applying the named operator to q1 must give q2 exactly.
INTERNAL_SYMMETRY = {
    **{f"S{i}": "c" for i in range(1, 9)},
    **{f"A{i}": "c" for i in (1, 2, 5, 6, 9, 10, 13, 14)},
    **{f"A{i}": "r" for i in (3, 4, 7, 8, 11, 12, 15, 16)},
}


def validate_derivations(
    catalog: tuple[PatternPair, ...] | None = None,
) -> list[tuple[str, bool, str]]:
    """Recompute every documented derivation chain and internal symmetry.

    Each waypoint's pattern is compared with the catalog entry in the slot
    of its tau.  Returns one ``(name, passed, detail)`` record per chain
    start and per symmetry; mismatches are data, not exceptions.
    """
    pairs = by_id(catalog)
    checks: list[tuple[str, bool, str]] = []

    for start_id, steps in DERIVATION_CHAINS:
        for start_slot in ("q1", "q2"):
            current = getattr(pairs[start_id], start_slot)
            trail = [f"{start_id}.{start_slot}"]
            ok = True
            detail = ""
            for ops, target_id in steps:
                current = mesh.apply_pattern_ops(current, ops)
                slot = "q1" if current.tau == (1, 2, 3) else "q2"
                expected = getattr(pairs[target_id], slot)
                trail.append(f"-{ops}-> {target_id}.{slot}")
                if current != expected:
                    ok = False
                    detail = (
                        f"got {mesh.format_pattern(current)}, catalog has "
                        f"{mesh.format_pattern(expected)}"
                    )
                    break
            checks.append((" ".join(trail), ok, detail))

    for pid, op in INTERNAL_SYMMETRY.items():
        pair = pairs[pid]
        derived = mesh.apply_pattern_ops(pair.q1, op)
        ok = derived == pair.q2
        detail = "" if ok else f"{op}(q1) = {mesh.format_pattern(derived)} != q2"
        checks.append((f"{pid}: {op}(q1) == q2", ok, detail))

    return checks
