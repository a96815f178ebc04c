"""
Explicit maps witnessing the catalog's equidistributions, plus a harness
that checks them exhaustively over S_n.

Two kinds of map live here:

* occurrence swappers: involutions f of S_n with
  (occurrences of q1, occurrences of q2) composed with f equal to the
  swapped pair.  These are the global symmetries (complement / reverse),
  each attached to the pairs of ``catalog.INTERNAL_SYMMETRY`` it proves,
  and the entry-swapping maps attached to pairs S9, S11, S13, S15, S17.
* the iterated swap attached to pair S21: a map from the avoiders of q1
  into the avoiders of q2 within C(n, 3) swaps.  It is injective only for
  n <= 3; from n = 4 on it collides (3241 and 4213 both go to 1243), so
  the Wilf-equivalence of the two patterns is shown by direct count
  (criterion 12b), not by this map.

A map is named by the id of the pair it proves.  Every map is checked by
:func:`verify_swap_bijection` on that pair, which reads each permutation's
counts from the one sweep of S_n that builds every table, and so holds n!
entries; failures are returned as report data, never hidden.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from math import comb, factorial
from typing import Callable

from . import catalog, dist, mesh, perms
from .mesh import MeshPattern
from .perms import Perm


class DomainError(ValueError):
    """An input outside a map's domain."""


class StructureError(AssertionError):
    """A structural claim the map relies on failed; signals a misreading."""


def map_s9(pi: Perm) -> Perm:
    """Exchange the value prefixes 1,2,3 and 3,2,1; identity otherwise.

    >>> map_s9((1, 2, 3, 4, 5))
    (3, 2, 1, 4, 5)
    >>> map_s9((2, 1, 3, 4, 5))
    (2, 1, 3, 4, 5)
    """
    if len(pi) < 3:
        return pi
    if pi[:3] == (1, 2, 3):
        return (3, 2, 1) + pi[3:]
    if pi[:3] == (3, 2, 1):
        return (1, 2, 3) + pi[3:]
    return pi


def map_s11(pi: Perm) -> Perm:
    """Swap the end entries of 1,2,...,n and n,2,...,1; identity otherwise.

    >>> map_s11((1, 2, 3, 4))
    (4, 2, 3, 1)
    """
    n = len(pi)
    if n < 3:
        return pi
    if (pi[0], pi[1], pi[-1]) in ((1, 2, n), (n, 2, 1)):
        return (pi[-1],) + pi[1:-1] + (pi[0],)
    return pi


def map_s13(pi: Perm) -> Perm:
    """Swap the end entries when they are {1, n} in either order.

    Serves both pairs S13 and S15, whose occurrences force the first entry
    to be 1 or n and the last to be the other.

    >>> map_s13((1, 3, 2, 4))
    (4, 3, 2, 1)
    >>> map_s13((2, 1, 3, 4))
    (2, 1, 3, 4)
    """
    n = len(pi)
    if n < 2:
        return pi
    if (pi[0], pi[-1]) in ((1, n), (n, 1)):
        return (pi[-1],) + pi[1:-1] + (pi[0],)
    return pi


def map_s17(pi: Perm, q1: MeshPattern, q2: MeshPattern) -> Perm:
    """Swap position 1 with the common third position of all occurrences.

    Every occurrence of either S17 pattern starts at position 1, and all
    occurrences inside one permutation share a single third position t; the
    map swaps the entries at positions 1 and t.  If the occurrences do not
    share a third position the structural claim is wrong and a
    :class:`StructureError` is raised rather than guessing.
    """
    for pat in (q1, q2):
        occ = list(mesh.occurrences(pi, pat))
        if not occ:
            continue
        firsts = {o[0] for o in occ}
        thirds = {o[2] for o in occ}
        if firsts != {1} or len(thirds) != 1:
            raise StructureError(
                f"occurrences of {mesh.format_pattern(pat)} in "
                f"{perms.format_perm(pi)} do not share first position 1 and a "
                f"common third position: {occ}"
            )
        t = thirds.pop()
        out = list(pi)
        out[0], out[t - 1] = out[t - 1], out[0]
        return tuple(out)
    return pi


def iterated_swap(
    pi: Perm, q1: MeshPattern, q2: MeshPattern
) -> tuple[Perm, int]:
    """Repeatedly swap the ends of the lexicographically first occurrence
    of q2 until none remains; returns (result, number of swaps).

    Defined on avoiders of q1.  "Lexicographically first" means least
    position triple (i1, i2, i3).  A guard of C(n, 3) + 1 steps converts
    any non-termination into a loud failure instead of a hang.

    >>> pair = catalog.get_pair("S21")
    >>> iterated_swap((3, 2, 1), pair.q1, pair.q2)[0]
    (1, 2, 3)
    """
    if next(mesh.occurrences(pi, q1), None) is not None:
        raise DomainError(
            f"{perms.format_perm(pi)} contains {mesh.format_pattern(q1)}; "
            "the iterated swap is defined on its avoiders"
        )
    limit = comb(len(pi), 3) + 1
    cur = list(pi)
    steps = 0
    while True:
        occ = min(mesh.occurrences(tuple(cur), q2), default=None)
        if occ is None:
            return tuple(cur), steps
        steps += 1
        if steps > limit:
            raise RuntimeError(
                f"iterated swap exceeded {limit} steps on {perms.format_perm(pi)}"
            )
        i1, _, i3 = occ
        cur[i1 - 1], cur[i3 - 1] = cur[i3 - 1], cur[i1 - 1]


# Each occurrence swapper as (pi, q1, q2) -> image, named by the id of the
# pair it proves; each pair of catalog.INTERNAL_SYMMETRY maps by its symmetry.
# S10/S12/S14/S16/S18 have no map: derivation chains and table equality cover
# them.  S21's iterated swap is checked by its own harness, _verify_wilf.
MAPS: dict[str, Callable[[Perm, MeshPattern, MeshPattern], Perm]] = {
    "S9": lambda pi, q1, q2: map_s9(pi),
    "S11": lambda pi, q1, q2: map_s11(pi),
    "S13": lambda pi, q1, q2: map_s13(pi),
    "S15": lambda pi, q1, q2: map_s13(pi),
    "S17": map_s17,
}
_SYMMETRIES = {
    "c": lambda pi, q1, q2: perms.complement(pi),
    "r": lambda pi, q1, q2: perms.reverse(pi),
}
MAPS.update((pid, _SYMMETRIES[op]) for pid, op in catalog.INTERNAL_SYMMETRY.items())


@dataclass(frozen=True)
class BijectionReport:
    map: str
    pair: str
    n: int
    passed: bool
    counterexample: str | None
    stats: dict

    def to_json(self) -> str:
        obj = asdict(self)
        obj["pass"] = obj.pop("passed")
        return json.dumps(obj, sort_keys=True)


def _counts(n: int, q1: MeshPattern, q2: MeshPattern) -> dict[Perm, tuple[int, int]]:
    """Each pi in S_n -> its counts (k, l) of (q1, q2), from one sweep."""
    split = dist.split_distribution(n, q1, q2, lambda pi: pi)
    return {pi: next(t.cells())[:2] for pi, t in split.items()}


def _verify_swapper(
    fn: Callable[[Perm, MeshPattern, MeshPattern], Perm],
    n: int,
    q1: MeshPattern,
    q2: MeshPattern,
) -> tuple[bool, str | None, dict]:
    counts = _counts(n, q1, q2)
    fixed = 0
    for pi in perms.enumerate_sn(n):
        sigma = fn(pi, q1, q2)
        if fn(sigma, q1, q2) != pi:
            return False, f"not an involution at {perms.format_perm(pi)}", {}
        (k, l), (k2, l2) = counts[pi], counts[sigma]
        if (k2, l2) != (l, k):
            return False, (f"{perms.format_perm(pi)} has counts ({k},{l}) but its image "
                           f"{perms.format_perm(sigma)} has ({k2},{l2})"), {}
        if sigma == pi:
            fixed += 1
    size = factorial(n)
    return True, None, {"fixed_points": fixed, "moved": size - fixed, "size": size}


def _verify_wilf(n: int, q1: MeshPattern, q2: MeshPattern) -> tuple[bool, str | None, dict]:
    counts = _counts(n, q1, q2)
    first_preimage: dict[Perm, Perm] = {}
    domain_size = 0
    collision = None
    max_steps = 0
    for pi in perms.enumerate_sn(n):
        if counts[pi][0]:
            continue
        domain_size += 1
        sigma, steps = iterated_swap(pi, q1, q2)
        max_steps = max(max_steps, steps)
        if steps > comb(n, 3):
            return False, f"{perms.format_perm(pi)} needed {steps} swaps", {}
        if counts[sigma][1]:
            return False, (f"image {perms.format_perm(sigma)} of {perms.format_perm(pi)} "
                           "still contains the second pattern"), {}
        earlier = first_preimage.setdefault(sigma, pi)
        if collision is None and earlier != pi:
            collision = [perms.format_perm(p) for p in (earlier, pi, sigma)]
    q2_avoiders = sum(l == 0 for _, l in counts.values())
    stats = {
        "domain_size": domain_size,
        "image_size": len(first_preimage),
        "q2_avoiders": q2_avoiders,
        "max_swaps": max_steps,
    }
    if len(first_preimage) != domain_size:
        stats["collision"] = collision
        return False, "map is not injective", stats
    if q2_avoiders != domain_size:
        return False, "avoider counts differ", stats
    return True, None, stats


def verify_swap_bijection(map_id: str, n: int) -> BijectionReport:
    """Exhaustively check a map over S_n; failures become report data.

    For occurrence swappers: the map must be an involution and must swap
    the joint counts of the pair.  For the iterated swap: it must biject
    the avoiders of q1 onto the avoiders of q2 within C(n, 3) swaps; when
    it is not injective, ``stats["collision"]`` names the first two inputs
    in enumeration order that share an image, and that image.  ``map_id``
    is the id of the pair the map proves, in upper or lower case.
    """
    perms.check_capacity(n)
    key = map_id.upper()
    if key not in MAPS and key != "S21":
        raise KeyError(f"unknown map {map_id!r}")
    pair = catalog.get_pair(key)
    if key == "S21":
        ok, bad, stats = _verify_wilf(n, pair.q1, pair.q2)
    else:
        ok, bad, stats = _verify_swapper(MAPS[key], n, pair.q1, pair.q2)
    return BijectionReport(map=key, pair=pair.id, n=n, passed=ok, counterexample=bad, stats=stats)
