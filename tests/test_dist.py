import concurrent.futures
import functools
import itertools
import json
import math
import random
from collections import Counter

import pytest

from meshperm import catalog, checks, dist, mesh, perms
from meshperm.dist import (
    JointTable,
    avoider_count,
    distribution,
    joint_tables,
    marginal,
    merge,
    split_distribution,
    table_to_csv,
    table_to_json,
)


def pair(pid):
    return catalog.get_pair(pid)


def table(pid, n, workers=1):
    p = pair(pid)
    return joint_tables(n, [(p.q1, p.q2)], workers=workers)[0]


def test_s19_n2():
    t = table("S19", 2)
    assert t.counts == ((2,),)
    assert t.total() == 2


def test_a33_n3_polynomial():
    t = table("A33", 3)
    assert t.render() == "x + y + 4"


def test_a17_n3():
    t = table("A17", 3)
    assert t.entry(0, 0) == 4 and t.entry(1, 0) == 1 and t.entry(0, 1) == 1
    assert t.total() == 6


def test_conservation_all_pairs_small_n():
    cat = catalog.builtin_catalog()
    for n in range(2, 6):
        for t in joint_tables(n, [(p.q1, p.q2) for p in cat]):
            assert t.total() == math.factorial(n)


def test_joint_symmetry_checker():
    tables = {"S19": table("S19", 5), "A17": table("A17", 6),
              "skew": JointTable(2, ((0, 1), (0, 0)))}

    def asymmetric(pid):
        return [cell for cell in checks._transposes([pid], tables) if cell[3] != cell[4]]

    assert asymmetric("S19") == []
    assert asymmetric("A17") == []
    assert asymmetric("skew") == [("skew", 0, 1, 0, 1), ("skew", 1, 0, 1, 0)]


def test_marginal_examples():
    assert marginal(table("A25", 3), "first") == [5, 1]
    assert marginal(table("A33", 4), "first") == [17, 6, 1]
    t = table("S8", 4)
    assert sum(marginal(t, "first")) == 24
    assert marginal(t, "second") == marginal(t, "first")
    with pytest.raises(ValueError):
        marginal(t, "rows")


def test_avoider_examples():
    assert avoider_count(2, mesh.parse_pattern("123|")) == 2
    # k = 0 row sum of the A17 table at n = 4 (10 + 6 + 1)
    assert avoider_count(4, pair("A17").q1) == 17
    t = table("A17", 5)
    assert t.entry(0, 0) == 34


def test_render_edge_cases():
    assert table("A33", 2).render() == "2"
    empty = table("A33", 0)
    assert empty.counts == ((1,),)
    assert empty.render() == "1"
    assert JointTable.from_dict(3, {}).render() == "0"


def test_polynomial_rendering_order():
    coeffs = {(2, 0): 1, (0, 2): 1, (1, 1): 8, (1, 0): 6, (0, 0): 10}
    t = JointTable.from_dict(4, coeffs)
    assert t.render() == "x^2 + 8xy + y^2 + 6x + 10"
    assert t.to_dict() == coeffs


def test_merge_identity_and_commutativity():
    t = table("S19", 3)
    empty = JointTable.from_dict(3, {})
    assert merge(t, empty) == t
    other = JointTable.from_dict(3, {(2, 1): 7})
    assert merge(t, other) == merge(other, t)
    with pytest.raises(ValueError):
        merge(t, table("S19", 4))


def test_merge_of_first_entry_halves():
    p = pair("S19")
    full = table("S19", 3)
    parts = split_distribution(3, p.q1, p.q2, lambda pi: pi[0] == 1)
    assert merge(parts[True], parts[False]) == full


def test_workers_match_single_threaded():
    assert table("A17", 5, workers=1) == table("A17", 5, workers=3)


def test_catalog_tables_do_not_depend_on_workers(monkeypatch):
    # The pool path sums the per-partition tallies of every pair.  At n = 7
    # the middle subtree is not walked, as its leaves are reverse images of
    # leaves under 1..3; 5 workers outnumber the three jobs, and the pool
    # starts no more processes than there are jobs.
    sizes = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    pairs = [(p.q1, p.q2) for p in catalog.builtin_catalog()]
    for n in (6, 7):
        serial = joint_tables(n, pairs, workers=1)
        assert len(serial) == 58
        for workers in (2, 3, 5):
            assert joint_tables(n, pairs, workers=workers) == serial, (n, workers)
    assert sizes == [2, 3, 3, 2, 3, 3]


# 132 and its complement 312 are not closed under reverse: r(132) = 231.
NOT_REVERSE_CLOSED = (mesh.parse_pattern("132|0,0;2,2"), mesh.parse_pattern("312|1,3"))


def test_sweep_walks_one_subtree_of_each_complementary_pair(monkeypatch):
    # Whether or not the taus are closed under reverse (A17 on 123 and 321
    # is, 132/312 is not), the jobs are the first entries f <= n/2, each
    # folded by complement and reverse.  n = 1 has no such entry, so no job
    # is walked and its one permutation is counted directly.
    walk, jobs = dist._walk, []
    monkeypatch.setattr(dist, "_walk", lambda job: jobs.append(job) or walk(job))
    a17 = pair("A17")
    for n in range(1, 8):
        for q1, q2 in ((a17.q1, a17.q2), NOT_REVERSE_CLOSED):
            jobs.clear()
            assert joint_tables(n, [(q1, q2)])[0].total() == math.factorial(n)
            assert [first for *_, first in jobs] == list(range(1, n // 2 + 1)), (n, str(q1))
            images = [(q1, q2)]
            for op in "cr":
                images += [tuple(map(mesh.PATTERN_OPS[op], pair)) for pair in images]
            assert all(pairs == list(dict.fromkeys(images)) for _, pairs, *_ in jobs)


def leaves_walked(monkeypatch, n, pairs):
    """The number of leaves the sweep walks: calls of the one occurrence
    step at depth n, which each tau takes once per leaf."""
    step, calls = mesh.extend_matches, {}

    def counted(levels, bounds, v, d, left):
        calls[bounds] = calls.get(bounds, 0) + (left == 0)
        return step(levels, bounds, v, d, left)

    with monkeypatch.context() as patch:
        patch.setattr(mesh, "extend_matches", counted)
        joint_tables(n, pairs)
    (leaves,) = set(calls.values())
    return leaves


def orbit_count(n, ops):
    """The number of orbits of S_n under the group the maps ``ops`` generate."""
    smallest = set()
    for pi in perms.enumerate_sn(n):
        orbit, todo = {pi}, [pi]
        while todo:
            sigma = todo.pop()
            for image in (op(sigma) for op in ops):
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
        smallest.add(min(orbit))
    return len(smallest)


def test_reverse_fold_walks_fewer_leaves(monkeypatch):
    # A leaf is walked only if it is the smallest image of its orbit: under
    # c, r and i for the catalog, whose i-images are among its c and r
    # images, and under c and r alone for 132/312.  At n = 8 that is 5,282
    # and 10,176 leaves of S_8, not 11,520 (the first is OEIS A000903).
    cat = [(p.q1, p.q2) for p in catalog.builtin_catalog()]
    square = (perms.complement, perms.reverse, perms.inverse)
    for n in range(2, 8):
        assert leaves_walked(monkeypatch, n, cat) == orbit_count(n, square), n
        assert leaves_walked(monkeypatch, n, [NOT_REVERSE_CLOSED]) == orbit_count(n, square[:2]), n
    assert leaves_walked(monkeypatch, 8, cat) == 5282
    assert leaves_walked(monkeypatch, 8, [NOT_REVERSE_CLOSED]) == 10176


def test_first_entry_split_at_odd_n():
    # The middle subtree is not walked: class 4 comes from the reverse
    # images of leaves under 1..3 that end in 4, classes 5..7 from their
    # complements.  Each class must match the engine run on pi itself.
    p, n = pair("A17"), 7
    parts = split_distribution(n, p.q1, p.q2, lambda pi: pi[0])
    assert list(parts) == list(range(1, n + 1))
    assert all(t.total() == math.factorial(n - 1) for t in parts.values())
    assert functools.reduce(merge, parts.values()) == table("A17", n)
    want = {first: {} for first in range(1, n + 1)}
    for pi in perms.enumerate_sn(n):
        kl = mesh.count_occurrences(pi, p.q1), mesh.count_occurrences(pi, p.q2)
        want[pi[0]][kl] = want[pi[0]].get(kl, 0) + 1
    assert parts == {first: JointTable.from_dict(n, t) for first, t in want.items()}


def reference_positions(pi, q):
    """Occurrences of q in pi by the naive box scan, in lexicographic order."""
    return [
        pos
        for pos in itertools.combinations(range(1, len(pi) + 1), q.length)
        if mesh.is_occurrence(pi, pos, q, table=None)
    ]


def random_pattern(rng):
    """A tau of length 1-4 with any subset of its boxes shaded, empty to full."""
    m = rng.randint(1, 4)
    boxes = [(i, j) for i in range(m + 1) for j in range(m + 1)]
    shading = rng.sample(boxes, rng.randint(0, len(boxes)))
    return mesh.pattern(rng.sample(range(1, m + 1), m), shading)


def assert_sweep_matches_reference(n, pairs):
    """Every table-producing sweep over S_n against the reference scan."""
    ref = {
        pi: [reference_positions(pi, q) for pair in pairs for q in pair]
        for pi in perms.enumerate_sn(n)
    }
    want = []
    for idx, (q1, q2) in enumerate(pairs):
        # Split by the permutation itself: one table per pi, so a mismatch
        # names the permutation, the pattern and its reference positions.
        got = split_distribution(n, q1, q2, lambda pi: pi)
        tally = {}
        for pi, occ in ref.items():
            kl = len(occ[2 * idx]), len(occ[2 * idx + 1])
            tally[kl] = tally.get(kl, 0) + 1
            assert got[pi] == JointTable.from_dict(n, {kl: 1}), (
                pi, str(q1), occ[2 * idx], str(q2), occ[2 * idx + 1])
        want.append(JointTable.from_dict(n, tally))
        assert distribution(n, q1) == marginal(want[-1], "first"), (n, str(q1))
        assert avoider_count(n, q2) == marginal(want[-1], "second")[0], (n, str(q2))
    for workers in (1, 2):
        assert joint_tables(n, pairs, workers=workers) == want, (n, workers)


def test_occurrences_match_reference_scan():
    rng = random.Random(4111)
    for _ in range(400):
        q = random_pattern(rng)
        for n in range(7):
            pi = tuple(rng.sample(range(1, n + 1), n))
            want = sorted(reference_positions(pi, q), key=lambda pos: pos[::-1])
            assert list(mesh.occurrences(pi, q)) == want, (pi, str(q), want)
    # The box rows of every n share one cache; its keys hold n, also past 15.
    for n in (16, 17, 18):
        q = random_pattern(rng)
        pi = tuple(rng.sample(range(1, n + 1), n))
        want = sorted(reference_positions(pi, q), key=lambda pos: pos[::-1])
        assert list(mesh.occurrences(pi, q)) == want, (pi, str(q), want)


def test_first_occurrence_needs_only_its_prefix(monkeypatch):
    # occurrences walks pi one entry at a time, so the first occurrence of
    # 12 in the identity is yielded after its second entry.
    calls = []
    step = mesh.extend_matches

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(mesh, "extend_matches", counted)
    assert next(mesh.occurrences(tuple(range(1, 9)), mesh.parse_pattern("12|"))) == (1, 2)
    assert len(calls) == 2


def test_sweep_matches_reference_scan_on_random_patterns():
    rng = random.Random(2025)
    for n in range(7):
        assert_sweep_matches_reference(
            n, [(random_pattern(rng), random_pattern(rng)) for _ in range(8)]
        )
    # Sets closed under inverse, each pair with its i-image, are folded by i
    # too; involutions, leaves fixed by rc and those whose first entry is the
    # position of 1 tie with an image and report only the distinct ones.
    for n in range(7):
        pairs = [(random_pattern(rng), random_pattern(rng)) for _ in range(4)]
        assert_sweep_matches_reference(
            n, pairs + [tuple(map(mesh.inverse_pattern, pair)) for pair in pairs]
        )


def test_sweep_matches_reference_scan_on_catalog_sample():
    pairs = [(p.q1, p.q2) for p in catalog.builtin_catalog()[::7]]
    for n in (2, 4, 5):
        assert_sweep_matches_reference(n, pairs)


@functools.lru_cache(maxsize=None)
def reference_boxes(pi, tau):
    """Each classical occurrence of tau in pi, with a mask of its empty
    boxes: bit (m+1)*i + j when the reference scan finds box (i, j) empty."""
    return [
        (pos, sum(bit for bit, q in one_box_patterns(tau) if mesh.is_occurrence(pi, pos, q, table=None)))
        for pos in classical_positions(pi, len(tau)).get(tau, ())
    ]


@functools.lru_cache(maxsize=None)
def one_box_patterns(tau):
    """(bit (m+1)*i + j, tau with box (i, j) alone shaded) for each box."""
    side = len(tau) + 1
    return [(1 << side * i + j, mesh.pattern(tau, [(i, j)]))
            for i, j in itertools.product(range(side), repeat=2)]


def test_filled_boxes_match_reference_scan():
    # Every classical occurrence of every tau of length 1-4 in S_n, n <= 6:
    # the mask read from the prefix value sets is the complement of the
    # boxes the reference scan finds empty.
    for n in range(7):
        for pi in perms.enumerate_sn(n):
            seen = [0]
            for v in pi:
                seen.append(seen[-1] | 1 << v)
            for m in range(1, 5):
                for tau in itertools.permutations(range(1, m + 1)):
                    for pos, empty in reference_boxes(pi, tau):
                        vals = (0, n + 1, *(pi[p - 1] for p in pos))
                        full = (1 << (m + 1) ** 2) - 1
                        assert mesh.filled_boxes(seen, pos, vals) == full & ~empty, (pi, pos)


def reference_tables(n, pairs):
    """Joint tables by the reference scan, one box at a time."""
    tallies = [{} for _ in pairs]
    slots = [(q.tau, mesh.shading_mask(q)) for pair in pairs for q in pair]
    for pi in perms.enumerate_sn(n):
        counts = [
            sum(not shaded & ~empty for _, empty in reference_boxes(pi, tau))
            for tau, shaded in slots
        ]
        for tally, kl in zip(tallies, zip(counts[::2], counts[1::2])):
            tally[kl] = tally.get(kl, 0) + 1
    return [JointTable.from_dict(n, t) for t in tallies]


def test_reverse_fold_matches_reference_scan():
    # Random shadings, empty to full, on tau sets closed under reverse and on
    # one that is not (2413/1342), all folded; then A17's shadings.  Each
    # permutation's counts, and so each image a leaf reports, are checked
    # against the reference scan; n = 0 and 1 are counted directly.
    rng = random.Random(1017)
    cases = []
    for taus in ("1", "12 21", "123 321", "1234 4321", "2413 3142", "2413 1342"):
        taus = [perms.parse_perm(t) for t in taus.split()]
        boxes = [(i, j) for i in range(len(taus[0]) + 1) for j in range(len(taus[0]) + 1)]
        half = len(boxes) // 2  # q1 lightly shaded, from empty; q2 heavily, to full
        q1 = mesh.pattern(taus[0], rng.sample(boxes, rng.randint(0, half)))
        q2 = mesh.pattern(taus[-1], rng.sample(boxes, rng.randint(half, len(boxes))))
        cases.append((q1, q2))
    cases.append((pair("A17").q1, pair("A17").q2))
    for q1, q2 in cases:
        for n in range(8):
            want = {pi: (reference_count(pi, q1), reference_count(pi, q2))
                    for pi in perms.enumerate_sn(n)}
            got = split_distribution(n, q1, q2, lambda pi: pi)
            assert {pi: t.to_dict() for pi, t in got.items()} == {
                pi: {kl: 1} for pi, kl in want.items()}, (n, str(q1), str(q2))
            assert joint_tables(n, [(q1, q2)])[0] == JointTable.from_dict(n, Counter(want.values()))


@functools.lru_cache(maxsize=None)
def classical_positions(pi, m):
    """The position tuples of length m in pi, by the pattern their entries form."""
    found = {}
    for pos in itertools.combinations(range(1, len(pi) + 1), m):
        vals = [pi[p - 1] for p in pos]
        ranks = sorted(vals)
        found.setdefault(tuple(ranks.index(v) + 1 for v in vals), []).append(pos)
    return found


def reference_count(pi, q):
    """Occurrences of q in pi by the reference scan."""
    return sum(mesh.is_occurrence(pi, pos, q, table=None)
               for pos in classical_positions(pi, q.length).get(q.tau, ()))


def test_counts_by_rank_match_reference_scan():
    # Bytes 2r and 2r + 1 hold the counts (k, l) of the pi of rank r.  Random
    # patterns of lengths 1-4 and shadings, taus not closed under reverse and
    # a pair (q, q), against the reference scan; then (1|, 21|), whose counts
    # are n and the inversion count of every pi, so a rank the walk never
    # writes reads 0.
    rng = random.Random(2210)
    cases = [(random_pattern(rng), random_pattern(rng)) for _ in range(4)]
    q = random_pattern(rng)
    cases += [(q, q), NOT_REVERSE_CLOSED]
    assert {q.length for pair in cases for q in pair} == {1, 2, 3, 4}
    for n in range(8):
        for q1, q2 in cases:
            want = [c for pi in perms.enumerate_sn(n) for c in (reference_count(pi, q1), reference_count(pi, q2))]
            assert list(dist.counts_by_rank(n, q1, q2)) == want, (n, str(q1), str(q2))
        counts = dist.counts_by_rank(n, mesh.parse_pattern("1|"), mesh.parse_pattern("21|"))
        assert counts[0::2] == bytes([n]) * math.factorial(n), n
        assert list(counts[1::2]) == [
            sum(a > b for a, b in itertools.combinations(pi, 2)) for pi in perms.enumerate_sn(n)], n


def test_counts_by_rank_with_and_without_the_inverse_fold(monkeypatch):
    # S9's i-images are among its c and r images, so its sweep is folded by
    # the eight symmetries of the square; A17's are not, so its sweep is
    # folded by c, r and rc alone.  Both write every rank.
    walk, groups = dist._walk, set()
    monkeypatch.setattr(dist, "_walk", lambda job: groups.add(len(job[2])) or walk(job))
    for pid, group in (("S9", 8), ("A17", 4)):
        p = pair(pid)
        groups.clear()
        for n in range(8):
            want = [c for pi in perms.enumerate_sn(n) for c in (reference_count(pi, p.q1), reference_count(pi, p.q2))]
            assert list(dist.counts_by_rank(n, p.q1, p.q2)) == want, (pid, n)
        assert groups == {group}, pid


def test_repeated_and_image_pairs_match_reference_scan():
    # A pair listed twice and its c and r images: the sweep counts each
    # distinct image pair once and adds it to every input pair it is an
    # image of, with and without the pool.
    rng = random.Random(1119)

    def shaded(tau):
        boxes = [(i, j) for i in range(len(tau) + 1) for j in range(len(tau) + 1)]
        return mesh.pattern(tau, rng.sample(boxes, rng.randint(0, len(boxes))))

    p = (shaded((1, 2)), shaded((1,)))
    c, r = mesh.complement_pattern, mesh.reverse_pattern
    pairs = [p, (c(p[0]), c(p[1])), p, (r(p[0]), r(p[1]))]
    for n in range(8):
        tallies = [Counter() for _ in pairs]
        for pi in perms.enumerate_sn(n):
            counts = {q: reference_count(pi, q) for pair in pairs for q in pair}
            for tally, (q1, q2) in zip(tallies, pairs):
                tally[counts[q1], counts[q2]] += 1
        want = [JointTable.from_dict(n, t) for t in tallies]
        for workers in (1, 2):
            assert joint_tables(n, pairs, workers=workers) == want, (n, workers)


def test_catalog_jobs_carry_the_distinct_image_pairs(monkeypatch):
    # The r and rc images of the 58 catalog pairs are again identity or c
    # images, so each job counts 116 pairs, 232 patterns, not 464.
    walk, jobs = dist._walk, []
    monkeypatch.setattr(dist, "_walk", lambda job: jobs.append(job) or walk(job))
    joint_tables(4, [(p.q1, p.q2) for p in catalog.builtin_catalog()])
    assert len(jobs) == 2
    assert all(len(pairs) == 116 for _, pairs, *_ in jobs)


def test_sweeps_carry_no_packed_counts_between_calls():
    # The same taus and field layout three times in one process: a cache of
    # packed counts keyed on the box mask alone would leak from one pattern
    # set into the next.
    rng = random.Random(7)
    cat = [(p.q1, p.q2) for p in catalog.builtin_catalog()]
    boxes = [(i, j) for i in range(4) for j in range(4)]
    shaded = [
        tuple(mesh.pattern(q.tau, rng.sample(boxes, rng.randint(0, 16))) for q in pair)
        for pair in cat
    ]
    for n, pairs in ((6, cat), (6, shaded), (5, cat)):
        assert joint_tables(n, pairs) == reference_tables(n, pairs), n


def test_counts_beyond_8_bits_are_refused_before_sweeping(monkeypatch):
    def walk(job):
        raise AssertionError("swept")

    monkeypatch.setenv("MESHPERM_NMAX", "13")
    monkeypatch.setattr(dist, "_walk", walk)
    q1, q2 = pair("A17").q1, pair("A17").q2
    sweeps = [
        lambda: joint_tables(13, [(q1, q2)]),
        lambda: split_distribution(13, q1, q2, tuple),
        lambda: distribution(13, q1),
        lambda: avoider_count(13, q2),
        lambda: dist.counts_by_rank(13, q1, q2),
    ]
    for sweep in sweeps:
        with pytest.raises(ValueError, match=r"n=13, m=3: C\(n, m\)=286"):
            sweep()
    # C(12, 3) = 220 fits: the sweep starts.
    with pytest.raises(AssertionError, match="swept"):
        joint_tables(12, [(q1, q2)])


def test_json_export_is_stable():
    p = pair("A33")
    t = table("A33", 3)
    text = table_to_json(t, p.q1, p.q2)
    assert text == table_to_json(t, p.q1, p.q2)
    obj = json.loads(text)
    assert obj["n"] == 3
    assert obj["counts"] == [[4, 1], [1, 0]]
    assert obj["q1"].startswith("123|")
    assert obj["source"] == "brute_force"


def test_csv_export():
    t = table("A33", 3)
    assert table_to_csv(t) == "k,l,count\n0,0,4\n0,1,1\n1,0,1\n"


def test_never_both_for_swap_family():
    for pid in [f"S{i}" for i in range(9, 19)]:
        for n in range(2, 7):
            t = table(pid, n)
            assert all(k == 0 or l == 0 for k, l, _ in t.cells()), (pid, n)


def test_capacity_guard():
    with pytest.raises(perms.CapacityError):
        table("S19", 11)
