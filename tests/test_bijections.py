import itertools

import pytest

from meshperm import bijections as bj, catalog, dist, mesh, perms


def test_map_s9_rules():
    assert bj.map_s9(perms.parse_perm("12345")) == perms.parse_perm("32145")
    assert bj.map_s9(perms.parse_perm("32145")) == perms.parse_perm("12345")
    assert bj.map_s9(perms.parse_perm("21345")) == perms.parse_perm("21345")
    assert bj.map_s9((2, 1)) == (2, 1)


def test_map_s11_rules():
    assert bj.map_s11(perms.parse_perm("1234")) == perms.parse_perm("4231")
    assert bj.map_s11(perms.parse_perm("4231")) == perms.parse_perm("1234")
    assert bj.map_s11(perms.parse_perm("2134")) == perms.parse_perm("2134")


def test_map_s13_rules():
    assert bj.map_s13(perms.parse_perm("1324")) == perms.parse_perm("4321")
    assert bj.map_s13(perms.parse_perm("4321")) == perms.parse_perm("1324")
    assert bj.map_s13(perms.parse_perm("2134")) == perms.parse_perm("2134")


@pytest.mark.parametrize("map_id", ["S9", "S11", "S13", "S15", "S17"])
def test_swap_maps_pass_harness(map_id):
    for n in range(1, 6):
        report = bj.verify_swap_bijection(map_id, n)
        assert report.passed, (map_id, n, report.counterexample)


def test_s17_common_third_position_structure():
    # Every occurrence starts at position 1 and all share one third position
    # t; map_s17 reads t from pi alone and must swap exactly positions 1, t.
    pair = catalog.get_pair("S17")
    for n in range(3, 8):
        for pi in perms.enumerate_sn(n):
            occ = list(mesh.occurrences(pi, pair.q1)) + list(mesh.occurrences(pi, pair.q2))
            if not occ:
                assert bj.map_s17(pi) == pi, pi
                continue
            assert {o[0] for o in occ} == {1}
            (t,) = {o[2] for o in occ}
            want = list(pi)
            want[0], want[t - 1] = want[t - 1], want[0]
            assert bj.map_s17(pi) == tuple(want), pi
    report = bj.verify_swap_bijection("S17", 8)
    assert report.passed and report.stats == {"fixed_points": 39424, "moved": 896, "size": 40320}


def test_s17_identity_on_double_avoiders():
    pair = catalog.get_pair("S17")
    for pi in perms.enumerate_sn(4):
        if mesh.count_occurrences(pi, pair.q1) == 0 and mesh.count_occurrences(pi, pair.q2) == 0:
            assert bj.map_s17(pi) == pi


def test_global_symmetry_maps_pass_harness():
    for pid in catalog.INTERNAL_SYMMETRY:
        report = bj.verify_swap_bijection(pid, 5)
        assert report.passed, (pid, report.counterexample)


def test_map_s21_examples():
    pair = catalog.get_pair("S21")
    assert bj.iterated_swap((3, 2, 1), pair.q1, pair.q2)[0] == (1, 2, 3)
    # fixed on permutations avoiding both patterns
    for pi in perms.enumerate_sn(4):
        q1_free = mesh.count_occurrences(pi, pair.q1) == 0
        q2_free = mesh.count_occurrences(pi, pair.q2) == 0
        if q1_free and q2_free:
            assert bj.iterated_swap(pi, pair.q1, pair.q2)[0] == pi


def test_iterated_swap_takes_the_lexicographically_first_occurrence():
    # mesh.occurrences yields in colexicographic order, so the swap must not
    # take its first occurrence.  S21's patterns cannot tell the two orders
    # apart; the classical 123 can.  q1 is longer than pi, so all avoid it.
    q1, q2 = mesh.parse_pattern("123456|"), mesh.parse_pattern("123|")
    triples = list(itertools.combinations(range(1, 6), 3))
    orders_differ = 0
    for pi in perms.enumerate_sn(5):
        cur, steps = list(pi), 0
        while occ := [t for t in triples if mesh.is_occurrence(tuple(cur), t, q2, table=None)]:
            orders_differ += occ[0] != min(occ, key=lambda t: t[::-1])
            i1, _, i3 = occ[0]
            cur[i1 - 1], cur[i3 - 1] = cur[i3 - 1], cur[i1 - 1]
            steps += 1
        assert bj.iterated_swap(pi, q1, q2) == (tuple(cur), steps), pi
    assert orders_differ


def test_map_s21_domain_error():
    pair = catalog.get_pair("S21")
    with pytest.raises(bj.DomainError):
        bj.iterated_swap((1, 2, 3), pair.q1, pair.q2)


def test_map_s21_image_avoids_q2_and_terminates():
    pair = catalog.get_pair("S21")
    from math import comb

    for n in range(1, 6):
        for pi in perms.enumerate_sn(n):
            if mesh.count_occurrences(pi, pair.q1):
                continue
            sigma, steps = bj.iterated_swap(pi, pair.q1, pair.q2)
            assert steps <= comb(n, 3)
            assert mesh.count_occurrences(sigma, pair.q2) == 0


def test_s21_harness_reports_noninjectivity_honestly():
    # the literal iterated swap is not injective: 3241 and 4213 collide on
    # 1243, so the harness must fail with that diagnosis while still seeing
    # equal avoider counts on both sides.  S21 has no occurrence swapper in
    # MAPS: its own harness checks the iterated swap, under either case.
    pair = catalog.get_pair("S21")
    a = bj.iterated_swap(perms.parse_perm("3241"), pair.q1, pair.q2)[0]
    b = bj.iterated_swap(perms.parse_perm("4213"), pair.q1, pair.q2)[0]
    assert a == b == perms.parse_perm("1243")
    assert "S21" not in bj.MAPS
    report = bj.verify_swap_bijection("s21", 4)
    assert not report.passed and report.map == "S21"
    assert report.counterexample == "map is not injective"
    assert report.stats["collision"] == ["3241", "4213", "1243"]
    assert report.stats["domain_size"] == report.stats["q2_avoiders"] == 19
    assert report.stats["image_size"] == 18


def test_wilf_equivalence_by_direct_count():
    from meshperm import dist

    s21, s22 = catalog.get_pair("S21"), catalog.get_pair("S22")
    for n in range(1, 7):
        counts = {
            dist.avoider_count(n, q)
            for q in (s21.q1, s21.q2, s22.q1, s22.q2)
        }
        assert len(counts) == 1


def test_report_json_shape():
    report = bj.verify_swap_bijection("S9", 4)
    import json

    obj = json.loads(report.to_json())
    assert obj["map"] == "S9" and obj["pair"] == "S9" and obj["n"] == 4
    assert obj["pass"] is True and obj["counterexample"] is None
    assert "stats" in obj


@pytest.mark.parametrize("map_id", ["S10", "Rev", "complement"])
def test_unknown_map_errors(map_id):
    # An unknown id is reported as it was given, not case-folded.
    with pytest.raises(KeyError, match=f"unknown map '{map_id}'"):
        bj.verify_swap_bijection(map_id, 4)


@pytest.mark.parametrize("bad, message", [
    (lambda pi: pi[1:] + pi[:1], "not an involution at 1234"),
    # S11's map is an involution, but it does not swap S9's counts
    (lambda pi: bj.map_s11(pi), "1234 has counts (1,0) but its image 4231 has (0,0)"),
])
def test_swapper_failures_name_the_counterexample(monkeypatch, bad, message):
    monkeypatch.setitem(bj.MAPS, "S9", bad)
    report = bj.verify_swap_bijection("S9", 4)
    assert not report.passed and report.stats == {}
    assert report.counterexample == message


def test_the_harness_counts_through_one_sweep(monkeypatch):
    # Every count the harness reads comes from one dist.counts_by_rank
    # sweep; no second counting path over S_n may be reached, and no
    # occurrence swapper scans occurrences.  n >= 2: the sweep counts the one
    # permutation of S_0 or S_1 with count_occurrences.
    def refuse(*args):
        raise AssertionError("a second counting path over S_n")

    occurrences = mesh.occurrences
    for module, name in ((mesh, "joint_counts"), (mesh, "count_occurrences"), (dist, "avoider_count"),
                         (dist, "split_distribution"), (mesh, "occurrences")):
        monkeypatch.setattr(module, name, refuse)
    sweeps, by_rank = [], dist.counts_by_rank
    monkeypatch.setattr(dist, "counts_by_rank", lambda *args: sweeps.append(args[0]) or by_rank(*args))
    for pid in ("S9", "S11", "S13", "S15", "S17", "S1", "A3"):
        sweeps.clear()
        report = bj.verify_swap_bijection(pid, 5)
        assert report.passed and sweeps == [5], (pid, report.counterexample, sweeps)
    # The iterated swap scans occurrences by definition.
    monkeypatch.setattr(mesh, "occurrences", occurrences)
    sweeps.clear()
    report = bj.verify_swap_bijection("S21", 4)
    assert report.stats["collision"] == ["3241", "4213", "1243"] and sweeps == [4]


# verify_swap_bijection(pid, 6).to_json(), byte for byte: the reports are
# output, and the benchmark digests them.
REPORTS_AT_6 = {
    "S9": '{"counterexample": null, "map": "S9", "n": 6, "pair": "S9", "pass": true, '
          '"stats": {"fixed_points": 708, "moved": 12, "size": 720}}',
    "S11": '{"counterexample": null, "map": "S11", "n": 6, "pair": "S11", "pass": true, '
           '"stats": {"fixed_points": 708, "moved": 12, "size": 720}}',
    "S13": '{"counterexample": null, "map": "S13", "n": 6, "pair": "S13", "pass": true, '
           '"stats": {"fixed_points": 672, "moved": 48, "size": 720}}',
    "S15": '{"counterexample": null, "map": "S15", "n": 6, "pair": "S15", "pass": true, '
           '"stats": {"fixed_points": 672, "moved": 48, "size": 720}}',
    "S17": '{"counterexample": null, "map": "S17", "n": 6, "pair": "S17", "pass": true, '
           '"stats": {"fixed_points": 678, "moved": 42, "size": 720}}',
    "S1": '{"counterexample": null, "map": "S1", "n": 6, "pair": "S1", "pass": true, '
          '"stats": {"fixed_points": 0, "moved": 720, "size": 720}}',
    "A3": '{"counterexample": null, "map": "A3", "n": 6, "pair": "A3", "pass": true, '
          '"stats": {"fixed_points": 0, "moved": 720, "size": 720}}',
    "S21": '{"counterexample": "map is not injective", "map": "S21", "n": 6, "pair": "S21", '
           '"pass": false, "stats": {"collision": ["325641", "425613", "125643"], '
           '"domain_size": 571, "image_size": 545, "max_swaps": 2, "q2_avoiders": 571}}',
}


@pytest.mark.parametrize("pid", list(REPORTS_AT_6))
def test_report_bytes_at_n6(pid):
    assert bj.verify_swap_bijection(pid, 6).to_json() == REPORTS_AT_6[pid]
