import itertools
import math

import pytest

from meshperm import catalog, checks, closed_forms as cf, dist, mesh, perms


def test_stirling_values():
    assert cf.stirling1(0, 0) == 1
    assert cf.stirling1(5, 0) == 0
    assert cf.stirling1(4, 2) == 11
    assert cf.stirling1(3, 5) == 0


def test_stirling_row_sums():
    for n in range(13):
        assert sum(cf.stirling1(n, k) for k in range(n + 1)) == math.factorial(n)


def test_stirling_pair_count():
    assert cf.stirling_pair_count(1, 0) == 1
    assert cf.stirling_pair_count(3, 0) == 2
    for n in range(1, 7):
        assert cf.stirling_pair_count(n, n - 1) == 1
    # n = 0 counts the empty permutation, with no occurrence.
    assert cf.stirling_pair_count(0, 0) == 1 and cf.stirling_pair_count(0, 1) == 0
    with pytest.raises(ValueError):
        cf.stirling_pair_count(-1, 0)


def test_stirling_pair_count_matches_brute_force():
    assert checks.run("stirling-pairs", range(1, 7))["pass"]


def test_harmonic_factorial():
    assert [cf.harmonic_factorial(n) for n in range(5)] == [1, 2, 5, 17, 74]


def test_s19_split_seed_values():
    split = cf.s19_split_tables(2)
    assert split[True].counts == ((1,),) and split[False].counts == ((1,),)
    split3 = cf.s19_split_tables(3)
    assert split3[True].entry(0, 1) == 1 and split3[True].entry(1, 0) == 0
    assert split3[False].entry(1, 0) == 1 and split3[False].entry(0, 1) == 0
    # conservation fills (0,0) to half of 3!
    assert split3[True].entry(0, 0) == 2 and split3[False].entry(0, 0) == 2


def test_s19_recurrence_matches_brute_force():
    assert checks.run("S19", range(2, 7))["pass"]


def test_s19_split_matches_classification():
    assert checks.run("S19-split", range(2, 7))["pass"]


def test_a17_table_values():
    assert cf.a17_table(2).counts == ((2,),)
    assert cf.a17_table(4).render() == "x^2 + y^2 + 6x + 6y + 10"
    assert cf.a17_entry(5, 0, 0) == 34


def test_a17_matches_brute_force():
    assert checks.run("A17", range(2, 7))["pass"]


def test_a17_convolution_examples():
    assert cf.a17_entry_by_convolution(4, 1, 1) == 0
    assert cf.a17_entry_by_convolution(4, 0, 0) == 10
    for n in range(1, 9):
        for k in range(n):
            for l in range(n):
                assert cf.a17_entry_by_convolution(n, k, l) == cf.a17_entry_by_convolution(n, l, k)


def test_a17_double_avoiders():
    assert cf.a17_double_avoiders(5) == 34
    for n in range(2, 9):
        assert cf.a17_entry(n, 0, 0) == cf.a17_double_avoiders(n)


def test_a25_seed_matches_reference_scan():
    # The recurrence starts from a literal split of S_2; re-derive it, and
    # at n = 3 the first recurrence step, with the naive box scan.
    p = catalog.get_pair("A25")
    for n in (2, 3):
        parts = {"first": {}, "last": {}, "interior": {}}
        for pi in perms.enumerate_sn(n):
            kl = tuple(
                sum(
                    mesh.is_occurrence(pi, pos, q, table=None)
                    for pos in itertools.combinations(range(1, n + 1), q.length)
                )
                for q in (p.q1, p.q2)
            )
            part = parts[cf.position_of_max_class(pi)]
            part[kl] = part.get(kl, 0) + 1
        assert cf.a25_split_tables(n) == {
            key: dist.JointTable.from_dict(n, part) for key, part in parts.items() if part
        }, n
    assert "interior" not in cf.a25_split_tables(2)


def test_split_tables_have_the_shape_of_split_distribution():
    s19, a25 = catalog.get_pair("S19"), catalog.get_pair("A25")
    for n in range(2, 7):
        assert cf.s19_split_tables(n) == dist.split_distribution(
            n, s19.q1, s19.q2, cf.first_step_descends
        ), n
        assert cf.a25_split_tables(n) == dist.split_distribution(
            n, a25.q1, a25.q2, cf.position_of_max_class
        ), n


def test_a33_polynomial_values():
    assert cf.a33_polynomial(2).render() == "2"
    assert cf.a33_polynomial(3).render() == "x + y + 4"
    assert cf.a33_polynomial(4).render() == "x^2 + y^2 + 6x + 6y + 10"


def test_a33_polynomial_matches_brute_force():
    assert checks.run("A33", range(2, 7))["pass"]


def test_a33_coefficient_recurrence():
    assert cf.a33_entry_by_recurrence(4, 0, 0) == 10
    assert cf.a33_entry_by_recurrence(4, 1, 1) == 0
    with pytest.raises(ValueError):
        cf.a33_entry_by_recurrence(3, 0, 0)


def test_a33_vanishing_corner():
    for n in range(4, 10):
        for k in range(n - 1, n + 2):
            for l in range(n - 1, n + 2):
                assert cf.a33_entry_by_recurrence(n, k, l) == 0


def test_marginal_values():
    assert cf.a25_family_marginal(2) == [2]
    assert cf.a25_family_marginal(3) == [5, 1]
    assert cf.a25_family_marginal(4) == [17, 6, 1]
    assert cf.a25_family_marginal(5) == [73, 37, 9, 1]
    for n in range(2, 13):
        assert sum(cf.a25_family_marginal(n)) == math.factorial(n)


def test_recurrence_invariants_beyond_brute_force_reach():
    # Brute force reaches n = 7-8; these hold wherever the recurrences run.
    for n in range(2, 13):
        f = math.factorial(n)
        for table in (cf.s19_table(n), cf.a25_table(n), cf.a33_polynomial(n), cf.a17_table(n)):
            assert table.total() == f, n
            assert table == dist.JointTable.from_dict(
                n, {(l, k): c for k, l, c in table.cells()}
            ), n
        s19 = cf.s19_split_tables(n)
        assert {key: t.total() for key, t in s19.items()} == {True: f // 2, False: f // 2}
        a25 = {key: t.total() for key, t in cf.a25_split_tables(n).items()}
        want = {"first": f // n, "last": f // n, "interior": (n - 2) * (f // n)}
        assert a25 == {key: c for key, c in want.items() if c}, n


def test_marginal_matches_tables():
    assert checks.run("marginals", range(2, 7))["pass"]


def test_marginal_avoidance_specialization():
    # k = 0 slice obeys T(n,0) = (n-1) T(n-1,0) + T(n-2,0)
    seq = [cf.a25_family_marginal(n)[0] for n in range(2, 10)]
    for i, n in enumerate(range(4, 10), start=2):
        assert seq[i] == (n - 1) * seq[i - 1] + seq[i - 2]


def test_vandermonde_identity():
    assert cf.stirling_convolution_identity(4, 2, 1)
    assert cf.stirling_convolution_identity(6, 3, 2)
    with pytest.raises(ValueError):
        cf.stirling_convolution_identity(2, 3, 1)


def test_domain_errors():
    for fn in (cf.a17_table, cf.a33_polynomial, cf.a25_family_marginal, cf.s19_split_tables, cf.a25_split_tables):
        with pytest.raises(ValueError):
            fn(1)
