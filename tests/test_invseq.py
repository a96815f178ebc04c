import math

import pytest

from meshperm import closed_forms as cf, invseq, perms


def test_enumeration_small():
    assert list(invseq.enumerate_inversion_sequences(1)) == [(0,)]
    assert list(invseq.enumerate_inversion_sequences(3)) == [
        (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2),
    ]


def test_enumeration_count_is_factorial():
    for n in range(8):
        assert sum(1 for _ in invseq.enumerate_inversion_sequences(n)) == math.factorial(n)


def test_capacity():
    with pytest.raises(perms.CapacityError):
        invseq.enumerate_inversion_sequences(11)


def test_statistic_examples():
    assert invseq.adjacent_nonzero_pairs((0, 0, 0)) == 0
    assert invseq.adjacent_nonzero_pairs((0, 1, 1)) == 1
    assert invseq.adjacent_nonzero_pairs((0, 1, 1, 1, 0, 0)) == 2


def test_statistic_validates_input():
    with pytest.raises(ValueError):
        invseq.adjacent_nonzero_pairs((1, 0))
    with pytest.raises(ValueError):
        invseq.adjacent_nonzero_pairs((0, 2))


def test_unique_length3_sequence_with_statistic_one():
    hits = [
        e
        for e in invseq.enumerate_inversion_sequences(3)
        if invseq.adjacent_nonzero_pairs(e) == 1
    ]
    assert hits == [(0, 1, 1)]


def test_count_examples():
    assert invseq.count_with_stat(3, 1) == 1
    assert invseq.count_with_stat(3, 0) == 5
    assert invseq.count_with_stat(5, 0) == 73


def test_counts_match_marginal():
    for n in range(2, 8):
        want = cf.a25_family_marginal(n)
        got = [invseq.count_with_stat(n, k) for k in range(n - 1)]
        assert got == want
