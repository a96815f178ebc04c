import itertools
import math

import pytest

from meshperm import perms
from meshperm.perms import (
    CapacityError,
    as_perm,
    complement,
    enumerate_sn,
    format_perm,
    inverse,
    parse_perm,
    reverse,
    standardize,
)


def test_enumerate_empty_and_small():
    assert list(enumerate_sn(0)) == [()]
    assert [format_perm(p) for p in enumerate_sn(3)] == [
        "123", "132", "213", "231", "312", "321",
    ]


def test_enumerate_count_is_factorial():
    for n in range(7):
        seen = list(enumerate_sn(n))
        assert len(seen) == math.factorial(n)
        assert len(set(seen)) == len(seen)


def test_enumerate_is_lexicographic():
    for n in (3, 4, 5):
        seq = list(enumerate_sn(n))
        assert seq == sorted(seq)


def test_rank_is_the_index_in_enumeration_order():
    for n in range(8):
        assert [perms.rank(p) for p in enumerate_sn(n)] == list(range(math.factorial(n)))
    assert perms.rank([3, 1, 2]) == 4  # any sequence, as the sweep's leaves pass lists


def test_capacity_error_names_limit():
    with pytest.raises(CapacityError, match="0..10"):
        list(enumerate_sn(11))


def test_capacity_env_override(monkeypatch):
    monkeypatch.setenv("MESHPERM_NMAX", "3")
    with pytest.raises(CapacityError):
        enumerate_sn(4)
    monkeypatch.setenv("MESHPERM_NMAX", "11")
    assert perms.max_n() == 11


def test_complement_examples():
    assert complement(parse_perm("123")) == parse_perm("321")
    assert complement(parse_perm("23154")) == parse_perm("43512")
    assert complement(()) == ()


def test_reverse_examples():
    assert reverse(parse_perm("123")) == parse_perm("321")
    assert reverse(parse_perm("23154")) == parse_perm("45132")
    assert reverse((1,)) == (1,)


def test_inverse_examples():
    assert inverse(parse_perm("123")) == parse_perm("123")
    assert inverse(parse_perm("231")) == parse_perm("312")
    assert inverse(parse_perm("321")) == parse_perm("321")


def test_inverse_composes_to_identity():
    for n in range(6):
        for p in enumerate_sn(n):
            inv = inverse(p)
            assert tuple(p[inv[j - 1] - 1] for j in range(1, n + 1)) == tuple(
                range(1, n + 1)
            )


@pytest.mark.parametrize("op", [complement, reverse, inverse])
def test_ops_are_involutions(op):
    for n in range(8):
        for p in itertools.permutations(range(1, n + 1)):
            assert op(op(p)) == p


def test_standardize_examples():
    assert standardize((2, 3, 5)) == (1, 2, 3)
    assert standardize((1, 4, 3)) == (1, 3, 2)
    assert standardize((7,)) == (1,)


def test_standardize_idempotent():
    for seq in [(9, 1, 5), (3,), (), (10, 20, 15, 1)]:
        once = standardize(seq)
        assert standardize(once) == once


def test_standardize_rejects_duplicates():
    with pytest.raises(ValueError, match="distinct"):
        standardize((1, 2, 2))


def test_serialization_round_trip():
    assert format_perm(parse_perm("23154")) == "23154"
    big = tuple([10] + list(range(2, 10)) + [1])
    text = format_perm(big)
    assert text.startswith("10,") and parse_perm(text) == big
    assert format_perm(()) == ""
    assert parse_perm("") == ()


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_perm("122")
    with pytest.raises(ValueError):
        parse_perm("1,2,2")
    with pytest.raises(ValueError):
        parse_perm("ab")
    with pytest.raises(ValueError):
        as_perm([0, 1])
