"""
Closed forms and recurrences for the catalog's anchor pairs.

Everything here is built from exact integer recurrences, independently of
the brute-force enumeration engine, so the two sides can cross-check each
other.  The A25 split (:func:`a25_split_tables`) starts from the literal
three-way split of S_2, written out by hand because the published initial
conditions do not pin it down; a test re-derives it, and the first step of
the recurrence, from the 2 + 6 permutations of S_2 and S_3 with the
reference scan.

Anchor pairs and what is computed for them:

* S19 -- split tables by the sign of the first step, built by a coupled
  pair of insertion recurrences.
* A17 -- closed form in binomials times unsigned Stirling numbers of the
  first kind, plus an equivalent binomial convolution.
* A25 -- split tables by the position of the largest entry.
* A33 -- bivariate polynomial recurrence and the matching five-term
  coefficient recurrence.
* A25..A36 share one single-pattern distribution; its marginal recurrence
  is :func:`a25_family_marginal`.

Every whole-table recurrence is one :func:`_step` per n: a sum of earlier
tables, each times a number and shifted by a power of x and of y.

Every table is a :class:`meshperm.dist.JointTable`.  A split is a dict from
class to table, as :func:`meshperm.dist.split_distribution` returns it for
the same classifier (:func:`first_step_descends`,
:func:`position_of_max_class`), with no entry for an empty class.
"""

from __future__ import annotations

import functools
from collections import Counter
from math import comb, factorial

from . import dist, mesh
from .dist import JointTable

# Length-2 auxiliary patterns whose occurrence distribution over S_n is the
# shifted Stirling column c(n, k+1).
STIRLING_PAIR_12 = mesh.parse_pattern("12|0,0;1,0;2,0;2,1")
STIRLING_PAIR_12_FLIP = mesh.parse_pattern("12|0,1;1,1;2,0;2,1")
STIRLING_PAIR_21 = mesh.parse_pattern("21|0,1;1,1;2,1;2,2")


@functools.lru_cache(maxsize=None)
def stirling1(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind c(n, k).

    c(0, 0) = 1; c(n, k) = 0 for k = 0 < n or k > n; otherwise
    c(n, k) = (n-1) c(n-1, k) + c(n-1, k-1).

    >>> [stirling1(4, k) for k in range(5)]
    [0, 6, 11, 6, 1]
    """
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if n == 0 and k == 0:
        return 1
    if k == 0 or k > n:
        return 0
    return (n - 1) * stirling1(n - 1, k) + stirling1(n - 1, k - 1)


def stirling_pair_count(n: int, k: int) -> int:
    """Number of n-permutations with k occurrences of STIRLING_PAIR_12.

    Equals c(n, k+1) for n >= 1; the same distribution is shared by
    STIRLING_PAIR_12_FLIP and STIRLING_PAIR_21.  At n = 0 it counts the
    empty permutation: 1 at k = 0 and 0 otherwise.

    >>> [stirling_pair_count(0, k) for k in range(2)]
    [1, 0]
    >>> stirling_pair_count(3, 0)
    2
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return stirling1(n, k + 1) if n else int(k == 0)


def harmonic_factorial(n: int) -> int:
    """The exact integer n! * (1 + sum_{i=1..n} 1/i).

    Each summand n!/i is integral, so no rational arithmetic is needed.

    >>> [harmonic_factorial(n) for n in range(5)]
    [1, 2, 5, 17, 74]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    f = factorial(n)
    return f + sum(f // i for i in range(1, n + 1))


def stirling_convolution_identity(n: int, m: int, r: int) -> bool:
    """Check the Vandermonde-style Stirling convolution numerically:

        sum_i  C(n, i) c(i, m-r) c(n-i, r)  ==  C(m, r) c(n, m).

    >>> stirling_convolution_identity(4, 2, 1)
    True
    """
    if not 0 <= r <= m <= n:
        raise ValueError("need 0 <= r <= m <= n")
    lhs = sum(
        comb(n, i) * stirling1(i, m - r) * stirling1(n - i, r) for i in range(n + 1)
    )
    return lhs == comb(m, r) * stirling1(n, m)


def _step(*terms) -> dict[tuple[int, int], int]:
    """Sum ``times * x^dk * y^dl * table`` over the ``terms`` (table, times,
    dk, dl) of sparse (k, l) -> count dicts.  Only entries equal to 0 are
    dropped; a negative count on the way is kept.
    """
    total = Counter()
    for table, times, dk, dl in terms:
        total.update({(k + dk, l + dl): times * c for (k, l), c in table.items()})
    return {kl: c for kl, c in total.items() if c}


# ---------------------------------------------------------------------------
# Split tables
# ---------------------------------------------------------------------------


def _split(n: int, parts: dict) -> dict[object, JointTable]:
    """Class -> table, leaving out the empty classes."""
    return {key: JointTable.from_dict(n, t) for key, t in parts.items() if t}


def first_step_descends(pi) -> bool:
    """True when pi starts with a descent, pi_1 > pi_2: the S19 split."""
    return pi[0] > pi[1]


def s19_split_tables(n: int) -> dict[bool, JointTable]:
    """Joint tables of pair S19 split by :func:`first_step_descends`.

    part1 (key True) counts permutations with pi_1 > pi_2, part2 (key
    False) those with pi_1 < pi_2.  Built by the coupled insertion
    recurrences

        part1(n,k,l) = (n-2) part1(n-1,k,l) + part1(n-1,k,l-1) + part2(n-1,k,l)
        part2(n,k,l) = part1(n-1,k,l) + (n-2) part2(n-1,k,l) + part2(n-1,k-1,l)

    from part1 = part2 = {(0,0): 1} at n = 2.

    >>> s19_split_tables(2)[True].counts
    ((1,),)
    """
    if n < 2:
        raise ValueError("defined for n >= 2")
    t1 = t2 = {(0, 0): 1}
    for m in range(3, n + 1):
        t1, t2 = (
            _step((t1, m - 2, 0, 0), (t1, 1, 0, 1), (t2, 1, 0, 0)),
            _step((t1, 1, 0, 0), (t2, m - 2, 0, 0), (t2, 1, 1, 0)),
        )
    return _split(n, {True: t1, False: t2})


def s19_table(n: int) -> JointTable:
    """Recurrence-built joint table of pair S19 (sum of the two parts)."""
    return functools.reduce(dist.merge, s19_split_tables(n).values())


def position_of_max_class(pi) -> str:
    """'first', 'last' or 'interior', by where the largest entry sits."""
    pos = pi.index(len(pi)) + 1
    if pos == 1:
        return "first"
    if pos == len(pi):
        return "last"
    return "interior"


# Exact split of S_2 for pair A25 by position of the largest entry, as
# (first, last, interior) parts: the recurrence's initial condition.
_A25_SEED = ({(0, 0): 1}, {(0, 0): 1}, {})


def a25_split_tables(n: int) -> dict[str, JointTable]:
    """Joint tables of pair A25 split by :func:`position_of_max_class`.

    part1 ("first"): largest entry first; part2 ("last"): largest entry
    last; part3 ("interior"): elsewhere.  Iterates, from the split of S_2,

        part1(n,k,l) = part1(n-1,k,l-1) + part2(n-1,k,l) + part3(n-1,k,l-1)
        part2(n,k,l) = part1(n-1,k,l) + part2(n-1,k-1,l) + part3(n-1,k-1,l)
        part3(n,k,l) = (n-2) * total(n-1,k,l)
    """
    if n < 2:
        raise ValueError("defined for n >= 2")
    t1, t2, t3 = _A25_SEED
    for m in range(3, n + 1):
        t1, t2, t3 = (
            _step((t1, 1, 0, 1), (t2, 1, 0, 0), (t3, 1, 0, 1)),
            _step((t1, 1, 0, 0), (t2, 1, 1, 0), (t3, 1, 1, 0)),
            _step((t1, m - 2, 0, 0), (t2, m - 2, 0, 0), (t3, m - 2, 0, 0)),
        )
    return _split(n, {"first": t1, "last": t2, "interior": t3})


def a25_table(n: int) -> JointTable:
    """Recurrence-built joint table of pair A25 (sum of the parts)."""
    return functools.reduce(dist.merge, a25_split_tables(n).values())


# ---------------------------------------------------------------------------
# A17: closed form and convolution
# ---------------------------------------------------------------------------


def a17_entry(n: int, k: int, l: int) -> int:
    """Closed form for the (k, l) entry of pair A17's joint table.

    Piecewise in binomials and unsigned Stirling numbers; the doubly-avoiding
    corner k = l = 0 equals 2 (n-2)! (1 + sum_{i<n-1} 1/i), computed in
    integer form as 2 (c(n-1, 2) + c(n-1, 1)).
    """
    if n < 2:
        raise ValueError("defined for n >= 2")
    if k < 0 or l < 0:
        return 0
    if k >= 1 and l >= 1:
        return comb(k + l + 2, k + 1) * stirling1(n - 1, k + l + 2)
    if k >= 1:
        return (k + 2) * stirling1(n - 1, k + 2) + stirling1(n - 1, k + 1)
    if l >= 1:
        return (l + 2) * stirling1(n - 1, l + 2) + stirling1(n - 1, l + 1)
    return 2 * (stirling1(n - 1, 2) + stirling1(n - 1, 1))


def a17_table(n: int) -> JointTable:
    """Joint table of pair A17 from the closed form.

    >>> a17_table(4).render()
    'x^2 + y^2 + 6x + 6y + 10'
    """
    if n < 2:
        raise ValueError("defined for n >= 2")
    entries = {
        (k, l): a17_entry(n, k, l)
        for k in range(n - 1)
        for l in range(n - 1)
        if a17_entry(n, k, l)
    }
    return JointTable.from_dict(n, entries)


def a17_entry_by_convolution(n: int, k: int, l: int) -> int:
    """The same entry as :func:`a17_entry`, via the binomial convolution

        sum_{i=0}^{n-1} C(n-1, i) s(i, k) s(n-1-i, l)

    where s is :func:`stirling_pair_count`, the count of the auxiliary
    length-2 pattern.

    >>> a17_entry_by_convolution(4, 0, 0)
    10
    >>> a17_entry_by_convolution(4, 1, 1)
    0
    """
    if n < 1:
        raise ValueError("defined for n >= 1")
    if k < 0 or l < 0:
        return 0
    return sum(
        comb(n - 1, i) * stirling_pair_count(i, k) * stirling_pair_count(n - 1 - i, l)
        for i in range(n)
    )


def a17_double_avoiders(n: int) -> int:
    """Permutations avoiding both A17 patterns: 2 * harmonic_factorial(n-2).

    >>> a17_double_avoiders(5)
    34
    """
    if n < 2:
        raise ValueError("defined for n >= 2")
    return 2 * harmonic_factorial(n - 2)


# ---------------------------------------------------------------------------
# A33: polynomial recurrence and coefficient recurrence
# ---------------------------------------------------------------------------


def a33_polynomial(n: int) -> JointTable:
    """Joint table of pair A33 as its generating polynomial, by the two-term
    recurrence

        T_n = (n + x + y - 2) T_{n-1} + (1 - xy) T_{n-2}

    from T_2 = 2 and T_3 = x + y + 4.

    >>> a33_polynomial(4).render()
    'x^2 + y^2 + 6x + 6y + 10'
    """
    if n < 2:
        raise ValueError("defined for n >= 2")
    prev, cur = {(0, 0): 2}, {(0, 0): 4, (1, 0): 1, (0, 1): 1}
    for m in range(4, n + 1):
        prev, cur = cur, _step(
            (cur, m - 2, 0, 0), (cur, 1, 1, 0), (cur, 1, 0, 1),
            (prev, 1, 0, 0), (prev, -1, 1, 1),
        )
    return JointTable.from_dict(n, prev if n == 2 else cur)


@functools.lru_cache(maxsize=None)
def _a33_entry(n: int, k: int, l: int) -> int:
    if k < 0 or l < 0:
        return 0
    if n <= 3:
        return a33_polynomial(n).entry(k, l)
    return (
        (n - 2) * _a33_entry(n - 1, k, l)
        + _a33_entry(n - 1, k - 1, l)
        + _a33_entry(n - 1, k, l - 1)
        + _a33_entry(n - 2, k, l)
        - _a33_entry(n - 2, k - 1, l - 1)
    )


def a33_entry_by_recurrence(n: int, k: int, l: int) -> int:
    """The (k, l) entry of pair A33's table by the five-term recurrence

        T(n,k,l) = (n-2) T(n-1,k,l) + T(n-1,k-1,l) + T(n-1,k,l-1)
                   + T(n-2,k,l) - T(n-2,k-1,l-1)

    >>> a33_entry_by_recurrence(4, 0, 0)
    10
    >>> a33_entry_by_recurrence(4, 1, 1)
    0
    """
    if n < 4:
        raise ValueError("the recurrence applies for n >= 4")
    return _a33_entry(n, k, l)


# ---------------------------------------------------------------------------
# Shared marginal of pairs A25..A36
# ---------------------------------------------------------------------------


def a25_family_marginal(n: int) -> list[int]:
    """Single-pattern occurrence distribution shared by pairs A25..A36.

    Count k is the number of n-permutations with k occurrences of the
    pair's first pattern.  Iterates, on tables with l = 0,

        T(n,k) = (n-1) T(n-1,k) + T(n-1,k-1) + T(n-2,k) - T(n-2,k-1)

    from [1] at n = 1 and [2] at n = 2.

    >>> a25_family_marginal(4)
    [17, 6, 1]
    >>> a25_family_marginal(5)
    [73, 37, 9, 1]
    """
    if n < 2:
        raise ValueError("defined for n >= 2")
    prev, cur = {(0, 0): 1}, {(0, 0): 2}
    for m in range(3, n + 1):
        prev, cur = cur, _step(
            (cur, m - 1, 0, 0), (cur, 1, 1, 0), (prev, 1, 0, 0), (prev, -1, 1, 0)
        )
    return [cur.get((k, 0), 0) for k in range(n - 1)]
