"""Irreducible counting and ordering against enumeration oracles."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from primfield.errors import UsageError
from primfield.fieldpoly import format_index, index_degree
from primfield.irreducibles import (BRACKET_BLOCK, check_degree_brackets,
                                    kth_irreducible, kth_irreducible_degree,
                                    moebius, pi_cumulative, pi_prime)

from oracles import degree_brackets_whole, is_irreducible


# ----------------------------------------------------------------------
# Moebius and the counting formula
# ----------------------------------------------------------------------

def moebius_oracle(n):
    seen = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            seen.append(d)
        else:
            d += 1
    if n > 1:
        seen.append(n)
    return -1 if len(seen) % 2 else 1


def test_moebius_against_factoring():
    for n in range(1, 500):
        assert moebius(n) == moebius_oracle(n)
    with pytest.raises(UsageError):
        moebius(0)


@given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 40))
def test_degree_weighted_divisor_sum(q, n):
    # every element of F_{q^n} is a root of exactly one irreducible
    # whose degree divides n
    assert sum(d * pi_prime(q, d) for d in range(1, n + 1) if n % d == 0) == q**n


@pytest.mark.parametrize("q,nmax", [(2, 9), (3, 6), (5, 4)])
def test_pi_prime_matches_enumeration(q, nmax):
    for n in range(1, nmax + 1):
        want = sum(1 for f in range(q**n, 2 * q**n) if is_irreducible(q, f))
        assert pi_prime(q, n) == want


@pytest.mark.parametrize("q", [2, 3])
def test_pi_prime_matches_full_divisor_sum(q):
    """n pi'(n) = sum over every divisor d of n of mu(d) q^(n/d), for
    n <= 3000: every perfect square and its middle divisor included."""
    nmax = 3000
    total = [0] * (nmax + 1)
    for d in range(1, nmax + 1):
        mu = moebius_oracle(d)
        if mu:
            for n in range(d, nmax + 1, d):
                total[n] += mu * q**(n // d)
    for n in range(1, nmax + 1):
        assert pi_prime(q, n) * n == total[n], n


def test_pi_prime_known_values():
    assert [pi_prime(2, n) for n in range(1, 11)] == \
        [2, 1, 2, 3, 6, 9, 18, 30, 56, 99]
    assert [pi_prime(3, n) for n in range(1, 7)] == [3, 3, 8, 18, 48, 116]


def test_pi_cumulative_consistency():
    for q in (2, 3, 5):
        total = 0
        assert pi_cumulative(q, 0) == 0
        for n in range(1, 20):
            total += pi_prime(q, n)
            assert pi_cumulative(q, n) == total


def test_pi_cumulative_on_a_cold_cache():
    # far past the interpreter's recursion limit
    pi_cumulative.cache_clear()
    assert pi_cumulative(2, 3000) == sum(pi_prime(2, d)
                                         for d in range(1, 3001))


# ----------------------------------------------------------------------
# Ordering
# ----------------------------------------------------------------------

def test_kth_irreducible_matches_sorted_enumeration(sieve2, sieve3):
    for sieve, nmax in ((sieve2, 6), (sieve3, 4)):
        q = sieve.q
        ordered = [f for n in range(1, nmax + 1)
                   for f in range(q**n, 2 * q**n) if is_irreducible(q, f)]
        for k, f in enumerate(ordered, start=1):
            assert kth_irreducible_degree(q, k) == index_degree(q, f)
            got = kth_irreducible(q, k, sieve=sieve)
            assert got == f and type(got) is int


def test_kth_irreducible_head_q2(sieve2):
    head = [kth_irreducible(2, k, sieve=sieve2) for k in range(1, 6)]
    assert head == [2, 3, 7, 11, 13]
    assert [format_index(2, f) for f in head] == [
        "q=2;0,1", "q=2;1,1", "q=2;1,1,1", "q=2;1,1,0,1", "q=2;1,0,1,1"]


def test_kth_guards():
    with pytest.raises(UsageError):
        kth_irreducible_degree(2, 0)
    with pytest.raises(UsageError):
        kth_irreducible(2, -3)


# ----------------------------------------------------------------------
# Degree brackets
# ----------------------------------------------------------------------

def test_degree_brackets_small_range():
    report = check_degree_brackets(2, 2, 2000, 0.5)
    assert report.ok and not report.violations
    assert report.checked == 1999


def test_degree_brackets_match_direct_formula():
    report = check_degree_brackets(2, 100, 200, 0.5)
    assert report.ok
    for k in (100, 150, 200):
        deg = kth_irreducible_degree(2, k)
        growth = math.log(k * math.log(k, 2), 2)
        assert growth - 1 - 0.5 - 1e-9 <= deg <= growth + 0.5 + 1e-9


@pytest.mark.parametrize("q,k_lo,k_hi,slack", [
    (2, 2, 140000, 0.17),    # 863 violations, on both sides of the block edge
    (3, 3, 100000, 0.1),     # the 1000-violation list fills across the edge
])
def test_degree_brackets_carry_across_blocks(q, k_lo, k_hi, slack):
    report = check_degree_brackets(q, k_lo, k_hi, slack)
    edge = k_lo + BRACKET_BLOCK
    assert any(k < edge for k in report.violations)
    assert any(k >= edge for k in report.violations)
    assert report.checked == k_hi - k_lo + 1
    assert (report.violations, report.worst_low_margin,
            report.worst_high_margin) == degree_brackets_whole(q, k_lo, k_hi,
                                                               slack)


def test_degree_brackets_guards():
    with pytest.raises(UsageError):
        check_degree_brackets(3, 2, 100, 0.5)  # k_lo below q
    with pytest.raises(UsageError):
        check_degree_brackets(2, 50, 40, 0.5)
