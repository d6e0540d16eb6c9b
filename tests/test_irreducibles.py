"""Irreducible counting and ordering against enumeration oracles."""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from primfield import irreducibles
from primfield.errors import BudgetError, UsageError
from primfield.fieldpoly import format_index, index_degree
from primfield.irreducibles import (MAX_LISTED_VIOLATIONS,
                                    check_degree_brackets, kth_irreducible,
                                    kth_irreducible_degree, pi_cumulative,
                                    pi_prime)

from oracles import (degree_bracket_margins_numpy, degree_brackets_whole,
                     is_irreducible)


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


@pytest.mark.parametrize("q", [2, 3, 5, 7, 101])
def test_pi_prime_matches_full_divisor_sum(q):
    """n pi'(n) = sum over every divisor d of n of mu(d) q^(n/d), for
    n <= 3000 (n <= 400 for q >= 5): every perfect square and its middle
    divisor included."""
    nmax = 3000 if q < 5 else 400
    total = [0] * (nmax + 1)
    for d in range(1, nmax + 1):
        mu = moebius_oracle(d)
        if mu:
            for n in range(d, nmax + 1, d):
                total[n] += mu * q**(n // d)
    for n in range(1, nmax + 1):
        assert pi_prime(q, n) * n == total[n], n


@pytest.fixture
def cold(monkeypatch):
    """Empty count tables for one test; the shared ones come back after."""
    monkeypatch.setattr(irreducibles, "_PI_PRIME", {})
    monkeypatch.setattr(irreducibles, "_CUMULATIVE", {})


@pytest.mark.parametrize("q", [2, 3, 7])
def test_table_grown_in_steps_matches_one_cold_build(q, cold):
    stepped = []
    for n in (1, 7, 64, 400):
        pi_prime(q, n)
        assert len(irreducibles._PI_PRIME[q]) == n
        stepped.append([pi_prime(q, d) for d in range(1, n + 1)])
        assert [pi_cumulative(q, d) for d in range(n + 1)] == \
            [0, *accumulate(stepped[-1])]
    # an extension at least doubles the table
    pi_prime(q, 401)
    assert len(irreducibles._PI_PRIME[q]) == 800
    want = irreducibles._PI_PRIME.pop(q)[:400]
    irreducibles._CUMULATIVE.pop(q)
    assert pi_cumulative(q, 400) == sum(want)
    assert [pi_prime(q, n) for n in range(1, 401)] == want == stepped[-1]
    assert len(irreducibles._PI_PRIME[q]) == 400


def test_walks_up_the_degrees_ask_for_their_top_degree_first(cold):
    """The Mertens rows to degree 1100 and a density check of a set of
    top degree 7 leave each table at that degree, not at the next power
    of two past it (2048 and 8 when each degree was asked for in turn)."""
    from primfield.counting import mertens_rows
    from primfield.primitive import PolySet, verify_erdos_density_inequality
    mertens_rows(2, 1100)
    assert len(irreducibles._PI_PRIME[2]) == 1100
    verify_erdos_density_inequality(PolySet(3, 7, [3, 4, 5, 3**7 + 5]))
    assert len(irreducibles._PI_PRIME[3]) == 7


def full_divisor_count(q, n):
    return sum(moebius_oracle(d) * q**(n // d)
               for d in range(1, n + 1) if n % d == 0) // n


def test_a_cold_table_to_degree_8001_peaks_under_8_mb(cold):
    """The run that fills the table holds, beside the counts it has
    yielded, q^d and one power q^(d/e) per e with a multiple still to
    come (4.6 MB measured), not every power up to q^8001 (9.8 MB)."""
    tracemalloc.start()
    try:
        irreducibles._pi_primes(2, 8001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


@pytest.mark.parametrize("error", [BudgetError, MemoryError])
def test_an_error_mid_extension_leaves_the_tables_as_they_were(
        monkeypatch, cold, error):
    """A deadline or the memory ceiling may strike at any count of an
    extension's Moebius run: the stored counts and running sums stay as
    they were, and the next call extends them correctly."""
    q = 3
    pi_cumulative(q, 16)
    table = list(irreducibles._PI_PRIME[q])
    sums = list(irreducibles._CUMULATIVE[q])
    run = irreducibles._pi_prime_run
    yielded = []

    def counted(q, cut):
        yielded.append(0)
        for count in run(q, cut):
            yielded[-1] += 1
            yield count

    monkeypatch.setattr(irreducibles, "_pi_prime_run", counted)
    pi_cumulative(q, 40)
    assert yielded == [40]      # one run, one count per degree
    irreducibles._PI_PRIME[q][16:] = []
    irreducibles._CUMULATIVE[q][17:] = []
    for k in range(1, 41):

        def expire_at_k(q, cut):
            for seen, count in enumerate(run(q, cut), 1):
                if seen == k:
                    raise error("deadline")
                yield count

        monkeypatch.setattr(irreducibles, "_pi_prime_run", expire_at_k)
        with pytest.raises(error, match="deadline"):
            pi_cumulative(q, 40)
        assert irreducibles._PI_PRIME[q] == table
        assert irreducibles._CUMULATIVE[q] == sums
    monkeypatch.setattr(irreducibles, "_pi_prime_run", run)
    assert pi_cumulative(q, 40) == sum(full_divisor_count(q, n)
                                       for n in range(1, 41))
    assert pi_prime(q, 40) == full_divisor_count(q, 40)


def test_count_guards_keep_their_order():
    """A composite field order is reported first, except that
    pi_cumulative checks the degree before the field."""
    for call in (lambda: pi_prime(4, 0), lambda: kth_irreducible_degree(4, 0),
                 lambda: pi_cumulative(4, 3)):
        with pytest.raises(UsageError, match="^field order 4 is not prime$"):
            call()
    with pytest.raises(UsageError, match="^degree must be >= 0$"):
        pi_cumulative(4, -1)


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


def test_pi_cumulative_on_a_cold_cache(cold):
    # far past the interpreter's recursion limit
    assert pi_cumulative(2, 5000) == sum(pi_prime(2, d)
                                         for d in range(1, 5001))
    assert kth_irreducible_degree(2, 10**300) == 1006


# ----------------------------------------------------------------------
# Ordering
# ----------------------------------------------------------------------

def test_kth_irreducible_matches_sorted_enumeration():
    for q, nmax in ((2, 6), (3, 4)):
        ordered = [f for n in range(1, nmax + 1)
                   for f in range(q**n, 2 * q**n) if is_irreducible(q, f)]
        for k, f in enumerate(ordered, start=1):
            assert kth_irreducible_degree(q, k) == index_degree(q, f)
            got = kth_irreducible(q, k)
            assert got == f and type(got) is int


def test_kth_irreducible_head_q2():
    head = [kth_irreducible(2, k) for k in range(1, 6)]
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


def _matches_whole(report, q, k_lo, k_hi, slack):
    return (report.violations, report.violation_count,
            report.worst_low_margin, report.worst_high_margin) \
        == degree_brackets_whole(q, k_lo, k_hi, slack)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@pytest.mark.parametrize("slack", [-0.6, -0.3, 0.0, 0.17, 0.5])
def test_degree_blocks_match_the_per_rank_check(q, slack):
    """Bisected runs and block-end margins equal the per-rank screen, float
    margins included; below slack -1/2 a rank can break both sides."""
    for k_lo, k_hi in ((q, 20000), (1000, 300000)):
        report = check_degree_brackets(q, k_lo, k_hi, slack)
        assert report.checked == k_hi - k_lo + 1
        assert _matches_whole(report, q, k_lo, k_hi, slack), (k_lo, k_hi)


@pytest.mark.parametrize("q,d", [(2, 12), (3, 8), (5, 5), (7, 4)])
def test_ranges_that_start_and_end_at_degree_block_edges(q, d):
    """k_lo and k_hi one before, at and one past the last rank of a degree
    block, so end blocks of one rank and of the whole degree both occur."""
    lo_edge, hi_edge = pi_cumulative(q, d), pi_cumulative(q, d + 2)
    for slack in (-0.3, 0.0, 0.17):
        for k_lo in (lo_edge - 1, lo_edge, lo_edge + 1):
            for k_hi in (hi_edge - 1, hi_edge, hi_edge + 1):
                report = check_degree_brackets(q, k_lo, k_hi, slack)
                assert _matches_whole(report, q, k_lo, k_hi, slack), \
                    (slack, k_lo, k_hi)
        for k in (lo_edge, lo_edge + 1):
            report = check_degree_brackets(q, k, k, slack)
            assert _matches_whole(report, q, k, k, slack), (slack, k)


@pytest.mark.parametrize("q,k_lo,k_hi,slack", [
    (2, 2, 140000, 0.17),    # 863 violations, in degrees 7 to 21
    (3, 3, 100000, 0.1),     # the 1000-violation list fills across degrees
])
def test_degree_brackets_carry_across_blocks(q, k_lo, k_hi, slack):
    report = check_degree_brackets(q, k_lo, k_hi, slack)
    degrees = {kth_irreducible_degree(q, k) for k in report.violations}
    assert len(degrees) > 5
    assert report.checked == k_hi - k_lo + 1
    assert _matches_whole(report, q, k_lo, k_hi, slack)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_slack_half_holds_to_a_googol_at_two_verdicts_a_block(q, monkeypatch):
    """No rank from q to 10^100 breaks the slack-1/2 window, and a degree
    block with no violation is settled by the verdicts at its two ends."""
    calls = []
    real = irreducibles._window_violated

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(irreducibles, "_window_violated", counted)
    report = check_degree_brackets(q, q, 10**100, 0.5)
    assert report.ok and report.checked == 10**100 - q + 1
    assert 0 < report.worst_high_margin < 0.5 < report.worst_low_margin
    ends = {k for d in range(1, kth_irreducible_degree(q, 10**100) + 1)
            for k in (max(q, pi_cumulative(q, d - 1) + 1),
                      min(10**100, pi_cumulative(q, d)))}
    assert sorted(calls) == sorted(ends)


def test_runs_longer_than_an_index_are_counted():
    """At slack 0 the violating runs up to 10^30 hold more than 2^63 ranks;
    they are counted by their ends and listed from the first."""
    report = check_degree_brackets(2, 1000, 10**30, 0.0)
    assert report.violation_count > 2**63
    first = degree_brackets_whole(2, 1000, 10**5, 0.0)
    assert first[1] > MAX_LISTED_VIOLATIONS
    assert report.violations == first[0]


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("slack", [-0.3, 0.0, 0.25, 0.5])
def test_margins_equal_the_numpy_formula(q, slack):
    """The margins, taken with math.log over Python floats, equal numpy's
    float64 arrays bit for bit, on seeded ranges with k_hi up to 10^30."""
    rng = random.Random(q * 100 + int(slack * 100))
    for k_hi in (rng.randrange(q, 10**4), rng.randrange(10**4, 10**12),
                 rng.randrange(10**12, 10**30 + 1)):
        # k_lo log-uniform in [q, k_hi]
        k_lo = min(k_hi, q + rng.randrange(10**rng.randrange(len(str(k_hi)))))
        report = check_degree_brackets(q, k_lo, k_hi, slack)
        assert (report.worst_low_margin, report.worst_high_margin) \
            == degree_bracket_margins_numpy(q, k_lo, k_hi, slack), (k_lo, k_hi)


def test_ranks_past_float64_are_refused():
    with pytest.raises(UsageError, match="float64 limit"):
        check_degree_brackets(2, 10**400, 10**400, 0.5)
    with pytest.raises(UsageError, match="float64 limit"):
        check_degree_brackets(3, 3, 2**1024, 0.5)


def test_violation_count_counts_past_the_listed_ranks():
    report = check_degree_brackets(3, 3, 100000, 0.1)
    assert len(report.violations) == MAX_LISTED_VIOLATIONS
    assert report.violation_count == 1094
    payload = report.to_json()
    assert payload["violation_count"] == 1094 and not payload["ok"]
    assert len(payload["violations"]) == 50


def test_degrees_are_exact_past_float64():
    """Past 2^53 float64 cannot tell pi_cumulative(2, 58) from the next
    rank; the degree comes from exact integer comparison."""
    last58 = pi_cumulative(2, 58)
    assert last58 > 2**53
    k = last58 + 1
    assert kth_irreducible_degree(2, k) == 59
    report = check_degree_brackets(2, k, k, 0.0)
    # L(k) = 58.90..., below degree 59
    assert report.violations == (k,) and report.worst_high_margin < 0
    lo, hi = last58 - 2, last58 + 2
    want = degree_brackets_whole(2, lo, hi, 0.0)
    report = check_degree_brackets(2, lo, hi, 0.0)
    assert (report.violations, report.violation_count,
            report.worst_low_margin, report.worst_high_margin) == want
    assert report.violations == (last58 + 1, last58 + 2)


def test_ranks_past_int64_get_a_verdict():
    report = check_degree_brackets(2, 2**63 - 1, 2**63 + 10, 0.5)
    assert report.ok and report.checked == 12
    n = kth_irreducible_degree(2, 2**63)
    L = 63 + math.log2(63)
    assert L - 1.5 <= n <= L + 0.5
    assert report.worst_low_margin > 0 and report.worst_high_margin > 0


def _true_L(q, k):
    """L(k) to 50 digits."""
    with mpmath.workdps(50):
        lk = mpmath.log(k) / mpmath.log(q)
        return lk + mpmath.log(lk) / mpmath.log(q) \
            + mpmath.log(q - 1) / mpmath.log(q)


def _window_holds(q, k, slack):
    """The degree window at one rank decided at 50 digits."""
    n = kth_irreducible_degree(q, k)
    with mpmath.workdps(50):
        s = mpmath.mpf(Fraction(slack).numerator) / Fraction(slack).denominator
        L = _true_L(q, k)
        return L - 1 - s <= n <= L + s


@pytest.mark.parametrize("k,degree", [(2, 1), (4, 3), (16, 6), (256, 11),
                                      (65536, 20)])
def test_exact_ties_at_q2(k, degree):
    """L(k) = j + log2 j is an integer at k = 2^j, j a power of 2, and
    there it equals deg P_k: at slack 0 the upper margin is exactly 0."""
    j = k.bit_length() - 1
    assert kth_irreducible_degree(2, k) == degree == j + int(math.log2(j))
    report = check_degree_brackets(2, k, k, 0.0)
    assert report.ok and report.worst_high_margin == pytest.approx(0, abs=1e-12)
    # the least negative slack breaks the tie, though no float sees it
    tiny = -5e-324
    assert not check_degree_brackets(2, k, k, tiny).ok
    assert check_degree_brackets(2, k, k, -tiny).ok


@pytest.mark.parametrize("q,k", [(2, 17), (2, 1000), (3, 243), (5, 4000)])
def test_doctored_near_ties_match_high_precision(q, k):
    """A slack chosen to put one float margin within rounding of 0: the
    verdict is the one a 50-digit evaluation gives, on either side."""
    n = kth_irreducible_degree(q, k)
    logq = math.log(q)
    lk = np.log(np.float64(k)) / logq
    L = float(lk + np.log(lk) / logq + math.log(q - 1) / logq)
    for base in (n - L, L - 1 - n):    # zero high margin, zero low margin
        for slack in (np.nextafter(base, -1.0), base,
                      np.nextafter(base, 1.0)):
            slack = float(slack)
            report = check_degree_brackets(q, k, k, slack)
            assert report.ok == _window_holds(q, k, slack), slack


def test_degree_brackets_guards():
    with pytest.raises(UsageError):
        check_degree_brackets(3, 2, 100, 0.5)  # k_lo below q
    with pytest.raises(UsageError):
        check_degree_brackets(2, 50, 40, 0.5)
