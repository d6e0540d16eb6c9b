"""Counting engine: exact tables, certified bounds, products, and tails."""

import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import iv

from primfield import counting
from primfield.brackets import BracketedValue, iv_from_fraction, precision
from primfield.counting import (PRINTABLE_EXACT_BITS, CountTable,
                                _g_series_iv, build_count_table, evaluate_G,
                                mertens_product, mertens_rows,
                                monic_cumulative, norton_check,
                                q_large_deviation, verify_hr_bound,
                                verify_recurrence_bound)
from primfield.errors import BudgetError, PrecisionError, UsageError
from primfield.irreducibles import pi_prime

from oracles import (count_table_lists, factor_index, hr_bound_full_width,
                     mertens_exact, mertens_per_n, recurrence_bound_full_width,
                     recurrence_cells, sieve_irreducibles)


def enumerate_squarefree_counts(sieve, N, excluded=None):
    """Brute-force rows[n][k] by factoring every monic polynomial."""
    q = sieve.q
    struck = set()
    if excluded:
        for d, c in sorted(excluded.items()):
            idxs = sieve_irreducibles(sieve, d)
            assert c <= len(idxs)
            struck.update(int(i) for i in idxs[:c])
    rows = [[0] * (n + 1) for n in range(N + 1)]
    rows[0][0] = 1
    for n in range(1, N + 1):
        for idx in range(q**n, 2 * q**n):
            fac = factor_index(sieve, idx)
            if any(m > 1 for _, m in fac):
                continue
            if any(p in struck for p, _ in fac):
                continue
            rows[n][len(fac)] += 1
    return rows


# ----------------------------------------------------------------------
# Count tables
# ----------------------------------------------------------------------

def test_monic_counts():
    assert [monic_cumulative(2, n) for n in range(4)] == [1, 3, 7, 15]
    assert monic_cumulative(3, 3) == 1 + 3 + 9 + 27
    with pytest.raises(UsageError):
        monic_cumulative(2, -1)


@pytest.mark.parametrize("q,N", [(2, 10), (3, 6)])
def test_table_matches_enumeration(q, N, sieve2, sieve3):
    sieve = sieve2 if q == 2 else sieve3
    table = build_count_table(q, N)
    want = enumerate_squarefree_counts(sieve, N)
    for n in range(N + 1):
        for k in range(n + 1):
            assert table.count(n, k) == want[n][k], (n, k)


@pytest.mark.parametrize("q,N,excl", [
    (2, 9, {1: 1}),
    (2, 9, {1: 2, 2: 1}),
    (3, 6, {1: 2}),
    (3, 6, {2: 3, 1: 1}),
])
def test_table_with_exclusions_matches_enumeration(q, N, excl, sieve2, sieve3):
    sieve = sieve2 if q == 2 else sieve3
    table = build_count_table(q, N, excluded_degrees=excl)
    want = enumerate_squarefree_counts(sieve, N, excluded=excl)
    for n in range(N + 1):
        for k in range(n + 1):
            assert table.count(n, k) == want[n][k], (n, k, excl)


@pytest.mark.parametrize("q,N", [(2, 120), (3, 60), (5, 30), (7, 20)])
def test_packed_table_matches_list_oracle(q, N):
    for excl in (None, {1: 1, 2: 1, 5: 2}, {1: q, 3: 1}):
        table = build_count_table(q, N, excluded_degrees=excl)
        assert table.rows == count_table_lists(q, N, excl), excl


def test_table_row_identities():
    table = build_count_table(2, 40)
    assert table.row_total(1) == 2  # every linear polynomial is squarefree
    for n in range(2, 41):
        assert table.row_total(n) == 2**n - 2**(n - 1)
    for n in range(1, 41):
        assert table.count(n, 1) == pi_prime(2, n)
    assert table.count(0, 0) == 1 and table.count(5, 0) == 0
    assert table.count(7, 9) == 0  # k > n reads as zero
    with pytest.raises(UsageError):
        table.count(41, 1)


def test_table_cache_and_budget():
    with pytest.raises(UsageError):
        build_count_table(2, 10, excluded_degrees={1: 5})  # only 2 exist
    with pytest.raises(UsageError):
        build_count_table(2, 10, excluded_degrees={0: 1})
    with pytest.raises(UsageError, match="cannot exclude -1 irreducibles"):
        build_count_table(2, 4, excluded_degrees={2: -1})


# ----------------------------------------------------------------------
# Inequality sweeps
# ----------------------------------------------------------------------

def test_hr_bound_holds_at_desk_scale():
    for q in (2, 3):
        report = verify_hr_bound(q, 60)
        assert report.ok and not report.violations
        assert report.cells == 60 * 61 // 2
        assert report.min_log_margin >= 0.0


def test_hr_bound_flags_doctored_table():
    clean = build_count_table(2, 50)
    rows = [list(r) for r in clean.rows]
    rows[50][1] = 2**50  # far beyond the k=1 bound q^n/n
    doctored = CountTable(2, 50, tuple(tuple(r) for r in rows))
    report = verify_hr_bound(2, 50, table=doctored)
    assert not report.ok
    assert any(v[0] == 50 and v[1] == 1 for v in report.violations)


def test_recurrence_bound_holds_and_flags():
    for q in (2, 3):
        report = verify_recurrence_bound(q, 40)
        assert report.ok and not report.violations
    clean = build_count_table(2, 30)
    rows = [list(r) for r in clean.rows]
    rows[30][3] *= 2**40
    doctored = CountTable(2, 30, tuple(tuple(r) for r in rows))
    assert not verify_recurrence_bound(2, 30, table=doctored).ok


@pytest.mark.parametrize("q", [2, 3, 5])
def test_support_walks_match_full_width_loops(q):
    """Both checks stop each row at its last nonzero entry; the reports
    equal those of loops over every slot, on clean tables and on tables
    with entries past a row's natural support."""
    for N in (1, 2, 3, 11, 40, 80):
        clean = build_count_table(q, N)
        tables = [clean]
        if N >= 3:
            tables += [
                _doctored(clean, {(N, N): 1, (N - 1, N - 2): q**N}),
                _doctored(clean, {(N, N - 1): clean.rows[N][1] * q**N,
                                  (N, 1): 0}),
            ]
        for table in tables:
            assert verify_hr_bound(q, N, table=table) == \
                hr_bound_full_width(q, N, table)
            assert verify_recurrence_bound(q, N, table=table) == \
                recurrence_bound_full_width(q, N, table)


def _doctored(table, cells):
    """A copy of table with rows[n][k] = value for each (n, k): value."""
    rows = [list(r) for r in table.rows]
    for (n, k), value in cells.items():
        rows[n][k] = value
    return CountTable(table.q, table.N, tuple(tuple(r) for r in rows))


@pytest.mark.parametrize("q,N", [(2, 60), (3, 40), (5, 24)])
def test_packed_recurrence_matches_cell_oracle(q, N):
    clean = build_count_table(q, N)
    r = clean.rows
    h = N // 2
    tables = [
        clean,
        # far above q^N: a left side that fails, and right sides that grow
        _doctored(clean, {(N, 3): r[N][3] * 2**400, (h, 2): r[h][2] * 2**400}),
        _doctored(clean, {(N - 1, N - 1): 0, (N, 2): 0,
                          (h, 1): r[h][1] * 2**400}),
    ]
    for table in tables:
        report = verify_recurrence_bound(q, N, table=table)
        assert (report.cells, report.violations, report.min_log_margin) \
            == recurrence_cells(q, N, table.rows)
    assert verify_recurrence_bound(q, N, table=tables[0]).ok
    assert not verify_recurrence_bound(q, N, table=tables[1]).ok
    with pytest.raises(UsageError, match="negative"):
        verify_recurrence_bound(q, N, table=_doctored(clean, {(h, 2): -1}))


# ----------------------------------------------------------------------
# Mertens product
# ----------------------------------------------------------------------

def test_mertens_exact_matches_direct_product():
    for q in (2, 3):
        rows = mertens_rows(q, 7)
        for n, mv in enumerate(rows, start=1):
            assert mv.exact == mertens_exact(q, n)
    # and through the running numerator the density check reads
    for n, (num, e) in zip(range(1, 9), counting.mertens_parts(3)):
        assert Fraction(num, 3**e) == mertens_exact(3, n)


def test_mertens_exact_bit_budget():
    """A row carries its exact rational exactly while its numerator fits
    the printable budget: q=2 through n=12, q=3 through n=7."""
    for q, last in ((2, 12), (3, 7)):
        rows = mertens_rows(q, last + 1)
        assert all(mv.exact is not None for mv in rows[:-1])
        assert rows[-1].exact is None
        assert rows[-2].exact.numerator.bit_length() <= PRINTABLE_EXACT_BITS
    assert mertens_product(2, 13).exact is None


def test_mertens_rows_match_each_product_and_the_per_n_sum():
    for q, max_n in ((2, 60), (3, 20)):
        rows = mertens_rows(q, max_n)
        assert [mv.n for mv in rows] == list(range(1, max_n + 1))
        for mv in rows:
            want = mertens_per_n(q, mv.n).to_json()
            assert mv.to_json() == want
            assert mertens_product(q, mv.n).to_json() == want


def test_budget_error_inside_mertens_product_propagates(monkeypatch):
    """A deadline may expire at any point of the pass, the exact rational
    included: wherever pi_prime raises BudgetError, it reaches the caller
    instead of reading as an exact form past the bit budget."""
    calls = 0

    def counted(q, d):
        nonlocal calls
        calls += 1
        return pi_prime(q, d)

    monkeypatch.setattr(counting, "pi_prime", counted)
    assert mertens_product(2, 5).exact is not None
    for k in range(1, calls + 1):
        seen = 0

        def expire_at_k(q, d):
            nonlocal seen
            seen += 1
            if seen == k:
                raise BudgetError("deadline")
            return pi_prime(q, d)

        monkeypatch.setattr(counting, "pi_prime", expire_at_k)
        with pytest.raises(BudgetError, match="deadline"):
            mertens_product(2, 5)


def test_mertens_bracket_agrees_with_independent_interval():
    for q, n in ((2, 6), (3, 5), (5, 4)):
        mv = mertens_product(q, n)
        with precision(96):
            indep = BracketedValue.from_iv(
                iv.exp(iv.euler) * n
                * iv.mpf([mv.exact.numerator, mv.exact.numerator])
                / iv.mpf([mv.exact.denominator, mv.exact.denominator]))
        # both bracket e^gamma n P(n), so they must overlap
        assert mv.normalized.lo <= indep.hi and indep.lo <= mv.normalized.hi


def _mertens_base_precision(q, n, bits):
    """The normalized bracket with each degree's term rounded at the base
    precision before it is scaled by pi'(d)."""
    with precision(bits):
        s = iv.mpf(0)
        for d in range(1, n + 1):
            s += pi_prime(q, d) * iv.log(1 - iv.mpf(1) / q**d)
        return BracketedValue.from_iv(iv.exp(iv.euler + iv.log(iv.mpf(n)) + s))


def _g_base_precision(q, z, cap, bits):
    with precision(bits):
        z = iv_from_fraction(z)
        s = iv.mpf(0)
        for d in range(1, cap + 1):
            u = iv.mpf(1) / q**d
            s += pi_prime(q, d) * (iv.log(1 + z * u) + z * iv.log(1 - u))
        tail = z * (1 + z) / q**cap / ((cap + 1) * (q - 1))
        return BracketedValue.from_iv(iv.exp(s - iv.mpf([0, 1]) * tail))


def test_term_precision_nests_inside_base_precision_brackets():
    for n in range(1, 21):
        new = mertens_product(3, n).normalized
        old = _mertens_base_precision(3, n, 128)
        assert old.lo <= new.lo and new.hi <= old.hi, n
    for z in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)):
        for cap in (8, 16, 32):
            with precision(128):
                new = BracketedValue.from_iv(
                    _g_series_iv(3, iv_from_fraction(z), cap))
            old = _g_base_precision(3, z, cap, 128)
            assert old.lo <= new.lo and new.hi <= old.hi


def _near_bracket(b, x):
    """lo - 1e-50 <= x <= hi + 1e-50 for an mpmath number x."""
    tol = mpmath.mpf(10)**-50
    return (mpmath.mpf(b.lo.numerator) / b.lo.denominator - tol <= x
            <= mpmath.mpf(b.hi.numerator) / b.hi.denominator + tol)


@pytest.mark.parametrize("q", [4294967311, 1000000000000000003])
def test_mertens_and_G_brackets_in_large_fields(q):
    """Each degree's term keeps its absolute precision however large q is:
    the brackets stay ~1e-36 wide and hold the value to 60 digits."""
    with mpmath.workdps(60):
        logs = [pi_prime(q, d) * mpmath.log1p(-mpmath.mpf(q)**-d)
                for d in range(1, 4)]
        for n in range(1, 4):
            want = mpmath.exp(mpmath.euler + sum(logs[:n])) * n
            got = mertens_product(q, n).normalized
            assert got.width < Fraction(1, 10**35)
            assert _near_bracket(got, want)
        for z in (1, 2):
            # the degree-9 tail is below q^-9 < 1e-86
            want = mpmath.exp(sum(
                pi_prime(q, d) * (mpmath.log1p(z * mpmath.mpf(q)**-d)
                                  + z * mpmath.log1p(-mpmath.mpf(q)**-d))
                for d in range(1, 9)))
            got = evaluate_G(q, z, eps=Fraction(1, 10**30))
            assert got.width < Fraction(1, 10**35)
            assert _near_bracket(got, want)


def test_mertens_normalized_drifts_to_one():
    vals = {n: mertens_product(2, n) for n in (10, 20, 30, 40)}
    mids = {n: (v.normalized.lo + v.normalized.hi) / 2
            for n, v in vals.items()}
    errs = {n: abs(mid - 1) for n, mid in mids.items()}
    assert errs[40] < errs[20] < errs[10]
    assert vals[40].exact is None  # needs ~2^41 bits, not printable
    golden = Fraction("0.9835616125806990676507639358915")
    assert abs(mids[30] - golden) < Fraction(1, 10**30)
    assert vals[30].normalized.width < Fraction(1, 10**30)


# ----------------------------------------------------------------------
# Singular series G
# ----------------------------------------------------------------------

def test_G_at_zero_and_closed_form_at_one():
    tight = Fraction(1, 10**9)
    g0 = evaluate_G(2, 0)
    assert g0.lo <= 1 <= g0.hi
    for q in (2, 3, 5):
        b = evaluate_G(q, 1, eps=tight)
        assert b.lo <= 1 - Fraction(1, q) <= b.hi
        assert b.width <= tight


def test_G_frozen_value_and_width_contract():
    eps = Fraction(1, 10**6)
    b = evaluate_G(2, 2, eps=eps)
    assert b.width <= eps
    assert b.lo <= Fraction("0.1813197142697") <= b.hi


def test_G_midpoints_decrease_on_grid():
    brs = [evaluate_G(2, Fraction(k, 4)) for k in range(9)]
    mids = [(b.lo + b.hi) / 2 for b in brs]
    assert all(a >= b for a, b in zip(mids, mids[1:]))


def test_G_guards_and_precision_exhaustion():
    with pytest.raises(UsageError):
        evaluate_G(2, 3)
    with pytest.raises(UsageError):
        evaluate_G(2, Fraction(-1, 2))
    with pytest.raises(UsageError):
        evaluate_G(2, 1, eps=0)
    with pytest.raises(PrecisionError):
        # the degree-64 tail floors the width near 8e-22, far above eps
        evaluate_G(2, 1, eps=Fraction(1, 10**60), precision_bits=64)


# ----------------------------------------------------------------------
# Tails
# ----------------------------------------------------------------------

def test_q_large_deviation_basics():
    with precision(64):
        one = BracketedValue.from_iv(q_large_deviation(Fraction(1)))
        half = BracketedValue.from_iv(q_large_deviation(Fraction(1, 2)))
    assert one.lo <= 0 <= one.hi
    ref = Fraction(1, 2) - Fraction("0.34657359027997265470861606072909")
    assert abs((half.lo + half.hi) / 2 - ref) < Fraction(1, 10**12)


def test_norton_holds_at_desk_parameters():
    for x in (5, 10, 20):
        report = norton_check(x, Fraction(1, 2), Fraction(3, 2))
        assert report.ok and report.lower.holds and report.upper.holds
        assert report.lower.lhs.strictly_below(report.lower.rhs)
        assert report.upper.lhs.strictly_below(report.upper.rhs)


def test_norton_upper_tail_is_strictly_above_boundary():
    # at x = 10, beta = 3/2 the boundary term k = 15 belongs to the
    # central range; including it overshoots the stated bound
    report = norton_check(10, Fraction(1, 2), Fraction(3, 2))
    assert report.upper.boundary_k == 16
    boundary_term = Fraction(10**15, math.factorial(15))
    with precision(96):
        term = BracketedValue.from_iv(iv.exp(-iv.mpf(10)))
    # lower end of the upper-tail sum with the boundary term included
    inclusive_lo = report.upper.lhs.lo + term.lo * boundary_term
    assert inclusive_lo > report.upper.rhs.hi


def test_norton_guards():
    with pytest.raises(UsageError):
        norton_check(0, Fraction(1, 2), Fraction(3, 2))
    with pytest.raises(UsageError):
        norton_check(5, Fraction(3, 2), Fraction(2))
    with pytest.raises(UsageError):
        norton_check(5, Fraction(1, 2), Fraction(1, 2))
