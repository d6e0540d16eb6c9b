"""Counting engine: exact tables, certified bounds, products, and tails."""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from mpmath import iv

from primfield import DEFAULT_PRECISION_BITS, brackets, counting
from primfield.brackets import IntervalContext
from primfield.counting import (PRINTABLE_EXACT_BITS, _g_series_iv,
                                _table_rows, build_count_table,
                                evaluate_G,
                                mertens_rows,
                                monic_cumulative, norton_check,
                                q_large_deviation, verify_hr_bound,
                                verify_recurrence_bound)
from primfield.errors import BudgetError, PrecisionError, UsageError
from primfield.irreducibles import pi_prime

from oracles import (count_table_lists, evaluate_G_mp, factor_index,
                     g_series_resummed, norton_brackets_mp,
                     hr_bound_full_width, log_weight_dyadic_lower,
                     mertens_exact, mertens_per_n, mp_bracket, mp_fraction,
                     mp_precision, packed_rows,
                     recurrence_bound_full_width, recurrence_cells,
                     recurrence_sums_full_width, row_total,
                     sieve_irreducibles, table_count)


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
            assert table_count(table.rows, n, k) == want[n][k], (n, k)


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
            assert table_count(table.rows, n, k) == want[n][k], (n, k, excl)


@pytest.mark.parametrize("q,N", [(2, 120), (3, 60), (5, 30), (7, 20),
                                 (3, 150)])
def test_packed_table_matches_list_oracle(q, N):
    # the oracle applies the degrees in ascending order, the table in
    # descending order; whole degrees struck (first, middle and last)
    # are skipped by both; one irreducible left at degree N // 2 puts a
    # row-0 term in row N // 2 but not in row 2 (N // 2)
    for excl in (None, {1: 1, 2: 1, 5: 2}, {1: q, 3: 1},
                 {3: pi_prime(q, 3)}, {N: pi_prime(q, N)},
                 {N // 2: pi_prime(q, N // 2) - 1,
                  N // 3: pi_prime(q, N // 3)}):
        table = build_count_table(q, N, excluded_degrees=excl)
        assert table.rows == count_table_lists(q, N, excl), excl
        # each row is n + 1 entries, zeros after its support included
        assert [len(row) for row in table.rows] == list(range(1, N + 2))


def test_table_row_identities():
    rows = build_count_table(2, 40).rows
    assert row_total(rows, 1) == 2  # every linear polynomial is squarefree
    for n in range(2, 41):
        assert row_total(rows, n) == 2**n - 2**(n - 1)
    for n in range(1, 41):
        assert table_count(rows, n, 1) == pi_prime(2, n)
    assert table_count(rows, 0, 0) == 1 and table_count(rows, 5, 0) == 0
    assert table_count(rows, 7, 9) == 0  # k > n reads as zero
    # rows 0 and 1 keep their n + 1 slots, even when a row is all zeros
    assert build_count_table(2, 0).rows == ((1,),)
    assert build_count_table(2, 3, excluded_degrees={1: 2}).rows == \
        ((1,), (0, 0), (0, 1, 0), (0, 2, 0, 0))


def test_table_refuses_bad_exclusions():
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


def _feed(monkeypatch, rows):
    """Have the checks read rows 0..N of rows, packed in the build's slots
    (packed_rows), in place of the packed build's."""
    monkeypatch.setattr(counting, "_table_rows",
                        lambda q, N: packed_rows(q, N, rows))


def _doctored(rows, cells):
    """A copy of rows with rows[n][k] = value for each (n, k): value."""
    rows = [list(r) for r in rows]
    for (n, k), value in cells.items():
        rows[n][k] = value
    return tuple(tuple(r) for r in rows)


PRECISIONS = (16, 53, 96, 128, 200)


@pytest.mark.parametrize("p", PRECISIONS)
def test_integer_log_weights_equal_mpmaths_bound(p):
    """The integer log weights are the lower ends mpmath's interval
    log n + 2 - log 2 gives, in the same lowest terms, for n <= 2000."""
    assert list(counting._log_weights_lower(IntervalContext(p), 2000)) == \
        [log_weight_dyadic_lower(n, p) for n in range(1, 2001)]


def test_integer_log_weights_hold_to_the_exact_limit():
    """At 8 bits every n < 2^8 is an exact iv.mpf, and the weights equal
    mpmath's; a table size past that is refused, not bounded otherwise."""
    assert list(counting._log_weights_lower(IntervalContext(8), 255)) == \
        [log_weight_dyadic_lower(n, 8) for n in range(1, 256)]
    with pytest.raises(PrecisionError, match="table size 256"):
        verify_hr_bound(2, 256, precision_bits=8)
    for p in (7, 4097):
        with pytest.raises(PrecisionError, match=f"precision {p} outside"):
            verify_hr_bound(2, 10, precision_bits=p)


@pytest.mark.parametrize("p", [16, 53])
def test_a_log_bracket_too_wide_to_round_is_summed_again(p, monkeypatch):
    """With the working bits 8 short of the target in place of 12 past it,
    the first bracket's ends round apart for most n; each such log n is
    formed again with twice the bits, and every rounding, down and up, is
    the end of mpmath's interval log."""
    monkeypatch.setattr(brackets, "_ZIV_EXTRA_BITS", -8)
    real, calls = brackets._log_bracket, 0

    def counted(m, e, w):
        nonlocal calls
        calls += 1
        return real(m, e, w)

    monkeypatch.setattr(brackets, "_log_bracket", counted)
    iv = IntervalContext(p)
    for n in range(2, 200):
        got = iv.log(n).bracket()
        with mp_precision(p):
            assert got == mp_bracket(mpmath.iv.log(n)), n
    assert calls - 198 > 100


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_hr_reports_equal_the_mpmath_weighted_oracle(q):
    """verify_hr_bound's reports, with the integer log weights, equal the
    full-width walk's with mpmath's at every precision swept."""
    for N in (1, 2, 17, 60):
        rows = build_count_table(q, N).rows
        for p in PRECISIONS:
            report = verify_hr_bound(q, N, precision_bits=p)
            assert report == hr_bound_full_width(q, N, rows, p), (N, p)


def test_hr_bound_flags_doctored_table(monkeypatch):
    clean = build_count_table(2, 50).rows
    _feed(monkeypatch, _doctored(clean, {(50, 1): 2**50}))  # k=1 bound q^n/n
    report = verify_hr_bound(2, 50)
    assert not report.ok
    assert any(v[0] == 50 and v[1] == 1 for v in report.violations)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_hr_bound_off_the_packed_build_matches_the_table(q):
    """Rows unpacked one at a time off the packed build give the report
    that every cell of the whole table gives."""
    for N in (0, 1, 2, 17, 120, 300):
        streamed = verify_hr_bound(q, N)
        held = hr_bound_full_width(q, N, build_count_table(q, N).rows)
        assert streamed == held
        assert streamed.to_json() == held.to_json()


def test_the_hr_check_never_holds_the_unpacked_table():
    """Past the packed build, the check holds one unpacked row at a time:
    its peak stays below the build plus a tenth of the whole unpacked
    table, which it used to hold beside the build (at q = 2, N = 200 the
    build is 0.12 MB, the table 0.34 MB, and the check 14 kB over the
    build)."""
    q, N = 2, 200
    verify_hr_bound(q, N)    # the shared counts and mpmath's caches
    tracemalloc.start()
    try:
        rows = _table_rows(q, N)
        next(rows)
        packed = tracemalloc.get_traced_memory()[0]
        del rows
        table = build_count_table(q, N)
        unpacked = tracemalloc.get_traced_memory()[0]
        del table
        tracemalloc.reset_peak()
        verify_hr_bound(q, N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < packed + unpacked / 10


def test_checks_refuse_a_negative_table_size():
    for N in (-1, -2, -5):
        for check in (verify_hr_bound, verify_recurrence_bound):
            with pytest.raises(UsageError, match=r"^table size must be >= 0$"):
                check(2, N)


def test_recurrence_bound_holds_and_flags(monkeypatch):
    for q in (2, 3):
        report = verify_recurrence_bound(q, 40)
        assert report.ok and not report.violations
    # 2^30 is the build's bound on any entry; 2 * 2^30 passes the right
    # side, 404,060,732
    clean = build_count_table(2, 30).rows
    _feed(monkeypatch, _doctored(clean, {(30, 3): 2**30}))
    assert not verify_recurrence_bound(2, 30).ok


@pytest.mark.parametrize("q", [2, 3, 5])
def test_recurrence_bound_off_the_packed_build_matches_the_table(q):
    """Rows packed one at a time as they come off the build, in slots
    sized from q^N, give the report that the whole table, packed at its
    largest entry's width, gives."""
    for N in (0, 1, 2, 3, 17, 80, 150):
        assert verify_recurrence_bound(q, N) == recurrence_bound_full_width(
            q, N, build_count_table(q, N).rows)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_slots_hold_the_proved_bound_on_every_recurrence_sum(q):
    """For every N <= 60, every slot of every recurrence sum to degree N,
    from the oracle's own wide packing, is at most q^N H_{N//2}, the
    bound _slot_bytes proves, and the build's slots hold that bound; the
    check's report at that width is the oracle's.  The true sums stay far
    below the bound (slots sized for q^N alone give the same reports), so
    the inequality is what pins the width; at q = 3, N = 60 the bound
    needs a 13th byte, q^N alone 12."""
    rows = build_count_table(q, 60).rows
    for N in range(61):
        bound = q**N * sum(Fraction(1, d) for d in range(1, N // 2 + 1))
        largest = max((max(s) for s in recurrence_sums_full_width(q, N, rows)
                       if s), default=0)
        assert largest <= bound < 2**(8 * counting._slot_bytes(q, N)), N
        assert verify_recurrence_bound(q, N) == \
            recurrence_bound_full_width(q, N, rows), N
    if q == 3:
        assert counting._slot_bytes(3, 60) == 13
        assert (3**60).bit_length() <= 8 * 12


def test_the_recurrence_check_never_holds_the_unpacked_table():
    """The check holds the build's packed rows, never the unpacked
    table, which alone takes 0.78 MB at q = 2, N = 300 (0.40 MB
    measured; 0.58 MB while it packed the rows again in slots of its
    own, 1.35 MB while it held that table, a copy of its rows and their
    packed forms)."""
    verify_recurrence_bound(2, 300)     # the shared counts
    tracemalloc.start()
    try:
        verify_recurrence_bound(2, 300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 780_000


@pytest.mark.parametrize("q", [2, 3, 5])
def test_support_walks_match_full_width_loops(q, monkeypatch):
    """Both checks stop each row at its last nonzero entry; the reports
    equal those of loops over every slot, on clean tables and on tables
    with entries past a row's natural support.  Each doctored row sums to
    at most q^n, which the build's slots rest on (_slot_bytes), or is row
    N, which no recurrence sum reads."""
    cases = []
    for N in (1, 2, 3, 11, 40, 80):
        clean = build_count_table(q, N).rows
        cases.append((N, clean))
        if N >= 3:
            cases += [
                (N, _doctored(clean, {(N, N): 1, (N - 1, N - 2): q**(N - 2)})),
                (N, _doctored(clean, {(N, N - 1): q**N, (N, 1): 0})),
            ]
    for N, rows in cases:
        _feed(monkeypatch, rows)
        assert verify_hr_bound(q, N) == hr_bound_full_width(q, N, rows)
        assert verify_recurrence_bound(q, N) == \
            recurrence_bound_full_width(q, N, rows)


@pytest.mark.parametrize("q,N", [(2, 60), (3, 40), (5, 24)])
def test_packed_recurrence_matches_cell_oracle(q, N, monkeypatch):
    r = build_count_table(q, N).rows
    h = N // 2
    tables = [
        r,
        # a left side that fails, and right sides that grow; row h still
        # sums to at most q^h, which the build's slots rest on
        _doctored(r, {(N, 3): q**N, (h, 2): q**(h - 1)}),
        _doctored(r, {(N - 1, N - 1): 0, (N, 2): 0, (h, 1): q**(h - 1)}),
    ]
    reports = []
    for rows in tables:
        _feed(monkeypatch, rows)
        report = verify_recurrence_bound(q, N)
        assert (report.cells, report.violations, report.min_log_margin) \
            == recurrence_cells(q, N, rows)
        reports.append(report)
    assert reports[0].ok
    assert not reports[1].ok


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


def test_mertens_brackets_hold_the_exact_products():
    """lo <= 2^w P(n) <= hi, checked against mertens_parts' A / q^E by
    cross-multiplication, within the docstring's width 73 n 2^(w - p)."""
    for q, last in ((2, 16), (3, 10), (5, 7), (7, 6)):
        pairs = zip(range(1, last + 1), counting.mertens_brackets(q),
                    counting.mertens_parts(q))
        for n, (lo, hi, w), (num, e) in pairs:
            assert lo * q**e <= num << w <= hi * q**e, (q, n)
            assert hi - lo < 73 * n << w - DEFAULT_PRECISION_BITS, (q, n)
            assert w == DEFAULT_PRECISION_BITS + max(
                pi_prime(q, d) for d in range(1, n + 1)).bit_length()


def test_mertens_exact_bit_budget():
    """A row carries its exact rational exactly while its numerator fits
    the printable budget: q=2 through n=12, q=3 through n=7."""
    for q, last in ((2, 12), (3, 7)):
        rows = mertens_rows(q, last + 1)
        assert all(mv.exact is not None for mv in rows[:-1])
        assert rows[-1].exact is None
        assert rows[-2].exact.numerator.bit_length() <= PRINTABLE_EXACT_BITS
    assert mertens_rows(2, 13)[-1].exact is None


def test_mertens_rows_match_each_product_and_the_per_n_sum():
    for q, max_n in ((2, 60), (3, 20)):
        rows = mertens_rows(q, max_n)
        assert [mv.n for mv in rows] == list(range(1, max_n + 1))
        for mv in rows:
            want = mertens_per_n(q, mv.n).to_json()
            assert mv.to_json() == want
            assert mertens_rows(q, mv.n)[-1].to_json() == want


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
    assert mertens_rows(2, 5)[-1].exact is not None
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
            mertens_rows(2, 5)[-1]


def test_mertens_bracket_agrees_with_independent_interval():
    for q, n in ((2, 6), (3, 5), (5, 4)):
        mv = mertens_rows(q, n)[-1]
        with mp_precision(96):
            indep = mp_bracket(
                iv.exp(iv.euler) * n
                * iv.mpf([mv.exact.numerator, mv.exact.numerator])
                / iv.mpf([mv.exact.denominator, mv.exact.denominator]))
        # both bracket e^gamma n P(n), so they must overlap
        assert mv.normalized.lo <= indep.hi and indep.lo <= mv.normalized.hi


def _mertens_base_precision(q, n, bits):
    """The normalized bracket with each degree's term rounded at the base
    precision before it is scaled by pi'(d)."""
    with mp_precision(bits):
        s = iv.mpf(0)
        for d in range(1, n + 1):
            s += pi_prime(q, d) * iv.log(1 - iv.mpf(1) / q**d)
        return mp_bracket(iv.exp(iv.euler + iv.log(iv.mpf(n)) + s))


def _g_base_precision(q, z, cap, bits):
    with mp_precision(bits):
        z = mp_fraction(z)
        s = iv.mpf(0)
        for d in range(1, cap + 1):
            u = iv.mpf(1) / q**d
            s += pi_prime(q, d) * (iv.log(1 + z * u) + z * iv.log(1 - u))
        tail = z * (1 + z) / q**cap / ((cap + 1) * (q - 1))
        return mp_bracket(iv.exp(s - iv.mpf([0, 1]) * tail))


def test_term_precision_nests_inside_base_precision_brackets():
    for n in range(1, 21):
        new = mertens_rows(3, n)[-1].normalized
        old = _mertens_base_precision(3, n, 128)
        assert old.lo <= new.lo and new.hi <= old.hi, n
    for z in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)):
        ctx = IntervalContext(128)
        capped = [g.bracket() for g in _g_series_iv(ctx, 3, ctx.fraction(z))]
        for cap, new in zip((8, 16, 32, 64), capped, strict=True):
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
            got = mertens_rows(q, n)[-1].normalized
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
    vals = {n: mertens_rows(2, n)[-1] for n in (10, 20, 30, 40)}
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


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_G_running_sum_matches_the_resummed_series(q):
    """The bracket at each degree cap, read off one running sum, is bit
    for bit mpmath's bracket of the series summed afresh from degree 1 to
    that cap."""
    for bits in (96, 192):
        for z in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2),
                  Fraction(2)):
            ctx = IntervalContext(bits)
            got = [g.bracket()
                   for g in _g_series_iv(ctx, q, ctx.fraction(z))]
            with mp_precision(bits):
                want = [mp_bracket(g_series_resummed(q, mp_fraction(z), cap))
                        for cap in (8, 16, 32, 64)]
            assert got == want, (bits, z)


def test_G_forms_each_degree_term_once_per_precision(monkeypatch):
    """G(1) to 1e-18 at q = 2 needs the degree-64 cap at the base
    precision: 64 terms, where re-summing at each cap took 8 + 16 + 32 +
    64 = 120."""
    terms = 0
    real = counting._term_precision

    def counted(iv, m):
        nonlocal terms
        terms += 1
        return real(iv, m)

    monkeypatch.setattr(counting, "_term_precision", counted)
    evaluate_G(2, 1, eps=Fraction(1, 10**18))
    assert terms == 64


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
    ctx = IntervalContext(64)
    one = q_large_deviation(ctx, Fraction(1)).bracket()
    half = q_large_deviation(ctx, Fraction(1, 2)).bracket()
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
    with mp_precision(96):
        term = mp_bracket(iv.exp(-iv.mpf(10)))
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


# ----------------------------------------------------------------------
# The certify goldens, bracket for bracket mpmath's
# ----------------------------------------------------------------------

def test_the_g_golden_is_mpmaths_bracket():
    """eval g --q 2 at z = 0, 1/2, 1, 3/2, 2 and eps 1e-18, the benchmark's
    golden op: each bracket is bit for bit the one mpmath's interval
    context forms."""
    eps = Fraction(1, 10**18)
    for z in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2),
              Fraction(2)):
        assert evaluate_G(2, z, eps=eps) == evaluate_G_mp(2, z, eps), z


def test_the_norton_golden_is_mpmaths_brackets():
    """verify norton at x = 5, 10, 20, 200 with the default alpha = 1/2
    and beta = 3/2, the benchmark's golden op, and at a few more
    parameters: every side's brackets are mpmath's."""
    for x, alpha, beta in ((5, Fraction(1, 2), Fraction(3, 2)),
                           (10, Fraction(1, 2), Fraction(3, 2)),
                           (20, Fraction(1, 2), Fraction(3, 2)),
                           (200, Fraction(1, 2), Fraction(3, 2)),
                           (Fraction(7, 2), Fraction(1, 3), Fraction(5, 2)),
                           (33, Fraction(9, 10), Fraction(11, 10))):
        r = norton_check(x, alpha, beta)
        assert (r.lower.lhs, r.lower.rhs, r.upper.lhs, r.upper.rhs) == \
            norton_brackets_mp(x, alpha, beta), x
