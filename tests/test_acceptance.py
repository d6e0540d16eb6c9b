"""Acceptance battery: every headline quantity is recomputed against an
independent oracle or certified bracket, one verdict line per criterion."""

import math
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest
from mpmath import iv

from primfield import (GrowthFunction, PolySet,
                       besicovitch_construct,
                       build_count_table,
                       build_t_sequence, check_degree_brackets,
                       erdos_sum_irreducibles, evaluate_G,
                       kth_irreducible, monic_cumulative,
                       mp_construct, mp_diagnostics, norton_check,
                       pi_cumulative, pi_prime,
                       random_primitive_set, verify_erdos_density_inequality,
                       verify_hr_bound, verify_recurrence_bound)
from primfield.counting import mertens_rows
from primfield.fieldpoly import index_degree

from oracles import (Factorization, assert_primitive, divides, index_mul,
                     mp_bracket, mp_precision, sieve_irreducibles,
                     table_count)


# ----------------------------------------------------------------------
# Verdict plumbing (lines are replayed after the run by the terminal
# summary hook in conftest, so they survive output capture)
# ----------------------------------------------------------------------

VERDICT_LINES: list[str] = []


def _record(line: str) -> None:
    VERDICT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


@contextmanager
def gate(num: int, label: str, extra: float = 0.0):
    """Time a criterion body and record exactly one PASS or FAIL line."""
    t0 = time.monotonic()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.monotonic() - t0 + extra
        verdict = "FAIL" if failed else "PASS"
        _record(f"[{verdict}] criterion {num:2d} ({elapsed:7.1f}s): {label}")


def info(num: int, text: str) -> None:
    _record(f"[INFO] criterion {num:2d}: {text}")


# ----------------------------------------------------------------------
# Shared heavyweight objects (construction wall time is charged to the
# criterion that owns the construction via the gate's extra argument)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def tseq_log():
    t0 = time.monotonic()
    t = build_t_sequence(2, GrowthFunction.parse("log:eps=0.1"))
    return t, time.monotonic() - t0


@pytest.fixture(scope="module")
def bes18():
    t0 = time.monotonic()
    res = besicovitch_construct(2, Fraction(1, 4), 18)
    return res, time.monotonic() - t0


@pytest.fixture(scope="module")
def mp40(tseq_log):
    tseq, _ = tseq_log
    t0 = time.monotonic()
    res = mp_construct(2, tseq, 40)
    return res, time.monotonic() - t0


# ----------------------------------------------------------------------
# 1: squarefree factor-count tables against exhaustive enumeration
# ----------------------------------------------------------------------

def test_criterion_01_count_tables(sieve2, sieve3):
    with gate(1, "factor-count tables match exhaustive enumeration "
                 "(q=2 N=14; q=3 N=9)"):
        for q, N, sieve in ((2, 14, sieve2), (3, 9, sieve3)):
            table = build_count_table(q, N)
            oracle = {(0, 0): 1}
            for n in range(1, N + 1):
                for idx in range(q**n, 2 * q**n):
                    fact = Factorization.of(sieve, idx)
                    if fact.is_squarefree:
                        key = (n, fact.omega)
                        oracle[key] = oracle.get(key, 0) + 1
            for n in range(N + 1):
                for k in range(n + 1):
                    assert table_count(table.rows, n, k) == \
                        oracle.get((n, k), 0), (q, n, k)


# ----------------------------------------------------------------------
# 2: irreducible counts against a product sieve
# ----------------------------------------------------------------------

def exhaustive_irreducible_counts(q: int, N: int) -> dict[int, int]:
    """Strike every product of a known irreducible with a monic cofactor;
    whatever survives in a degree slice is irreducible."""
    irr: dict[int, list[int]] = {}
    counts: dict[int, int] = {}
    for n in range(1, N + 1):
        base = q**n
        marked = bytearray(base)
        for a in range(1, n // 2 + 1):
            for i in irr[a]:
                for j in range(q**(n - a), 2 * q**(n - a)):
                    marked[index_mul(q, i, j) - base] = 1
        irr[n] = [base + off for off in range(base) if not marked[off]]
        counts[n] = len(irr[n])
    return counts


def test_criterion_02_pi_prime_exhaustive():
    with gate(2, "irreducible counts match product-sieve enumeration "
                 "(q=2,3 n<=10; q=5 n<=7)"):
        for q, N in ((2, 10), (3, 10), (5, 7)):
            counts = exhaustive_irreducible_counts(q, N)
            for n in range(1, N + 1):
                assert pi_prime(q, n) == counts[n], (q, n)


# ----------------------------------------------------------------------
# 3 and 4: certified inequalities on the count tables
# ----------------------------------------------------------------------

def test_criterion_03_hr_bound():
    with gate(3, "upper bound on k-factor counts holds for "
                 "1<=k<=n<=200, q=2 and q=3"):
        for q in (2, 3):
            report = verify_hr_bound(q, 200)
            assert report.ok and not report.violations, q
            assert report.cells == 200 * 201 // 2
            assert report.min_log_margin >= 0


def test_criterion_04_recurrence_bound():
    with gate(4, "recurrence bound holds for 2<=k<=n<=60, q=2 and q=3"):
        for q in (2, 3):
            report = verify_recurrence_bound(q, 60)
            assert report.ok and not report.violations, q


# ----------------------------------------------------------------------
# 5: G brackets on the closed interval [0, 2]
# ----------------------------------------------------------------------

def test_criterion_05_g_window():
    tol = Fraction(1, 10**6)
    with gate(5, "G brackets on [0,2] sit in [e^-3 - 1e-6, 1 + 1e-6], "
                 "G(0) contains 1, midpoints non-increasing"):
        with mp_precision(128):
            e3 = mp_bracket(iv.exp(-3))
        mids = []
        for k in range(41):
            z = Fraction(k, 20)
            b = evaluate_G(2, z, eps=tol)
            assert b.width <= tol, z
            assert b.lo >= e3.hi - tol, z
            assert b.hi <= 1 + tol, z
            if k == 0:
                assert b.lo <= 1 <= b.hi
            mids.append((b.lo + b.hi) / 2)
        for a, b in zip(mids, mids[1:]):
            assert b <= a


# ----------------------------------------------------------------------
# 6: Mertens product drifts toward its normalization limit
# ----------------------------------------------------------------------

def test_criterion_06_mertens_drift():
    golden30 = Fraction("0.9835616125806990676507639358915")
    with gate(6, "Mertens normalization: q=2 error at n=40 beats n=10; "
                 "n=30 within 10% of 1 and matches golden"):
        mid = {}
        for n in (10, 30, 40):
            mv = mertens_rows(2, n)[-1]
            mid[n] = (mv.normalized.lo + mv.normalized.hi) / 2
        assert abs(mid[40] - 1) < abs(mid[10] - 1)
        assert abs(mid[30] - 1) <= Fraction(1, 10)
        assert abs(mid[30] - golden30) < Fraction(1, 10**30)


# ----------------------------------------------------------------------
# 7: weighted density bound over a zoo of primitive sets
# ----------------------------------------------------------------------

def test_criterion_07_density_zoo(sieve2, bes18, mp40):
    with gate(7, "weighted density bound <= 1 on 100 random sets, both "
                 "construction outputs, and canonical examples"):
        sets = [random_primitive_set(2, 10, seed, per_degree=6)
                for seed in range(100)]
        sets.append(bes18[0].members)
        sets.append(mp40[0].members)
        irr_prefix = [int(i) for d in range(1, 11)
                      for i in sieve_irreducibles(sieve2, d)]
        sets.append(PolySet(2, 10, tuple(irr_prefix)))
        sets.append(PolySet(2, 12, tuple(range(2**12, 2**13))))
        sets.append(PolySet(2, 1, (2,)))
        assert len(sets) == 105
        for ps in sets:
            report = verify_erdos_density_inequality(ps)
            assert report.ok and report.lhs.hi <= 1


# ----------------------------------------------------------------------
# 8: two-sided degree brackets across three decades of k
# ----------------------------------------------------------------------

def test_criterion_08_degree_brackets():
    with gate(8, "degree brackets hold for k in [1e3, 1e6] at slack 0.5 "
                 "(q=2)"):
        report = check_degree_brackets(2, 10**3, 10**6, 0.5)
        assert report.ok and not report.violations
        assert report.checked == 10**6 - 10**3 + 1
        assert report.worst_low_margin >= 0
        assert report.worst_high_margin >= 0
        for k in (10**3, 10**4, 10**5, 10**6):
            deg = next(n for n in range(1, 40) if pi_cumulative(2, n) >= k)
            L = math.log2(k) + math.log2(math.log2(k))
            assert L - 1.5 <= deg <= L + 0.5, k
            if k <= 10**4:
                f = kth_irreducible(2, k)
                assert index_degree(2, f) == deg


# ----------------------------------------------------------------------
# 9: layered slice construction at horizon 18
# ----------------------------------------------------------------------

def test_criterion_09_besicovitch(bes18):
    res, build_secs = bes18
    with gate(9, "layered slice construction at horizon 18 is primitive "
                 "with exact density >= 1/2 - 1/4", extra=build_secs):
        assert res.ok and res.levels == (18,)
        assert len(res.members) == 2**18
        assert res.density == Fraction(2**18, monic_cumulative(2, 18))
        assert res.density >= Fraction(1, 2) - Fraction(1, 4)
        assert_primitive(res.members)


# ----------------------------------------------------------------------
# 10: thinned-irreducible construction to degree 40
# ----------------------------------------------------------------------

def test_criterion_10_mp_construction(sieve2, tseq_log, mp40):
    tseq, t_secs = tseq_log
    res, build_secs = mp40
    with gate(10, "thinned-irreducible construction to degree 40 "
                  "certifies, cross-checks, every member passes the "
                  "slice recheck", extra=t_secs + build_secs):
        total = tseq.suffix_sum + tseq.tail_bound
        assert isinstance(tseq.suffix_sum, Fraction)
        assert isinstance(tseq.tail_bound, Fraction)
        assert 0 < total < Fraction(1, 2)
        assert res.horizon == 40 and res.enum_horizon == 18
        assert res.cross_checked
        assert_primitive(res.members)
        R = res.total_by_degree()
        assert len(res.members) == sum(R[:19]) > 10**4
        terms = tseq.terms
        for i in res.members.indices.tolist():
            fact = Factorization.of(sieve2, i)
            assert fact.is_squarefree, i
            jmin = next(j for j in range(1, res.k_max + 1)
                        if divides(2, terms[j - 1], i))
            assert fact.omega == jmin, i
        bands = {row.n: row for row in mp_diagnostics(res)}
        for n in (10, 20, 30, 40):
            row = bands[n]
            info(10, f"R({n}) = {R[n]}  scaled={row.scaled:.4f}  "
                     f"band=[{row.band_lo:.4f}, {row.band_hi:.4f}]  "
                     f"z_worst={row.z_worst:.4f}")


# ----------------------------------------------------------------------
# 11: incomplete-gamma tail sandwich
# ----------------------------------------------------------------------

def test_criterion_11_norton():
    with gate(11, "tail sandwich holds at x=5,10,20 with alpha=1/2, "
                  "beta=3/2"):
        for x in (5, 10, 20):
            report = norton_check(Fraction(x), Fraction(1, 2),
                                  Fraction(3, 2))
            assert report.ok
            assert report.lower.holds and report.upper.holds


# ----------------------------------------------------------------------
# 12: nested brackets for the irreducible reciprocal sum
# ----------------------------------------------------------------------

def test_criterion_12_erdos_irr_brackets():
    with gate(12, "irreducible reciprocal-sum brackets nest with final "
                  "width < 1/1000"):
        brs = [erdos_sum_irreducibles(2, eps=Fraction(1, d))
               for d in (125, 250, 500, 1000)]
        for outer, inner in zip(brs, brs[1:]):
            assert inner.lo >= outer.lo and inner.hi <= outer.hi
        assert brs[-1].width < Fraction(1, 1000)
        assert brs[-1].lo < brs[-1].hi
