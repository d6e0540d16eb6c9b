"""Counting and ordering irreducible monic polynomials over F_q.

pi_prime(q, n) counts degree-n irreducibles by the Moebius sum
(1/n) * sum_{d | n} mu(d) q^(n/d); cumulative counts order all
irreducibles by (degree, index) and locate the k-th one.  The expected
degree window for the k-th irreducible is
    L(k) - 1 <= deg P_k <= L(k),  up to o(1),
with L(k) = log_q k + log_q log_q k + log_q (q - 1); callers check it
with an explicit slack.  The Erdos sum over all irreducibles is a
bracket around the exact counts.  numpy, mpmath and the factor sieve are
imported by the functions that use them, so the exact counts load none
of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .brackets import (DEFAULT_PRECISION_BITS, MAX_PRECISION_BITS,
                       BracketedValue, precision)
from .errors import PrecisionError, UsageError
from .fieldpoly import _check_prime


@lru_cache(maxsize=None)
def moebius(n: int) -> int:
    """Moebius function by trial factorization."""
    if n < 1:
        raise UsageError("moebius argument must be >= 1")
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


@lru_cache(maxsize=None)
def pi_prime(q: int, n: int) -> int:
    """Number of monic irreducibles of degree exactly n over F_q, from
    the Moebius sum over divisor pairs (d, n/d) with d <= sqrt(n)."""
    _check_prime(q)
    if n < 1:
        raise UsageError("degree must be >= 1")
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            e = n // d
            total += moebius(d) * q**e
            if e != d:
                total += moebius(e) * q**d
    assert total % n == 0, (q, n)
    count = total // n
    assert 0 < count * n <= q**n, (q, n)
    return count


def pi_prime_table(q: int, n: int) -> list[int]:
    """[pi'_q(1), ..., pi'_q(n)] from one Moebius pass over the powers
    q^0 .. q^n: each squarefree d adds mu(d) q^(m/d) to every multiple m
    of d, so no power is raised twice.  Each count passes pi_prime's
    divisibility and range checks."""
    _check_prime(q)
    powers = [1]
    for _ in range(n):
        powers.append(powers[-1] * q)
    totals = [0] * (n + 1)
    for d in range(1, n + 1):
        mu = moebius(d)
        if not mu:
            continue
        for m in range(d, n + 1, d):
            if mu > 0:
                totals[m] += powers[m // d]
            else:
                totals[m] -= powers[m // d]
    for m in range(1, n + 1):
        assert totals[m] % m == 0, (q, m)
        totals[m] //= m
        assert 0 < totals[m] * m <= powers[m], (q, m)
    return totals[1:]


@lru_cache(maxsize=None)
def pi_cumulative(q: int, n: int) -> int:
    """Number of monic irreducibles of degree <= n over F_q."""
    if n < 0:
        raise UsageError("degree must be >= 0")
    return sum(pi_prime(q, d) for d in range(1, n + 1))


def kth_irreducible_degree(q: int, k: int) -> int:
    """Degree of the k-th irreducible in (degree, index) order, k >= 1."""
    _check_prime(q)
    if k < 1:
        raise UsageError("k must be >= 1")
    n = 1
    while pi_cumulative(q, n) < k:
        n += 1
    return n


def kth_irreducible(q: int, k: int) -> int:
    """Index of the k-th monic irreducible in (degree, index) order, read
    from irreducible_slice(q, d) at its degree d."""
    from .sieve import irreducible_slice
    d = kth_irreducible_degree(q, k)
    return int(irreducible_slice(q, d)[k - pi_cumulative(q, d - 1) - 1])


def erdos_sum_irreducibles(q: int, eps=Fraction(1, 100)) -> BracketedValue:
    """Certified bracket of width < eps for sum over all irreducibles p of
    1 / (||p|| deg p).

    Cut at D > 1/eps: each degree-d term is at most 1/d^2 because
    pi'_q(d) <= q^d/d, so the tail beyond D is below sum_{d>D} 1/d^2 < 1/D,
    and the bracket width 1/D stays strictly under eps.
    """
    _check_prime(q)
    eps = Fraction(eps)
    if eps <= 0:
        raise UsageError("eps must be positive")
    cut = math.floor(1 / eps) + 1
    counts = pi_prime_table(q, cut)

    def split(lo: int, hi: int) -> tuple[int, int]:
        """(num, L) with sum_{lo <= d < hi} pi'(d) / (d q^d) equal to
        num / (L q^(hi-1)), L = lcm(lo..hi-1); two halves meet over the
        lcm of theirs, so each product is about as wide as its range."""
        if hi - lo == 1:
            return counts[lo - 1], lo
        mid = (lo + hi) // 2
        low, low_lcm = split(lo, mid)
        high, high_lcm = split(mid, hi)
        lcm = math.lcm(low_lcm, high_lcm)
        return (low * (lcm // low_lcm) * q**(hi - mid)
                + high * (lcm // high_lcm), lcm)

    num, lcm = split(1, cut + 1)
    partial = Fraction(num, lcm * q**cut)
    return BracketedValue(partial, partial + Fraction(1, cut))


# Ranks checked per numpy pass, so a pass holds a few 512 KiB arrays however
# wide the k range is; the most violating ranks a report lists; and how near
# 0 a float64 margin must be for its sign to be settled in intervals.
BRACKET_BLOCK = 65536
MAX_LISTED_VIOLATIONS = 1000
MARGIN_TOLERANCE = 1e-9


@dataclass(frozen=True)
class DegreeBracketReport:
    """Window check for degrees of the k-th irreducible over a k range:
    every violating rank is counted, the first ones listed."""

    q: int
    k_lo: int
    k_hi: int
    slack: float
    checked: int
    violations: tuple[int, ...]
    violation_count: int
    worst_low_margin: float
    worst_high_margin: float

    @property
    def ok(self) -> bool:
        return not self.violation_count

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "k_lo": self.k_lo,
            "k_hi": self.k_hi,
            "slack": self.slack,
            "checked": self.checked,
            "violations": list(self.violations[:50]),
            "violation_count": self.violation_count,
            "worst_low_margin": self.worst_low_margin,
            "worst_high_margin": self.worst_high_margin,
            "ok": self.ok,
        }


def check_degree_brackets(q: int, k_lo: int, k_hi: int,
                          slack: float) -> DegreeBracketReport:
    """Check L(k) - 1 - slack <= deg P_k <= L(k) + slack for k in [k_lo, k_hi].

    deg P_k, the least n with pi_cumulative(q, n) >= k, is found by exact
    integer comparison.  Margins are float64 diagnostics (display only);
    their signs decide a rank unless one lies within MARGIN_TOLERANCE of
    0, where _window_violated settles the verdict.
    """
    import numpy as np
    _check_prime(q)
    if not math.isfinite(slack):
        raise UsageError(f"slack must be finite (got {slack})")
    if k_lo < q:
        raise UsageError(f"k_lo must be >= q (got {k_lo}) so log log is defined")
    if k_hi < k_lo:
        raise UsageError("empty k range")
    logq = math.log(q)
    violations: list[int] = []
    violation_count = 0
    worst_low = worst_high = math.inf
    for start in range(k_lo, k_hi + 1, BRACKET_BLOCK):
        stop = min(start + BRACKET_BLOCK, k_hi + 1)
        n = kth_irreducible_degree(q, start)
        # ranks from start to pi_cumulative(q, n) have degree n, the next
        # pi'(n + 1) ranks degree n + 1, and so on
        degs = np.empty(stop - start)
        at, d = 0, n
        while at < len(degs):
            end = min(pi_cumulative(q, d) + 1 - start, len(degs))
            degs[at:end] = d
            at, d = end, d + 1
        if stop <= 2**63:
            ks = np.arange(start, stop, dtype=np.int64).astype(np.float64)
        else:
            ks = np.array(range(start, stop), dtype=object).astype(np.float64)
        lk = np.log(ks) / logq
        L = lk + np.log(lk) / logq + math.log(q - 1) / logq
        low_margin = degs - (L - 1.0 - slack)
        high_margin = (L + slack) - degs
        worst_low = min(worst_low, float(low_margin.min()))
        worst_high = min(worst_high, float(high_margin.min()))
        bad = (low_margin < 0) | (high_margin < 0)
        near = ((np.abs(low_margin) < MARGIN_TOLERANCE)
                | (np.abs(high_margin) < MARGIN_TOLERANCE))
        for i in np.flatnonzero(near).tolist():
            bad[i] = _window_violated(q, start + i, int(degs[i]), slack)
        hits = np.flatnonzero(bad)
        violation_count += len(hits)
        violations += (start + i for i in
                       hits[:MAX_LISTED_VIOLATIONS - len(violations)].tolist())
    return DegreeBracketReport(
        q=q, k_lo=k_lo, k_hi=k_hi, slack=slack, checked=k_hi - k_lo + 1,
        violations=tuple(violations), violation_count=violation_count,
        worst_low_margin=worst_low,
        worst_high_margin=worst_high,
    )


def _window_violated(q: int, k: int, degree: int, slack: float) -> bool:
    """Certified verdict on L(k) - 1 - slack <= degree <= L(k) + slack.

    L(k) is rational only at q = 2 and k = 2^j with j a power of 2, where
    it is j + log2 j, and the check is exact.  Anywhere else L(k) is
    transcendental, so neither margin is 0, and a bracket of L(k) at a
    precision doubled until it decides both sides settles the verdict.
    """
    from mpmath import iv
    s = Fraction(slack)
    j = k.bit_length() - 1
    if q == 2 and k == 1 << j and j & (j - 1) == 0:
        L = j + j.bit_length() - 1
        return not (L - 1 - s <= degree <= L + s)
    bits = DEFAULT_PRECISION_BITS
    while bits <= MAX_PRECISION_BITS:
        with precision(bits):
            logq = iv.log(iv.mpf(q))
            lk = iv.log(iv.mpf(k)) / logq
            L = BracketedValue.from_iv(
                lk + iv.log(lk) / logq + iv.log(iv.mpf(q - 1)) / logq)
        if degree < L.lo - 1 - s or degree > L.hi + s:
            return True
        if L.hi - 1 - s <= degree <= L.lo + s:
            return False
        bits *= 2
    raise PrecisionError(f"degree window of rank {k} undecided at"
                         f" {MAX_PRECISION_BITS} bits")
