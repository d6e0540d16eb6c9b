"""Counting and ordering irreducible monic polynomials over F_q.

pi_prime(q, n) counts degree-n irreducibles by the Moebius sum
(1/n) * sum_{d | n} mu(d) q^(n/d); cumulative counts order all
irreducibles by (degree, index) and locate the k-th one.  The expected
degree window for the k-th irreducible is
    L(k) - 1 <= deg P_k <= L(k),  up to o(1),
with L(k) = log_q k + log_q log_q k + log_q (q - 1); callers check it
with an explicit slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetError, UsageError
from .fieldpoly import FactorSieve, _check_prime, build_factor_sieve


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


def kth_irreducible(q: int, k: int, sieve: FactorSieve | None = None) -> int:
    """Index of the k-th monic irreducible in (degree, index) order."""
    d = kth_irreducible_degree(q, k)
    if sieve is None or sieve.q != q or sieve.horizon < d:
        sieve = build_factor_sieve(q, d)
    rank = k - pi_cumulative(q, d - 1)
    return int(sieve.irreducible_indices(d)[rank - 1])


# Ranks checked per numpy pass, so a pass holds a few 512 KiB arrays however
# wide the k range is; the most violating ranks a report lists; and the
# widest k range one check takes.
BRACKET_BLOCK = 65536
MAX_LISTED_VIOLATIONS = 1000
MAX_BRACKET_RANKS = 4 * 10**6


@dataclass(frozen=True)
class DegreeBracketReport:
    """Window check for degrees of the k-th irreducible over a k range."""

    q: int
    k_lo: int
    k_hi: int
    slack: float
    checked: int
    violations: tuple[int, ...]
    worst_low_margin: float
    worst_high_margin: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "k_lo": self.k_lo,
            "k_hi": self.k_hi,
            "slack": self.slack,
            "checked": self.checked,
            "violations": list(self.violations[:50]),
            "violation_count": len(self.violations),
            "worst_low_margin": self.worst_low_margin,
            "worst_high_margin": self.worst_high_margin,
            "ok": self.ok,
        }


def check_degree_brackets(q: int, k_lo: int, k_hi: int,
                          slack: float) -> DegreeBracketReport:
    """Check L(k) - 1 - slack <= deg P_k <= L(k) + slack for k in [k_lo, k_hi].

    Margins are float diagnostics (display only); the comparisons have
    enormous true slack relative to float error at these scales.
    """
    _check_prime(q)
    if k_lo < q:
        raise UsageError(f"k_lo must be >= q (got {k_lo}) so log log is defined")
    if k_hi < k_lo:
        raise UsageError("empty k range")
    if k_hi - k_lo + 1 > MAX_BRACKET_RANKS:
        raise BudgetError(f"range of {k_hi - k_lo + 1} exceeds budget"
                          f" {MAX_BRACKET_RANKS}")
    nmax = kth_irreducible_degree(q, k_hi)
    cum = np.array([pi_cumulative(q, n) for n in range(0, nmax + 1)],
                   dtype=np.float64)
    logq = math.log(q)
    violations: list[int] = []
    worst_low = worst_high = math.inf
    for start in range(k_lo, k_hi + 1, BRACKET_BLOCK):
        ks = np.arange(start, min(start + BRACKET_BLOCK, k_hi + 1),
                       dtype=np.int64)
        # degree of P_k = least n with pi_cumulative(q, n) >= k
        degs = np.searchsorted(cum, ks, side="left").astype(np.float64)
        lk = np.log(ks) / logq
        L = lk + np.log(lk) / logq + math.log(q - 1) / logq
        low_margin = degs - (L - 1.0 - slack)
        high_margin = (L + slack) - degs
        worst_low = min(worst_low, float(low_margin.min()))
        worst_high = min(worst_high, float(high_margin.min()))
        if len(violations) < MAX_LISTED_VIOLATIONS:
            bad = np.nonzero((low_margin < 0) | (high_margin < 0))[0]
            violations += (int(ks[i]) for i in
                           bad[:MAX_LISTED_VIOLATIONS - len(violations)])
    return DegreeBracketReport(
        q=q, k_lo=k_lo, k_hi=k_hi, slack=slack, checked=k_hi - k_lo + 1,
        violations=tuple(violations),
        worst_low_margin=worst_low,
        worst_high_margin=worst_high,
    )
