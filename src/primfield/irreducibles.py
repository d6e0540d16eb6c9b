"""Counting and ordering irreducible monic polynomials over F_q.

pi_prime(q, n) counts degree-n irreducibles by the Moebius sum
(1/n) * sum_{d | n} mu(d) q^(n/d), formed only by _pi_prime_run: its
runs fill the shared table per q, and the Erdos sum over all
irreducibles, a bracket around the exact counts, reads a run of its own
and neither reads nor grows the table.  Cumulative counts order all
irreducibles by (degree, index) and give the degree of the k-th one,
which the sieve's irreducibles_at reads from one walk of the wheel.
The expected degree window for the k-th irreducible is
    L(k) - 1 <= deg P_k <= L(k),  up to o(1),
with L(k) = log_q k + log_q log_q k + log_q (q - 1); callers check it
with an explicit slack, its verdicts certified by intervals of
brackets.IntervalContext.  brackets and irreducibles_at, the one path
here to numpy, are imported by the functions that use them, so the
exact counts load neither, and the degree brackets, whose float margins
come from math, load no numpy.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, islice
from typing import TYPE_CHECKING, Iterator, NamedTuple

from . import DEFAULT_PRECISION_BITS
from .errors import PrecisionError, UsageError
from .fieldpoly import _check_prime

if TYPE_CHECKING:    # loaded by the functions that form brackets
    from .brackets import BracketedValue


# pi_prime(q, n) is _PI_PRIME[q][n - 1], pi_cumulative(q, n) _CUMULATIVE[q][n]
_PI_PRIME: dict[int, list[int]] = {}
_CUMULATIVE: dict[int, list[int]] = {}


def _pi_primes(q: int, n: int) -> list[int]:
    """The stored [pi'_q(1), ..., pi'_q(m)], m >= n, for a checked q.  A
    short list grows to m = max(n, twice its length) by one run of
    _pi_prime_run to m, whose counts past the old length are kept.  The
    list is extended once, after every new count passed the run's checks,
    so an error mid-run leaves it as it was."""
    table = _PI_PRIME.setdefault(q, [])
    old = len(table)
    if n > old:
        table += list(islice(_pi_prime_run(q, max(n, 2 * old)), old, None))
    return table


def pi_prime(q: int, n: int) -> int:
    """Number of monic irreducibles of degree exactly n over F_q, by the
    Moebius sum (1/n) sum_{d | n} mu(d) q^(n/d), read from one table per q."""
    _check_prime(q)
    if n < 1:
        raise UsageError("degree must be >= 1")
    return _pi_primes(q, n)[n - 1]


def pi_cumulative(q: int, n: int) -> int:
    """Number of monic irreducibles of degree <= n over F_q, from running
    sums per q, extended from the pi' table as far as asked."""
    if n < 0:
        raise UsageError("degree must be >= 0")
    cum = _CUMULATIVE.get(q)
    if cum is None:
        _check_prime(q)
        cum = _CUMULATIVE[q] = [0]
    if len(cum) <= n:
        cum += list(accumulate(_pi_primes(q, n)[len(cum) - 1:n],
                               initial=cum[-1]))[1:]
    return cum[n]


def kth_irreducible_degree(q: int, k: int) -> int:
    """Degree of the k-th irreducible in (degree, index) order, k >= 1, by
    bisecting the running sums, extended to doubling degrees until k."""
    _check_prime(q)
    if k < 1:
        raise UsageError("k must be >= 1")
    n = 1
    while pi_cumulative(q, n) < k:
        n *= 2
    return bisect_left(_CUMULATIVE[q], k)


def kth_irreducible(q: int, k: int) -> int:
    """Index of the k-th monic irreducible in (degree, index) order, read
    by irreducibles_at from one walk of the wheel."""
    from .sieve import irreducibles_at
    return irreducibles_at(q, [k])[0]


def _prime_factor_sieve(n: int):
    """An unsigned array holding a prime factor of each composite m <= n,
    and 0 at m = 0, 1 and each prime: each prime p <= sqrt(n) writes
    itself over its multiples from p^2 on, one slice each."""
    factor = array("I", [0]) * (n + 1)
    for p in range(2, math.isqrt(n) + 1):
        if not factor[p]:
            factor[p * p::p] = array("I", [p]) * len(range(p * p, n + 1, p))
    return factor


def _pi_prime_run(q: int, cut: int) -> Iterator[int]:
    """pi'_q(1), ..., pi'_q(cut) in turn, each from its own Moebius sum
    sum_{e | d} mu(e) q^(d/e): the one Moebius sum here, which both grows
    the shared table and feeds the Erdos sum.

    The squarefree divisors e of d, signed by mu(e), are the products of
    subsets of d's primes, read from one prime-factor sieve.  q^d is a
    running power, and powers[e] is q^(d/e) at the last multiple d of e
    seen: it gains a factor q at each multiple, and is dropped past the
    last one below the cut, so the powers held at degree d are about
    d ln d log2 q bits.
    """
    factor = _prime_factor_sieve(cut)
    powers: list[int | None] = [1] * (cut + 1)
    power = 1
    for d in range(1, cut + 1):
        power *= q
        signed, m = [1], d
        while m > 1:
            p = factor[m] or m
            signed += [-e * p for e in signed]
            while m % p == 0:
                m //= p
        low = 0
        for s in signed[1:]:
            e = abs(s)
            term = powers[e] * q
            powers[e] = term if d + e <= cut else None
            low += term if s > 0 else -term
        # 0 < q^d + low <= q^d, and d divides it
        count, rest = divmod(power + low, d)
        assert -power < low <= 0 and not rest, (q, d)
        yield count


def erdos_sum_irreducibles(q: int, eps=Fraction(1, 100)) -> BracketedValue:
    """Certified bracket of width < eps for sum over all irreducibles p of
    1 / (||p|| deg p).

    Cut at D > 1/eps: each degree-d term is at most 1/d^2 because
    pi'_q(d) <= q^d/d, so the tail beyond D is below sum_{d>D} 1/d^2 < 1/D,
    and the bracket width 1/D stays strictly under eps.  The counts come
    one degree at a time, as the split reaches each leaf, and are dropped
    once summed.
    """
    from .brackets import BracketedValue
    _check_prime(q)
    eps = Fraction(eps)
    if eps <= 0:
        raise UsageError("eps must be positive")
    cut = math.floor(1 / eps) + 1
    counts = _pi_prime_run(q, cut)

    def split(lo: int, hi: int) -> tuple[int, int]:
        """(num, L) with sum_{lo <= d < hi} pi'(d) / (d q^d) equal to
        num / (L q^(hi-1)), L = lcm(lo..hi-1); two halves meet over the
        lcm of theirs, so each product is about as wide as its range.
        The low half is split first, so the leaves come in ascending d."""
        if hi - lo == 1:
            return next(counts), lo
        mid = (lo + hi) // 2
        low, low_lcm = split(lo, mid)
        high, high_lcm = split(mid, hi)
        lcm = math.lcm(low_lcm, high_lcm)
        return (low * (lcm // low_lcm) * q**(hi - mid)
                + high * (lcm // high_lcm), lcm)

    num, lcm = split(1, cut + 1)
    partial = Fraction(num, lcm * q**cut)
    return BracketedValue(partial, partial + Fraction(1, cut))


# The most violating ranks a report lists.
MAX_LISTED_VIOLATIONS = 1000


class DegreeBracketReport(NamedTuple):
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

    On each degree block (pi_cumulative(q, d - 1), pi_cumulative(q, d)]
    deg P_k is d and L(k) increases, so the ranks that break the upper side
    are a prefix and those that break the lower side a suffix: two
    bisections of certified verdicts count both.  Margins are float64
    diagnostics (display only), taken where each side is least.
    """
    _check_prime(q)
    if not math.isfinite(slack):
        raise UsageError(f"slack must be finite (got {slack})")
    if k_lo < q:
        raise UsageError(f"k_lo must be >= q (got {k_lo}) so log log is defined")
    if k_hi < k_lo:
        raise UsageError("empty k range")
    if k_hi > sys.float_info.max:
        raise UsageError("k_hi above 1.8e308, the float64 limit of the margins")
    logq = math.log(q)
    shift = math.log(q - 1) / logq
    runs, lows, highs = [], [], []
    d_lo, d_hi = kth_irreducible_degree(q, k_lo), kth_irreducible_degree(q, k_hi)
    for d in range(d_lo, d_hi + 1):
        a = max(k_lo, pi_cumulative(q, d - 1) + 1)
        b = min(k_hi, pi_cumulative(q, d))
        verdict = lru_cache(None)(lambda k: _window_violated(q, k, d, slack))
        # ranks a .. upper - 1 break the upper side, lower .. b the lower;
        # a block with neither costs the verdicts at a and b
        upper = _least(a, b, lambda k: not verdict(k)[1])
        lower = _least(a, b, lambda k: verdict(k)[0])
        runs += [range(a, upper), range(max(lower, upper), b + 1)]
        # the upper margin is least at the block's first rank, the lower
        # at its last
        highs.append((_window_centre(a, logq, shift) + slack) - d)
        lows.append(d - (_window_centre(b, logq, shift) - 1.0 - slack))
    return DegreeBracketReport(
        q=q, k_lo=k_lo, k_hi=k_hi, slack=slack, checked=k_hi - k_lo + 1,
        violations=tuple(islice(chain(*runs), MAX_LISTED_VIOLATIONS)),
        violation_count=sum(run.stop - run.start for run in runs),
        worst_low_margin=min(lows),
        worst_high_margin=min(highs),
    )


def _window_centre(k: int, logq: float, shift: float) -> float:
    """L(k) = log_q k + log_q log_q k + log_q (q - 1) in float64."""
    lk = math.log(k) / logq
    return lk + math.log(lk) / logq + shift


def _least(lo: int, hi: int, holds) -> int:
    """Least k in [lo, hi] where the monotone holds(k) is true, else hi + 1."""
    if holds(lo):
        return lo
    if not holds(hi):
        return hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def _window_violated(q: int, k: int, degree: int,
                     slack: float) -> tuple[bool, bool]:
    """Certified verdicts (lower side broken, upper side broken) on
    L(k) - 1 - slack <= degree <= L(k) + slack.

    L(k) is rational only at q = 2 and k = 2^j with j a power of 2, where
    it is j + log2 j, and the check is exact.  Anywhere else L(k) is
    transcendental, so neither margin is 0, and a bracket of L(k) at a
    precision doubled until it decides both sides settles the verdicts.
    """
    from .brackets import MAX_PRECISION_BITS, IntervalContext
    s = Fraction(slack)
    j = k.bit_length() - 1
    if q == 2 and k == 1 << j and j & (j - 1) == 0:
        L = j + j.bit_length() - 1
        return degree < L - 1 - s, degree > L + s
    bits = DEFAULT_PRECISION_BITS
    while bits <= MAX_PRECISION_BITS:
        iv = IntervalContext(bits)
        logq = iv.log(q)
        lk = iv.div(iv.log(k), logq)
        L = iv.add(iv.add(lk, iv.div(iv.log(lk), logq)),
                   iv.div(iv.log(q - 1), logq)).bracket()
        low, high = degree < L.lo - 1 - s, degree > L.hi + s
        if (low or degree >= L.hi - 1 - s) and (high or degree <= L.lo + s):
            return low, high
        bits *= 2
    raise PrecisionError(f"degree window of rank {k} undecided at"
                         f" {MAX_PRECISION_BITS} bits")
