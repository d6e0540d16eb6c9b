"""Exact counts of monic polynomials by factor structure, with certified
analytic companions.

The central object is the table Pi'_{q,k}(n): the number of squarefree
monic polynomials of degree n over F_q with exactly k distinct
irreducible factors, built exactly from the generating product
prod_d (1 + u x^d)^{pi'_q(d)}.  Around it sit certified-bracket
evaluations of the degree-weighted singular series G, the truncated
Mertens product, Poisson-style tail estimates, and verifiers for the
uniform upper bound and the factor-count recurrence.  The exact counts
run without mpmath; the functions that bracket analytic quantities
import it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Iterator, Mapping, NamedTuple

from .brackets import (DEFAULT_PRECISION_BITS, BracketedValue, iv_from_fraction,
                       precision)
from .errors import PrecisionError, UsageError
from .fieldpoly import _check_prime
from .irreducibles import pi_prime


def monic_cumulative(q: int, n: int) -> int:
    """M_q(n): number of monic polynomials of degree <= n."""
    _check_prime(q)
    if n < 0:
        raise UsageError("degree must be >= 0")
    return (q**(n + 1) - 1) // (q - 1)


# ----------------------------------------------------------------------
# Squarefree factor-count table
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CountTable:
    """rows[n][k] = squarefree monic, degree n, k distinct irreducible factors.

    excluded_degrees lists (degree, count) pairs of irreducibles struck
    from the field before counting; with exclusions the table counts only
    polynomials coprime to the struck set.
    """

    q: int
    N: int
    rows: tuple[tuple[int, ...], ...]
    excluded_degrees: tuple[tuple[int, int], ...] = ()

    def count(self, n: int, k: int) -> int:
        if not 0 <= n <= self.N:
            raise UsageError(f"n={n} outside table range 0..{self.N}")
        if not 0 <= k <= n:
            return 0
        return self.rows[n][k]

    def row_total(self, n: int) -> int:
        return sum(self.rows[n])


def _unpack(row: int, slots: int, nbytes: int) -> tuple[int, ...]:
    """The nbytes-wide unsigned slots of a packed row, lowest first."""
    raw = row.to_bytes(slots * nbytes, "little")
    return tuple(int.from_bytes(raw[i:i + nbytes], "little")
                 for i in range(0, len(raw), nbytes))


def _pack(row, nbytes: int) -> int:
    """Inverse of _unpack: entries must be >= 0 and below 2^(8 nbytes)."""
    return int.from_bytes(b"".join(v.to_bytes(nbytes, "little") for v in row),
                          "little")


def build_count_table(q: int, N: int,
                      excluded_degrees: Mapping[int, int] | None = None,
                      ) -> CountTable:
    """Exact Pi'_{q,k}(n) for 0 <= k <= n <= N by degree-wise convolution.

    Degree d contributes a factor (1 + u x^d)^m with m = pi'_q(d) minus
    any exclusions: choosing j of the m irreducibles adds degree j*d and
    factor count j with multiplicity C(m, j).  Each row is one integer
    with a fixed-width slot per k (Kronecker substitution), so one
    multiply-shift-add updates every k of a row at once.
    """
    _check_prime(q)
    if N < 0:
        raise UsageError("table size must be >= 0")
    excl = tuple(sorted((d, c) for d, c in (excluded_degrees or {}).items() if c))
    for d, c in excl:
        if not 1 <= d <= N:
            raise UsageError(f"excluded degree {d} outside 1..{N}")
        if not 0 <= c <= pi_prime(q, d):
            raise UsageError(f"cannot exclude {c} irreducibles of degree {d}")
    excl_map = dict(excl)
    # Row n packed into one int, entry k in bits [k*width, (k+1)*width).
    # Every update only adds, so an entry never exceeds its final value,
    # at most q^n <= q^N: slots of a whole number of bytes that hold q^N
    # never carry into each other.
    nbytes = ((q**N).bit_length() + 7) // 8
    width = 8 * nbytes
    packed = [0] * (N + 1)
    packed[0] = 1
    for d in range(1, N + 1):
        m = pi_prime(q, d) - excl_map.get(d, 0)
        if m == 0:
            continue
        jmax = min(N // d, m)
        binom = [math.comb(m, j) for j in range(jmax + 1)]
        for n in range(N, d - 1, -1):
            acc = packed[n]
            for j in range(1, min(n // d, jmax) + 1):
                acc += binom[j] * packed[n - j * d] << width * j
            packed[n] = acc
    rows = [_unpack(packed[n], n + 1, nbytes) for n in range(N + 1)]
    table = CountTable(q, N, tuple(rows), excl)
    if not excl:
        for n in range(2, N + 1):
            assert table.row_total(n) == q**n - q**(n - 1), (q, n)
        if N >= 1:
            assert table.row_total(1) == q
            for n in range(1, N + 1):
                assert table.rows[n][1] == pi_prime(q, n), (q, n)
    return table


# ----------------------------------------------------------------------
# Uniform factor-count bound and recurrence
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class InequalityReport:
    """Outcome of checking one inequality family over a (n, k) range."""

    name: str
    q: int
    N: int
    cells: int
    violations: tuple[tuple, ...]
    min_log_margin: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "q": self.q,
            "N": self.N,
            "cells": self.cells,
            "violation_count": len(self.violations),
            "violations": [[str(x) for x in v] for v in self.violations[:20]],
            "min_log_margin": self.min_log_margin,
            "ok": self.ok,
        }


def _log_weight_dyadic_lower(n: int, precision_bits: int) -> tuple[int, int]:
    """(num, s) with num/2^s <= log n + 2 - log 2, a certified dyadic bound."""
    from mpmath import iv
    with precision(precision_bits):
        w = iv.log(iv.mpf(n)) + 2 - iv.log(iv.mpf(2))
        lo = BracketedValue.from_iv(w).lo
    num, den = lo.numerator, lo.denominator
    assert num > 0 and den & (den - 1) == 0
    return num, den.bit_length() - 1


def verify_hr_bound(q: int, N: int, table: CountTable | None = None,
                    precision_bits: int = 96) -> InequalityReport:
    """Check Pi'_{q,k}(n) <= (q^n/n) (log n + 2 - log 2)^(k-1)/(k-1)!
    for all 1 <= k <= n <= N.

    The right side is replaced by a certified rational lower bound (the
    log weight rounded down), so every pass is a rigorous instance of the
    inequality; comparisons are pure integer arithmetic.
    """
    if table is None:
        table = build_count_table(q, N)
    if table.q != q or table.N < N or table.excluded_degrees:
        raise UsageError("table does not cover the requested range")
    violations: list[tuple] = []
    min_margin = math.inf
    cells = 0
    for n in range(1, N + 1):
        num, s = _log_weight_dyadic_lower(n, precision_bits)
        rhs = q**n        # q^n num^(k-1)
        scale = n         # n (k-1)! 2^(s(k-1))
        row = table.rows[n]
        # a zero entry satisfies the bound and sets no margin, so the
        # walk stops at the row's last nonzero entry; cells counts all k
        cells += n
        for k in range(1, _support(row)):
            lhs = row[k] * scale
            if lhs > rhs:
                violations.append((n, k, row[k]))
            elif row[k]:
                margin = math.log(rhs) - math.log(lhs)
                if margin < min_margin:
                    min_margin = margin
            rhs *= num
            scale = scale * k << s
    return InequalityReport("uniform-factor-count-bound", q, N, cells,
                            tuple(violations),
                            min_margin if min_margin < math.inf else 0.0)


def _support(row) -> int:
    """One past the position of the last nonzero entry of row."""
    return next((k + 1 for k in range(len(row) - 1, -1, -1) if row[k]), 0)


def verify_recurrence_bound(q: int, N: int,
                            table: CountTable | None = None) -> InequalityReport:
    """Check (k-1) Pi'_{q,k}(n) <= sum_{d <= n/2} pi'_q(d) Pi'_{q,k-1}(n-d)
    for all 2 <= k <= n <= N, in exact integers.
    """
    if table is None:
        table = build_count_table(q, N)
    if table.q != q or table.N < N or table.excluded_degrees:
        raise UsageError("table does not cover the requested range")
    rows = [row[:n + 1] for n, row in enumerate(table.rows[:N + 1])]
    if any(v < 0 for row in rows for v in row):
        raise UsageError("table has a negative entry")
    # Slot k-1 of row n's packed sum is sum_{d <= n/2} pi'(d) rows[n-d][k-1]
    # for every k at once; the largest entry times sum_{d <= N/2} pi'(d)
    # bounds every slot, however large the given entries are.
    weights = [pi_prime(q, d) for d in range(1, N // 2 + 1)]
    largest = max(max(row) for row in rows)
    nbytes = (largest * max(1, sum(weights))).bit_length() // 8 + 1
    packed = [_pack(row[:_support(row)], nbytes) for row in rows]
    violations: list[tuple] = []
    min_margin = math.inf
    cells = 0
    for n in range(2, N + 1):
        row = rows[n]
        # k past the row's support has lhs = 0 <= rhs and no margin, so
        # only the slots k - 1 below the support's last k are unpacked
        slots = max(_support(row) - 1, 0)
        cells += n - 1
        acc = 0
        for d in range(1, n // 2 + 1):
            acc += weights[d - 1] * packed[n - d]
        sums = _unpack(acc & ((1 << 8 * nbytes * slots) - 1), slots, nbytes)
        for k in range(2, slots + 1):
            lhs = (k - 1) * row[k]
            rhs = sums[k - 1]
            if lhs > rhs:
                violations.append((n, k, lhs, rhs))
            elif lhs:
                margin = math.log(rhs) - math.log(lhs)
                if margin < min_margin:
                    min_margin = margin
    return InequalityReport("factor-count-recurrence", q, N, cells,
                            tuple(violations),
                            min_margin if min_margin < math.inf else 0.0)


# ----------------------------------------------------------------------
# Truncated Mertens product
# ----------------------------------------------------------------------

@numbers.Rational.register
class _LowestTerms(NamedTuple):
    """A numerator and positive denominator already in lowest terms.
    Fraction(r) copies the terms of any numbers.Rational r as they are,
    skipping the gcd, which is quadratic in the sizes met here."""

    numerator: int
    denominator: int


def _term_precision(m: int):
    """Working precision for one degree's term m * log(1 - q^-d) and kin.

    The log of 1 - q^-d is about -q^-d, so its rounding error relative to
    it grows like q^d, and the factor m = pi'_q(d) ~ q^d/d scales it back
    up: m.bit_length() extra bits keep the term's absolute error at the
    base precision's size, whatever q is.
    """
    from mpmath import iv
    return precision(iv.prec + m.bit_length())


def mertens_parts(q: int) -> Iterator[tuple[int, int]]:
    """(A, E) with prod_{d<=n} (1 - q^-d)^{pi'_q(d)} = A / q^E exactly, for
    n = 1, 2, ... in turn.

    One running product over the degrees: each n multiplies in its own
    factor (q^n - 1)^{pi'_q(n)}, each prime to q.  A has about E log2 q
    bits, ~q^n at degree n, so the run's memory ceiling and deadline are
    what bound how far a caller takes it.
    """
    num, exponent_sum = 1, 0
    for n in count(1):
        m = pi_prime(q, n)
        num *= pow(q**n - 1, m)
        exponent_sum += n * m
        yield num, exponent_sum


@dataclass(frozen=True)
class MertensValue:
    q: int
    n: int
    exact: Fraction | None
    normalized: BracketedValue

    def to_json(self) -> dict:
        out = {"q": self.q, "n": self.n,
               "normalized": self.normalized.to_json()}
        if self.exact is not None:
            out["exact"] = f"{self.exact.numerator}/{self.exact.denominator}"
        return out


# Integers below 2^14281 have at most 4300 decimal digits (Python's default
# int-to-str limit); the margin absorbs an off-by-one in the bit estimate.
PRINTABLE_EXACT_BITS = 14280


def mertens_rows(q: int, max_n: int,
                 precision_bits: int = DEFAULT_PRECISION_BITS,
                 ) -> tuple[MertensValue, ...]:
    """mertens_product(q, n) for n = 1..max_n in one pass over the degrees.

    The interval sum of the log terms and the exact product of
    mertens_parts both run over d, so row n adds one degree's term to row
    n - 1.  A row carries its exact rational while the decimal form prints
    (q=2 through n=12); the numerator only grows with n, so every later
    row is bracket-only and builds no exact rational.
    """
    from mpmath import iv
    _check_prime(q)
    if max_n < 1:
        raise UsageError("degree must be >= 1")
    rows = []
    parts = mertens_parts(q)
    exponent_sum = 0
    with precision(precision_bits):
        s = iv.mpf(0)
        for n in range(1, max_n + 1):
            m = pi_prime(q, n)
            with _term_precision(m):
                term = m * iv.log(1 - iv.mpf(1) / q**n)
            s += term
            exponent_sum += n * m
            exact = None
            # A in P(n) = A / q^E has about E log2 q bits
            if int(exponent_sum * math.log2(q)) + 1 <= PRINTABLE_EXACT_BITS:
                num, e = next(parts)
                exact = Fraction(_LowestTerms(num, q**e))
            norm = iv.exp(iv.euler + iv.log(iv.mpf(n)) + s)
            rows.append(MertensValue(q, n, exact,
                                     BracketedValue.from_iv(norm)))
    return tuple(rows)


def mertens_product(q: int, n: int,
                    precision_bits: int = DEFAULT_PRECISION_BITS,
                    ) -> MertensValue:
    """Truncated Mertens product with its drift-normalized bracket.

    normalized brackets e^gamma * n * P(n), which tends to 1; the exact
    rational is included while its decimal form prints, as in mertens_rows.
    """
    return mertens_rows(q, n, precision_bits)[-1]


# ----------------------------------------------------------------------
# Degree-weighted singular series G
# ----------------------------------------------------------------------

_G_DEGREE_CAP = 64     # last degree of the product before the bounded tail


def _g_series_iv(q: int, z, degree_cap: int):
    """Interval for prod_p (1 + z/|p|)(1 - 1/|p|)^z to degree_cap, tail in.

    Per degree d the log factor is g_d = log(1 + z q^-d) + z log(1 - q^-d),
    with -z(1+z) q^-2d <= g_d <= 0 for q^-d <= 1/2, so the degree tail
    beyond D lies in [-z(1+z) q^-D / ((D+1)(q-1)), 0].
    """
    from mpmath import iv
    s = iv.mpf(0)
    for d in range(1, degree_cap + 1):
        m = pi_prime(q, d)
        with _term_precision(m):
            u = iv.mpf(1) / q**d
            term = m * (iv.log(1 + z * u) + z * iv.log(1 - u))
        s += term
    tail_mag = z * (1 + z) / q**degree_cap / ((degree_cap + 1) * (q - 1))
    s += -(iv.mpf([0, 1]) * tail_mag)
    return iv.exp(s)


def evaluate_G(q: int, z, eps=Fraction(1, 10**6),
               precision_bits: int = DEFAULT_PRECISION_BITS) -> BracketedValue:
    """Certified bracket for
    G(z) = prod_p (1 + z/|p|) (1 - 1/|p|)^z,  0 <= z <= 2,
    of width at most eps.

    Every factor decreases in z, so G falls from G(0) = 1 and stays in
    (0, 1].  The product is grouped by degree with exponent pi'_q(d); the
    degree cutoff doubles, then the working precision, until the bracket
    is narrow enough.
    """
    _check_prime(q)
    z = Fraction(z)
    eps = Fraction(eps)
    if not 0 <= z <= 2:
        raise UsageError(f"z={z} outside [0, 2]")
    if eps <= 0:
        raise UsageError("eps must be positive")
    bits = precision_bits
    while True:
        with precision(bits):
            z_iv = iv_from_fraction(z)
            cap = 8
            while True:
                out = BracketedValue.from_iv(_g_series_iv(q, z_iv, cap))
                if out.width <= eps:
                    return out
                if cap >= _G_DEGREE_CAP:
                    break
                cap = min(2 * cap, _G_DEGREE_CAP)
        if bits >= 8 * precision_bits:
            raise PrecisionError(
                f"G({z}) bracket width {float(out.width):.3e} > eps at"
                f" degree cap {_G_DEGREE_CAP}, precision {bits}")
        bits *= 2


# ----------------------------------------------------------------------
# Poisson-style tails
# ----------------------------------------------------------------------

def q_large_deviation(y: Fraction):
    """Q(y) = y log y - y + 1 as an interval (y rational > 0)."""
    from mpmath import iv
    y_iv = iv_from_fraction(Fraction(y))
    return y_iv * iv.log(y_iv) - y_iv + 1


@dataclass(frozen=True)
class NortonSide:
    name: str
    boundary_k: int
    lhs: BracketedValue
    rhs: BracketedValue
    holds: bool

    def to_json(self) -> dict:
        return {"name": self.name, "boundary_k": self.boundary_k,
                "lhs": self.lhs.to_json(), "rhs": self.rhs.to_json(),
                "holds": self.holds}


@dataclass(frozen=True)
class NortonReport:
    x: Fraction
    alpha: Fraction
    beta: Fraction
    lower: NortonSide
    upper: NortonSide

    @property
    def ok(self) -> bool:
        return self.lower.holds and self.upper.holds

    def to_json(self) -> dict:
        return {"x": str(self.x), "alpha": str(self.alpha),
                "beta": str(self.beta), "lower": self.lower.to_json(),
                "upper": self.upper.to_json(), "ok": self.ok}


def norton_check(x, alpha, beta,
                 precision_bits: int = DEFAULT_PRECISION_BITS) -> NortonReport:
    """Certified check of the Poisson tail estimates

      sum_{k <= alpha x} e^-x x^k / k!  <  e^{-Q(alpha) x} / ((1-alpha) sqrt(alpha x))
      sum_{k > beta x}  e^-x x^k / k!  <  e^{-Q(beta) x} / ((beta-1) sqrt(2 pi beta x))

    with Q(y) = y log y - y + 1.  The upper tail starts strictly above
    beta x: when beta x is an integer the boundary term belongs to the
    central range, and including it would overshoot the stated bound.
    Partial sums are exact rationals; every analytic factor is a
    certified bracket, so `holds` means the inequality is proved at
    these parameters.
    """
    from mpmath import iv
    x = Fraction(x)
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    if x <= 0:
        raise UsageError("x must be positive")
    if not 0 < alpha < 1 < beta:
        raise UsageError("need 0 < alpha < 1 < beta")
    k_max = math.floor(alpha * x)
    k_min = math.floor(beta * x) + 1
    s_low = Fraction(0)
    s_mid = Fraction(0)
    term = Fraction(1)
    for k in range(0, k_min):
        if k:
            term *= Fraction(x, k)
        if k <= k_max:
            s_low += term
        s_mid += term
    with precision(precision_bits):
        e_neg_x = iv.exp(-iv_from_fraction(x))
        x_iv = iv_from_fraction(x)
        lhs_low = BracketedValue.from_iv(e_neg_x * iv_from_fraction(s_low))
        lhs_up = BracketedValue.from_iv(1 - e_neg_x * iv_from_fraction(s_mid))
        rhs_low = BracketedValue.from_iv(
            iv.exp(-q_large_deviation(alpha) * x_iv)
            / (iv_from_fraction(1 - alpha) * iv.sqrt(iv_from_fraction(alpha) * x_iv)))
        rhs_up = BracketedValue.from_iv(
            iv.exp(-q_large_deviation(beta) * x_iv)
            / (iv_from_fraction(beta - 1)
               * iv.sqrt(2 * iv.pi * iv_from_fraction(beta) * x_iv)))
    lower = NortonSide("lower-tail", k_max, lhs_low, rhs_low,
                       lhs_low.strictly_below(rhs_low))
    upper = NortonSide("upper-tail", k_min, lhs_up, rhs_up,
                       lhs_up.strictly_below(rhs_up))
    return NortonReport(x, alpha, beta, lower, upper)
