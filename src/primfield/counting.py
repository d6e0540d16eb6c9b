"""Exact counts of monic polynomials by factor structure, with certified
analytic companions.

The central object is the table Pi'_{q,k}(n): the number of squarefree
monic polynomials of degree n over F_q with exactly k distinct
irreducible factors, built exactly from the generating product
prod_d (1 + u x^d)^{pi'_q(d)}.  Around it sit certified-bracket
evaluations of the degree-weighted singular series G, the truncated
Mertens product, Poisson-style tail estimates, and verifiers for the
uniform upper bound and the factor-count recurrence.  Every reader of
the table, those verifiers and the mp construction's strikes included,
takes its rows from one packed build, _table_rows, which runs each
degree's pass only over the rows it can change, in slots that
_slot_bytes alone sizes and no other module reads.  The exact counts
and the Mertens product's integer bracket are plain integer arithmetic;
every other certified real, the uniform bound's log weight included, is
an interval of brackets.IntervalContext at an explicit precision, which
the functions that form one import, so the exact counts never load it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count, islice
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple

from . import DEFAULT_PRECISION_BITS
from .errors import PrecisionError, UsageError
from .fieldpoly import _check_prime
from .irreducibles import pi_prime

if TYPE_CHECKING:    # loaded by the functions that form brackets
    from .brackets import BracketedValue, Interval, IntervalContext


def monic_cumulative(q: int, n: int) -> int:
    """M_q(n): number of monic polynomials of degree <= n."""
    _check_prime(q)
    if n < 0:
        raise UsageError("degree must be >= 0")
    return (q**(n + 1) - 1) // (q - 1)


# ----------------------------------------------------------------------
# Squarefree factor-count table
# ----------------------------------------------------------------------

class CountTable(NamedTuple):
    """rows[n][k] = squarefree monic, degree n, k distinct irreducible factors.

    excluded_degrees lists (degree, count) pairs of irreducibles struck
    from the field before counting; with exclusions the table counts only
    polynomials coprime to the struck set.
    """

    q: int
    N: int
    rows: tuple[tuple[int, ...], ...]
    excluded_degrees: tuple[tuple[int, int], ...] = ()


def _slot_bytes(q: int, N: int) -> int:
    """Bytes per slot of any packed row of a table to degree N >= 0: they
    hold q^N (bit_length(N // 2) + 1), so no slot carries into the next.

    Row n, built or struck (strike_counts), sums to at most q^n, and
    q^d = sum_{e | d} e pi'(e) >= d pi'(d), so slot j of the recurrence's
    packed sum, sum_{d <= n/2} pi'(d) row(n-d)[j], is at most q^n H_{n//2}
    (H_m = 1 + ... + 1/m; H_0 = 0, H_m <= 1 + ln m < 1 + bit_length(m)).
    """
    return ((q**N * ((N // 2).bit_length() + 1)).bit_length() + 7) // 8


def _unpack(row: int, slots: int, nbytes: int) -> tuple[int, ...]:
    """The nbytes-wide unsigned slots of a packed row, lowest first."""
    raw = row.to_bytes(slots * nbytes, "little")
    return tuple(int.from_bytes(raw[i:i + nbytes], "little")
                 for i in range(0, len(raw), nbytes))


def build_count_table(q: int, N: int,
                      excluded_degrees: Mapping[int, int] | None = None,
                      ) -> CountTable:
    """Exact Pi'_{q,k}(n) for 0 <= k <= n <= N by degree-wise convolution
    (_table_rows), each row padded with zeros to its n + 1 entries.

    Degree d contributes a factor (1 + u x^d)^m with m = pi'_q(d) minus
    any exclusions: choosing j of the m irreducibles adds degree j*d and
    factor count j with multiplicity C(m, j).
    """
    excl = tuple(sorted((d, c) for d, c in (excluded_degrees or {}).items() if c))
    rows = tuple(row + (0,) * (n + 1 - len(row))
                 for n, (_, row) in enumerate(_table_rows(q, N, excl)))
    return CountTable(q, N, rows, excl)


def _table_rows(q: int, N: int, excl: tuple[tuple[int, int], ...] = (),
                ) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(packed, row) for rows 0..N of the table in turn: the row's int,
    which the build then drops, and its slots up to the last nonzero one.
    Without exclusions every row is checked first: row n sums to
    q^n - q^(n-1) (to q at n = 1), and its k = 1 entry is pi'_q(n).

    Each row is one integer with a fixed-width slot per k (Kronecker
    substitution), so one multiply-shift-add updates every k of a row at
    once.  The factors are applied from d = N down to d = 1.  The product
    is the same in any order, but this one keeps the rows short where
    they are read most: while degree d is applied, row r holds only
    products of irreducibles of degree > d, so at most r/(d+1) + 1 of its
    slots are nonzero, and a large d, whose j-loop runs up to N/d times
    per row, reads only such short rows.  Rows 1..d are still 0 then, so
    row n reads only the rows n - jd above d, and row 0 when d divides n:
    the pass over rows runs only over n > 2d, and the row-0 terms go into
    rows d, 2d, ... in one loop after it, so the N = 300 build takes
    22,350 row passes in place of 45,150 at q = 2.  The small degrees,
    whose rows are full, run j only up to m, a few terms.  Exclusions
    lower m, as striking C irreducibles (strike_counts) takes C passes.
    """
    _check_prime(q)
    if N < 0:
        raise UsageError("table size must be >= 0")
    for d, c in excl:
        if not 1 <= d <= N:
            raise UsageError(f"excluded degree {d} outside 1..{N}")
        if not 0 <= c <= pi_prime(q, d):
            raise UsageError(f"cannot exclude {c} irreducibles of degree {d}")
    excl_map = dict(excl)
    # Row n packed into one int, entry k in bits [k*width, (k+1)*width).
    # Every update only adds, so an entry never exceeds its final value.
    nbytes = _slot_bytes(q, N)
    width = 8 * nbytes
    packed = [0] * (N + 1)
    packed[0] = 1
    for d in range(N, 0, -1):
        m = pi_prime(q, d) - excl_map.get(d, 0)
        if m == 0:
            continue
        jmax = min(N // d, m)
        binom = [math.comb(m, j) for j in range(jmax + 1)]
        # rows 1..d are still 0: j reads only source rows above d, so
        # rows d..2d read none, and every read below sees a pre-pass row
        for n in range(N, 2 * d, -1):
            acc = packed[n]
            for j in range(1, min((n - 1) // d - 1, jmax) + 1):
                acc += binom[j] * packed[n - j * d] << width * j
            packed[n] = acc
        # the row-0 terms, row 0 being 1: C(m, j) u^j into row j*d
        for j in range(1, jmax + 1):
            packed[j * d] += binom[j] << width * j
    for n in range(N + 1):
        row, packed[n] = packed[n], 0
        # only the slots up to the row's highest nonzero one are unpacked
        slots = _unpack(row, -(-row.bit_length() // width), nbytes)
        if not excl and n:
            assert sum(slots) == (q**n - q**(n - 1) if n > 1 else q), (q, n)
            assert slots[1] == pi_prime(q, n), (q, n)
        yield row, slots


def strike_counts(q: int, N: int, degrees) -> tuple[tuple[int, ...], ...]:
    """counts[k-1][n], 0 <= n <= N: squarefree monic g of degree n - deg t_k
    with k - 1 irreducible factors, none of them t_1 .. t_k, irreducibles
    of the given nondecreasing degrees.  Packed row n of the field
    (_table_rows) is the coefficient of x^n in prod_p (1 + u x^deg p), and
    striking t_k divides it by 1 + u x^deg t_k, exactly, in one ascending
    pass.

    The strikes stop at the first S_k that is zero through N, and every
    later S_k is zero through N too: a member t_(k+1) g of S_(k+1) at degree
    n <= N, less one factor h of g, gives the member t_k (g/h) of S_k at
    degree n - deg h + deg t_k - deg t_(k+1) < n, since deg t_k <= deg t_(k+1).
    """
    degrees = tuple(degrees)
    assert all(a <= b for a, b in zip(degrees, degrees[1:])), degrees
    packed = [row for row, _ in _table_rows(q, N)]
    nbytes = _slot_bytes(q, N)
    width, mask = 8 * nbytes, (1 << 8 * nbytes) - 1
    counts = []
    for k, dk in enumerate(degrees, start=1):
        for n in range(dk, N + 1):
            packed[n] -= packed[n - dk] << width
            assert packed[n] >= 0, (k, n)
        counts.append(tuple(packed[n - dk] >> width * (k - 1) & mask
                            if n >= dk + k - 1 else 0 for n in range(N + 1)))
        if not any(counts[-1]):
            break
    counts += [(0,) * (N + 1)] * (len(degrees) - len(counts))
    return tuple(counts)


# ----------------------------------------------------------------------
# Uniform factor-count bound and recurrence
# ----------------------------------------------------------------------

class InequalityReport(NamedTuple):
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


def _log_weights_lower(iv: IntervalContext,
                       N: int) -> Iterator[tuple[int, int]]:
    """(num, s), num/2^s in lowest terms, for n = 1..N: the lower end of
    the interval log n + 2 - log 2 at iv's precision p, that is

        fl_down(fl_down(fl_down(log n) + 2) - fl_up(log 2)),

    each fl rounding to p significant bits in the stated direction and
    each log correctly rounded.  It is a certified lower bound while
    every n converts exactly, that is while n < 2^p.
    """
    p = iv.prec
    if N >> p:
        raise PrecisionError(f"precision {p} cannot hold table size {N} "
                             "exactly; it needs N < 2^precision")
    log2 = iv.log(2)
    for n in range(1, N + 1):
        w = iv.sub(iv.add(iv.log(n), 2), log2)
        m, e = w.lo, w.exp
        tz = (m & -m).bit_length() - 1
        if e + tz >= 0:
            yield m >> tz << (e + tz), 0
        else:
            yield m >> tz, -e - tz


def verify_hr_bound(q: int, N: int,
                    precision_bits: int = DEFAULT_PRECISION_BITS,
                    ) -> InequalityReport:
    """Check Pi'_{q,k}(n) <= (q^n/n) (log n + 2 - log 2)^(k-1)/(k-1)!
    for all 1 <= k <= n <= N.

    The rows come off the packed build (_table_rows) one at a time, each
    cut at its last nonzero entry, never the whole table.  The right side is
    replaced by a certified rational lower bound (the log weight rounded
    down at precision_bits, _log_weights_lower), so every pass is a
    rigorous instance of the inequality; the bound and the comparisons are
    exact integer arithmetic.
    """
    # brackets is loaded before the build, whose rows would otherwise
    # lie under the transient memory of its compile
    from .brackets import IntervalContext
    iv = IntervalContext(precision_bits)
    rows = _table_rows(q, N)
    next(rows)    # row 0 has no k >= 1; the build's checks run first
    weights = _log_weights_lower(iv, N)
    violations: list[tuple] = []
    min_margin = math.inf
    cells = 0
    for n, (_, row), (num, s) in zip(range(1, N + 1), rows, weights):
        rhs = q**n        # q^n num^(k-1)
        scale = n         # n (k-1)! 2^(s(k-1))
        # a zero entry satisfies the bound and sets no margin, so the
        # walk stops at the row's last nonzero entry; cells counts all k
        cells += n
        for k in range(1, len(row)):
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


def verify_recurrence_bound(q: int, N: int) -> InequalityReport:
    """Check (k-1) Pi'_{q,k}(n) <= sum_{d <= n/2} pi'_q(d) Pi'_{q,k-1}(n-d)
    for all 2 <= k <= n <= N, in exact integers.

    The rows come off the packed build (_table_rows) one at a time, and
    their packed ints sum to row n's right sides for every k at once.
    """
    rows = _table_rows(q, N)
    packed = [p for p, _ in islice(rows, 2)]    # runs the build's checks
    nbytes = _slot_bytes(q, N)
    weights = [pi_prime(q, d) for d in range(1, N // 2 + 1)]
    violations: list[tuple] = []
    min_margin = math.inf
    cells = 0
    for n, (p, row) in zip(range(2, N + 1), rows):
        # k past the row's support has lhs = 0 <= rhs and no margin, so
        # only the slots k - 1 below the support's last k are unpacked
        slots = max(len(row) - 1, 0)
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
        # row n is read only by the rows after it
        packed.append(p)
    return InequalityReport("factor-count-recurrence", q, N, cells,
                            tuple(violations),
                            min_margin if min_margin < math.inf else 0.0)


# ----------------------------------------------------------------------
# Truncated Mertens product
# ----------------------------------------------------------------------

def _term_precision(iv: IntervalContext, m: int) -> IntervalContext:
    """Working precision for one degree's term m * log(1 - q^-d) and kin.

    The log of 1 - q^-d is about -q^-d, so its rounding error relative to
    it grows like q^d, and the factor m = pi'_q(d) ~ q^d/d scales it back
    up: m.bit_length() extra bits keep the term's absolute error at the
    base precision's size, whatever q is.
    """
    return iv.raised(m.bit_length())


def mertens_parts(q: int) -> Iterator[tuple[int, int]]:
    """(A, E) with prod_{d<=n} (1 - q^-d)^{pi'_q(d)} = A / q^E exactly, for
    n = 1, 2, ... in turn.

    One running product over the degrees: each n multiplies in its own
    factor (q^n - 1)^{pi'_q(n)}, each prime to q.  A has about E log2 q
    bits, ~q^n at degree n.
    """
    num, exponent_sum = 1, 0
    for n in count(1):
        m = pi_prime(q, n)
        num *= pow(q**n - 1, m)
        exponent_sum += n * m
        yield num, exponent_sum


def _fixed_pow(f: int, m: int, w: int, bias: int) -> int:
    """2^w (f / 2^w)^m by squaring, each product of w-bit fixed-point
    values shifted down w bits after adding bias: 0 floors, 2^w - 1 ceils."""
    r = 1 << w
    while m:
        if m & 1:
            r = r * f + bias >> w
        f = f * f + bias >> w
        m >>= 1
    return r


def mertens_brackets(q: int) -> Iterator[tuple[int, int, int]]:
    """(lo, hi, w) with lo <= 2^w P(n) <= hi, P(n) = prod_{d<=n} (1 -
    q^-d)^{pi'_q(d)}, for n = 1, 2, ... in turn, in integers alone.

    w is p = DEFAULT_PRECISION_BITS plus the bit length of the largest
    pi'_q(d) read (the rule of _term_precision), and lo and hi are shifted
    up with it.  At degree n, with m = pi'_q(n) and x = 1 - q^-n, 2^w x is
    floored (ceiled), raised to m by _fixed_pow and multiplied into lo
    (hi), each product shifted down with floor (ceil).  All operands are
    positive, so each rounding only widens the bracket.

    Width: hi - lo < 73 n 2^(w - p).  Let w_n be w at degree n, e_n = 2^(3
    - w_n).  The factor is within x (1 -+ e_n), as x >= 1/2, and x^m >= 1/4
    ((1 - v)^(1/v) >= 1/4 for v = q^-n <= 1/2, and m v <= 1), so each
    product _fixed_pow rounds is above 1/8 and moves by a factor within 1
    -+ e_n.  The rounding of the squaring that forms x^(2^j) reaches x^m
    with exponent m >> j, at most m over all j, the factor's with m, and
    each multiply's into the result with 1: the power is within x^m (1 -+
    e_n)^(3m).  Each shift of the running product moves it by at most
    2^-w_n, and a factor of at most 1 never enlarges an earlier error.  So
    lo / 2^w >= P(n) (1 - k) - s and hi / 2^w <= P(n) e^k + s, with k =
    sum_d 3 pi'(d) e_d and s = sum_d 2^-w_d, whose terms are below 24 2^-p
    and 2^(-p-1) (w_d > p + log2 pi'(d)).  For n < 2^p / 24, k <= 1 and e^k
    <= 1 + 2k, so with P(n) <= 1 the width is below 3k + 2s < 73 n 2^-p.
    """
    w = DEFAULT_PRECISION_BITS
    lo = hi = 1 << w
    for n in count(1):
        m = pi_prime(q, n)      # checks q
        if (grow := DEFAULT_PRECISION_BITS + m.bit_length() - w) > 0:
            w, lo, hi = w + grow, lo << grow, hi << grow
        t = 1 << w
        lo = lo * _fixed_pow(t + (-t // q**n), m, w, 0) >> w
        hi = hi * _fixed_pow(t - t // q**n, m, w, t - 1) + t - 1 >> w
        yield lo, hi, w


class MertensValue(NamedTuple):
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


def exact_prints(q: int, e: int) -> bool:
    """Whether A / q^e, A of about e log2 q bits, prints within
    PRINTABLE_EXACT_BITS; e is tested first, so no float overflows."""
    return (e <= PRINTABLE_EXACT_BITS
            and e * math.log2(q) < PRINTABLE_EXACT_BITS)


def mertens_rows(q: int, max_n: int,
                 precision_bits: int = DEFAULT_PRECISION_BITS,
                 ) -> tuple[MertensValue, ...]:
    """Truncated Mertens products P(n) = prod_{deg p <= n} (1 - 1/||p||)
    for n = 1..max_n, in one pass over the degrees, each with its
    drift-normalized bracket of e^gamma * n * P(n), which tends to 1.

    The interval sum of the log terms and the exact product of
    mertens_parts both run over d, so row n adds one degree's term to row
    n - 1.  A row carries its exact rational while the decimal form prints
    (q=2 through n=12); the numerator only grows with n, so every later
    row is bracket-only and builds no exact rational.
    """
    from .brackets import IntervalContext
    _check_prime(q)
    if max_n < 1:
        raise UsageError("degree must be >= 1")
    rows = []
    pi_prime(q, max_n)      # top degree first: a table grown here ends there
    parts = mertens_parts(q)
    exponent_sum = 0
    iv = IntervalContext(precision_bits)
    s = iv.of(0)
    for n in range(1, max_n + 1):
        m = pi_prime(q, n)
        fine = _term_precision(iv, m)
        s = iv.add(s, fine.mul(m, fine.log(fine.sub(1, fine.div(1, q**n)))))
        exponent_sum += n * m
        exact = None
        if exact_prints(q, exponent_sum):
            num, e = next(parts)
            exact = Fraction(num, q**e)
        norm = iv.exp(iv.add(iv.add(iv.euler, iv.log(n)), s))
        rows.append(MertensValue(q, n, exact, norm.bracket()))
    return tuple(rows)


# ----------------------------------------------------------------------
# Degree-weighted singular series G
# ----------------------------------------------------------------------

_G_DEGREE_CAP = 64     # last degree of the product before the bounded tail


def _g_series_iv(iv: IntervalContext, q: int, z: Interval,
                 ) -> Iterator[Interval]:
    """Intervals for prod_p (1 + z/|p|)(1 - 1/|p|)^z to degree caps 8, 16,
    32 and 64 in turn, tail in, from one running sum over the degrees.

    Per degree d the log factor is g_d = log(1 + z q^-d) + z log(1 - q^-d),
    with -z(1+z) q^-2d <= g_d <= 0 for q^-d <= 1/2, so the degree tail
    beyond D lies in [-z(1+z) q^-D / ((D+1)(q-1)), 0].
    """
    s = iv.of(0)
    for d in range(1, _G_DEGREE_CAP + 1):
        m = pi_prime(q, d)
        fine = _term_precision(iv, m)
        u = fine.div(1, q**d)
        g = fine.add(fine.log(fine.add(1, fine.mul(z, u))),
                     fine.mul(z, fine.log(fine.sub(1, u))))
        s = iv.add(s, fine.mul(m, g))
        if d >= 8 and d & (d - 1) == 0:
            tail_mag = iv.div(iv.div(iv.mul(z, iv.add(1, z)), q**d),
                              (d + 1) * (q - 1))
            yield iv.exp(iv.sub(s, iv.mul(iv.span(0, 1), tail_mag)))


def evaluate_G(q: int, z, eps=Fraction(1, 10**6),
               precision_bits: int = DEFAULT_PRECISION_BITS) -> BracketedValue:
    """Certified bracket for
    G(z) = prod_p (1 + z/|p|) (1 - 1/|p|)^z,  0 <= z <= 2,
    of width at most eps.

    Every factor decreases in z, so G falls from G(0) = 1 and stays in
    (0, 1].  The product is grouped by degree with exponent pi'_q(d).  At
    each working precision one running sum over the degrees is read at
    the cutoffs 8, 16, 32 and 64, so each degree's term is formed once;
    the precision doubles until the bracket is narrow enough.
    """
    _check_prime(q)
    z = Fraction(z)
    eps = Fraction(eps)
    if not 0 <= z <= 2:
        raise UsageError(f"z={z} outside [0, 2]")
    if eps <= 0:
        raise UsageError("eps must be positive")
    from .brackets import IntervalContext
    bits = precision_bits
    while True:
        iv = IntervalContext(bits)
        for g in _g_series_iv(iv, q, iv.fraction(z)):
            out = g.bracket()
            if out.width <= eps:
                return out
        if bits >= 8 * precision_bits:
            raise PrecisionError(
                f"G({z}) bracket width {float(out.width):.3e} > eps at"
                f" degree cap {_G_DEGREE_CAP}, precision {bits}")
        bits *= 2


# ----------------------------------------------------------------------
# Poisson-style tails
# ----------------------------------------------------------------------

def q_large_deviation(iv: IntervalContext, y: Fraction) -> Interval:
    """Q(y) = y log y - y + 1 as an interval (y rational > 0)."""
    y_iv = iv.fraction(y)
    return iv.add(iv.sub(iv.mul(y_iv, iv.log(y_iv)), y_iv), 1)


class NortonSide(NamedTuple):
    name: str
    boundary_k: int
    lhs: BracketedValue
    rhs: BracketedValue
    holds: bool

    def to_json(self) -> dict:
        return {"name": self.name, "boundary_k": self.boundary_k,
                "lhs": self.lhs.to_json(), "rhs": self.rhs.to_json(),
                "holds": self.holds}


class NortonReport(NamedTuple):
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
    from .brackets import IntervalContext
    iv = IntervalContext(precision_bits)
    e_neg_x = iv.exp(iv.neg(iv.fraction(x)))
    x_iv = iv.fraction(x)
    lhs_low = iv.mul(e_neg_x, iv.fraction(s_low)).bracket()
    lhs_up = iv.sub(1, iv.mul(e_neg_x, iv.fraction(s_mid))).bracket()
    rhs_low = iv.div(
        iv.exp(iv.mul(iv.neg(q_large_deviation(iv, alpha)), x_iv)),
        iv.mul(iv.fraction(1 - alpha),
               iv.sqrt(iv.mul(iv.fraction(alpha), x_iv)))).bracket()
    rhs_up = iv.div(
        iv.exp(iv.mul(iv.neg(q_large_deviation(iv, beta)), x_iv)),
        iv.mul(iv.fraction(beta - 1),
               iv.sqrt(iv.mul(iv.mul(iv.mul(2, iv.pi), iv.fraction(beta)),
                              x_iv)))).bracket()
    lower = NortonSide("lower-tail", k_max, lhs_low, rhs_low,
                       lhs_low.strictly_below(rhs_low))
    upper = NortonSide("upper-tail", k_min, lhs_up, rhs_up,
                       lhs_up.strictly_below(rhs_up))
    return NortonReport(x, alpha, beta, lower, upper)
