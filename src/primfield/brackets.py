"""Certified scalar brackets with exact rational endpoints, and the one
interval arithmetic that forms them.

Anything that cannot be held as an exact rational (logs, e^gamma) is
carried as a closed interval [lo, hi] guaranteed to contain the true
value.  The arithmetic is an Interval, two integer mantissas on one
binary exponent, and an IntervalContext, which rounds every endpoint it
forms outward to its own explicit number of significant bits: the
precision is a value passed along, never process state.  Conversion of
int and Fraction operands, +, -, *, / and sqrt round the exact result
once; log, exp, pi, e and Euler's gamma round an integer bracket of the
value that is widened by more working bits until both of its ends round
to the same endpoint (Ziv's strategy), so those are correctly rounded as
well.  Each kernel's bracket is proved in its docstring.  Operation by
operation the rounding follows the libmpi interval context the tests
check it against, which the package does not import, so its endpoints
are that context's at the same precision wherever those are correctly
rounded.  Endpoints come back as dyadic rationals, so every downstream
comparison is exact integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Union

from .errors import PrecisionError, UsageError

Rational = Union[int, Fraction]

MAX_PRECISION_BITS = 4096


def check_precision(bits: int) -> None:
    """Refuse a working precision outside [8, MAX_PRECISION_BITS]."""
    if not 8 <= bits <= MAX_PRECISION_BITS:
        raise PrecisionError(f"precision {bits} outside [8, {MAX_PRECISION_BITS}]")


class BracketedValue:
    """Closed interval [lo, hi] with exact rational endpoints; immutable."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Rational, hi: Rational) -> None:
        if not (isinstance(lo, Fraction) and isinstance(hi, Fraction)):
            lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise UsageError(f"bracket endpoints out of order: {lo} > {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")
    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if not isinstance(other, BracketedValue):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"BracketedValue(lo={self.lo!r}, hi={self.hi!r})"

    # ---- queries ------------------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def strictly_below(self, other: "BracketedValue") -> bool:
        """True only if every point of self is below every point of other."""
        return self.hi < other.lo

    # ---- serialization ------------------------------------------------

    def to_json(self, digits: int = 36) -> dict:
        return {
            "lo": fraction_to_decimal(self.lo, digits, "floor"),
            "hi": fraction_to_decimal(self.hi, digits, "ceil"),
        }


def fraction_to_decimal(fr: Rational, digits: int, direction: str) -> str:
    """Decimal string with `digits` fractional places, rounded outward.

    direction 'floor' rounds toward -inf, 'ceil' toward +inf, so printing
    a bracket with (floor, ceil) never narrows it.
    """
    fr = Fraction(fr)
    if digits < 0:
        raise UsageError("digits must be >= 0")
    scaled = fr * 10**digits
    if direction == "floor":
        n = scaled.numerator // scaled.denominator
    elif direction == "ceil":
        n = -((-scaled.numerator) // scaled.denominator)
    else:
        raise UsageError(f"unknown rounding direction {direction!r}")
    sign = "-" if n < 0 else ""
    n = abs(n)
    whole, frac = divmod(n, 10**digits)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}"


# ----------------------------------------------------------------------
# Dyadic values m 2^e and their directed rounding
# ----------------------------------------------------------------------

def _round(m: int, e: int, p: int, up: bool) -> tuple[int, int]:
    """m 2^e rounded to p significant bits, toward +inf if up, else -inf.

    Python's >> floors for either sign, so m >> d is the floor of m / 2^d
    and -(-m >> d) its ceiling."""
    drop = abs(m).bit_length() - p
    if drop <= 0:
        return m, e
    return (-(-m >> drop) if up else m >> drop), e + drop


def _same(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Whether the dyadics (m, e) a and b are one value."""
    e = min(a[1], b[1])
    return a[0] << (a[1] - e) == b[0] << (b[1] - e)


def _sum(am: int, ae: int, bm: int, be: int, p: int,
         up: bool) -> tuple[int, int]:
    """am 2^ae + bm 2^be rounded to p bits, toward +inf if up.

    Exact before the one rounding, but for a b below the rounding grid
    of a.  Let a be the operand of larger exponent, T the bit length of
    its magnitude's top (2^(T-1) <= |a| < 2^T) and k = min(ae, T - 1 - p).
    Every p-bit number of magnitude at least 2^(T-2) is a multiple of
    2^(T-1-p), so of 2^k, and so is a; so when |b| < 2^k no p-bit number
    lies strictly between a and a + b, and a + b rounds, either way, as
    a + sign(b) 2^(k-1) does.  That sum is formed instead, so a tiny b
    costs no long shift.  Otherwise |b| >= 2^k bounds the shift, ae - be,
    by b's own bit length plus p + 1.
    """
    if not bm:
        return _round(am, ae, p, up)
    if not am:
        return _round(bm, be, p, up)
    if ae < be:
        am, ae, bm, be = bm, be, am, ae
    k = min(ae, ae + abs(am).bit_length() - 1 - p)
    if be + abs(bm).bit_length() <= k:
        return _round((am << (ae - k + 1)) + (1 if bm > 0 else -1),
                      k - 1, p, up)
    return _round((am << (ae - be)) + bm, be, p, up)


def _quotient(n: int, ne: int, d: int, de: int, p: int,
              up: bool) -> tuple[int, int]:
    """(n 2^ne) / (d 2^de), d > 0, rounded to p bits, toward +inf if up.

    With n shifted left s bits, v = (n << s) / d has magnitude above
    2^(p+1), so q = floor(v) and q + 1 are integers at which every p-bit
    number is an integer: no p-bit number lies strictly between q and
    q + 1, and v, in [q, q + 1) and equal to q only when the remainder
    is 0, rounds down as q does and up as q + 1 does, or as q if exact.
    """
    if not n:
        return 0, 0
    s = max(0, p + 2 + d.bit_length() - abs(n).bit_length())
    q, r = divmod(n << s, d)
    if r and up:
        q += 1
    return _round(q, ne - de - s, p, up)


def _root(m: int, e: int, p: int, up: bool) -> tuple[int, int]:
    """sqrt(m 2^e), m >= 0, rounded to p bits, toward +inf if up.

    With the exponent made even and m shifted left to 2p + 4 bits or
    more, r = isqrt(M) >= 2^(p+1) and sqrt(M) lies in [r, r + 1), equal
    to r only when r^2 = M; as in _quotient, it rounds down as r does and
    up as r + 1 does unless exact."""
    if not m:
        return 0, 0
    if e & 1:
        m, e = m << 1, e - 1
    s = max(0, 2 * p + 4 - m.bit_length())
    s += s & 1
    big = m << s
    r = isqrt(big)
    if up and r * r != big:
        r += 1
    return _round(r, (e - s) // 2, p, up)


def _power(m: int, e: int, n: int, p: int, up: bool) -> tuple[int, int]:
    """(m 2^e)^n, n >= 3, rounded to p bits, toward +inf if up, by
    libmpf's mpf_pow_int: exact when |m| has one bit or bc * n < 1000
    (bc = bit length of |m|), else binary powering of |m| that cuts each
    product to p + 4 bitlen(n) + 4 bits.  Every cut moves the magnitude
    the way the result's rounding goes: the powers are positive, so each
    later product only moves further that way, and the last rounding
    is directed too, so the result bounds the exact power."""
    negative = m < 0 and n & 1
    a = abs(m)
    bc = a.bit_length()
    if a <= 1 or bc * n < 1000:
        return _round(m**n, e * n, p, up)
    mag_up = up != bool(negative)
    work = p + 4 * n.bit_length() + 4

    def cut(x: int, xe: int) -> tuple[int, int]:
        drop = x.bit_length() - work
        if drop <= 0:
            return x, xe
        return (-(-x >> drop) if mag_up else x >> drop), xe + drop

    pm, pe = 1, 0
    while True:
        if n & 1:
            pm, pe = cut(pm * a, pe + e)
            n -= 1
            if not n:
                break
        a, e = cut(a * a, e + e)
        n //= 2
    return _round(-pm if negative else pm, pe, p, up)


# ----------------------------------------------------------------------
# Integer brackets of the transcendental kernels
# ----------------------------------------------------------------------
#
# Each kernel returns (lo, hi, e) with lo 2^e <= f <= hi 2^e for its value
# f, worked to about w significant bits, and every step of it maps a
# bracket of its input to a bracket of its output: an increasing step
# rounds a lower end down and an upper end up.  _ziv rounds both ends.

# ln 2, pi and gamma brackets at the largest scale asked for so far:
# (F, lo, hi) with lo <= 2^F c <= hi.  A smaller scale shifts them down.
_CONSTANTS: dict[str, tuple[int, int, int]] = {}


def _constant(name: str, F: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^F c <= hi for the named constant c."""
    cached = _CONSTANTS.get(name)
    if cached is None or cached[0] < F:
        G = F + F // 2 + 32     # grown ahead, so a rising F rarely recomputes
        cached = (G, *_KERNELS[name](G))
        _CONSTANTS[name] = cached
    G, lo, hi = cached
    return lo >> (G - F), -(-hi >> (G - F))


def _atanh_inverse(a: int, F: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^F atanh(1/a) <= hi, a >= 3.

    atanh(1/a) is the sum over k >= 0 of 1/((2k+1) a^(2k+1)).  Each term
    is floored in units of 2^-F, t // (2k+1) with t = floor(2^F / a^(2k+1))
    divided down by a^2 in turn (floor(floor(x/b)/c) = floor(x/(bc))), so
    each loses less than one unit.  The sum stops at the first term that
    floors to 0: it is below one unit, and the terms after it fall by a
    factor a^2 >= 9 each, so the tail is below 9/8.  K terms summed thus
    leave the value in [lo, lo + K + 2).
    """
    t = (1 << F) // a
    a2 = a * a
    lo = k = 0
    while term := t // (2 * k + 1):
        lo += term
        t //= a2
        k += 1
    return lo, lo + k + 2


def _atan_inverse(a: int, F: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^F atan(1/a) <= hi, a >= 2.

    The alternating sum over k >= 0 of (-1)^k / ((2k+1) a^(2k+1)) is
    taken with terms floored as in _atanh_inverse, each within one unit,
    and stops at the first term that floors to 0, below one unit.  Its
    terms decrease, so the tail lies within that term: with K terms
    summed the value is within K + 1 units of the sum.
    """
    t = (1 << F) // a
    a2 = a * a
    s = k = 0
    while term := t // (2 * k + 1):
        s += -term if k & 1 else term
        t //= a2
        k += 1
    return s - k - 1, s + k + 1


def _ln2_bracket(F: int) -> tuple[int, int]:
    """ln 2 = 2 atanh(1/3)."""
    lo, hi = _atanh_inverse(3, F)
    return 2 * lo, 2 * hi


def _pi_bracket(F: int) -> tuple[int, int]:
    """pi = 16 atan(1/5) - 4 atan(1/239) (Machin)."""
    lo5, hi5 = _atan_inverse(5, F)
    lo239, hi239 = _atan_inverse(239, F)
    return 16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239


def _euler_bracket(F: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^F gamma <= hi, by Brent and McMillan's
    formula (Math. Comp. 34, 1980):

        gamma = U/V - log n - K_0(2n)/I_0(2n),  0 < K_0(2n)/I_0(2n) < pi e^(-4n),
        U = sum_k A_k,  V = sum_k B_k,  B_k = (n^k / k!)^2,  A_k = B_k H_k,

    with H_k the k-th harmonic number.  n = ceil((F + 2) / 5), so pi
    e^(-4n) < 2^(2 - 5n) <= 2^-F.  The terms follow B_k = B_(k-1) n^2 / k^2
    and A_k = (A_(k-1) n^2 / k + B_k) / k, both increasing in what they
    read, so in units of 2^-P a chain floored at each step bounds every
    term below and one ceiled bounds it above.  The sums stop at K = 3n:
    past it B_(k+1) / B_k = n^2/(k+1)^2 <= 1/4 and H_(K+i) <= H_K + i/(K+1),
    so the tails are at most B_K / 3 and B_K (H_K/3 + 4/(9(K+1))) <= A_K,
    which the upper sums add.  U/V then lies between the floored quotient
    of the low U over the high V and the ceiled one of the high U over
    the low V; log n comes from _log_bracket, and the K_0/I_0 term only
    lowers gamma, by less than one unit.
    """
    n = -(-(F + 2) // 5)
    n2 = n * n
    K = 3 * n
    P = F + 2 * K.bit_length() + 8
    b_lo = b_hi = 1 << P
    a_lo = a_hi = 0
    v_lo = v_hi = b_lo
    u_lo = u_hi = 0
    for k in range(1, K + 1):
        k2 = k * k
        b_lo = b_lo * n2 // k2
        b_hi = -(-b_hi * n2 // k2)
        a_lo = (a_lo * n2 // k + b_lo) // k
        ceiled = -(-a_hi * n2 // k) + b_hi
        a_hi = -(-ceiled // k)
        v_lo += b_lo
        v_hi += b_hi
        u_lo += a_lo
        u_hi += a_hi
    v_hi += b_hi
    u_hi += a_hi
    l_lo, l_hi, E = _log_bracket(n, 0, F)
    shift = -E - F
    l_lo, l_hi = l_lo >> shift, -(-l_hi >> shift)
    return ((u_lo << F) // v_hi - l_hi - 1,
            -(-(u_hi << F) // v_lo) - l_lo)


_KERNELS = {"ln2": _ln2_bracket, "pi": _pi_bracket, "euler": _euler_bracket}


def _log_bracket(m: int, e: int, w: int) -> tuple[int, int, int]:
    """(lo, hi, -F) with lo 2^-F <= log(m 2^e) <= hi 2^-F, m > 0.

    Write x = m 2^e as 2^k t with k >= 0 and t in [1, 2] when x >= 1, or
    1/x so when x < 1, and log x = +-(k log 2 + log t).  The fixed-point
    bracket [A, B] of 2^F t (t = m / 2^(bitlen m - 1), or 2^(bitlen m) / m)
    is floored and ceiled, and stays at or above 2^F.  r square roots,
    A -> isqrt(A 2^F) and B -> its ceiling, bracket 2^F t^(1/2^r); then
    s = (t - 1)/(t + 1), an increasing function of t, is bracketed by
    S_lo, a floored quotient at A, and S_hi, a ceiled one at B; and log t
    = 2^(r+1) atanh s.  Both s are below 1/3 + 2^-F, so s^2 < 1/8.

    atanh s = sum_k s^(2k+1) / (2k+1) is summed at the exact s = S_lo/2^F
    in units of 2^-F: P_0 = S_lo, P_k = floor(P_(k-1) Q / 2^F) with Q the
    floor of S_lo^2 / 2^F, and terms floor(P_k / (2k+1)).  Every floor
    only lowers, so the sum S is a lower bound; and P_k falls short of
    the exact power by e_k <= e_(k-1)/8 + 2 < 3 units (Q is within one
    unit of s^2 2^F, and P_(k-1) <= 2^F), so each term by less than 4.
    The sum stops at the first P_K = 0, whose exact power is then below
    3, and the tail from it is below 3 (8/7) < 4: atanh(S_lo/2^F) 2^F <=
    S + 4K + 4.  atanh has slope at most 1/(1 - s^2) < 2 there, which
    adds 2 (S_hi - S_lo).  k log 2 comes from the ln 2 bracket.  F adds
    to w the r + 8 bits the 2^(r+1) scaling and the roundings lose, and,
    when k = 0, the c bits by which t - 1 falls short of 1, so that
    log x ~ t - 1 still has w significant bits.
    """
    n = m.bit_length()
    if m == 1 << (n - 1):
        k = e + n - 1
        if not k:
            return 0, 0, 0
        F = w + k.bit_length() + 4
        lo, hi = _constant("ln2", F)
        return (k * lo, k * hi, -F) if k > 0 else (k * hi, k * lo, -F)
    if e + n > 0:               # x > 1: t = m / 2^(n-1)
        k, sign = e + n - 1, 1
        c = n - 1 - (m - (1 << (n - 1))).bit_length()
    else:                       # x < 1: 1/x = 2^k t, t = 2^n / m
        k, sign = -e - n, -1
        c = n - ((1 << n) - m).bit_length()
    r = max(0, _log_roots(w) - c)
    F = w + r + 8 + (c if not k else 0)
    one = 1 << F
    if sign < 0:
        A, rem = divmod(1 << (F + n), m)
        B = A + (rem != 0)
    elif (shift := F - n + 1) >= 0:
        A = B = m << shift
    else:
        A, B = m >> -shift, -(-m >> -shift)
    for _ in range(r):
        A = isqrt(A << F)
        B = isqrt((B << F) - 1) + 1
    s_lo = ((A - one) << F) // (A + one)
    s_hi = -(-((B - one) << F) // (B + one))
    q = s_lo * s_lo >> F
    lo = terms = 0
    power, odd = s_lo, 1
    while power:
        lo += power // odd
        power = power * q >> F
        odd += 2
        terms += 1
    hi = lo + 4 * terms + 4 + 2 * (s_hi - s_lo)
    lo, hi = lo << (r + 1), hi << (r + 1)
    if k:
        l_lo, l_hi = _constant("ln2", F)
        lo, hi = lo + k * l_lo, hi + k * l_hi
    return (lo, hi, -F) if sign > 0 else (-hi, -lo, -F)


def _log_roots(w: int) -> int:
    """Square roots taken before the atanh series: each halves log t, so
    saves about w / (2 r^2) series terms, and costs two integer roots."""
    return isqrt(w // 16)


def _exp_bracket(m: int, e: int, w: int) -> tuple[int, int, int]:
    """(lo, hi, E) with lo 2^E <= exp(m 2^e) <= hi 2^E.

    For x = m 2^e > 0, with [X_lo, X_hi] the floor and ceiling of 2^F x
    and [L_lo, L_hi] the ln 2 bracket, k = X_lo // L_hi >= 0 leaves
    r = x - k log 2 in [R_lo, R_hi] 2^-F = [X_lo - k L_hi, X_hi - k L_lo]
    2^-F, with a lower end at least 0 and an upper end near log 2.
    exp x = 2^k exp(r), and exp(r) = exp(u)^(2^j) with u = r / 2^j, so
    u <= 1/2 and exp u < 3/2.

    The series of exp(u) is summed at the exact u = R_lo / 2^(F+j) in
    units of 2^-F: t_0 = 2^F, t_i = floor(t_(i-1) R_lo / (i 2^(F+j))).
    Every floor only lowers, so the sum S is a lower bound; t_i falls
    short of the exact term by e_i <= e_(i-1) u/i + 1 < 2.  The sum stops
    at the first t_N = 0, whose exact term is then below 2, and the tail
    from it is at most twice that: exp(u) 2^F <= S + 2N + 4.  exp has
    slope below 3/2 on [0, 1/2], so the upper u adds at most 3/2 (R_hi -
    R_lo) / 2^j; 2 of that is added.  Squaring j times, floored below and
    ceiled above, keeps the bracket, and for x < 0, exp x = 1 / exp(-x):
    2^(2F) over the two ends of exp(-x)'s bracket, floored and ceiled.
    F adds to w the j bits the squarings lose, the bit length of k,
    which multiplies the ln 2 bracket's width, and 16 more.
    """
    if not m:
        return 1, 1, 0
    negative = m < 0
    m = abs(m)
    top = m.bit_length() + e            # x < 2^top
    if top > 30:
        raise PrecisionError(f"exp argument of magnitude 2^{top - 1} or "
                             "more is outside the interval range")
    if top < -w:
        # |x| < 2^-w: exp x lies in (1 + x, 1 + 2x) for x > 0 and in
        # (1 + x, 1 + x/2) for x < 0, and 2^(top-1) <= |x| < 2^top
        if negative:
            return (1 << (2 - top)) - 4, (1 << (2 - top)) - 1, top - 2
        return (1 << (1 - top)) + 1, (1 << (1 - top)) + 4, top - 1
    j = _exp_halvings(w)
    F = w + j + max(top + 1, 0) + 16
    shift = F + e
    if shift >= 0:
        x_lo = x_hi = m << shift
    else:
        x_lo, x_hi = m >> -shift, -(-m >> -shift)
    l_lo, l_hi = _constant("ln2", F)
    k = x_lo // l_hi
    r_lo, r_hi = x_lo - k * l_hi, x_hi - k * l_lo
    D = F + j
    lo = t = 1 << F
    i = 0
    while t:
        i += 1
        t = (t * r_lo >> D) // i
        lo += t
    hi = lo + 2 * i + 4 + 2 * (-(-(r_hi - r_lo) >> j))
    for _ in range(j):
        lo = lo * lo >> F
        hi = -(-(hi * hi) >> F)
    if negative:
        return (1 << 2 * F) // hi, -(-(1 << 2 * F) // lo), -k - F
    return lo, hi, k - F


def _exp_halvings(w: int) -> int:
    """Halvings of the reduced argument before the exp series: each cuts
    the series by about w / j^2 terms and costs two squarings."""
    return max(1, isqrt(w // 8))


_ZIV_EXTRA_BITS = 12


def _ziv(kernel, m: int, e: int, p: int,
         dirs: tuple[bool, ...]) -> list[tuple[int, int]]:
    """The p-bit roundings of the kernel's value at m 2^e, one per
    direction in dirs (True rounds up).  Rounding is monotone, so when
    both ends of the kernel's bracket round to one value the value itself
    rounds to it; otherwise the bracket is formed again at twice the
    working bits.  Every value formed here is irrational unless the
    kernel returns it exactly (log 1 = 0, exp 0 = 1), so the loop ends.
    """
    w = p + _ZIV_EXTRA_BITS
    while True:
        lo, hi, E = kernel(m, e, w)
        out = []
        for up in dirs:
            end = _round(lo, E, p, up)
            if not _same(end, _round(hi, E, p, up)):
                break
            out.append(end)
        else:
            return out
        w *= 2


def _constant_kernel(name: str):
    def kernel(m: int, e: int, w: int) -> tuple[int, int, int]:
        F = w + 4
        return (*_constant(name, F), -F)
    return kernel


_PI, _EULER = _constant_kernel("pi"), _constant_kernel("euler")


# ----------------------------------------------------------------------
# The interval type and its arithmetic
# ----------------------------------------------------------------------

class Interval:
    """The closed interval [lo 2^exp, hi 2^exp]: two integer mantissas,
    lo <= hi, on one binary exponent.  Its IntervalContext forms it; it
    is never changed after."""

    __slots__ = ("lo", "hi", "exp")

    def __init__(self, lo: int, hi: int, exp: int) -> None:
        self.lo, self.hi, self.exp = lo, hi, exp

    def __repr__(self) -> str:
        return f"Interval({self.lo}, {self.hi}, {self.exp})"

    def max(self, other: "Interval") -> "Interval":
        """The pointwise maximum [max of the lows, max of the highs],
        exact: the image of max over the two intervals."""
        e = min(self.exp, other.exp)
        s, o = self.exp - e, other.exp - e
        return Interval(max(self.lo << s, other.lo << o),
                        max(self.hi << s, other.hi << o), e)

    def bracket(self) -> BracketedValue:
        """The same interval with exact rational endpoints."""
        return BracketedValue(*map(self._endpoint, (self.lo, self.hi)))

    def _endpoint(self, m: int) -> Fraction:
        if not m:
            return Fraction(0)
        e = self.exp + (m & -m).bit_length() - 1     # of the odd mantissa
        if abs(e) > 2**24:
            # a wild exponent would make a denominator of 2^24-plus bits;
            # surface it rather than materialize it
            raise PrecisionError(f"interval endpoint exponent {e} out of range")
        return Fraction(m << self.exp) if self.exp >= 0 else \
            Fraction(m, 1 << -self.exp)


def _join(lo: tuple[int, int], hi: tuple[int, int]) -> Interval:
    """The Interval of two rounded endpoints (m, e), on the lower exponent
    of the two nonzero ones."""
    (a, ea), (b, eb) = lo, hi
    if not a:
        ea = eb
    elif not b:
        eb = ea
    e = min(ea, eb)
    return Interval(a << (ea - e), b << (eb - e), e)


Operand = Union[Interval, int, Fraction]


class IntervalContext:
    """Outward-rounded interval arithmetic at `prec` significant bits.

    Each operation converts an int operand outward at prec and a
    Fraction as the quotient of its two converted terms, then rounds the
    lower end of its result down and the upper end up at prec, as
    libmpi's interval context does at that precision; an Interval
    operand is taken as it is, whatever precision formed it.
    """

    __slots__ = ("prec",)

    def __init__(self, bits: int) -> None:
        check_precision(bits)
        self.prec = bits

    @classmethod
    def _guarded(cls, bits: int) -> "IntervalContext":
        """A context past the precision cap, for an operation's own guard
        bits (as in pow); callers never ask for one."""
        ctx = object.__new__(cls)
        ctx.prec = bits
        return ctx

    def raised(self, extra: int) -> "IntervalContext":
        """This context with extra more bits."""
        return IntervalContext(self.prec + extra)

    # ---- conversion ---------------------------------------------------

    def of(self, x: Operand) -> Interval:
        if isinstance(x, Interval):
            return x
        if isinstance(x, Fraction):
            return self.fraction(x)
        p = self.prec
        return _join(_round(x, 0, p, False), _round(x, 0, p, True))

    def fraction(self, fr: Rational) -> Interval:
        """fr's numerator over its denominator, each converted outward."""
        fr = Fraction(fr)
        return self.div(fr.numerator, fr.denominator)

    def span(self, a: int, b: int) -> Interval:
        """[a, b], a <= b, each end converted outward."""
        p = self.prec
        return _join(_round(a, 0, p, False), _round(b, 0, p, True))

    # ---- arithmetic ---------------------------------------------------

    def add(self, x: Operand, y: Operand) -> Interval:
        x, y, p = self.of(x), self.of(y), self.prec
        return _join(_sum(x.lo, x.exp, y.lo, y.exp, p, False),
                     _sum(x.hi, x.exp, y.hi, y.exp, p, True))

    def sub(self, x: Operand, y: Operand) -> Interval:
        x, y, p = self.of(x), self.of(y), self.prec
        return _join(_sum(x.lo, x.exp, -y.hi, y.exp, p, False),
                     _sum(x.hi, x.exp, -y.lo, y.exp, p, True))

    def neg(self, x: Operand) -> Interval:
        x, p = self.of(x), self.prec
        return _join(_round(-x.hi, x.exp, p, False),
                     _round(-x.lo, x.exp, p, True))

    def mul(self, x: Operand, y: Operand) -> Interval:
        """The least and greatest of the endpoint products, exact before
        their rounding: libmpi's sign cases pick the same two."""
        x, y, p = self.of(x), self.of(y), self.prec
        e = x.exp + y.exp
        if x.lo >= 0 and y.lo >= 0:
            lo, hi = x.lo * y.lo, x.hi * y.hi
        elif x.hi <= 0 and y.hi <= 0:
            lo, hi = x.hi * y.hi, x.lo * y.lo
        else:
            products = (x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi)
            lo, hi = min(products), max(products)
        return _join(_round(lo, e, p, False), _round(hi, e, p, True))

    def div(self, x: Operand, y: Operand) -> Interval:
        """The least and greatest of the endpoint quotients, each rounded
        from the exact quotient; y must not reach 0."""
        x, y, p = self.of(x), self.of(y), self.prec
        if y.lo <= 0 <= y.hi:
            raise PrecisionError("interval division by an interval that "
                                 "reaches 0")
        (a, b), (c, d) = (x.lo, x.hi), (y.lo, y.hi)
        if d < 0:
            a, b, c, d = -b, -a, -d, -c
        if a >= 0:
            lo, hi = (a, d), (b, c)
        elif b <= 0:
            lo, hi = (a, c), (b, d)
        else:
            lo, hi = (a, c), (b, c)
        return _join(_quotient(lo[0], x.exp, lo[1], y.exp, p, False),
                     _quotient(hi[0], x.exp, hi[1], y.exp, p, True))

    def sqrt(self, x: Operand) -> Interval:
        x, p = self.of(x), self.prec
        if x.lo < 0:
            raise PrecisionError("sqrt of an interval that reaches below 0")
        return _join(_root(x.lo, x.exp, p, False), _root(x.hi, x.exp, p, True))

    def pow(self, x: Operand, y: Operand) -> Interval:
        """x^y as libmpi's mpi_pow forms it: an integer point y by
        _pow_int, the point 1/2 by sqrt, and any other y as
        exp(y log x), the log and the product 20 bits finer."""
        x, y = self.of(x), self.of(y)
        if y.lo == y.hi:
            if y.exp >= 0 or not y.lo & ((1 << -y.exp) - 1):
                n = y.lo << y.exp if y.exp >= 0 else y.lo >> -y.exp
                return self._pow_int(x, n)
            if Fraction(y.lo, 1 << -y.exp) == Fraction(1, 2):
                return self.sqrt(x)
        fine = IntervalContext._guarded(self.prec + 20)
        return self.exp(fine.mul(fine.log(x), y))

    def _pow_int(self, x: Interval, n: int) -> Interval:
        """libmpi's mpi_pow_int: x itself for n = 1, the image of t -> t^2
        for n = 2, endpoint powers by _power (with the sign cases of an
        even power), and 1 / x^-n, that power 20 bits finer, for n < 0."""
        p = self.prec
        if n < 0:
            return self.div(1, IntervalContext._guarded(p + 20)._pow_int(x, -n))
        if n == 0:
            return Interval(1, 1, 0)
        if n == 1:
            return x
        a, b, e = x.lo, x.hi, x.exp
        if n & 1 or a >= 0:
            lo, hi = (a, b)
        elif b <= 0:
            lo, hi = (b, a)
        else:
            lo, hi = 0, max(-a, b)
        if n == 2:
            return _join(_round(lo * lo, 2 * e, p, False),
                         _round(hi * hi, 2 * e, p, True))
        return _join(_power(lo, e, n, p, False), _power(hi, e, n, p, True))

    # ---- transcendental functions --------------------------------------

    def _monotone(self, kernel, x: Interval) -> Interval:
        """An increasing kernel's two roundings; a point takes one bracket."""
        p = self.prec
        if x.lo == x.hi:
            return _join(*_ziv(kernel, x.lo, x.exp, p, (False, True)))
        return _join(_ziv(kernel, x.lo, x.exp, p, (False,))[0],
                     _ziv(kernel, x.hi, x.exp, p, (True,))[0])

    def log(self, x: Operand) -> Interval:
        x = self.of(x)
        if x.lo <= 0:
            raise PrecisionError("log of an interval that reaches 0 or "
                                 "below")
        return self._monotone(_log_bracket, x)

    def exp(self, x: Operand) -> Interval:
        return self._monotone(_exp_bracket, self.of(x))

    @property
    def pi(self) -> Interval:
        return self._monotone(_PI, Interval(0, 0, 0))

    @property
    def e(self) -> Interval:
        return self.exp(1)

    @property
    def euler(self) -> Interval:
        return self._monotone(_EULER, Interval(0, 0, 0))
