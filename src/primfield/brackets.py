"""Certified scalar brackets with exact rational endpoints.

Anything that cannot be held as an exact rational (logs, e^gamma) is
carried as a closed interval [lo, hi] guaranteed to contain the true
value.  Transcendental steps run in mpmath's outward-rounded interval
context; endpoints come back as dyadic rationals, so every downstream
comparison is exact integer arithmetic.  mpmath is imported by the
functions that step into it, so code that only holds or prints brackets
runs without it.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator, Union

from .errors import PrecisionError, UsageError

Rational = Union[int, Fraction]

MAX_PRECISION_BITS = 4096


def check_precision(bits: int) -> None:
    """Refuse a working precision outside [8, MAX_PRECISION_BITS]."""
    if not 8 <= bits <= MAX_PRECISION_BITS:
        raise PrecisionError(f"precision {bits} outside [8, {MAX_PRECISION_BITS}]")


@contextmanager
def precision(bits: int) -> Iterator[None]:
    """Temporarily set the interval working precision."""
    from mpmath import iv
    check_precision(bits)
    old = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = old


def _endpoint_fraction(t) -> Fraction:
    """Exact value of a libmp endpoint tuple (sign, man, exp, bc)."""
    sign, man, exp, _bc = t
    man = int(man)
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise OverflowError("non-finite interval endpoint")
    exp = int(exp)
    if abs(exp) > 2**24:
        # starved precision can emit wild exponents; surface that rather
        # than materialize a denominator with 2^24-plus bits
        raise PrecisionError(f"interval endpoint exponent {exp} out of range")
    if exp >= 0:
        f = Fraction(man << exp)
    else:
        f = Fraction(man, 1 << -exp)
    return -f if sign else f


def iv_to_fractions(x) -> tuple[Fraction, Fraction]:
    """Exact (lo, hi) of an mpmath interval scalar."""
    lo_t, hi_t = x._mpi_
    return _endpoint_fraction(lo_t), _endpoint_fraction(hi_t)


def iv_from_fraction(fr: Rational):
    """Interval guaranteed to contain the rational fr (outward division)."""
    from mpmath import iv
    fr = Fraction(fr)
    return iv.mpf(fr.numerator) / fr.denominator


def iv_pointwise_max(x, y):
    """Interval image of max over two intervals: [max lo, max hi]."""
    from mpmath import iv
    return iv.mpf([max(x.a, y.a), max(x.b, y.b)])


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

    # ---- construction -------------------------------------------------

    @classmethod
    def from_iv(cls, x) -> "BracketedValue":
        lo, hi = iv_to_fractions(x)
        return cls(lo, hi)

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
