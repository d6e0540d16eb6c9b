"""Outward-rounded interval layer: containment can never be lost, and
every endpoint is mpmath's."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import iv

from primfield import brackets
from primfield.brackets import (BracketedValue, Interval, IntervalContext,
                                fraction_to_decimal)
from primfield.errors import PrecisionError, UsageError

from oracles import mp_fraction, mp_fractions, mp_precision

rationals = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**6)


# ----------------------------------------------------------------------
# Interval plumbing
# ----------------------------------------------------------------------

@given(rationals)
def test_iv_round_trip_contains(fr):
    b = IntervalContext(64).fraction(fr).bracket()
    assert b.lo <= fr <= b.hi


def test_precision_context_restores():
    """A context's precision is its own: a raised one leaves the base one
    as it was, and a precision outside [8, 4096] is refused."""
    base = IntervalContext(333)
    fine = base.raised(64)
    assert (base.prec, fine.prec) == (333, 397)
    third = Fraction(1, 3)
    assert base.fraction(third).bracket().width > \
        fine.fraction(third).bracket().width > 0
    assert IntervalContext(333).fraction(third).bracket() == \
        base.fraction(third).bracket()
    for bits in (0, 7, 4097):
        with pytest.raises(PrecisionError):
            IntervalContext(bits)
    with pytest.raises(PrecisionError):
        IntervalContext(4096).raised(1)


def _hull(a, b):
    """The Interval from a's lower end to b's upper end."""
    e = min(a.exp, b.exp)
    return Interval(a.lo << (a.exp - e), b.hi << (b.exp - e), e)


def test_iv_pointwise_max():
    ctx = IntervalContext(64)
    x = _hull(ctx.fraction(Fraction(1, 3)), ctx.fraction(Fraction(1, 2)))
    y = ctx.span(2, 3)
    m = x.max(y).bracket()
    assert (m.lo, m.hi) == (2, 3)
    m = x.max(ctx.fraction(Fraction(2, 5))).bracket()
    assert m.lo <= Fraction(2, 5) and m.hi >= Fraction(1, 2)


def test_operations_that_leave_the_reals_are_refused():
    ctx = IntervalContext(64)
    with pytest.raises(PrecisionError, match="reaches 0"):
        ctx.div(1, ctx.span(-1, 1))
    with pytest.raises(PrecisionError, match="reaches 0 or below"):
        ctx.log(ctx.span(0, 1))
    with pytest.raises(PrecisionError, match="below 0"):
        ctx.sqrt(ctx.span(-1, 1))
    with pytest.raises(PrecisionError, match="outside the interval range"):
        ctx.exp(2**31)
    with pytest.raises(PrecisionError, match="exponent .* out of range"):
        Interval(1, 1, -2**25).bracket()


# ----------------------------------------------------------------------
# BracketedValue semantics
# ----------------------------------------------------------------------

def test_bracket_validation_and_accessors():
    b = BracketedValue(Fraction(1, 3), Fraction(1, 2))
    assert b.width == Fraction(1, 6)
    assert (b.lo, b.hi) == (Fraction(1, 3), Fraction(1, 2))
    c = BracketedValue(1, 2)
    assert type(c.lo) is Fraction and type(c.hi) is Fraction
    assert BracketedValue(7, 7).width == 0
    with pytest.raises(UsageError):
        BracketedValue(Fraction(1), Fraction(0))
    with pytest.raises(UsageError,
                       match="^bracket endpoints out of order: 1 > 0$"):
        BracketedValue(1, 0)


@given(rationals, rationals)
def test_from_iv_outward(a, b):
    ctx = IntervalContext(48)
    br = ctx.mul(ctx.fraction(a), ctx.fraction(b)).bracket()
    assert br.lo <= a * b <= br.hi


def test_strict_comparisons_need_disjoint_brackets():
    a = BracketedValue(Fraction(0), Fraction(1))
    b = BracketedValue(Fraction(1, 2), Fraction(2))
    c = BracketedValue(Fraction(3, 2), Fraction(3))
    assert not a.strictly_below(b)  # overlap is not a proof
    assert a.strictly_below(c)
    assert not c.strictly_below(a)
    touching = BracketedValue(Fraction(1), Fraction(2))
    assert not a.strictly_below(touching)  # a shared endpoint is not either


# ----------------------------------------------------------------------
# Decimal rendering
# ----------------------------------------------------------------------

def test_fraction_to_decimal_directions():
    assert fraction_to_decimal(Fraction(1, 3), 5, "floor") == "0.33333"
    assert fraction_to_decimal(Fraction(1, 3), 5, "ceil") == "0.33334"
    assert fraction_to_decimal(Fraction(-1, 3), 4, "floor") == "-0.3334"
    assert fraction_to_decimal(Fraction(-1, 3), 4, "ceil") == "-0.3333"
    assert fraction_to_decimal(Fraction(1, 8), 3, "floor") == "0.125"
    assert fraction_to_decimal(Fraction(1, 8), 3, "ceil") == "0.125"
    with pytest.raises(UsageError):
        fraction_to_decimal(Fraction(1, 3), 3, "nearest")


@given(rationals, st.integers(1, 12))
def test_decimal_round_trip_never_narrows(fr, digits):
    lo = Fraction(fraction_to_decimal(fr, digits, "floor"))
    hi = Fraction(fraction_to_decimal(fr, digits, "ceil"))
    assert lo <= fr <= hi
    assert hi - lo <= Fraction(1, 10**digits)


def test_bracket_to_json_brackets_the_value():
    b = BracketedValue(Fraction(1, 3), Fraction(1, 3))
    d = b.to_json(digits=10)
    assert Fraction(d["lo"]) <= Fraction(1, 3) <= Fraction(d["hi"])
    assert (d["lo"], d["hi"]) == ("0.3333333333", "0.3333333334")


# ----------------------------------------------------------------------
# The backend against mpmath's interval context
# ----------------------------------------------------------------------

BITS = (16, 53, 128, 300, 1024, 4096)


def _rounded(fr, p, up):
    """fr rounded to p significant bits, toward +inf if up."""
    if not fr:
        return Fraction(0)
    s = p - 1 - abs(fr.numerator).bit_length() + fr.denominator.bit_length()
    while abs(fr) * Fraction(2)**s >= 2**p:
        s -= 1
    while abs(fr) * Fraction(2)**s < 2**(p - 1):
        s += 1
    x = fr * Fraction(2)**s
    n = -(-x.numerator // x.denominator) if up else \
        x.numerator // x.denominator
    return n / Fraction(2)**s


def _mp_interval(x):
    """The Interval x, exactly, as an mpmath interval."""
    ends = []
    for fr in x.bracket().lo, x.bracket().hi:
        with mp_precision(max(8, abs(fr.numerator).bit_length())):
            ends.append(iv.ldexp(iv.mpf(fr.numerator),
                                 1 - fr.denominator.bit_length()))
    return iv.mpf([ends[0], ends[1]])


def _ends(x):
    b = x.bracket()
    return b.lo, b.hi


def _n_args(p):
    return 12 if p >= 1024 else 40


def _dyadic(rng, p, lo_exp, hi_exp, signed=False):
    """A random p-bit dyadic with binary exponent in [lo_exp, hi_exp)."""
    m = rng.getrandbits(p) | 1 << (p - 1)
    fr = Fraction(m) * Fraction(2)**(rng.randrange(lo_exp, hi_exp) - p)
    return -fr if signed and rng.random() < 0.5 else fr


def _interval(ctx, rng, p, lo_exp, hi_exp, signed=False):
    """A random non-point interval of p-bit ends, and sometimes a point."""
    a = _dyadic(rng, p, lo_exp, hi_exp, signed)
    if rng.random() < 0.3:
        return ctx.fraction(a)
    b = a + abs(a) * Fraction(rng.randrange(1, 1000), 10**rng.randrange(3, 9))
    return _hull(ctx.fraction(a), ctx.fraction(b))


def _correctly_rounded(ours, theirs, fine, p):
    """ours holds mpmath's interval at more than twice p bits, fine, and is
    its ends rounded outward to p bits; so is theirs, mpmath's p-bit
    interval, wherever its end is that rounding."""
    lo, hi = _ends(ours)
    f_lo, f_hi = mp_fractions(fine)
    assert lo <= f_lo and f_hi <= hi
    want = (_rounded(f_lo, p, False), _rounded(f_hi, p, True))
    assert (lo, hi) == want
    for got, mp_end, exact in zip((lo, hi), mp_fractions(theirs), want):
        if mp_end == exact:
            assert got == mp_end


def _outward(values, p):
    return _rounded(min(values), p, False), _rounded(max(values), p, True)


@pytest.mark.parametrize("p", BITS)
def test_conversions_and_arithmetic_equal_mpmath(p):
    """int and Fraction conversion, +, -, *, / and negation: each end is
    the exact result rounded outward once, and mpmath's."""
    rng = random.Random(p)
    ctx = IntervalContext(p)
    for _ in range(_n_args(p)):
        n = rng.getrandbits(rng.randrange(1, 2 * p)) * rng.choice((1, -1))
        fr = Fraction(rng.getrandbits(2 * p) + 1, rng.getrandbits(p) + 1)
        x = _interval(ctx, rng, p, -200, 200, signed=True)
        y = _interval(ctx, rng, p, -200, 200, signed=True)
        mx, my = _mp_interval(x), _mp_interval(y)
        ex, ey = _ends(x), _ends(y)
        products = [a * b for a in ex for b in ey]
        with mp_precision(p):
            cases = [
                (ctx.of(n), iv.mpf(n), _outward([Fraction(n)], p)),
                (ctx.fraction(fr), mp_fraction(fr), None),
                (ctx.add(x, y), mx + my, _outward([ex[0] + ey[0],
                                                   ex[1] + ey[1]], p)),
                (ctx.sub(x, y), mx - my, _outward([ex[0] - ey[1],
                                                   ex[1] - ey[0]], p)),
                (ctx.mul(x, y), mx * my, _outward(products, p)),
                (ctx.neg(x), -mx, _outward([-ex[1], -ex[0]], p)),
                (ctx.add(x, 1), mx + 1, _outward([ex[0] + 1, ex[1] + 1], p)),
            ]
            if not ey[0] <= 0 <= ey[1]:
                cases.append((ctx.div(x, y), mx / my,
                              _outward([a / b for a in ex for b in ey], p)))
            for ours, theirs, want in cases:
                assert _ends(ours) == mp_fractions(theirs)
                if want is not None:
                    assert _ends(ours) == want
        f = ctx.fraction(fr).bracket()
        assert f.lo <= fr <= f.hi


# name: (argument interval maker, the function on a context, on mpmath)
FUNCTIONS = {
    "sqrt": (lambda ctx, rng, p: _interval(ctx, rng, p, -300, 300),
             lambda ctx, x: ctx.sqrt(x), iv.sqrt),
    "log": (lambda ctx, rng, p: _interval(ctx, rng, p, -300, 300),
            lambda ctx, x: ctx.log(x), iv.log),
    "log near 1": (lambda ctx, rng, p: ctx.add(1, ctx.fraction(
                       _dyadic(rng, p, -2 * p, -1, signed=True))),
                   lambda ctx, x: ctx.log(x), iv.log),
    "exp": (lambda ctx, rng, p: _interval(ctx, rng, p, -8, 10, signed=True),
            lambda ctx, x: ctx.exp(x), iv.exp),
    "exp near 0": (lambda ctx, rng, p: ctx.fraction(
                       _dyadic(rng, p, -3 * p, -8, signed=True)),
                   lambda ctx, x: ctx.exp(x), iv.exp),
}


@pytest.mark.parametrize("p", BITS)
@pytest.mark.parametrize("name", FUNCTIONS)
def test_functions_are_correctly_rounded_and_equal_mpmath(name, p):
    """sqrt, log and exp over seeded arguments: each end is the rounding of
    the value mpmath brackets at 2p + 64 bits, and so mpmath's own p-bit
    end wherever that is the rounding.  mpmath keeps a fixed count of
    guard bits, so near a rounding boundary its end can miss: log(1 +
    2^-52) at 53 bits is one such (test_mpmaths_ends_can_miss_the_value)."""
    make, ours, theirs = FUNCTIONS[name]
    rng = random.Random(f"{name} {p}")
    ctx = IntervalContext(p)
    for _ in range(_n_args(p)):
        x = make(ctx, rng, p)
        mx = _mp_interval(x)
        got = ours(ctx, x)
        with mp_precision(p):
            want = theirs(mx)
        with mp_precision(2 * p + 64):
            _correctly_rounded(got, want, theirs(mx), p)


@pytest.mark.parametrize("p", BITS)
def test_constants_are_correctly_rounded_and_equal_mpmath(p):
    ctx = IntervalContext(p)
    for ours, theirs in ((ctx.pi, lambda: iv.pi), (ctx.e, lambda: iv.e),
                         (ctx.euler, lambda: iv.euler)):
        with mp_precision(p):
            assert _ends(ours) == mp_fractions(+theirs())
            want = +theirs()
        with mp_precision(2 * p + 64):
            _correctly_rounded(ours, want, +theirs(), p)


@pytest.mark.parametrize("p", BITS)
def test_powers_equal_mpmath(p):
    """x^y as mpmath's mpi_pow forms it, for y a non-integer, 1/2, and the
    integers 2, 3, 7 and -2; each holds the power of every point."""
    rng = random.Random(f"pow {p}")
    ctx = IntervalContext(p)
    for _ in range(_n_args(p)):
        x = _interval(ctx, rng, p, -20, 20)
        y = ctx.fraction(Fraction(rng.randrange(-5000, 5000), 997))
        mx, my = _mp_interval(x), _mp_interval(y)
        for exponent, mexp in ((y, my), (Fraction(1, 2), iv.mpf(0.5)),
                               (2, 2), (3, 3), (7, 7), (-2, -2)):
            got = ctx.pow(x, exponent)
            with mp_precision(p):
                assert _ends(got) == mp_fractions(mx**mexp), exponent
            with mp_precision(2 * p + 64):
                f_lo, f_hi = mp_fractions(mx**mexp)
            assert _ends(got)[0] <= f_lo and f_hi <= _ends(got)[1]


def test_an_integer_power_past_mpmaths_exact_range_is_its_cut_powering():
    """bc * n >= 1000: mpmath cuts each product of its binary powering,
    and so does the backend, to the same ends."""
    rng = random.Random(5)
    ctx = IntervalContext(400)
    for _ in range(20):
        x = _interval(ctx, rng, 400, -4, 4, signed=True)
        with mp_precision(400):
            for n in (3, 4, 5, 11):
                assert _ends(ctx.pow(x, n)) == mp_fractions(_mp_interval(x)**n)


def test_mpmaths_ends_can_miss_the_value():
    """mpmath's iv.exp at 16 bits and iv.log at 53 keep a fixed count of
    guard bits, and for these arguments an upper end falls below the
    value; the backend's ends hold it."""
    for p, x, f, ours in (
            (16, Interval(22795, 22795, -7), iv.exp,           # ~178.09
             lambda ctx, x: ctx.exp(x)),
            (53, Interval(2**52 + 1, 2**52 + 1, -52), iv.log,  # 1 + 2^-52
             lambda ctx, x: ctx.log(x))):
        mx = _mp_interval(x)
        with mp_precision(p):
            theirs = mp_fractions(f(mx))
        with mp_precision(400):
            f_lo, f_hi = mp_fractions(f(mx))
        lo, hi = _ends(ours(IntervalContext(p), x))
        assert lo <= f_lo and f_hi <= hi
        assert theirs[1] < f_lo


def test_ziv_reforms_a_bracket_until_its_ends_round_alike(monkeypatch):
    """With no bits past the target the first brackets seldom round alike;
    each retry doubles the working bits, and the result is unchanged."""
    ctx = IntervalContext(64)
    want = [_ends(ctx.log(n)) for n in range(2, 60)]
    monkeypatch.setattr(brackets, "_ZIV_EXTRA_BITS", -40)
    assert [_ends(ctx.log(n)) for n in range(2, 60)] == want
