"""Outward-rounded interval layer: containment can never be lost."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import iv

from primfield.brackets import (BracketedValue, fraction_to_decimal,
                                iv_from_fraction, iv_pointwise_max,
                                iv_to_fractions, precision)
from primfield.errors import PrecisionError, UsageError

rationals = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**6)


# ----------------------------------------------------------------------
# Interval plumbing
# ----------------------------------------------------------------------

@given(rationals)
def test_iv_round_trip_contains(fr):
    with precision(64):
        lo, hi = iv_to_fractions(iv_from_fraction(fr))
    assert lo <= fr <= hi


def test_precision_context_restores():
    before = iv.prec
    with precision(333):
        assert iv.prec == 333
        with precision(64):
            assert iv.prec == 64
        assert iv.prec == 333
    assert iv.prec == before
    with pytest.raises(PrecisionError):
        with precision(0):
            pass


def test_iv_pointwise_max():
    with precision(64):
        x = iv.mpf([iv_from_fraction(Fraction(1, 3)).a,
                    iv_from_fraction(Fraction(1, 2)).b])
        y = iv.mpf([iv_from_fraction(Fraction(2, 5)).a,
                    iv_from_fraction(Fraction(3, 5)).b])
        m = iv_pointwise_max(x, y)
        lo, hi = iv_to_fractions(m)
    assert lo <= Fraction(2, 5) and hi >= Fraction(3, 5)


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
    with precision(48):
        x = iv_from_fraction(a) * iv_from_fraction(b)
        br = BracketedValue.from_iv(x)
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
