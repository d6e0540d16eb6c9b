"""Primitive sets: certificates, sums, densities, and the set file format."""

import io
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primfield.counting import mertens_exact, monic_cumulative
from primfield.errors import UsageError, VerificationError
from primfield.fieldpoly import index_degree, parse_poly
from primfield.primitive import (PolySet, assert_primitive, density_profile,
                                 erdos_sum, erdos_sum_irreducibles,
                                 is_primitive, random_primitive_set, read_set,
                                 verify_erdos_density_inequality, write_set)

from oracles import Factorization, divides


def brute_primitive(ps):
    for a in ps.indices:
        for b in ps.indices:
            if a != b and divides(ps.q, a, b):
                return False, (a, b)
    return True, None


def polyset_q2(indices, horizon=8):
    return PolySet(2, horizon, tuple(indices))


index_sets_q2 = st.sets(st.integers(2, 511), min_size=0, max_size=40)


@st.composite
def index_sets_q3(draw):
    picks = draw(st.sets(st.tuples(st.integers(1, 5), st.integers(0, 26)),
                         max_size=25))
    return {3**d + (off % 3**d) for d, off in picks}


# ----------------------------------------------------------------------
# PolySet container
# ----------------------------------------------------------------------

def test_polyset_canonicalizes_and_dedups():
    f = parse_poly("q=2;1,1,1").index
    g = parse_poly("q=2;0,1").index
    ps = PolySet(2, 5, (f, g, f))
    assert ps.indices == (g, f)
    assert len(ps) == 2 and f in ps and g in ps and 3 not in ps
    assert ps.degree_counts() == {1: 1, 2: 1}
    assert ps.max_degree == 2


def test_polyset_validation():
    with pytest.raises(UsageError):
        PolySet(2, 5, (1,))  # units carry no divisibility data
    with pytest.raises(UsageError):
        PolySet(2, 2, (parse_poly("q=2;1,1,0,1").index,))  # beyond horizon
    with pytest.raises(UsageError):
        PolySet(3, 5, (6,))  # 6 = 20 in base 3 is not monic
    with pytest.raises(UsageError):
        PolySet(2, 5, (0,))
    with pytest.raises(UsageError):
        PolySet(2, 0, ())


def test_set_file_round_trip():
    ps = polyset_q2({2, 7, 11, 97})
    buf = io.StringIO()
    write_set(ps, buf)
    back = read_set(io.StringIO(buf.getvalue()))
    assert back == ps
    text = "q=2;horizon=6\n# comment\n\n0,1\n13\n"
    got = read_set(io.StringIO(text))
    assert got.indices == (2, 13)


@pytest.mark.parametrize("q,index", [
    (2, 2**70 + 12345),               # past any fixed-width integer
    (37, 36 + 10 * 37 + 37**2),       # two-digit coefficients 36, 10, 1
])
def test_set_file_round_trip_wide_members(q, index):
    ps = PolySet(q, 70, (index, q + 1))
    buf = io.StringIO()
    write_set(ps, buf)
    text = buf.getvalue()
    back = read_set(io.StringIO(text))
    assert back == ps and type(back.indices[-1]) is int
    again = io.StringIO()
    write_set(back, again)
    assert again.getvalue() == text
    d = index_degree(q, index)
    assert erdos_sum(back) == Fraction(1, q) + Fraction(1, d * q**d)
    rows = density_profile(back)
    assert rows[d - 1].count == 2 and rows[d - 2].count == 1
    assert rows[-1].ratio == Fraction(2, monic_cumulative(q, 70))


def test_set_file_errors_carry_line_numbers():
    with pytest.raises(UsageError):
        read_set(io.StringIO(""))
    with pytest.raises(UsageError, match="header"):
        read_set(io.StringIO("hello\n"))
    with pytest.raises(UsageError, match="line 3"):
        read_set(io.StringIO("q=2;horizon=6\n0,1\n1,2\n"))
    with pytest.raises(UsageError, match="duplicate"):
        read_set(io.StringIO("q=2;horizon=6\n0,1\n2\n"))
    rejected = [
        ("q=2;horizon=6\n0,1\nq=3;0,1\n", "line 3: expected q=2, got q=3"),
        ("q=3;horizon=6\nq=3;0,2\n", "line 2: leading coefficient must be 1"),
        ("q=3;horizon=6\nq=3;0,3,1\n",
         "line 2: coefficients must lie in [0, 3)"),
        ("q=3;horizon=6\n0,3,1\n", "line 2: cannot parse polynomial '0,3,1'"),
        ("q=3;horizon=6\n18\n", "line 2: cannot parse polynomial '18'"),
        ("q=2;horizon=6\n0,1\n1\n",
         "set file invalid: members must be non-unit (degree >= 1)"),
        ("q=2;horizon=2\n0,1\nq=2;1,1,0,1\n",
         "set file invalid: member q=2;1,1,0,1 exceeds horizon 2"),
    ]
    for text, message in rejected:
        with pytest.raises(UsageError) as info:
            read_set(io.StringIO(text))
        assert str(info.value) == message


# ----------------------------------------------------------------------
# Primitivity
# ----------------------------------------------------------------------

def test_is_primitive_known_cases():
    ok, witness = is_primitive(polyset_q2({2, 3, 7, 11, 13}))
    assert ok and witness is None
    ok, witness = is_primitive(polyset_q2({2, 6}))  # x divides x^2 + x
    assert not ok and witness == (2, 6)
    with pytest.raises(VerificationError):
        assert_primitive(polyset_q2({2, 6}))
    assert_primitive(polyset_q2({3, 7}))


@settings(max_examples=60, deadline=None)
@given(indices=index_sets_q2)
def test_methods_agree_with_brute_force_q2(sieve2, indices):
    ps = polyset_q2(indices)
    want_ok, _ = brute_primitive(ps)
    for method in ("pairwise", "divisors"):
        ok, witness = is_primitive(ps, sieve=sieve2, method=method)
        assert ok == want_ok
        if not ok:
            a, b = witness
            assert a in ps and b in ps and a != b
            assert divides(2, a, b)


@settings(max_examples=30, deadline=None)
@given(indices=index_sets_q3())
def test_methods_agree_with_brute_force_q3(sieve3, indices):
    ps = PolySet(3, 5, tuple(indices))
    want_ok, _ = brute_primitive(ps)
    for method in ("pairwise", "divisors"):
        assert is_primitive(ps, sieve=sieve3, method=method)[0] == want_ok


def test_single_degree_fast_path():
    ps = PolySet(2, 9, tuple(range(2**9, 2**10)))
    assert is_primitive(ps, method="pairwise") == (True, None)


def test_is_primitive_guards():
    with pytest.raises(UsageError):
        is_primitive(polyset_q2({2, 6}), method="magic")


# ----------------------------------------------------------------------
# Erdos sums
# ----------------------------------------------------------------------

def test_erdos_sum_matches_manual():
    ps = polyset_q2({2, 3, 7})  # x, x+1 at degree 1; x^2+x+1
    assert erdos_sum(ps) == Fraction(2, 2) + Fraction(1, 4 * 2)
    assert erdos_sum(PolySet(2, 4, ())) == 0


def test_erdos_sum_irreducibles_nested_and_strict():
    prev = None
    for eps in (Fraction(1, 50), Fraction(1, 100), Fraction(1, 200)):
        b = erdos_sum_irreducibles(2, eps)
        assert b.width < eps
        if prev is not None:
            assert prev.contains_bracket(b)
        prev = b
    frozen = erdos_sum_irreducibles(2, Fraction(1, 160))
    assert frozen.to_json(12) == {"lo": "1.461468293162",
                                  "hi": "1.467679473288"}
    with pytest.raises(UsageError):
        erdos_sum_irreducibles(2, 0)


# ----------------------------------------------------------------------
# Density
# ----------------------------------------------------------------------

def test_density_profile_manual():
    ps = polyset_q2({2, 3, 7}, horizon=3)
    rows = density_profile(ps)
    assert [(r.n, r.count) for r in rows] == [(1, 2), (2, 3), (3, 3)]
    assert rows[0].ratio == Fraction(2, 3)  # M(1) counts the unit too
    assert rows[1].ratio == Fraction(3, 7)
    assert rows[2].running_max == Fraction(2, 3)


def test_density_inequality_matches_direct_oracle(sieve2):
    for seed in range(8):
        ps = random_primitive_set(2, 9, seed, per_degree=5)
        report = verify_erdos_density_inequality(ps, sieve=sieve2)
        direct = Fraction(0)
        for i in ps.indices:
            m = Factorization.of(sieve2, i).max_factor_degree
            direct += mertens_exact(2, m) / 2**index_degree(2, i)
        assert report.lhs == direct
        assert report.ok and direct <= 1
        assert report.size == len(ps)


@pytest.mark.parametrize("degree", [12, 13])
def test_density_report_summarizes_huge_numerators(sieve2, degree):
    # one irreducible of degree 13 gives a 16,218-bit numerator, past the
    # 4300-digit limit of int -> str conversion
    p = int(sieve2.irreducible_indices(degree)[0])
    report = verify_erdos_density_inequality(PolySet(2, degree, (p,)),
                                             sieve=sieve2)
    num = report.lhs.numerator
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = f"{num % 10**30}... (len {len(str(num))})"
    finally:
        sys.set_int_max_str_digits(old_limit)
    assert report.to_json()["lhs"] == want
    assert report.ok and report.to_json()["by_level"] == [[degree, 1]]


def test_density_inequality_can_fail_off_antichains(sieve2):
    members = tuple(range(2, 2**9))
    report = verify_erdos_density_inequality(PolySet(2, 8, members),
                                             sieve=sieve2)
    assert not report.ok and report.lhs > 1


# ----------------------------------------------------------------------
# Random generator
# ----------------------------------------------------------------------

def test_random_primitive_set_deterministic_and_primitive(sieve2):
    a = random_primitive_set(2, 10, 42, per_degree=6)
    b = random_primitive_set(2, 10, 42, per_degree=6)
    assert a == b
    assert a.max_degree <= 10
    assert_primitive(a, sieve=sieve2)
    c = random_primitive_set(2, 10, 43, per_degree=6)
    assert c != a
    assert max(a.degree_counts().values()) <= 6
