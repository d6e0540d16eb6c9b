"""Polynomial kernel against coefficient-level and product-set oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primfield.constructions import divisor_degree_masks
from primfield.errors import UsageError
from primfield.fieldpoly import (MonicPoly, build_factor_sieve, format_index,
                                 format_poly, index_degree, index_divrem,
                                 index_mul, is_prime, parse_index, parse_poly)

from oracles import Factorization, divides, is_irreducible

QS = (2, 3, 5)


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------

def naive_mul(q, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return tuple(out)


def naive_add(q, a, b):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return tuple((x + y) % q for x, y in zip(a, b))


def digits_value(q, digits):
    return sum(c * q**i for i, c in enumerate(digits))


def value_digits(q, v):
    out = []
    while v:
        v, r = divmod(v, q)
        out.append(r)
    return tuple(out)


def reducible_indices(q, n):
    """Every product g*h with deg g + deg h = n, both factors proper."""
    out = set()
    for a in range(1, n // 2 + 1):
        for g in range(q**a, 2 * q**a):
            for h in range(q**(n - a), 2 * q**(n - a)):
                out.add(index_mul(q, g, h))
    return out


@st.composite
def monic_polys(draw, max_degree=6):
    q = draw(st.sampled_from(QS))
    d = draw(st.integers(0, max_degree))
    low = draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d))
    return MonicPoly(q, tuple(low) + (1,))


@st.composite
def monic_pairs(draw, max_degree=6):
    q = draw(st.sampled_from(QS))

    def poly():
        d = draw(st.integers(0, max_degree))
        low = draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d))
        return MonicPoly(q, tuple(low) + (1,))

    return poly(), poly()


# ----------------------------------------------------------------------
# Construction and encoding
# ----------------------------------------------------------------------

def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(2, 50) if is_prime(n)} == primes
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


def test_monicpoly_validation():
    with pytest.raises(UsageError):
        MonicPoly(4, (1,))
    with pytest.raises(UsageError):
        MonicPoly(2, ())
    with pytest.raises(UsageError):
        MonicPoly(2, (1, 0))
    with pytest.raises(UsageError):
        MonicPoly(3, (3, 1))
    with pytest.raises(UsageError):
        MonicPoly.from_index(2, 0)
    with pytest.raises(UsageError):
        MonicPoly.from_index(3, 2 * 3**4)


@given(monic_polys())
def test_index_round_trip(f):
    assert MonicPoly.from_index(f.q, f.index) == f
    assert index_degree(f.q, f.index) == f.degree


@pytest.mark.parametrize("q", QS)
def test_degree_slice_is_index_interval(q):
    for d in range(0, 4):
        polys = [MonicPoly.from_index(q, i) for i in range(q**d, 2 * q**d)]
        assert all(f.degree == d for f in polys)
        # q^d distinct monic polynomials: the whole degree-d slice
        assert len({f.coeffs for f in polys}) == q**d


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------

@given(monic_pairs())
def test_index_mul_matches_poly_mul(pair):
    a, b = pair
    want = MonicPoly(a.q, naive_mul(a.q, a.coeffs, b.coeffs))
    assert index_mul(a.q, a.index, b.index) == want.index


@given(monic_pairs())
def test_divrem_identity(pair):
    # a = quot * b + rem with deg rem < deg b determines both uniquely
    a, b = pair
    q = a.q
    quot, rem = index_divrem(q, a.index, b.index)
    assert rem < q**b.degree
    recon = naive_add(q, naive_mul(q, value_digits(q, quot), b.coeffs),
                      value_digits(q, rem))
    assert digits_value(q, recon) == a.index


def test_divides_exhaustive_small():
    for q, dmax in ((2, 5), (3, 3)):
        polys = [i for d in range(0, dmax + 1) for i in range(q**d, 2 * q**d)]
        for g in polys:
            for f in polys:
                e = index_degree(q, f) - index_degree(q, g)
                expected = e >= 0 and any(index_mul(q, g, h) == f
                                          for h in range(q**e, 2 * q**e))
                assert divides(q, g, f) == expected


# ----------------------------------------------------------------------
# Irreducibility and factorization
# ----------------------------------------------------------------------

@pytest.mark.parametrize("q,nmax", [(2, 8), (3, 5)])
def test_is_irreducible_matches_product_sets(q, nmax):
    for n in range(1, nmax + 1):
        red = reducible_indices(q, n)
        for f in range(q**n, 2 * q**n):
            assert is_irreducible(q, f) == (f not in red)


def test_sieve_irreducibles_match_trial_division(sieve2, sieve3):
    for sieve, nmax in ((sieve2, 8), (sieve3, 5)):
        q = sieve.q
        for n in range(1, nmax + 1):
            got = set(int(i) for i in sieve.irreducible_indices(n))
            want = {f for f in range(q**n, 2 * q**n) if is_irreducible(q, f)}
            assert got == want


@pytest.mark.parametrize("q,horizon",
                         [(2, 12), (2, 13), (3, 6), (3, 7), (5, 4), (5, 5)])
def test_sieve_matches_product_sets_through_horizon(q, horizon):
    """Every slot up to the horizon degree, both horizon parities."""
    irreducibles = []  # (degree, index) order
    for n in range(1, horizon + 1):
        red = reducible_indices(q, n)
        irreducibles += [i for i in range(q**n, 2 * q**n) if i not in red]
    least = {}
    for p in irreducibles:
        for e in range(1, horizon - index_degree(q, p) + 1):
            for g in range(q**e, 2 * q**e):
                least.setdefault(index_mul(q, p, g), p)
    irr_set = set(irreducibles)
    sieve = build_factor_sieve(q, horizon)
    spf, cof = sieve.spf.tolist(), sieve.cof.tolist()
    for i in (i for n in range(1, horizon + 1)
              for i in range(q**n, 2 * q**n)):
        if i in irr_set:
            assert spf[i] == i and i not in least, i
        else:
            assert spf[i] == least[i], i
        assert index_mul(q, spf[i], cof[i]) == i, i


def test_factorize_reconstructs_everything(sieve2, sieve3):
    for sieve, nmax in ((sieve2, 10), (sieve3, 6)):
        q = sieve.q
        for n in range(1, nmax + 1):
            for f in range(q**n, 2 * q**n):
                fac = Factorization.of(sieve, f)
                assert fac.product() == f
                assert sum(fac.degrees()) == n
                assert all(sieve.spf[p] == p for p, _ in fac.factors)
                keys = [p for p, _ in fac.factors]
                assert keys == sorted(set(keys))
                assert fac.omega == len(keys)
                assert fac.big_omega >= fac.omega


def test_factorization_flags(sieve2):
    x2 = parse_poly("q=2;0,0,1").index  # x^2
    fac = Factorization.of(sieve2, x2)
    assert not fac.is_squarefree and fac.omega == 1 and fac.big_omega == 2
    assert fac.max_factor_degree == 1
    assert not sieve2.squarefree_flags()[x2]
    assert sieve2.factor_counts()[x2] == 1
    assert sieve2.max_factor_degrees()[x2] == 1
    g = parse_poly("q=2;1,1,1").index
    assert Factorization.of(sieve2, g).is_squarefree
    assert sieve2.squarefree_flags()[g]


def test_divisor_degree_mask_matches_divisor_scan(sieve2):
    masks = divisor_degree_masks(sieve2)
    for n in range(1, 9):
        for f in range(2**n, 2**(n + 1)):
            degrees = {index_degree(2, g) for g in range(1, 2**(n + 1))
                       if divides(2, g, f)}
            for mask in (int(masks[f]),
                         Factorization.of(sieve2, f).divisor_degree_mask):
                assert degrees == {b for b in range(n + 1) if mask >> b & 1}


@pytest.mark.parametrize("q,horizon", [(2, 12), (3, 7), (5, 5)])
def test_fold_arrays_match_factorization_oracle(q, horizon):
    """The four sieve folds at every index through the horizon."""
    sieve = build_factor_sieve(q, horizon)
    masks = divisor_degree_masks(sieve).tolist()
    top = sieve.max_factor_degrees().tolist()
    sqf = sieve.squarefree_flags().tolist()
    omega = sieve.factor_counts().tolist()
    assert (masks[1], top[1], sqf[1], omega[1]) == (1, 0, True, 0)
    for n in range(1, horizon + 1):
        for f in range(q**n, 2 * q**n):
            fac = Factorization.of(sieve, f)
            assert masks[f] == fac.divisor_degree_mask, f
            assert top[f] == fac.max_factor_degree, f
            assert sqf[f] == fac.is_squarefree, f
            assert omega[f] == fac.omega, f


# ----------------------------------------------------------------------
# Text format
# ----------------------------------------------------------------------

@given(monic_polys())
def test_format_parse_round_trip(f):
    assert parse_poly(format_poly(f)) == f
    assert format_index(f.q, f.index) == format_poly(f)
    assert parse_index(format_poly(f)) == (f.q, f.index)
    assert parse_poly(str(f.index), q=f.q) == f
    assert parse_poly(",".join(str(c) for c in f.coeffs), q=f.q) == f


def test_parse_poly_rejects_garbage():
    for text in ("", "q=2;", "q=2;1,2", "q=6;1,1", "q=2;0,0", "nope", "1,0"):
        with pytest.raises(UsageError):
            parse_poly(text, q=2)
    with pytest.raises(UsageError):
        parse_poly("3")  # bare index needs q
