"""Polynomial kernel against coefficient-level and product-set oracles."""

import random
import tracemalloc
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primfield.errors import BudgetError, UsageError
from primfield.fieldpoly import (format_index, index_degree, index_divrem,
                                 is_prime, parse_index)
from primfield import sieve
from primfield.irreducibles import pi_cumulative, pi_prime
from primfield.sieve import (block_multiples, index_multiples,
                             irreducibles_at, monic_multiples, multiples_pass)

from oracles import (Factorization, build_factor_sieve, divides,
                     divisor_degree_masks, full_irreducible_slice, index_mul,
                     is_irreducible, is_prime_trial, sieve_irreducibles,
                     wheel_slice)

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


def monic_coeffs(draw, q, max_degree):
    d = draw(st.integers(0, max_degree))
    low = draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d))
    return tuple(low) + (1,)


@st.composite
def monic_polys(draw, max_degree=6):
    """(q, coeffs) of a monic polynomial, coefficients low degree first."""
    q = draw(st.sampled_from(QS))
    return q, monic_coeffs(draw, q, max_degree)


@st.composite
def monic_pairs(draw, max_degree=6):
    """(q, a, b): two monic polynomials over one field as coefficients."""
    q = draw(st.sampled_from(QS))
    return q, monic_coeffs(draw, q, max_degree), monic_coeffs(draw, q,
                                                              max_degree)


# ----------------------------------------------------------------------
# Construction and encoding
# ----------------------------------------------------------------------

def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(2, 50) if is_prime(n)} == primes
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == is_prime_trial(n) for n in range(-2, 200_000))


def test_is_prime_large():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base
    # 2 .. 31, respectively
    for n in (3215031751, 3825123056546413051):
        assert not is_prime(n) and not is_prime_trial(n)
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (2**43 - 1))
    psi12 = 318665857834031151167461
    assert not is_prime(psi12 - 2)   # even
    for n in (psi12, psi12 + 2, 2**89 - 1):
        with pytest.raises(UsageError, match="past exact primality"):
            is_prime(n)


def test_monicpoly_validation():
    # field order not prime; empty coefficient list; leading coefficient
    # 0; coefficient 3 at q=3; bare index 0; bare index with leading
    # base-3 digit 2
    for text, q in (("q=4;1", None), ("1", 4), ("q=2;", None), ("", 2),
                    ("q=2;1,0", None), ("1,0", 2), ("q=3;3,1", None),
                    ("3,1", 3), ("0", 2), (str(2 * 3**4), 3)):
        with pytest.raises(UsageError):
            parse_index(text, q)


@given(monic_polys())
def test_index_round_trip(f):
    q, coeffs = f
    index = parse_index(",".join(map(str, coeffs)), q)[1]
    assert format_index(q, index) == f"q={q};" + ",".join(map(str, coeffs))
    assert index_degree(q, index) == len(coeffs) - 1


@pytest.mark.parametrize("q", QS)
def test_degree_slice_is_index_interval(q):
    for d in range(0, 4):
        texts = [format_index(q, i) for i in range(q**d, 2 * q**d)]
        coeffs = [tuple(map(int, t.partition(";")[2].split(",")))
                  for t in texts]
        assert all(len(c) == d + 1 and c[-1] == 1 for c in coeffs)
        # q^d distinct monic polynomials: the whole degree-d slice
        assert len(set(coeffs)) == q**d
        assert [parse_index(t) for t in texts] == [
            (q, i) for i in range(q**d, 2 * q**d)]


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------

@given(monic_pairs())
def test_index_mul_matches_poly_mul(pair):
    q, a, b = pair
    want = digits_value(q, naive_mul(q, a, b))
    assert index_mul(q, digits_value(q, a), digits_value(q, b)) == want


@given(monic_pairs())
def test_divrem_identity(pair):
    # a = quot * b + rem with deg rem < deg b determines both uniquely
    q, a, b = pair
    quot, rem = index_divrem(q, digits_value(q, a), digits_value(q, b))
    assert rem < q**(len(b) - 1)
    recon = naive_add(q, naive_mul(q, value_digits(q, quot), b),
                      value_digits(q, rem))
    assert digits_value(q, recon) == digits_value(q, a)


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
            got = set(int(i) for i in sieve_irreducibles(sieve, n))
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
    x2 = parse_index("q=2;0,0,1")[1]  # x^2
    fac = Factorization.of(sieve2, x2)
    assert not fac.is_squarefree and fac.omega == 1 and fac.big_omega == 2
    assert fac.max_factor_degree == 1
    assert not sieve2.squarefree_flags()[x2]
    assert sieve2.factor_counts()[x2] == 1
    assert sieve2.max_factor_degrees()[x2] == 1
    g = parse_index("q=2;1,1,1")[1]
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


# 16 products a block: q = 2, 3, 5 and 7 have tables of 16, 9, 5 and 7
# products, so the ranges below cross block edges
BLOCK_SIZES = (sieve.BLOCK, 16)


def joined(pairs, dtype):
    """Each multiplier's arrays joined in the order they came, keyed in
    the order the multipliers first came, and the multipliers in the
    order of their arrays; each array read-only and within one block."""
    out, order = {}, []
    for p, products in pairs:
        assert products.dtype == dtype
        assert 0 < len(products) <= sieve.BLOCK
        assert not products.flags.writeable
        out.setdefault(p, []).extend(products.tolist())
        order.append(p)
    return out, order


@pytest.mark.parametrize("q,lo,hi", [(2, 1, 6), (2, 4, 4), (3, 1, 4),
                                     (3, 3, 3), (5, 2, 3), (7, 1, 2)])
def test_monic_multiples_match_index_mul(q, lo, hi, monkeypatch):
    """A multiplier's blocks come in a row, and joined they hold p*g for
    every monic g of degree lo..hi, ascending in g."""
    g_all = [g for e in range(lo, hi + 1) for g in range(q**e, 2 * q**e)]
    ps = [p for d in range(1, hi + 1) for p in range(q**d, 2 * q**d)]
    for size in BLOCK_SIZES:
        monkeypatch.setattr(sieve, "BLOCK", size)
        got, order = joined(monic_multiples(q, ps, lo, hi, np.int32),
                            np.int32)
        assert list(got) == ps
        assert [p for i, p in enumerate(order)
                if i == 0 or order[i - 1] != p] == ps
        assert len(order) >= len(ps) * -(-len(g_all) // size)
        for p in ps:
            assert got[p] == [index_mul(q, p, g) for g in g_all], (size, p)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_index_multiples_match_index_mul(q, monkeypatch):
    """An unsorted index array of mixed degrees, the unit included, whole
    and cut short; each block of it is taken for every multiplier before
    the next block."""
    rng = random.Random(q)
    degrees = [rng.randint(0, 4) for _ in range(60)]
    g = [rng.randrange(q**e, 2 * q**e) for e in degrees] + [1]
    g_arr = np.array(g, dtype=np.int64)
    ps = list(dict.fromkeys(rng.randrange(q**e, 2 * q**e)
                            for e in (1, 3, 2, 1, 4, 2, 3)))
    for size in BLOCK_SIZES:
        monkeypatch.setattr(sieve, "BLOCK", size)
        assert list(index_multiples(q, [], g_arr, np.int64)) == []
        for multipliers in (ps[:1], ps[:3], ps):
            for arr in (g_arr, g_arr[:5]):
                got, order = joined(
                    index_multiples(q, iter(multipliers), arr, np.int64),
                    np.int64)
                assert order == multipliers * -(-len(arr) // size)
                for p in multipliers:
                    assert got[p] == [index_mul(q, p, x)
                                      for x in arr.tolist()], (size, p)
    assert g_arr.tolist() == g


@pytest.mark.parametrize("q,dmax", [(2, 14), (3, 8), (5, 5), (7, 4)])
def test_irreducible_slice_matches_the_covering_sieve(q, dmax, monkeypatch):
    for d in range(1, dmax + 1):
        want = sieve_irreducibles(build_factor_sieve(q, d), d).tolist()
        assert len(want) == pi_prime(q, d)
        assert all(is_irreducible(q, f) for f in want), d
        for size in BLOCK_SIZES:
            monkeypatch.setattr(sieve, "BLOCK", size)
            assert wheel_slice(q, d).tolist() == want, (size, d)


@pytest.mark.parametrize("q,dmax", [(2, 16), (3, 10), (5, 6), (7, 5),
                                    (11, 4), (13, 4)])
def test_wheel_slices_match_the_full_slice(q, dmax, monkeypatch):
    """The slice of the polynomials prime to x gives the irreducibles of
    the slice of every monic polynomial, and irreducibles_at reads them
    at the first and last rank and on each side of every block edge of
    its flags, at both block sizes, one degree at a time and every
    degree's ranks in one call."""
    asked = {size: ([], []) for size in BLOCK_SIZES}
    for d in range(1, dmax + 1):
        want = full_irreducible_slice(q, d).tolist()
        # the flag of index i, past x's multiples, once the wheel starts
        slots = [i - i // q - (q**d - q**(d - 1) + 1) if d > 1 else i - q
                 for i in want]
        below = pi_cumulative(q, d - 1)
        for size in BLOCK_SIZES:
            monkeypatch.setattr(sieve, "BLOCK", size)
            assert wheel_slice(q, d).tolist() == want, (size, d)
            edges = {bisect_left(slots, at) + side
                     for at in range(size, slots[-1] + 1, size)
                     for side in (-1, 0)}
            ranks = sorted({0, len(want) - 1}
                           | {r for r in edges if 0 <= r < len(want)})
            ks = [below + r + 1 for r in ranks]
            assert irreducibles_at(q, ks) == [want[r] for r in ranks]
            asked[size][0].extend(ks)
            asked[size][1].extend(want[r] for r in ranks)
    for size, (ks, indices) in asked.items():
        monkeypatch.setattr(sieve, "BLOCK", size)
        assert irreducibles_at(q, ks) == indices, size


@pytest.mark.parametrize("q,degree", [(2, 22), (3, 12)])
def test_the_wheel_forms_only_products_prime_to_x(q, degree, monkeypatch):
    """No multiple of x and no product p*r with r(0) = 0 is formed: the
    products of each degree n, the top one and those of the slices that
    supply its multipliers, are exactly each irreducible p != x of degree
    e <= n/2 times the (q - 1) q^(n-e-1) monic r of degree n - e with
    r(0) != 0."""
    formed, multipliers = {}, []

    def counted(q_, ps, lo, hi, dtype, prime_to_x=False):
        assert prime_to_x and lo == hi
        ps = list(ps)
        multipliers.extend(ps)
        for p, products in monic_multiples(q_, ps, lo, hi, dtype, prime_to_x):
            assert not (products % q == 0).any(), p
            n = lo + index_degree(q, p)
            formed[n] = formed.get(n, 0) + len(products)
            yield p, products

    monkeypatch.setattr(sieve, "monic_multiples", counted)
    irreducibles_at(q, [pi_cumulative(q, degree - 1) + 1])
    assert q not in multipliers
    assert degree in formed
    for n, count in formed.items():
        assert count == sum((pi_prime(q, e) - (e == 1))
                            * (q - 1) * q**(n - e - 1)
                            for e in range(1, n // 2 + 1)), n


def test_irreducible_slice_rejects_a_composite_field():
    for degree in (1, 3):
        with pytest.raises(UsageError, match="field order 4 is not prime"):
            irreducibles_at(4, [degree])
        with pytest.raises(UsageError, match="field order 4 is not prime"):
            multiples_pass(4, degree)
        with pytest.raises(UsageError, match="field order 4 is not prime"):
            wheel_slice(4, degree)
    with pytest.raises(UsageError, match="field order 4 is not prime"):
        irreducibles_at(4, [])


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("degree", [0, -1])
def test_irreducible_slice_rejects_degree_below_one(q, degree):
    with pytest.raises(UsageError, match="degree must be >= 1"):
        wheel_slice(q, degree)
    with pytest.raises(UsageError, match="k must be >= 1"):
        irreducibles_at(q, [degree])
    with pytest.raises(UsageError, match="sieve horizon must be >= 1"):
        multiples_pass(q, degree)


@pytest.mark.parametrize("q,horizon", [(2, 62), (2, 200), (3, 40)])
def test_a_sieve_numpy_cannot_index_is_a_budget_error(q, horizon):
    # the pass checks a caller's one-byte slot per index below 2 q^horizon
    # and one block of int64 products, past 2^63 - 1 bytes from these
    # horizons on (2, 61 and 3, 39 stay below it), and is refused on the
    # call; so are the oracle sieve's two tables of 2 q^horizon int64
    # entries, so divisor_degree_masks never sees horizon 64
    need = 2 * q**horizon + 8 * sieve.BLOCK
    with pytest.raises(BudgetError) as err:
        multiples_pass(q, horizon)
    assert str(err.value) == (f"sieve for q={q}, horizon={horizon} needs "
                              f"{need} bytes, more than numpy can index")
    with pytest.raises(BudgetError, match="more than numpy can index"):
        build_factor_sieve(q, horizon)


def test_the_largest_indexable_sieve_horizons_are_accepted():
    # one below the smallest refused horizons above: the call only checks
    for q, horizon in ((2, 61), (3, 39)):
        multiples_pass(q, horizon)


@pytest.mark.parametrize("q,degree,need", [(2, 63, 2**63 + 8 * 2**16),
                                           (3, 40, 3**40 + 8 * 2**16)])
def test_a_slice_numpy_cannot_index_is_a_budget_error(q, degree, need):
    # the smallest degrees refused: the boolean slice and one block of
    # int64 products, past 2^63 - 1 bytes (degree 62 at q=2 and degree 39
    # at q=3 stay below it), whether a rank of the degree is asked alone
    # or after lower ones
    first = pi_cumulative(q, degree - 1) + 1
    for ks in ([first], [1, 5, first]):
        with pytest.raises(BudgetError) as err:
            irreducibles_at(q, ks)
        assert str(err.value) == (f"sieve for q={q}, horizon={degree} needs "
                                  f"{need} bytes, more than numpy can index")


def pass_folds(q, horizon):
    """D, omega and the squarefree flags of every index from one
    multiples pass, as the density check and the mp enumeration fold
    them."""
    top = np.zeros(2 * q**horizon, dtype=np.int8)
    omega = np.zeros_like(top)
    degree_sum = np.zeros_like(top)
    for d, products in multiples_pass(q, horizon):
        top[products] = d
        omega[products] += 1
        degree_sum[products] += d
    degrees = np.zeros_like(top)
    for n in range(1, horizon + 1):
        degrees[q**n:2 * q**n] = n
    return top, omega, degree_sum == degrees


@pytest.mark.parametrize("q,horizon", [(2, 1), (2, 12), (2, 15), (3, 2),
                                       (3, 9), (5, 3), (5, 6), (7, 4)])
def test_the_pass_matches_the_oracle_folds(q, horizon, monkeypatch):
    """D, omega and squarefreeness at every slot, the unit and the gaps
    between the degree ranges included, at both block sizes."""
    for size in BLOCK_SIZES:
        monkeypatch.setattr(sieve, "BLOCK", size)
        oracle = build_factor_sieve(q, horizon)
        top, omega, sqf = pass_folds(q, horizon)
        assert top.tolist() == oracle.max_factor_degrees().tolist()
        assert omega.tolist() == oracle.factor_counts().tolist()
        flags = oracle.squarefree_flags()
        for n in range(1, horizon + 1):
            s = slice(q**n, 2 * q**n)
            assert sqf[s].tolist() == flags[s].tolist(), (size, n)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_the_pass_yields_each_irreducible_times_every_cofactor(q):
    horizon = {2: 8, 3: 5, 5: 3}[q]
    got = {}
    for d, products in multiples_pass(q, horizon):
        assert len(set(products.tolist())) == len(products), d
        got.setdefault(d, []).extend(products.tolist())
    for d in range(1, horizon + 1):
        want = [index_mul(q, p, g) for p in wheel_slice(q, d).tolist()
                for e in range(horizon - d + 1)
                for g in range(q**e, 2 * q**e)]
        assert sorted(got[d]) == sorted(want), d
    assert list(got) == list(range(1, horizon + 1))


def test_the_pass_holds_no_flags_of_its_own():
    """Each degree's irreducibles come from the wheel's slice, so the pass
    holds one slice and one block of products at a time: at (2, 20) it
    peaks below the 2 * 2^20 bytes that a flag per index would take alone
    (3.7 MB with them)."""
    tracemalloc.start()
    try:
        for _ in multiples_pass(2, 20):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("q,n,lo,hi", [(2, 1, 0, 3), (2, 5, 0, 4),
                                       (2, 5, 1, 1), (3, 4, 0, 2),
                                       (3, 40, 1, 3), (5, 7, 2, 2)])
def test_block_multiples_take_the_smaller_side(q, n, lo, hi, monkeypatch):
    """Per cofactor degree e, each cofactor times a block of members while
    len(block) > q^e, paired with those members, then each member times
    the remaining degrees, its blocks joined as monic_multiples yields
    them; no array past one block."""
    rng = random.Random(n)
    block = np.array(sorted(rng.sample(range(q**4, 2 * q**4), n)))
    for size in BLOCK_SIZES:
        monkeypatch.setattr(sieve, "BLOCK", size)
        pairs, per_member = [], {}
        for a, products in block_multiples(q, block, lo, hi, np.int64):
            assert products.dtype == np.int64
            assert len(products) <= size
            if isinstance(a, np.ndarray):
                members = a.tolist()
                assert len(products) == len(members)
                g = index_divrem(q, int(products[0]), members[0])[0]
                pairs += [(b, g) for b in members]
                assert products.tolist() == [index_mul(q, b, g)
                                             for b in members]
                assert n > q**index_degree(q, g)
            else:
                per_member.setdefault(a, []).extend(products.tolist())
        for a, products in per_member.items():
            gs = [g for e in range(lo, hi + 1)
                  for g in range(q**e, 2 * q**e) if n <= q**e]
            pairs += [(a, g) for g in gs]
            assert products == [index_mul(q, a, g) for g in gs]
        assert sorted(pairs) == sorted(
            (b, g) for b in block.tolist() for e in range(lo, hi + 1)
            for g in range(q**e, 2 * q**e)), size


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
    q, coeffs = f
    index = digits_value(q, coeffs)
    text = format_index(q, index)
    assert text == f"q={q};" + ",".join(map(str, coeffs))
    assert parse_index(text) == (q, index)
    assert parse_index(text, q=q) == (q, index)
    assert parse_index(str(index), q=q) == (q, index)
    assert parse_index(",".join(map(str, coeffs)), q=q) == (q, index)


def test_parse_poly_rejects_garbage():
    for text in ("", "q=2;", "q=2;1,2", "q=6;1,1", "q=2;0,0", "nope", "1,0"):
        with pytest.raises(UsageError):
            parse_index(text, q=2)
    with pytest.raises(UsageError):
        parse_index("3")  # bare index needs q
