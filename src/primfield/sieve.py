"""Factor sieve: the least irreducible factor of every monic polynomial
of degree <= horizon, as numpy arrays over the integer index of
fieldpoly.  Sieve-wide quantities (degrees, largest factor degree,
squarefree flags) are folds along the least-factor chains.  The
irreducibles of one degree alone come from irreducible_slice, boolean
slices that the irreducibles of at most half each degree mark, with no
least-factor table.  Products come from two generators that yield one
product array per multiplier: monic_multiples for every monic cofactor
of a degree range, and index_multiples for an arbitrary index array,
which the primitivity pass also uses.  Over odd q each forms its
cofactors' base-q digit rows once per call; no caller sees them.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import Callable

import numpy as np

from .errors import BudgetError, UsageError
from .fieldpoly import _check_prime, _index_digits, index_degree


class FactorSieve:
    """Least-factor table for every monic polynomial of degree <= horizon.

    spf[i] holds the index of the least (degree, index) irreducible factor
    of the polynomial with index i, and cof[i] the index of the cofactor,
    so factoring is a chain of O(1) lookups, and fold computes a
    per-index quantity along every chain at once.  Array slots outside
    the valid index ranges [q^d, 2 q^d) stay zero.
    """

    def __init__(self, q: int, horizon: int, spf: np.ndarray, cof: np.ndarray):
        self.q = q
        self.horizon = horizon
        self.spf = spf
        self.cof = cof

    def degrees(self, idx: np.ndarray) -> np.ndarray:
        """Degrees of an array of indices below q^(horizon + 1)."""
        powers = self.q**np.arange(1, self.horizon + 1, dtype=np.int64)
        return np.searchsorted(powers, idx, side="right")

    def fold(self, step: Callable[[np.ndarray, np.ndarray, np.ndarray],
                                  np.ndarray], one) -> np.ndarray:
        """Per-index values built along the least-factor chains.

        out[1] = one and out[i] = step(spf[i], cof[i], out) for every
        index i of degree 1..horizon, with step taking and returning whole
        arrays.  It runs as one pass per degree in ascending order: a
        cofactor always has lower degree than its multiple, so out[cof] is
        final when the degree is reached.  Slots outside the index ranges
        stay zero.
        """
        one = np.asarray(one)
        out = np.zeros(len(self.spf), dtype=one.dtype)
        out[1] = one
        for d in range(1, self.horizon + 1):
            s = slice(self.q**d, 2 * self.q**d)
            out[s] = step(self.spf[s], self.cof[s], out)
        return out

    def max_factor_degrees(self) -> np.ndarray:
        """D(f), the largest irreducible-factor degree (0 for the unit)."""
        return self.fold(
            lambda p, g, out: np.maximum(self.degrees(p), out[g]), np.int8(0))

    def squarefree_flags(self) -> np.ndarray:
        """True where the polynomial is squarefree.  p is the least factor
        of p*g, so p^2 divides p*g exactly when p is the least factor of g."""
        spf = self.spf
        return self.fold(lambda p, g, out: out[g] & (spf[g] != p), np.True_)

    def factor_counts(self) -> np.ndarray:
        """omega(f), the number of distinct irreducible factors."""
        spf = self.spf
        return self.fold(lambda p, g, out: out[g] + (spf[g] != p), np.int8(0))


def build_factor_sieve(q: int, horizon: int) -> FactorSieve:
    """Sieve least factors for all monic polynomials of degree <= horizon.

    Irreducibles are discovered degree by degree: once every irreducible
    of smaller degree has marked its multiples, the unmarked slots of a
    degree are exactly its irreducibles.  Marking each irreducible's
    unmarked multiples in (degree, index) order makes spf the least
    factor.

    Only products that can have p as least factor are formed.  If p of
    degree d is the least factor of f = p*g, every factor of g is at
    least p, so deg g >= d; a cofactor of smaller degree carries a
    smaller factor that already marked the product.  Hence p marks only
    cofactors of degree d .. horizon - d, and an irreducible with
    2d > horizon marks nothing.
    """
    _check_prime(q)
    if horizon < 1:
        raise UsageError("sieve horizon must be >= 1")
    n_entries = 2 * q**horizon
    dtype = _index_dtype(n_entries)
    _check_indexable(q, horizon, 2 * n_entries * np.dtype(dtype).itemsize)
    spf = np.zeros(n_entries, dtype=dtype)
    cof = np.zeros(n_entries, dtype=dtype)
    for d in range(1, horizon + 1):
        base = q**d
        irr = np.flatnonzero(spf[base:2 * base] == 0) + base
        spf[irr] = irr
        cof[irr] = 1
        if 2 * d > horizon:
            continue
        g_all = _monic_indices(q, d, horizon - d, dtype)
        ps = irr.tolist()
        for p, prods in zip(ps, monic_multiples(q, ps, d, horizon - d, dtype)):
            unmarked = spf[prods] == 0
            tgt = prods[unmarked]
            spf[tgt] = p
            cof[tgt] = g_all[unmarked]
    return FactorSieve(q, horizon, spf, cof)


def irreducible_slice(q: int, degree: int) -> np.ndarray:
    """Ascending indices of the irreducibles of one degree >= 1 over a
    prime field, with no least-factor table.

    A reducible polynomial of degree d has an irreducible factor of
    degree at most d/2.  So walking the degrees 1..d//2 and then d, the
    irreducibles already found mark their multiples on a q^e boolean
    slice of each degree e, and the unmarked slots are its irreducibles.
    The largest array is the degree-d slice or the product table of the
    degree-(d-1) cofactors.
    """
    _check_prime(q)
    if degree < 1:
        raise UsageError("degree must be >= 1")
    dtype = _index_dtype(2 * q**degree)
    _check_indexable(q, degree,
                     max(q**degree, _product_table_bytes(q, degree - 1, dtype)))
    found: dict[int, np.ndarray] = {}
    for d in [*range(1, degree // 2 + 1), degree]:
        base = q**d
        reducible = np.zeros(base, dtype=bool)
        for e in range(1, d // 2 + 1):
            for prods in monic_multiples(q, found[e].tolist(), d - e, d - e,
                                         dtype):
                prods -= base
                reducible[prods] = True
                del prods       # free it before the next table is built
        found[d] = np.flatnonzero(~reducible) + base
    return found[degree]


def monic_multiples(q: int, ps: Iterable[int], lo: int, hi: int,
                    dtype: type[np.integer]) -> Iterator[np.ndarray]:
    """For each p of ps, the indices of p*g for every monic g of degree
    lo..hi, in ascending order of g; dtype holds every product.

    Over F_2 every polynomial is monic and the products double: with
    t[r] = p*r for every r below 2^k, t[2^k + r] = t[r] ^ (p << k).
    Over odd q, index_multiples forms the products.
    """
    if q != 2:
        yield from index_multiples(q, ps, _monic_indices(q, lo, hi, dtype),
                                   dtype)
        return
    for p in ps:
        t = np.zeros(2 << hi, dtype=dtype)
        for k in range(hi + 1):
            np.bitwise_xor(t[:1 << k], p << k, out=t[1 << k:2 << k])
        yield t[1 << lo:]
        del t           # free it before the next table is built


def index_multiples(q: int, ps: Iterable[int], g: np.ndarray,
                    dtype: type[np.integer]) -> Iterator[np.ndarray]:
    """For each p of ps, the indices of p*g for each index of an array g,
    in its order; dtype holds every product.

    Over F_2, one shifted XOR of g per nonzero coefficient of p.  Over
    odd q, the base-q digit rows of g are formed once, in the narrowest
    unsigned type that holds a sum of their digit products, and g itself
    is dropped.  The product's digits are the convolution of the digits
    of p with those rows, reduced mod q and summed into indices, one
    whole-array pass per digit pair.  The sums are widened to dtype
    before they are scaled by q^j.
    """
    if q == 2:
        shifted = np.empty(len(g), dtype=dtype)
        for p in ps:
            out = np.zeros(len(g), dtype=dtype)
            for j in range(p.bit_length()):
                if p >> j & 1:
                    np.left_shift(g, j, out=shifted, dtype=dtype)
                    out ^= shifted
            yield out
            del out
        return
    hi = index_degree(q, int(g.max(initial=1)))
    rows = np.empty((hi + 1, len(g)), dtype=_digit_dtype(q, hi))
    for i in range(hi + 1):
        rows[i] = g % q
        g = g // q
    del g
    scaled = np.empty(rows.shape[1], dtype=dtype)
    col = np.empty_like(rows[0])
    term = np.empty_like(col)
    for p in ps:
        p_digits = _index_digits(q, p)
        out = np.zeros_like(scaled)
        for j in range(len(p_digits) + hi):
            col.fill(0)
            for i in range(max(0, j - hi), min(j, len(p_digits) - 1) + 1):
                if p_digits[i]:
                    np.multiply(rows[j - i], p_digits[i], out=term)
                    col += term
            col %= q
            np.multiply(col, q**j, out=scaled, dtype=dtype)
            out += scaled
        yield out
        del out


def _product_table_bytes(q: int, hi: int, dtype: type[np.integer]) -> int:
    """Bytes of the largest array monic_multiples builds for the monic
    cofactors of degree hi alone: its product table, or over odd q the
    digit rows of index_multiples."""
    if q == 2:
        return (2 << hi) * np.dtype(dtype).itemsize
    return q**hi * max(np.dtype(dtype).itemsize,
                       (hi + 1) * _digit_dtype(q, hi).itemsize)


def _digit_dtype(q: int, hi: int) -> np.dtype:
    return np.min_scalar_type((hi + 1) * (q - 1)**2)


def _monic_indices(q: int, lo: int, hi: int,
                   dtype: type[np.integer]) -> np.ndarray:
    """Every monic index of degree lo..hi, ascending."""
    return np.concatenate([np.arange(q**e, 2 * q**e, dtype=dtype)
                           for e in range(lo, hi + 1)])


def _index_dtype(n_entries: int) -> type[np.integer]:
    """The integer type of indices below n_entries."""
    return np.int32 if n_entries <= 2**31 else np.int64


def _check_indexable(q: int, horizon: int, n_bytes: int) -> None:
    if n_bytes > np.iinfo(np.intp).max:     # also keeps the horizon < 64
        raise BudgetError(f"sieve for q={q}, horizon={horizon} needs"
                          f" {n_bytes} bytes, more than numpy can index")
