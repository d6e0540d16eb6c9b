"""Factor sieve: the least irreducible factor of every monic polynomial
of degree <= horizon, as numpy arrays over the integer index of
fieldpoly.  Sieve-wide quantities (degrees, largest factor degree,
squarefree flags) are folds along the least-factor chains.  The
irreducibles of one degree alone come from a boolean slice that the
irreducibles of half that degree mark.  Both sieves form products with
one kernel, monic_multiples; index_multiples, its case for an arbitrary
index array, serves the primitivity pass too.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import BudgetError, UsageError
from .fieldpoly import _check_prime, _index_digits


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
        self._irr_cache: dict[int, np.ndarray] = {}

    def irreducible_indices(self, degree: int) -> np.ndarray:
        """Ascending indices of the irreducibles of one degree."""
        if not 1 <= degree <= self.horizon:
            raise UsageError(f"degree {degree} outside sieve horizon {self.horizon}")
        got = self._irr_cache.get(degree)
        if got is None:
            base = self.q**degree
            sl = self.spf[base:2 * base]
            got = (np.nonzero(sl == np.arange(base, 2 * base, dtype=sl.dtype))[0]
                   + base)
            self._irr_cache[degree] = got
        return got

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
        g_digits = None if q == 2 else monic_digits(q, g_all, horizon - d)
        for p in irr.tolist():
            prods = monic_multiples(q, p, d, horizon - d, dtype, g_digits)
            unmarked = spf[prods] == 0
            tgt = prods[unmarked]
            spf[tgt] = p
            cof[tgt] = g_all[unmarked]
    return FactorSieve(q, horizon, spf, cof)


def irreducible_slice(q: int, degree: int) -> np.ndarray:
    """Ascending indices of the irreducibles of one degree >= 1 over a
    prime field, without a sieve that covers the degree.

    A reducible polynomial of degree d has an irreducible factor of
    degree at most d/2.  So the irreducibles of build_factor_sieve(q,
    d // 2) mark their degree-d multiples on a q^d boolean slice, and the
    unmarked slots are the irreducibles; no least-factor table of degree
    d is built.  The largest array is the slice or the product table of
    the degree-(d-1) cofactors.
    """
    base = q**degree
    dtype = _index_dtype(2 * base)
    _check_indexable(q, degree,
                     max(base, _product_table_bytes(q, degree - 1, dtype)))
    reducible = np.zeros(base, dtype=bool)
    if degree > 1:
        half = build_factor_sieve(q, degree // 2)
        for e in range(1, degree // 2 + 1):
            hi = degree - e
            g_digits = (None if q == 2 else
                        monic_digits(q, _monic_indices(q, hi, hi, dtype), hi))
            for p in half.irreducible_indices(e).tolist():
                prods = monic_multiples(q, p, hi, hi, dtype, g_digits)
                prods -= base
                reducible[prods] = True
                del prods       # free it before the next table is built
    return np.flatnonzero(~reducible) + base


def monic_multiples(q: int, p: int, lo: int, hi: int,
                    dtype: type[np.integer],
                    g_digits: np.ndarray | None) -> np.ndarray:
    """Indices of p*g for every monic g of degree lo..hi, in ascending
    order of g; dtype holds every product.

    Over F_2 every polynomial is monic and the products double: with
    t[r] = p*r for every r below 2^k, t[2^k + r] = t[r] ^ (p << k), and
    g_digits is None.  Over odd q, g_digits = monic_digits of those g,
    and index_multiples forms the products.
    """
    if q == 2:
        t = np.zeros(2 << hi, dtype=dtype)
        for k in range(hi + 1):
            np.bitwise_xor(t[:1 << k], p << k, out=t[1 << k:2 << k])
        return t[1 << lo:]
    return index_multiples(q, p, None, dtype, g_digits)


def index_multiples(q: int, p: int, g: np.ndarray | None,
                    dtype: type[np.integer],
                    g_digits: np.ndarray | None) -> np.ndarray:
    """Indices of p*g for each index of an array g, in its order; dtype
    holds every product.

    Over F_2, one shifted XOR of g per nonzero coefficient of p, and
    g_digits is None.  Over odd q, g_digits = monic_digits of g, which
    alone is read, and the product's digits are the convolution of the
    digits of p with those rows, reduced mod q and summed into indices,
    one whole-array pass per digit pair.  The sums are widened to dtype
    before they are scaled by q^j.
    """
    if q == 2:
        out = np.zeros(len(g), dtype=dtype)
        shifted = np.empty_like(out)
        for j in range(p.bit_length()):
            if p >> j & 1:
                np.left_shift(g, j, out=shifted, dtype=dtype)
                out ^= shifted
        return out
    p_digits = _index_digits(q, p)
    hi = len(g_digits) - 1
    out = np.zeros(g_digits.shape[1], dtype=dtype)
    scaled = np.empty_like(out)
    col = np.empty_like(g_digits[0])
    term = np.empty_like(col)
    for j in range(len(p_digits) + hi):
        col.fill(0)
        for i in range(max(0, j - hi), min(j, len(p_digits) - 1) + 1):
            if p_digits[i]:
                np.multiply(g_digits[j - i], p_digits[i], out=term)
                col += term
        col %= q
        np.multiply(col, q**j, out=scaled, dtype=dtype)
        out += scaled
    return out


def monic_digits(q: int, g: np.ndarray, hi: int) -> np.ndarray:
    """Base-q digit rows 0..hi of indices g of degree <= hi, in the
    narrowest unsigned type that holds a sum of hi + 1 digit products."""
    rows = np.empty((hi + 1, len(g)), dtype=_digit_dtype(q, hi))
    rest = g.copy()
    for i in range(hi + 1):
        rows[i] = rest % q
        rest //= q
    return rows


def _product_table_bytes(q: int, hi: int, dtype: type[np.integer]) -> int:
    """Bytes of the largest array monic_multiples and monic_digits build
    for the monic cofactors of degree hi alone."""
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
