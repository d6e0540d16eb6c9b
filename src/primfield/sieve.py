"""Factor sieve: the least irreducible factor of every monic polynomial
of degree <= horizon, as numpy arrays over the integer index of
fieldpoly.  Sieve-wide quantities (degrees, largest factor degree,
squarefree flags) are folds along the least-factor chains.
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

    def factor_index(self, idx: int) -> list[tuple[int, int]]:
        """Factorization of an index as (irreducible index, multiplicity) pairs."""
        if idx == 1:
            return []
        out: list[tuple[int, int]] = []
        spf = self.spf
        cof = self.cof
        v = idx
        while v != 1:
            p = int(spf[v])
            if p == 0:
                raise UsageError(f"index {v} outside sieve coverage")
            mult = 0
            while v != 1 and int(spf[v]) == p:
                mult += 1
                v = int(cof[v])
            out.append((p, mult))
        return out


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
    # every product index is below n_entries, so the sieve dtype holds it
    dtype = np.int32 if n_entries <= 2**31 else np.int64
    n_bytes = 2 * n_entries * np.dtype(dtype).itemsize
    if n_bytes > np.iinfo(np.intp).max:     # also keeps the horizon < 64
        raise BudgetError(f"sieve for q={q}, horizon={horizon} needs"
                          f" {n_bytes} bytes, more than numpy can index")
    spf = np.zeros(n_entries, dtype=dtype)
    cof = np.zeros(n_entries, dtype=dtype)

    digit_cache: dict[int, np.ndarray] = {}

    def digit_matrix(e: int) -> np.ndarray:
        got = digit_cache.get(e)
        if got is None:
            idxs = np.arange(q**e, 2 * q**e, dtype=np.int64)
            cols = np.empty((e + 1, q**e), dtype=np.int64)
            v = idxs.copy()
            for i in range(e + 1):
                cols[i] = v % q
                v //= q
            digit_cache[e] = cols
            got = cols
        return got

    for d in range(1, horizon + 1):
        base = q**d
        block = spf[base:2 * base]
        irr = np.nonzero(block == 0)[0] + base
        spf[irr] = irr
        cof[irr] = 1
        emax = horizon - d
        if emax < d:
            continue
        if q == 2:
            g_all = np.arange(base, 2 << emax, dtype=dtype)
            for p in irr.tolist():
                prods = np.zeros_like(g_all)
                x = int(p)
                shift = 0
                while x:
                    if x & 1:
                        prods ^= g_all << shift
                    x >>= 1
                    shift += 1
                unmarked = spf[prods] == 0
                tgt = prods[unmarked]
                spf[tgt] = p
                cof[tgt] = g_all[unmarked]
        else:
            qpow = q**np.arange(horizon + 1, dtype=np.int64)
            for p in irr.tolist():
                pd = _index_digits(q, int(p))
                for e in range(d, emax + 1):
                    g_cols = digit_matrix(e)
                    out_len = e + d + 1
                    prods = np.zeros(q**e, dtype=np.int64)
                    for j in range(out_len):
                        col = np.zeros(q**e, dtype=np.int64)
                        for i, pi in enumerate(pd):
                            if pi and 0 <= j - i <= e:
                                col += pi * g_cols[j - i]
                        prods += (col % q) * qpow[j]
                    unmarked = spf[prods] == 0
                    tgt = prods[unmarked]
                    spf[tgt] = p
                    cof[tgt] = (np.arange(q**e, 2 * q**e, dtype=np.int64))[unmarked]
        # later degrees need cofactor widths d+1 .. horizon-d-1 only
        digit_cache.pop(d, None)
        digit_cache.pop(emax, None)
    return FactorSieve(q, horizon, spf, cof)

