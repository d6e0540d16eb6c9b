"""Monic polynomial arithmetic over a prime field, plus a factor sieve.

Every monic polynomial of degree d has an integer index in [q^d, 2*q^d):
its coefficient vector (low degree first, leading coefficient 1) read as
base-q digits.  The index is the library's only polynomial type;
parse_index and format_index map one line of text to an index and back.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import BudgetError, UsageError

# Miller-Rabin with the first twelve prime bases is exact below psi_12,
# the least strong pseudoprime to all of them (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_LIMIT = 318665857834031151167461


@lru_cache(maxsize=256)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality; UsageError from _PRIME_LIMIT up."""
    if n >= _PRIME_LIMIT:
        raise UsageError(f"field order {n} is at or above {_PRIME_LIMIT},"
                         " past exact primality testing")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(q: int) -> None:
    if not is_prime(q):
        raise UsageError(f"field order {q} is not prime")


# ----------------------------------------------------------------------
# Index text codec
# ----------------------------------------------------------------------

def format_index(q: int, index: int) -> str:
    """Canonical text form of a monic index, e.g. x^2+x+1 over F_2
    (index 7) is 'q=2;1,1,1'."""
    return f"q={q};" + ",".join(map(str, _index_digits(q, index)))


def parse_index(text: str, q: int | None = None) -> tuple[int, int]:
    """(q, index) of a polynomial in canonical text form; with q given,
    also a bare decimal index or a bare coefficient list."""
    s = text.strip()
    if s.startswith("q="):
        head, sep, tail = s.partition(";")
        if not sep:
            raise UsageError(f"missing ';' in polynomial text {text!r}")
        try:
            q_in = int(head[2:])
        except ValueError:
            raise UsageError(f"bad field order in {text!r}") from None
        if q is not None and q != q_in:
            raise UsageError(f"expected q={q}, got q={q_in}")
        try:
            coeffs = list(map(int, tail.split(",")))
        except ValueError:
            raise UsageError(f"bad coefficient list in {text!r}") from None
        _check_prime(q_in)
        if coeffs[-1] != 1:
            raise UsageError("leading coefficient must be 1")
        if min(coeffs) < 0 or max(coeffs) >= q_in:
            raise UsageError(f"coefficients must lie in [0, {q_in})")
        index = 0
        for c in reversed(coeffs):
            index = index * q_in + c
        return q_in, index
    if q is None:
        raise UsageError(f"bare form {text!r} needs an explicit field order")
    try:
        if "," in s:   # a bare list is the canonical form minus its prefix
            return parse_index(f"q={q};{s}")
        index = int(s)
        _check_prime(q)
        # leading base-q digit 1: index in [q^d, 2 q^d) for its degree d
        if not 1 <= index < 2 * q**index_degree(q, index):
            raise ValueError
        return q, index
    except (ValueError, UsageError):
        raise UsageError(f"cannot parse polynomial {text!r}") from None


# ----------------------------------------------------------------------
# Index-level helpers (bulk paths)
# ----------------------------------------------------------------------

def index_degree(q: int, idx: int) -> int:
    d = 0
    v = idx // q
    while v:
        d += 1
        v //= q
    return d


def _index_digits(q: int, idx: int) -> list[int]:
    out = []
    v = idx
    while v:
        v, r = divmod(v, q)
        out.append(r)
    return out


def index_mul(q: int, a: int, b: int) -> int:
    """Index of the product of the polynomials with indices a and b."""
    if q == 2:
        # carry-less multiply: base-2 digit convolution mod 2
        out = 0
        x = a
        shift = 0
        while x:
            if x & 1:
                out ^= b << shift
            x >>= 1
            shift += 1
        return out
    da = _index_digits(q, a)
    db = _index_digits(q, b)
    out_digits = [0] * (len(da) + len(db) - 1)
    for i, ai in enumerate(da):
        if ai:
            for j, bj in enumerate(db):
                out_digits[i + j] += ai * bj
    v = 0
    for c in reversed(out_digits):
        v = v * q + (c % q)
    return v


def index_divrem(q: int, a: int, b: int) -> tuple[int, int]:
    """(quotient index, remainder index-value) of index a by monic index b."""
    da = index_degree(q, a)
    db = index_degree(q, b)
    if da < db:
        return 0, a
    if q == 2:
        quot = 0
        rem = a
        for shift in range(da - db, -1, -1):
            if rem >> (shift + db) & 1:
                quot |= 1 << shift
                rem ^= b << shift
        return quot, rem
    rd = _index_digits(q, a)
    bd = _index_digits(q, b)
    quot_digits = [0] * (da - db + 1)
    for shift in range(da - db, -1, -1):
        c = rd[shift + db] % q
        if c:
            quot_digits[shift] = c
            for i, bi in enumerate(bd):
                rd[shift + i] = (rd[shift + i] - c * bi) % q
    quot = 0
    for c in reversed(quot_digits):
        quot = quot * q + c
    rem = 0
    for c in reversed(rd[:db]):
        rem = rem * q + (c % q)
    return quot, rem


# ----------------------------------------------------------------------
# Factor sieve
# ----------------------------------------------------------------------

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

