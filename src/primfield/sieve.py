"""Sieving over the integer index of fieldpoly, in numpy.

multiples_pass, the one factor sieve, yields every irreducible of degree
<= horizon times every monic cofactor up to the horizon; its callers
fold the factor data they need from the products.  irreducible_slice
finds the irreducibles of one degree alone on boolean slices.  Products
come from two generators that yield one array per multiplier:
monic_multiples over every monic cofactor of a degree range, and
index_multiples over an arbitrary index array; block_multiples picks the
smaller side.  Over odd q each generator forms its cofactors' base-q
digit rows once per call; no caller sees them.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from .errors import BudgetError, UsageError
from .fieldpoly import _check_prime, _index_digits, index_degree
from .irreducibles import pi_prime


def multiples_pass(q: int, horizon: int) -> Iterator[tuple[int, np.ndarray]]:
    """(d, products) for d = 1..horizon: each degree-d irreducible times
    every monic cofactor of degree 0..horizon - d, from block_multiples,
    so each polynomial turns up once per distinct irreducible factor.
    The degree-d irreducibles are the slots no lower irreducible's product
    marked; a reducible degree-n polynomial has a factor of degree <= n/2,
    so only 2d <= horizon marks.  The arguments, and the bytes of all the
    products against what numpy can index, are checked on the call,
    before the caller allocates."""
    _check_prime(q)
    if horizon < 1:
        raise UsageError("sieve horizon must be >= 1")
    dtype = _index_dtype(2 * q**horizon)
    n_products = sum(pi_prime(q, d) * (q**(horizon - d + 1) - 1) // (q - 1)
                     for d in range(1, horizon + 1))
    _check_indexable(q, horizon, n_products * np.dtype(dtype).itemsize)

    def walk():
        marked = np.zeros(2 * q**horizon, dtype=bool)
        for d in range(1, horizon + 1):
            irr = np.flatnonzero(~marked[q**d:2 * q**d]) + q**d
            for _, products in block_multiples(q, irr, 0, horizon - d, dtype):
                if 2 * d <= horizon:
                    marked[products] = True
                yield d, products
    return walk()


def block_multiples(q: int, block: np.ndarray, lo: int, hi: int,
                    dtype: type[np.integer],
                    ) -> Iterator[tuple[int | None, np.ndarray]]:
    """Each index of the array block times every monic cofactor of degree
    lo..hi, in dtype, over the smaller side; no product repeats within an
    array.  While block is longer than a degree e has cofactors (q^e),
    one array per cofactor g, g * block[i] at i, paired with None; from
    there on, one per a of block, a times every cofactor of degree e..hi
    ascending, paired with a."""
    split = lo
    while split <= hi and len(block) > q**split:
        split += 1
    if split > lo:
        cofactors = _monic_indices(q, lo, split - 1, dtype).tolist()
        for products in index_multiples(q, cofactors, block, dtype):
            yield None, products
    if split <= hi:
        members = block.tolist()
        yield from zip(members, monic_multiples(q, members, split, hi, dtype))


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
