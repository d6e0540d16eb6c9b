"""Sieving over the integer index of fieldpoly, in numpy.

One sieve finds the irreducibles: _wheel, one walk of boolean slices
that keep only the polynomials prime to x, each degree sieved once.
irreducibles_at reads irreducibles of any degrees by global rank from
per-block counts of its flags.  multiples_pass reads every unmarked flag
of degrees 1..horizon and yields each degree's irreducibles times every
monic cofactor up to the horizon; its callers fold the factor data they
need from the products.

Products come from three generators of (multiplier, products) pairs:
monic_multiples over every monic cofactor of a degree range,
index_multiples over an arbitrary index array, and block_multiples,
which takes the smaller side of a block of indices and a cofactor range.
No array holds more than BLOCK products, and a multiplier's arrays
ascend in the cofactor, so joining them gives all its products.  An
array is read-only and may be overwritten when its generator resumes:
callers read it before they ask for the next.  Over odd q the
generators form the base-q digit rows of one block of cofactors at a
time; no caller sees them.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator

import numpy as np

from .errors import BudgetError, UsageError
from .fieldpoly import _check_prime, _index_digits, index_degree
from .irreducibles import kth_irreducible_degree, pi_cumulative

BLOCK = 1 << 16     # products formed, and looked up, per array


def multiples_pass(q: int, horizon: int) -> Iterator[tuple[int, np.ndarray]]:
    """(d, products) for d = 1..horizon: each degree-d irreducible, from
    one walk of the wheel, times every monic cofactor of degree
    0..horizon - d, from block_multiples, so each polynomial turns up once
    per distinct irreducible factor.  The arguments, and the bytes a
    caller's fold holds, one byte per index below 2 q^horizon and one
    BLOCK of the pass's products, against what numpy can index, are
    checked on the call, before the caller allocates."""
    _check_prime(q)
    if horizon < 1:
        raise UsageError("sieve horizon must be >= 1")
    dtype = _product_dtype(2 * q**horizon)
    _check_indexable(q, horizon,
                     2 * q**horizon + BLOCK * np.dtype(dtype).itemsize)

    def walk():
        for d, flags in _wheel(q, range(1, horizon + 1)):
            irr = _unmarked(q, d, flags).astype(dtype, copy=False)
            del flags
            for _, products in block_multiples(q, irr, 0, horizon - d, dtype):
                yield d, products
    return walk()


def block_multiples(q: int, block: np.ndarray, lo: int, hi: int,
                    dtype: type[np.integer],
                    ) -> Iterator[tuple[int | np.ndarray, np.ndarray]]:
    """Each index of the array block times every monic cofactor of degree
    lo..hi, in dtype, over the smaller side; no product repeats within an
    array.  While block is longer than a degree e has cofactors (q^e),
    each cofactor g times one BLOCK of members at a time, g * members[i]
    at i, paired with those members (a view of block); from there on,
    each member a times every cofactor of degree e..hi, paired with a, as
    monic_multiples yields them."""
    split = lo
    while split <= hi and len(block) > q**split:
        split += 1
    if split > lo:
        cofactors = _monic_indices(q, lo, split - 1, dtype).tolist()
        for at in range(0, len(block), BLOCK):
            members = block[at:at + BLOCK]
            for _, products in index_multiples(q, cofactors, members, dtype):
                yield members, products
    if split <= hi:
        yield from monic_multiples(q, block.tolist(), split, hi, dtype)


def irreducibles_at(q: int, ks: Iterable[int]) -> list[int]:
    """The indices of the irreducibles at ascending ranks k >= 1 in
    (degree, index) order, of any degrees, read from one walk of the
    wheel.  Each asked degree's unmarked flags are counted one BLOCK at a
    time, and only a block that holds a rank is read out, so no array of
    every irreducible of a degree is built."""
    ks = list(ks)
    out: list[int] = []
    for d, flags in _wheel(q, {kth_irreducible_degree(q, k) for k in ks}):
        seen = pi_cumulative(q, d - 1) + 1     # the rank at the next unmarked
        for at in range(0, len(flags), BLOCK):
            block = flags[at:at + BLOCK]
            free = len(block) - np.count_nonzero(block)
            hits = ks[len(out):bisect_left(ks, seen + free, len(out))]
            if hits:
                indices = _unmarked(q, d, block, at)
                out += [int(indices[k - seen]) for k in hits]
            seen += free
    return out


def _wheel(q: int, degrees: Iterable[int]) -> Iterator[tuple[int, np.ndarray]]:
    """(d, flags) for each asked degree d >= 1, ascending: one flag per
    monic polynomial of degree d prime to x, marked where it is
    reducible; degree 1 has q unmarked flags, slot c for x + c.

    A reducible polynomial of degree d >= 2 has an irreducible factor of
    degree at most d/2, and x divides exactly the indices i = 0 mod q.  So
    degree d keeps a flag only for the (q - 1) q^(d-1) other indices, the
    one of i at slot i - i // q - (q^d - q^(d-1) + 1) ((i >> 1) - 2^(d-1)
    over F_2).  One walk sieves the degrees 2..m/2 and each asked degree
    once, ascending, for the largest asked m, and keeps the irreducibles
    of degree up to m/2: each p != x marks p*r for the monic r of degree
    d - deg p with r(0) != 0 alone, the only products prime to x, from
    monic_multiples one block at a time.  The walk holds no flags it
    yielded.  The arguments, and the bytes of a q^m slice and one block
    of products (which keeps every product index, below 2 q^m, inside
    int64), are checked on the call.
    """
    _check_prime(q)
    degrees = set(degrees)
    if min(degrees, default=1) < 1:
        raise UsageError("degree must be >= 1")
    top = max(degrees, default=1)
    dtype = _product_dtype(2 * q**top)
    _check_indexable(q, top, q**top + BLOCK * np.dtype(dtype).itemsize)
    found = {1: list(range(q + 1, 2 * q))}       # x + c for c != 0

    def sieved(d: int) -> np.ndarray:
        flags = np.zeros((q - 1) * q**(d - 1) if d > 1 else q, dtype=bool)
        buf = np.empty(max(BLOCK, q - 1), dtype=dtype)     # see _block_degree
        for e in range(1, d // 2 + 1):
            for _, products in monic_multiples(q, found[e], d - e, d - e,
                                               dtype, prime_to_x=True):
                slots = buf[:len(products)]
                if q == 2:
                    np.right_shift(products, 1, out=slots)
                    slots -= 1 << d - 1
                else:
                    np.floor_divide(products, q, out=slots)
                    np.subtract(products, slots, out=slots)
                    slots -= q**d - q**(d - 1) + 1
                flags[slots] = True
        if 1 < d <= top // 2:
            found[d] = _unmarked(q, d, flags.copy()).tolist()
        return flags

    def walk():
        for d in sorted(degrees.union(range(2, top // 2 + 1))):
            if d in degrees:
                yield d, sieved(d)
            else:
                sieved(d)
    return walk()


def _unmarked(q: int, degree: int, flags: np.ndarray,
              first: int = 0) -> np.ndarray:
    """The indices at the unmarked flags, wheel slots first, first + 1,
    ... of the degree, ascending; flags is complemented in place, and the
    slots are rewritten to indices in place, one block at a time: slot c
    holds q + c at degree 1, above it q^degree + 1 + c + c // (q - 1)."""
    slots = np.flatnonzero(np.logical_not(flags, out=flags))
    slots += first
    if degree == 1:
        slots += q
        return slots
    for at in range(0, len(slots), BLOCK):
        c = slots[at:at + BLOCK]
        c += c // (q - 1) + (q**degree + 1)
    return slots


def monic_multiples(q: int, ps: Iterable[int], lo: int, hi: int,
                    dtype: type[np.integer], prime_to_x: bool = False,
                    ) -> Iterator[tuple[int, np.ndarray]]:
    """(p, products) for each p of ps: the indices of p*g for every monic g
    of degree lo..hi, ascending in g, one block at a time, all of them
    before the next p's; dtype holds every product.  With prime_to_x,
    only the g with g(0) != 0, whose index is not a multiple of q: they
    are chosen before any product is formed.

    Over odd q, at most BLOCK cofactors go to index_multiples whole.
    Otherwise the cofactors are cut at x^s, for the largest s with
    q^s <= BLOCK (at least 1 with prime_to_x), or s = hi + 1: with
    t = p*r for each kept r below q^s, the first block is the
    monic r below q^s, read off t, and each further block holds the
    cofactors h x^s + r of one h, whose products are t + (p*h) x^s.
    Over F_2 the table doubles: t[2^k + r] = t[r] ^ (p << k), or for the
    odd r = 2m + 1 alone, t[2^k + m] = t[m] ^ (p << k + 1) from t[0] = p;
    such a block is t ^ ((p*h) << s).  Over odd q the table comes from
    _digit_products, and the top deg p digits of each t[r] are added mod
    q to those of (p*h) x^s, one digit at a time.
    """
    if q != 2 and (q**(hi + 1) - q**lo) // (q - 1) <= BLOCK:
        g = _monic_indices(q, lo, hi, dtype)
        yield from index_multiples(q, ps, g[g % q != 0] if prime_to_x else g,
                                   dtype)
        return
    s = min(hi + 1, _block_degree(q, prime_to_x))

    def rank(n: int) -> int:
        """How many table rows lie below the cofactor n."""
        return n - -(-n // q) if prime_to_x else n

    out = np.empty(rank(q**s), dtype=dtype)
    if q == 2:
        tables = _doubling_tables(ps, s, dtype, prime_to_x)
        blocks = _xor_blocks
    else:
        r = np.arange(q**s, dtype=dtype)
        tables = _digit_products(q, list(ps), r[r % q != 0] if prime_to_x
                                 else r, dtype)
        blocks = _digit_blocks
    for p, t in tables:
        if lo < s and q == 2:
            yield p, t[rank(1 << lo):]
        elif lo < s:
            monic = [t[rank(q**e):rank(2 * q**e)] for e in range(lo, s)]
            n = sum(map(len, monic))
            np.concatenate(monic, out=out[:n])
            yield p, _read_only(out[:n])
        heads = (h for e in range(max(lo, s), hi + 1)
                 for h in range(q**(e - s), 2 * q**(e - s)))
        for products in blocks(q, p, t, s, heads, out):
            yield p, products


def index_multiples(q: int, ps: Iterable[int], g: np.ndarray,
                    dtype: type[np.integer],
                    ) -> Iterator[tuple[int, np.ndarray]]:
    """(p, products) for each p of ps: the indices of p*g for each index
    of an array g, in its order, one BLOCK of g at a time; each block is
    taken for every p before the next, so a g of one block yields one
    array per p.  dtype holds every product.

    Over F_2, one shifted XOR of the block per nonzero coefficient of p.
    Over odd q, the base-q digit rows of the block are formed once, in
    the narrowest unsigned type that holds a sum of their digit products.
    The product's digits are the convolution of the digits of p with
    those rows, reduced mod q and summed into indices, one whole-array
    pass per digit pair, with as many multipliers stacked in one 2-D
    pass as fill a BLOCK.  The sums are widened to dtype before they are
    scaled by q^j.
    """
    ps = list(ps)
    for at in range(0, len(g), BLOCK):
        if q == 2:
            yield from _xor_products(ps, g[at:at + BLOCK], dtype)
        else:
            yield from _digit_products(q, ps, g[at:at + BLOCK], dtype)


def _xor_products(ps: list[int], g: np.ndarray, dtype: type[np.integer],
                  ) -> Iterator[tuple[int, np.ndarray]]:
    shifted = np.empty(len(g), dtype=dtype)
    out = np.empty_like(shifted)
    view = _read_only(out)
    for p in ps:
        out.fill(0)
        for j in range(p.bit_length()):
            if p >> j & 1:
                np.left_shift(g, j, out=shifted, dtype=dtype)
                out ^= shifted
        yield p, view


def _digit_products(q: int, ps: list[int], g: np.ndarray,
                    dtype: type[np.integer],
                    ) -> Iterator[tuple[int, np.ndarray]]:
    hi = index_degree(q, int(g.max(initial=1)))
    rows = np.empty((hi + 1, len(g)), dtype=_digit_dtype(q, hi))
    for i in range(hi + 1):
        g, rows[i] = _divmod(g, q)
    del g
    batch = max(1, BLOCK // rows.shape[1])
    shape = (min(batch, len(ps)), rows.shape[1])
    out, scaled = np.empty(shape, dtype=dtype), np.empty(shape, dtype=dtype)
    col, term = (np.empty(shape, dtype=rows.dtype) for _ in range(2))
    view = _read_only(out)
    for at in range(0, len(ps), batch):
        group = ps[at:at + batch]
        digits = [_index_digits(q, p) for p in group]
        width = max(map(len, digits))
        p_digits = np.zeros((len(group), width), dtype=rows.dtype)
        for i, row in enumerate(digits):
            p_digits[i, :len(row)] = row
        live = p_digits.any(axis=0).tolist()
        o, c, t, sc = (a[:len(group)] for a in (out, col, term, scaled))
        o.fill(0)
        for j in range(width + hi):
            c.fill(0)
            for i in range(max(0, j - hi), min(j, width - 1) + 1):
                if live[i]:
                    np.multiply(p_digits[:, i, None], rows[j - i], out=t)
                    c += t
            np.floor_divide(c, q, out=t)        # c mod q in place: _divmod
            t *= q
            c -= t
            np.multiply(c, q**j, out=sc, dtype=dtype)
            o += sc
        yield from zip(group, view)


def _doubling_tables(ps: Iterable[int], s: int, dtype: type[np.integer],
                     odd: bool) -> Iterator[tuple[int, np.ndarray]]:
    """(p, t) for each p of ps over F_2: t[r] = p*r for every r below 2^s,
    or with odd, t[m] = p*(2m + 1) for every odd 2m + 1 below 2^s, by
    doubling, in one array rewritten for each p."""
    t = np.zeros(1 << s - odd, dtype=dtype)
    view = _read_only(t)
    for p in ps:
        t[0] = p if odd else 0
        for k in range(s - odd):
            np.bitwise_xor(t[:1 << k], p << k + odd, out=t[1 << k:2 << k])
        yield p, view


def _xor_blocks(q: int, p: int, t: np.ndarray, s: int, heads: Iterable[int],
                out: np.ndarray) -> Iterator[np.ndarray]:
    """out, rewritten for each h of heads to p * (h x^s + r) for every r
    below 2^s, from t[r] = p*r: t ^ ((p*h) << s)."""
    view = _read_only(out)
    for h in heads:
        np.bitwise_xor(t, _index_product(q, p, h) << s, out=out)
        yield view


def _digit_blocks(q: int, p: int, t: np.ndarray, s: int,
                  heads: Iterable[int], out: np.ndarray,
                  ) -> Iterator[np.ndarray]:
    """out, rewritten for each h of heads to p * (h x^s + r) for every r
    below q^s, from t[r] = p*r: the low s digits of t[r], its top deg p
    digits each added mod q to the digit of p*h at its place, and the
    rest of p*h above them."""
    n = index_degree(q, p)
    top, low = _divmod(t, q**s)
    overlap = []
    for _ in range(n):
        top, digit = _divmod(top, q)
        overlap.append(digit)
    residues = np.arange(q, dtype=out.dtype)
    scaled = np.empty_like(out)
    view = _read_only(out)
    for h in heads:
        ph = _index_product(q, p, h)
        np.add(low, ph // q**n * q**(s + n), out=out)
        for k, digit in enumerate(overlap):
            lut = (residues + ph // q**k % q) % q * q**(s + k)
            np.take(lut, digit, out=scaled, mode="clip")
            out += scaled
        yield view


def _divmod(c: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """np.divmod(c, m) with the remainder as c - (c // m) m: numpy
    vectorises a scalar floor_divide, not a remainder."""
    quot = c // m
    return quot, c - quot * m


def _index_product(q: int, a: int, b: int) -> int:
    """The index of the product of the polynomials with indices a and b."""
    a_digits, b_digits = _index_digits(q, a), _index_digits(q, b)
    sums = [0] * (len(a_digits) + len(b_digits) - 1)
    for i, x in enumerate(a_digits):
        for j, y in enumerate(b_digits):
            sums[i + j] += x * y
    return sum(v % q * q**k for k, v in enumerate(sums))


def _block_degree(q: int, prime_to_x: bool) -> int:
    """The largest s with q^s <= BLOCK, at least 1 with prime_to_x: a
    cofactor prime to x has a constant term, so there its table has
    (q - 1) q^(s-1) rows, past BLOCK only where q - 1 is."""
    s = int(prime_to_x)
    while q**(s + 1) <= BLOCK:
        s += 1
    return s


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def _digit_dtype(q: int, hi: int) -> np.dtype:
    return np.min_scalar_type((hi + 1) * (q - 1)**2)


def _monic_indices(q: int, lo: int, hi: int,
                   dtype: type[np.integer]) -> np.ndarray:
    """Every monic index of degree lo..hi, ascending."""
    return np.concatenate([np.arange(q**e, 2 * q**e, dtype=dtype)
                           for e in range(lo, hi + 1)])


def _product_dtype(n_entries: int) -> type[np.integer]:
    """The integer type of a pass's products, each one below n_entries."""
    return np.int32 if n_entries <= 2**31 else np.int64


def _check_indexable(q: int, horizon: int, n_bytes: int) -> None:
    if n_bytes > np.iinfo(np.intp).max:     # also keeps the horizon < 64
        raise BudgetError(f"sieve for q={q}, horizon={horizon} needs"
                          f" {n_bytes} bytes, more than numpy can index")
