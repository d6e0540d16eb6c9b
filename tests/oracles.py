"""Per-polynomial oracles: index multiplication and trial division, a
least-factor sieve with its folds along the least-factor chains, a
factorization and the irreducibles of a degree read off its table,
from a slice of every monic polynomial of the degree or whole from the
library's wheel, and
the set-file codec one line at a time, plus trial-division primality
and a primitivity assertion that names the dividing pair;
and per-cell oracles for the exact count layer.

The library forms products and derives factor data in bulk, from one
multiples pass over the irreducibles, and reads and writes set files in
numpy passes over blocks of members.  These recompute the same results
another way: the least-factor sieve folds its chains once per degree,
and the rest goes one index or one line at a time, from index
arithmetic, the sieve's least-factor chain and the single-polynomial
text codec.  The thinned-irreducible enumeration is also redone from
the sieve's folds.

The library's count tables and recurrence check work on packed rows, one
integer per table row, and its two inequality checks walk each row only
to its last nonzero entry; its Erdos sum over irreducibles is split
over degree ranges, each count formed as the split reaches its degree,
its degree-bracket check runs over blocks of ranks, and its Mertens
products for n = 1..N come from one running sum and one running exact
product over degrees; its series G is read at every degree cutoff off
one running sum.  The count-layer oracles recompute each of these
one cell, one term, one n, one cutoff, one whole row or one whole array
at a time:
the Erdos sum one Fraction per degree, by Horner's rule over one common
denominator, and by the same split over the shared table of counts;
the exact Mertens product is one Fraction factor per degree.  The
library brackets its real values with its own integer interval type;
these oracles bracket them in mpmath's interval context instead
(mp_precision, mp_bracket), the uniform bound's log weight included.
The thinned-irreducible construction divides each term out of one count
table, and stops at the first all-zero term; its oracles rebuild the
table for every term by list convolution, and strike every term in full.
"""

import math
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from mpmath import iv

from primfield import DEFAULT_PRECISION_BITS
from primfield.brackets import BracketedValue
from primfield.counting import (PRINTABLE_EXACT_BITS, InequalityReport,
                                MertensValue, _slot_bytes, _table_rows,
                                _unpack)
from primfield.errors import UsageError, VerificationError
from primfield.fieldpoly import (_check_prime, _index_digits as index_digits,
                                 format_index, index_degree, index_divrem,
                                 parse_index)
from primfield.irreducibles import (kth_irreducible_degree, pi_cumulative,
                                    pi_prime)
from primfield.primitive import PolySet, is_primitive
from primfield.sieve import (_check_indexable, _monic_indices,
                             _product_dtype, _unmarked, _wheel,
                             monic_multiples)


def is_prime_trial(n):
    """Primality by trial division up to the square root."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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
    da = index_digits(q, a)
    db = index_digits(q, b)
    out_digits = [0] * (len(da) + len(db) - 1)
    for i, ai in enumerate(da):
        if ai:
            for j, bj in enumerate(db):
                out_digits[i + j] += ai * bj
    v = 0
    for c in reversed(out_digits):
        v = v * q + (c % q)
    return v


def factor_index(sieve, idx):
    """Factorization of an index as (irreducible index, multiplicity)
    pairs, read along the sieve's least-factor chain."""
    out = []
    v = idx
    while v != 1:
        p = int(sieve.spf[v])
        if p == 0:
            raise UsageError(f"index {v} outside sieve coverage")
        mult = 0
        while v != 1 and int(sieve.spf[v]) == p:
            mult += 1
            v = int(sieve.cof[v])
        out.append((p, mult))
    return out


def sieve_irreducibles(sieve, d):
    """Ascending indices of the irreducibles of degree d, read from the
    sieve's least-factor table: the fixed points spf[i] == i."""
    base = sieve.q**d
    return np.flatnonzero(sieve.spf[base:2 * base]
                          == np.arange(base, 2 * base)) + base


def wheel_slice(q, degree):
    """Ascending indices of the irreducibles of one degree, every unmarked
    flag of the library's wheel read out at once: the whole slice that
    the multiples pass reads."""
    [(_, flags)] = _wheel(q, [degree])
    return _unmarked(q, degree, flags)


def full_irreducible_slice(q, degree):
    """Ascending indices of the irreducibles of one degree, the library's
    slice before it kept only the polynomials prime to x: one flag for
    every monic polynomial of each degree 1..degree//2 and then degree,
    marked by every irreducible already found, x included, times every
    monic cofactor."""
    dtype = _product_dtype(2 * q**degree)
    found = {}
    for d in [*range(1, degree // 2 + 1), degree]:
        base = q**d
        slots = np.zeros(base, dtype=bool)
        for e in range(1, d // 2 + 1):
            for _, products in monic_multiples(q, found[e].tolist(), d - e,
                                               d - e, dtype):
                slots[products - base] = True
        found[d] = np.flatnonzero(~slots) + base
    return found[degree]


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
    dtype = _product_dtype(n_entries)
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
        at, last = 0, None
        for p, prods in monic_multiples(q, irr.tolist(), d, horizon - d,
                                        dtype):
            # a multiplier's blocks come in a row, ascending in g
            at = at if p == last else 0
            g = g_all[at:at + len(prods)]
            at, last = at + len(prods), p
            unmarked = spf[prods] == 0
            tgt = prods[unmarked]
            spf[tgt] = p
            cof[tgt] = g[unmarked]
    return FactorSieve(q, horizon, spf, cof)


def enumerate_members_folds(q: int, tseq, k_max: int, enum_horizon: int,
                            ) -> tuple[np.ndarray, np.ndarray]:
    """The members of degree <= enum_horizon, ascending, from the folds
    of one factor sieve, and their counts per (k, degree) in slot
    (k - 1) * (enum_horizon + 1) + degree, as mp_construct's enumeration
    returns them.  f joins S_k when it is squarefree, the least t-rank
    among its factors is k and omega(f) = k."""
    sieve = build_factor_sieve(q, enum_horizon)
    no_rank = np.iinfo(np.int32).max
    rank = np.full(len(sieve.spf), no_rank, dtype=np.int32)
    for k, t in enumerate(tseq.terms, start=1):
        if t < len(rank):
            rank[t] = k
    least = sieve.fold(lambda p, g, out: np.minimum(rank[p], out[g]),
                       np.int32(no_rank))
    member = (sieve.squarefree_flags() & (least == sieve.factor_counts())
              & (least <= k_max))
    indices = np.nonzero(member)[0]
    slots = (least[indices] - 1) * (enum_horizon + 1) + sieve.degrees(indices)
    return indices, np.bincount(slots, minlength=k_max * (enum_horizon + 1))


def divides(q, a, b):
    """True when the polynomial with index a divides the one with index b."""
    return index_divrem(q, b, a)[1] == 0


def assert_primitive(ps):
    """Raise VerificationError with the dividing pair if ps is not
    primitive."""
    ok, witness = is_primitive(ps)
    if not ok:
        a, b = (format_index(ps.q, i) for i in witness)
        raise VerificationError(f"not primitive: {a} divides {b}")


def is_irreducible(q, f):
    """No monic divisor of degree 1 .. deg f / 2; units are not irreducible."""
    d = index_degree(q, f)
    return d > 0 and not any(divides(q, g, f)
                             for e in range(1, d // 2 + 1)
                             for g in range(q**e, 2 * q**e))


@dataclass(frozen=True)
class Factorization:
    """(irreducible index, multiplicity) pairs of one index, ascending."""

    q: int
    factors: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, sieve, index):
        return cls(sieve.q, tuple(factor_index(sieve, index)))

    def degrees(self):
        """Factor degrees, one entry per factor counted with multiplicity."""
        return [index_degree(self.q, p) for p, m in self.factors
                for _ in range(m)]

    @property
    def omega(self):
        return len(self.factors)

    @property
    def big_omega(self):
        return sum(m for _, m in self.factors)

    @property
    def is_squarefree(self):
        return all(m == 1 for _, m in self.factors)

    @property
    def max_factor_degree(self):
        return max(self.degrees(), default=0)

    @property
    def divisor_degree_mask(self):
        """Bit n set iff some monic divisor has degree exactly n."""
        mask = 1
        for d in self.degrees():
            mask |= mask << d
        return mask

    def product(self):
        out = 1
        for p, m in self.factors:
            for _ in range(m):
                out = index_mul(self.q, out, p)
        return out


def divisor_degree_masks(sieve):
    """masks[i] has bit n set iff the polynomial with index i has a monic
    divisor of degree exactly n (bit 0 is always set); uint64, so the
    sieve horizon must stay below 64.

    Uses div(f) = div(g) + p div(g) for any irreducible p | f, g = f/p,
    so mask(f) = mask(g) | mask(g) << deg p along the sieve's chains.
    """
    def step(p, g, out):
        return out[g] | out[g] << sieve.degrees(p).astype(np.uint64)
    return sieve.fold(step, np.uint64(1))


def write_set_lines(ps, fh):
    """Set-file writer, one format_index call per member."""
    fh.write(f"q={ps.q};horizon={ps.horizon}\n")
    for i in ps.indices.tolist():
        fh.write(format_index(ps.q, i) + "\n")


def read_set_lines(fh):
    """Set-file reader, one parse_index call per member line."""
    lines = fh.read().splitlines()
    if not lines:
        raise UsageError("empty set file")
    header = lines[0].strip()
    parts = dict(p.split("=", 1) for p in header.split(";") if "=" in p)
    try:
        q = int(parts["q"])
        horizon = int(parts["horizon"])
    except (KeyError, ValueError):
        raise UsageError(f"bad header {header!r}, expected q=..;horizon=..") from None
    indices = []
    seen = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            _, idx = parse_index(text, q=q)
        except UsageError as exc:
            raise UsageError(f"line {lineno}: {exc}") from None
        if idx in seen:
            raise UsageError(f"line {lineno}: duplicate member {text!r}")
        seen.add(idx)
        indices.append(idx)
    try:
        return PolySet(q, horizon, tuple(indices))
    except UsageError as exc:
        raise UsageError(f"set file invalid: {exc}") from None


def count_table_lists(q, N, excluded_degrees=None):
    """Rows of Pi'_{q,k}(n) by list convolution, one slice per (d, n, j)."""
    excl = dict(excluded_degrees or {})
    rows = [[0] * (n + 1) for n in range(N + 1)]
    rows[0][0] = 1
    for d in range(1, N + 1):
        m = pi_prime(q, d) - excl.get(d, 0)
        if m == 0:
            continue
        jmax = min(N // d, m)
        binom = [math.comb(m, j) for j in range(jmax + 1)]
        for n in range(N, d - 1, -1):
            dst = rows[n]
            for j in range(1, min(n // d, jmax) + 1):
                src = rows[n - j * d]
                c = binom[j]
                lo = j
                hi = n - j * (d - 1)
                dst[lo:hi + 1] = [x + c * s for x, s in zip(dst[lo:hi + 1], src)]
    return tuple(tuple(r) for r in rows)


def table_count(rows, n, k):
    """Pi'_{q,k}(n) read off a table's rows: 0 for k outside 0..n."""
    return rows[n][k] if 0 <= k <= n else 0


def row_total(rows, n):
    """The squarefree monic polynomials of degree n a table counts."""
    return sum(rows[n])


def mp_counts_rebuilt(q, degrees, horizon):
    """|S_k at degree n| for t-terms of the given degrees, one count table
    per k by list convolution (count_table_lists): the field less
    t_1 .. t_k, built anew each time, with no packed row."""
    counts, excl = [], {}
    for k, dk in enumerate(degrees, start=1):
        excl[dk] = excl.get(dk, 0) + 1
        rows = count_table_lists(q, horizon, excl)
        counts.append(tuple(table_count(rows, n - dk, k - 1)
                            for n in range(horizon + 1)))
    return tuple(counts)


def strike_counts_full(q, N, degrees):
    """counting.strike_counts with every term struck: no stop at the
    first all-zero S_k."""
    packed = [row for row, _ in _table_rows(q, N)]
    nbytes = _slot_bytes(q, N)
    width, mask = 8 * nbytes, (1 << 8 * nbytes) - 1
    counts = []
    for k, dk in enumerate(degrees, start=1):
        for n in range(dk, N + 1):
            packed[n] -= packed[n - dk] << width
            assert packed[n] >= 0, (k, n)
        counts.append(tuple(packed[n - dk] >> width * (k - 1) & mask
                            if n >= dk + k - 1 else 0 for n in range(N + 1)))
    return tuple(counts)


def recurrence_cells(q, N, rows):
    """(cells, violations, min_log_margin) of the factor-count recurrence
    (k-1) rows[n][k] <= sum_{d <= n/2} pi'(d) rows[n-d][k-1], one
    right side summed per cell."""
    violations = []
    min_margin = math.inf
    cells = 0
    for n in range(2, N + 1):
        for k in range(2, n + 1):
            lhs = (k - 1) * rows[n][k]
            rhs = 0
            for d in range(1, n // 2 + 1):
                nd = n - d
                if k - 1 <= nd:
                    rhs += pi_prime(q, d) * rows[nd][k - 1]
            cells += 1
            if lhs > rhs:
                violations.append((n, k, lhs, rhs))
            elif lhs:
                min_margin = min(min_margin, math.log(rhs) - math.log(lhs))
    return cells, tuple(violations), (min_margin if min_margin < math.inf
                                      else 0.0)


@contextmanager
def mp_precision(bits):
    """mpmath's interval context at bits of precision for the block."""
    old = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = old


def mp_term_precision(m):
    """The library's per-degree precision rule on mpmath's context."""
    return mp_precision(iv.prec + m.bit_length())


def _mp_endpoint(t):
    sign, man, exp, _bc = t
    f = Fraction(int(man) << exp) if exp >= 0 else \
        Fraction(int(man), 1 << -exp)
    return -f if sign else f


def mp_fractions(x):
    """The exact (lo, hi) of an mpmath interval."""
    lo, hi = x._mpi_
    return _mp_endpoint(lo), _mp_endpoint(hi)


def mp_bracket(x):
    """An mpmath interval as a BracketedValue."""
    return BracketedValue(*mp_fractions(x))


def mp_fraction(fr):
    """fr as mpmath's interval of its numerator over its denominator."""
    fr = Fraction(fr)
    return iv.mpf(fr.numerator) / fr.denominator


def log_weight_dyadic_lower(n, precision_bits):
    """(num, s) with num/2^s <= log n + 2 - log 2: the lower end of the
    interval mpmath's iv context gives at precision_bits, in lowest terms."""
    with mp_precision(precision_bits):
        w = iv.log(iv.mpf(n)) + 2 - iv.log(iv.mpf(2))
        lo = mp_fractions(w)[0]
    num, den = lo.numerator, lo.denominator
    assert num > 0 and den & (den - 1) == 0
    return num, den.bit_length() - 1


def hr_bound_full_width(q, N, rows,
                        precision_bits=DEFAULT_PRECISION_BITS):
    """verify_hr_bound's report with every k of every row walked, zero
    entries included, and each row's log weight bounded by mpmath."""
    violations = []
    min_margin = math.inf
    cells = 0
    for n in range(1, N + 1):
        num, s = log_weight_dyadic_lower(n, precision_bits)
        rhs = q**n
        scale = n
        row = rows[n]
        for k in range(1, n + 1):
            lhs = row[k] * scale
            cells += 1
            if lhs > rhs:
                violations.append((n, k, row[k]))
            elif row[k]:
                min_margin = min(min_margin, math.log(rhs) - math.log(lhs))
            rhs *= num
            scale = scale * k << s
    return InequalityReport("uniform-factor-count-bound", q, N, cells,
                            tuple(violations),
                            min_margin if min_margin < math.inf else 0.0)


def _pack(row, nbytes):
    """One int holding row's entries in nbytes-wide unsigned slots, lowest
    first (the inverse of counting._unpack): each entry must be >= 0 and
    below 2^(8 nbytes)."""
    return int.from_bytes(b"".join(v.to_bytes(nbytes, "little") for v in row),
                          "little")


def packed_rows(q, N, rows):
    """Rows 0..N of rows as _table_rows yields them: each packed in the
    build's slots (_slot_bytes) and cut after its last nonzero entry."""
    nbytes = _slot_bytes(q, N)
    for row in rows[:N + 1]:
        row = tuple(row)
        while row and not row[-1]:
            row = row[:-1]
        yield _pack(row, nbytes), row


def recurrence_sums_full_width(q, N, rows):
    """sums[n][j] = sum_{d <= n/2} pi'(d) rows[n-d][j] for 2 <= n <= N and
    0 <= j < n (sums[0] and sums[1] empty), from every row packed at a
    width that its largest entry times the sum of the weights fits, with
    every slot of each packed sum unpacked."""
    rows = [row[:n + 1] for n, row in enumerate(rows[:N + 1])]
    weights = [pi_prime(q, d) for d in range(1, N // 2 + 1)]
    largest = max(max(row) for row in rows)
    nbytes = (largest * max(1, sum(weights))).bit_length() // 8 + 1
    packed = [_pack(row, nbytes) for row in rows]
    sums = [(), ()]
    for n in range(2, N + 1):
        acc = 0
        for d in range(1, n // 2 + 1):
            acc += weights[d - 1] * packed[n - d]
        sums.append(_unpack(acc, n, nbytes))
    return sums


def recurrence_bound_full_width(q, N, rows):
    """verify_recurrence_bound's report with every slot of each of
    recurrence_sums_full_width's sums compared."""
    violations = []
    min_margin = math.inf
    cells = 0
    for n, sums in enumerate(recurrence_sums_full_width(q, N, rows)):
        for k in range(2, n + 1):
            lhs = (k - 1) * rows[n][k]
            rhs = sums[k - 1]
            cells += 1
            if lhs > rhs:
                violations.append((n, k, lhs, rhs))
            elif lhs:
                min_margin = min(min_margin, math.log(rhs) - math.log(lhs))
    return InequalityReport("factor-count-recurrence", q, N, cells,
                            tuple(violations),
                            min_margin if min_margin < math.inf else 0.0)


def erdos_sum_horner(q, cut):
    """sum_{d <= cut} pi'(d) / (d q^d) over the one denominator
    L q^cut, L = lcm(1..cut): term d is pi'(d) (L/d) q^(cut-d), summed by
    Horner's rule in q, then reduced once."""
    lcm = math.lcm(*range(1, cut + 1))
    num = 0
    for d in range(1, cut + 1):
        num = num * q + pi_prime(q, d) * (lcm // d)
    return Fraction(num, lcm * q**cut)


def erdos_sum_split(q, cut):
    """sum_{d <= cut} pi'(d) / (d q^d), every pi' read from the shared
    table, split over degree ranges: (num, L) with the sum over
    lo <= d < hi equal to num / (L q^(hi-1)), L = lcm(lo..hi-1)."""
    def split(lo, hi):
        if hi - lo == 1:
            return pi_prime(q, lo), lo
        mid = (lo + hi) // 2
        low, low_lcm = split(lo, mid)
        high, high_lcm = split(mid, hi)
        lcm = math.lcm(low_lcm, high_lcm)
        return (low * (lcm // low_lcm) * q**(hi - mid)
                + high * (lcm // high_lcm), lcm)

    pi_prime(q, cut)    # one Moebius pass, to the top degree
    num, lcm = split(1, cut + 1)
    return Fraction(num, lcm * q**cut)


def erdos_sum_terms(q, cut):
    """sum_{d <= cut} pi'(d) / (d q^d), one Fraction added per degree."""
    partial = Fraction(0)
    for d in range(1, cut + 1):
        partial += Fraction(pi_prime(q, d), d * q**d)
    return partial


def g_series_resummed(q, z, degree_cap):
    """The interval for prod_p (1 + z/|p|)(1 - 1/|p|)^z to degree_cap,
    tail in, every degree's term summed afresh from degree 1, at the same
    working precisions as the library's running sum."""
    s = iv.mpf(0)
    for d in range(1, degree_cap + 1):
        m = pi_prime(q, d)
        with mp_term_precision(m):
            u = iv.mpf(1) / q**d
            term = m * (iv.log(1 + z * u) + z * iv.log(1 - u))
        s += term
    tail_mag = z * (1 + z) / q**degree_cap / ((degree_cap + 1) * (q - 1))
    s += -(iv.mpf([0, 1]) * tail_mag)
    return iv.exp(s)


def mertens_exact(q, n):
    """prod_{d <= n} (1 - 1/q^d)^{pi'_q(d)}, one Fraction factor per degree."""
    out = Fraction(1)
    for d in range(1, n + 1):
        out *= (1 - Fraction(1, q**d))**pi_prime(q, d)
    return out


def mertens_per_n(q, n):
    """The Mertens product at one n: every degree's term summed afresh, at
    the same working precisions, and the exact rational from mertens_exact
    while its numerator, about sum_d d pi'(d) log2 q bits, stays within
    the printable budget."""
    exponent = sum(d * pi_prime(q, d) for d in range(1, n + 1))
    exact = None
    if int(exponent * math.log2(q)) + 1 <= PRINTABLE_EXACT_BITS:
        exact = mertens_exact(q, n)
    with mp_precision(DEFAULT_PRECISION_BITS):
        s = iv.mpf(0)
        for d in range(1, n + 1):
            m = pi_prime(q, d)
            with mp_term_precision(m):
                term = m * iv.log(1 - iv.mpf(1) / q**d)
            s += term
        norm = iv.exp(iv.euler + iv.log(iv.mpf(n)) + s)
        return MertensValue(q, n, exact, mp_bracket(norm))


def degree_brackets_whole(q, k_lo, k_hi, slack):
    """(violations, violation_count, worst_low_margin, worst_high_margin)
    of the degree window check, with every rank of the range in one array
    and each rank's degree from bisecting the exact cumulative counts."""
    cum = [0]
    while cum[-1] < k_hi:
        cum.append(pi_cumulative(q, len(cum)))
    ks = np.arange(k_lo, k_hi + 1, dtype=np.int64)
    degs = np.array([bisect_left(cum, k) for k in range(k_lo, k_hi + 1)],
                    dtype=np.float64)
    logq = math.log(q)
    lk = np.log(ks) / logq
    L = lk + np.log(lk) / logq + math.log(q - 1) / logq
    low_margin = degs - (L - 1.0 - slack)
    high_margin = (L + slack) - degs
    bad = np.nonzero((low_margin < 0) | (high_margin < 0))[0]
    return (tuple(int(ks[i]) for i in bad[:1000]), len(bad),
            float(low_margin.min()), float(high_margin.min()))


def degree_bracket_margins_numpy(q, k_lo, k_hi, slack):
    """(worst_low_margin, worst_high_margin) as numpy float64 arrays over
    the degree blocks' end ranks give them: the upper margin at each
    block's first rank, the lower at its last."""
    ends = []
    d_lo = kth_irreducible_degree(q, k_lo)
    d_hi = kth_irreducible_degree(q, k_hi)
    for d in range(d_lo, d_hi + 1):
        ends += [max(k_lo, pi_cumulative(q, d - 1) + 1),
                 min(k_hi, pi_cumulative(q, d))]
    logq = math.log(q)
    lk = np.log(np.array(ends, dtype=np.float64)) / logq
    L = lk + np.log(lk) / logq + math.log(q - 1) / logq
    degs = np.arange(d_lo, d_hi + 1, dtype=np.float64)
    high_margin = (L[0::2] + slack) - degs
    low_margin = degs - (L[1::2] - 1.0 - slack)
    return float(low_margin.min()), float(high_margin.min())


# ----------------------------------------------------------------------
# The certified brackets formed in mpmath's interval context
# ----------------------------------------------------------------------

def evaluate_G_mp(q, z, eps, precision_bits=DEFAULT_PRECISION_BITS):
    """evaluate_G's bracket from mpmath: the series resummed at each cap
    in turn, the precision doubled until one is at most eps wide."""
    bits = precision_bits
    while True:
        with mp_precision(bits):
            z_iv = mp_fraction(z)
            for cap in (8, 16, 32, 64):
                out = mp_bracket(g_series_resummed(q, z_iv, cap))
                if out.width <= eps:
                    return out
        bits *= 2


def norton_brackets_mp(x, alpha, beta, precision_bits=DEFAULT_PRECISION_BITS):
    """(lower lhs, lower rhs, upper lhs, upper rhs) of norton_check, each
    factor formed in mpmath's interval context."""
    x, alpha, beta = Fraction(x), Fraction(alpha), Fraction(beta)
    k_max = math.floor(alpha * x)
    k_min = math.floor(beta * x) + 1
    s_low = s_mid = Fraction(0)
    term = Fraction(1)
    for k in range(k_min):
        if k:
            term *= Fraction(x, k)
        if k <= k_max:
            s_low += term
        s_mid += term

    def large_deviation(y):
        y_iv = mp_fraction(y)
        return y_iv * iv.log(y_iv) - y_iv + 1

    with mp_precision(precision_bits):
        e_neg_x = iv.exp(-mp_fraction(x))
        x_iv = mp_fraction(x)
        return (mp_bracket(e_neg_x * mp_fraction(s_low)),
                mp_bracket(iv.exp(-large_deviation(alpha) * x_iv)
                           / (mp_fraction(1 - alpha)
                              * iv.sqrt(mp_fraction(alpha) * x_iv))),
                mp_bracket(1 - e_neg_x * mp_fraction(s_mid)),
                mp_bracket(iv.exp(-large_deviation(beta) * x_iv)
                           / (mp_fraction(beta - 1)
                              * iv.sqrt(2 * iv.pi * mp_fraction(beta)
                                        * x_iv))))


def growth_value_mp(growth, x):
    """GrowthFunction.value_iv in mpmath's context at its precision."""
    e = iv.exp(iv.mpf(1))
    v = iv.log(x + e)
    if growth.kind == "log":
        return v**mp_fraction(1 + growth.eps)
    prod = iv.mpf(1)
    for m in range(2, growth.j + 1):
        if v.b <= e.a:
            v = iv.mpf(1)
        else:
            v = iv.log(iv.mpf([max(v.a, e.a), max(v.b, e.b)]))
        if m < growth.j:
            prod *= v
    return prod * v**mp_fraction(1 + growth.eps)


def t_sequence_tail_mp(q, growth, K, c,
                       precision_bits=DEFAULT_PRECISION_BITS):
    """build_t_sequence's exact tail bound beyond the cutoff K, its
    brackets formed in mpmath's interval context; c is the density
    constant."""
    with mp_precision(precision_bits):
        l_next = mp_bracket(growth_value_mp(growth, K + 1)).lo
        theta = 1 - 1 / ((K + 1) * l_next)
        if growth.kind == "log":
            lk = iv.log(iv.mpf(K))
            power = mp_fraction(2 + growth.eps)
            integral = mp_bracket(1 / (power * lk**power)).hi
        else:
            v = iv.log(iv.mpf(K))
            for _ in range(2, growth.j + 1):
                v = iv.log(v)
            power = mp_fraction(growth.eps)
            integral = mp_bracket(1 / (power * v**power)).hi
        pre = mp_bracket(mp_fraction(c) * iv.log(iv.mpf(q))**2
                         / mp_fraction(theta)).hi
    return pre * integral
