"""Primitive sets of monic polynomials: certificates, densities, Erdos sums.

A set S of non-unit monic polynomials is primitive when no member divides
another.  Everything here is exact: primitivity certificates come with an
explicit dividing pair on failure, densities and Erdos sums are
rationals, and the weighted density bound has an integer bracket.
"""

from __future__ import annotations

import operator
import random
from collections import defaultdict
from fractions import Fraction
from itertools import accumulate, chain, combinations, pairwise
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .counting import (exact_prints, mertens_brackets, mertens_parts,
                       monic_cumulative)
from .errors import UsageError
from .fieldpoly import (_check_prime, format_index, index_degree,
                        index_divrem, is_prime, parse_index)
from .irreducibles import pi_prime
from .sieve import _divmod, block_multiples, multiples_pass

if TYPE_CHECKING:    # loaded by the functions that form brackets
    from .brackets import BracketedValue


# ----------------------------------------------------------------------
# Finite sets of monic polynomials below a degree horizon
# ----------------------------------------------------------------------

class PolySet:
    """Finite set of non-unit monic polynomials with degrees <= horizon,
    held as their indices; immutable.

    indices is one read-only 1-D array, ascending without repeats, which
    is also (degree, index) order because degree-d indices fill
    [q^d, 2 q^d).  It is int64 when every member fits, else an object
    array of Python ints, so members may lie past any fixed-width integer
    range.  An int64 array passed in is taken over, not copied.
    """

    __slots__ = ("q", "horizon", "indices")

    def __init__(self, q: int, horizon: int, indices) -> None:
        _check_prime(q)
        if horizon < 1:
            raise UsageError("horizon must be >= 1")
        indices = _member_array(indices)
        # read_set and the constructions pass ascending, duplicate-free
        # members; only other input pays for a sort
        if len(indices) > 1 and not (indices[1:] > indices[:-1]).all():
            indices = _distinct(indices)
        indices = indices.view()
        indices.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "indices", indices)
        if not len(indices):
            return
        if indices[0] < 1:
            raise UsageError(f"index {int(indices[0])} is not positive")
        bounds = self._degree_bounds()
        for d, (lo, hi) in enumerate(pairwise(bounds)):
            # a block ascends, so its last member has the largest digit
            if lo < hi and int(indices[hi - 1]) >= 2 * q**d:
                raise UsageError(f"index {int(indices[hi - 1])} has"
                                 f" leading base-{q} digit != 1")
        if indices[0] == 1:
            raise UsageError("members must be non-unit (degree >= 1)")
        if len(bounds) > self.horizon + 2:
            beyond = int(indices[bounds[self.horizon + 1]])
            raise UsageError(f"member {format_index(q, beyond)}"
                             f" exceeds horizon {self.horizon}")

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")
    __delattr__ = __setattr__

    def __len__(self) -> int:
        return len(self.indices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolySet):
            return NotImplemented
        return (self.q == other.q and self.horizon == other.horizon
                and np.array_equal(self.indices, other.indices))

    def __repr__(self) -> str:
        return (f"PolySet(q={self.q!r}, horizon={self.horizon!r},"
                f" indices={self.indices!r})")

    def _degree_bounds(self) -> list[int]:
        """Positions where each degree 0..max_degree starts, then len(self):
        degree d fills indices[bounds[d]:bounds[d + 1]]."""
        powers = [self.q**d for d in range(self.max_degree + 1)]
        starts = np.searchsorted(self.indices,
                                 np.array(powers, self.indices.dtype))
        return starts.tolist() + [len(self.indices)]

    def by_degree(self) -> dict[int, np.ndarray]:
        """Members grouped by degree, ascending within each group, as
        views of indices."""
        bounds = self._degree_bounds()
        return {d: self.indices[lo:hi]
                for d, (lo, hi) in enumerate(pairwise(bounds)) if lo < hi}

    def degree_counts(self) -> dict[int, int]:
        return {d: len(block) for d, block in self.by_degree().items()}

    @property
    def max_degree(self) -> int:
        return index_degree(self.q, int(self.indices[-1])) if len(self) else 0


def _member_array(values) -> np.ndarray:
    """values as a 1-D int64 array when every one fits, else as an object
    array of Python ints; an int64 array is returned as it is."""
    if isinstance(values, np.ndarray) and np.can_cast(values.dtype, np.int64):
        return values.astype(np.int64, copy=False)
    values = list(map(operator.index, values))
    try:
        return np.array(values, np.int64)
    except OverflowError:
        return np.array(values, object)


# ----------------------------------------------------------------------
# Set files
# ----------------------------------------------------------------------

_TEXT_CHUNK = 1 << 18    # set-file characters read or written per numpy pass
_NEWLINE, _COMMA, _ZERO = ord("\n"), ord(","), ord("0")


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of a, ascending, by a sort and a neighbour mask;
    np.unique would load numpy.ma for its masked-array check."""
    a = np.sort(a)
    keep = np.ones(len(a), bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _index_dtype(q: int, degree: int):
    """int64 while q^(degree+1), a bound on every index of that degree and
    on every digit times its weight, fits; else Python ints in an object
    array."""
    return np.int64 if q**(degree + 1) < 2**63 else object


def write_set(ps: PolySet, fh) -> None:
    """One header line `q=..;horizon=..`, then one member per line in the
    canonical form of `format_index`, ascending.

    Members of one degree d are formatted in blocks of about 256k
    characters: a block is one (rows, line length) byte matrix, each line
    the prefix `q=Q;` and d + 1 cells of width + 1 bytes, a coefficient
    right-aligned in its cell and a comma or the newline after it.  Each
    coefficient column takes one _divmod of the block's indices by q, its
    decimal text written straight into its cells.  Below q = 10 every
    coefficient is one character and the matrix is the text; above, one
    mask drops the pad bytes before a coefficient.
    """
    q = ps.q
    fh.write(f"q={q};horizon={ps.horizon}\n")
    prefix = np.frombuffer(f"q={q};".encode(), np.uint8)
    width = len(str(q - 1))
    small = _index_dtype(q, 0)                 # the dtype of a coefficient
    for d, block in ps.by_degree().items():
        length = len(prefix) + (d + 1) * (width + 1)
        rows = min(len(block), max(1, _TEXT_CHUNK // length))
        text = np.empty((rows, length), np.uint8)
        text[:, :len(prefix)] = prefix
        cells = text[:, len(prefix):].reshape(rows, d + 1, width + 1)
        cells[..., width] = _COMMA
        cells[:, -1, width] = _NEWLINE
        for lo in range(0, len(block), rows):
            rest = np.array(block[lo:lo + rows], _index_dtype(q, d))
            out = cells[:len(rest)]
            for k in range(d + 1):
                rest, coeff = _divmod(rest, q)
                coeff = coeff.astype(small, copy=False)
                for j in range(width - 1, -1, -1):
                    tens, digit = _divmod(coeff, 10)
                    np.add(digit, _ZERO, out=out[:, k, j], casting="unsafe")
                    if j < width - 1:
                        out[:, k, j][coeff == 0] = 0     # pad byte
                    coeff = tens
            lines = text[:len(rest)]
            fh.write(str(lines[lines != 0] if width > 1 else lines, "ascii"))


def _text_chunks(fh, size: int):
    """The text of fh in pieces of about `size` characters, each ending
    just after a newline.  An unterminated last line gets a newline: at
    most that adds a blank last line, which the reader skips."""
    carry: list[str] = []
    while block := fh.read(size):
        cut = block.rfind("\n") + 1
        if cut:
            carry.append(block[:cut])
            yield "".join(carry)
            carry = [block[cut:]]
        else:
            carry.append(block)
    tail = "".join(carry)
    if tail:
        yield tail + "\n"


def _fixed_width_lines(a: np.ndarray, ends: np.ndarray,
                       q: int) -> tuple[np.ndarray, np.ndarray]:
    """Which lines of a (each ending at a newline in ends) are in
    write_set's form for a q < 10, `q=Q;c0,...,cd` with c_d = 1, and
    their indices in line order, an int64 or object array.

    A canonical line of degree d, newline included, is then exactly
    len("q=Q;") + 2(d + 1) bytes, so the lines of one length form one
    (rows, length) byte matrix, a view when they are consecutive.  Less
    the template line `q=Q;0,...,0,1` it must be 0 in every column but
    the low digits, which must be below q: the prefix, the commas, the
    digits and the leading 1 are checked in one compare.  Horner over the
    digit columns forms the indices.
    """
    prefix = np.frombuffer(f"q={q};".encode(), np.uint8)
    canon = np.zeros(len(ends), bool)
    lengths = np.diff(ends, prepend=-1)
    rows_of, index_of = [], []
    for length in _distinct(lengths).tolist():
        degree, odd = divmod(length - len(prefix) - 2, 2)
        if odd or degree < 0:
            continue
        template = np.full(length, _ZERO, np.uint8)
        template[:len(prefix)] = prefix
        template[len(prefix) + 1::2] = _COMMA
        template[-2:] = ord("1"), _NEWLINE
        limit = np.ones(length, np.uint8)
        limit[len(prefix):-2:2] = q
        rows = np.flatnonzero(lengths == length)
        if rows[-1] - rows[0] == len(rows) - 1:
            first = int(ends[rows[0]]) + 1 - length
            mat = a[first:first + len(rows) * length].reshape(-1, length)
        else:
            mat = a[ends[rows, None] + np.arange(1 - length, 1)]
        mat = mat - template
        good = mat < limit
        if not good.all():
            ok = good.all(axis=1)
            rows, mat = rows[ok], mat[ok]
        index = np.ones(len(rows), _index_dtype(q, degree))
        for j in range(len(prefix) + 2 * degree - 2, len(prefix) - 1, -2):
            index *= q
            index += mat[:, j]
        canon[rows] = True
        rows_of.append(rows)
        index_of.append(index)
    if not rows_of:
        return canon, np.zeros(0, np.int64)
    rows, index = np.concatenate(rows_of), np.concatenate(index_of)
    if len(rows_of) > 1:
        index = index[np.argsort(rows)]
    return canon, index


def read_set(fh) -> PolySet:
    """Inverse of write_set.  Member lines may also be bare decimal
    indices or bare coefficient lists; blank lines and `#` comments are
    skipped.  Errors name the line, counted as str.splitlines() counts.

    The text is read in chunks of about 256k characters.  For q < 10 a
    chunk whose every line is in the form write_set writes is converted
    with numpy passes over fixed-width byte matrices (_fixed_width_lines),
    which keep temporaries a few megabytes.  Any other chunk, every one
    for q >= 10 included, goes one line at a time through parse_index,
    which words every parse error: a hand-edited line costs a Python loop
    over its own chunk only, a q >= 10 file about three times the bulk
    time.  Repeats are found once, over all members; of a repeat and a
    parse error, the one on the earlier line is raised.
    """
    chunks = _text_chunks(fh, _TEXT_CHUNK)
    first = next(chunks, "")
    if not first:
        raise UsageError("empty set file")
    cut = first.index("\n") + 1
    head, *rest = first[:cut].splitlines(keepends=True)
    header = head.strip()
    parts = dict(p.split("=", 1) for p in header.split(";") if "=" in p)
    try:
        q = int(parts["q"])
        horizon = int(parts["horizon"])
    except (KeyError, ValueError):
        raise UsageError(f"bad header {header!r}, expected q=..;horizon=..") from None
    # Members need a prime q (parse_index words the error); is_prime comes
    # first, as it refuses a q past exact primality testing.
    bulk = not rest and is_prime(q) and q < 10
    # per chunk: its members, and their count, its first line and its text
    # if the loop read it (every line of a bulk chunk is a member)
    members, spots, line, error = [], [], 2, None
    for chunk in chain(["".join(rest) + first[cut:]], chunks):
        if bulk:
            a = np.frombuffer(chunk.encode("utf-8", "surrogatepass"),
                              np.uint8)
            ends = np.flatnonzero(a == _NEWLINE)
            canon, index = _fixed_width_lines(a, ends, q)
            if canon.all():
                members.append(index)
                spots.append((len(index), line, None))
                line += len(ends)
                continue
        lines, index = chunk.splitlines(), []
        for n, text in _member_lines(lines, line):
            try:
                index.append(parse_index(text, q=q)[1])
            except UsageError as exc:
                error = f"line {n}: {exc}"
                break
        members.append(_member_array(index))
        spots.append((len(index), line, chunk))
        line += len(lines)
        if error:
            break
    members = np.concatenate(members)
    if len(members) > 1 and not (members[1:] > members[:-1]).all():
        order = np.argsort(members, kind="stable")
        again = order[1:][members[order[1:]] == members[order[:-1]]]
        if again.size:
            # name the later copy that comes first in the file
            at = int(again.min())
            text = format_index(q, int(members[at]))
            for size, line, chunk in spots:
                if at < size:
                    break
                at -= size
            line, text = ((line + at, text) if chunk is None else
                          list(_member_lines(chunk.splitlines(), line))[at])
            raise UsageError(f"line {line}: duplicate member {text!r}")
        members = members[order]
    if error:
        raise UsageError(error)
    try:
        return PolySet(q, horizon, members)
    except UsageError as exc:
        raise UsageError(f"set file invalid: {exc}") from None


def _member_lines(lines: list[str], line: int):
    """(number, text) of each line but blanks and `#` comments, from line."""
    for n, raw in enumerate(lines, start=line):
        text = raw.strip()
        if text and not text.startswith("#"):
            yield n, text


# ----------------------------------------------------------------------
# Primitivity certificates
# ----------------------------------------------------------------------

def is_primitive(ps: PolySet) -> tuple[bool, tuple[int, int] | None]:
    """Decide primitivity; on failure also return the index pair (a, b)
    of two members with a | b: the least member b with a proper divisor
    in the set, and its least such divisor a.

    Distinct monic polynomials of equal degree never divide one another,
    so only cross-degree pairs count.  The multiples pass decides when it
    forms no more products than trial division would test pairs; sparse
    or high-degree sets use trial division pair by pair.  Within the
    pass, a target degree e' gets a membership mask of q^e' bytes when
    the pass forms at least that many products into it; else its
    products are looked up by binary search among its members.
    """
    blocks = ps.by_degree()
    if len(blocks) <= 1:
        return True, None
    sizes = {d: len(block) for d, block in blocks.items()}
    pairs = sum(sizes[low] * sizes[high]
                for low, high in combinations(sizes, 2))
    # products up to the top degree must fit int64 (an object array of
    # members never does)
    if _index_dtype(ps.q, ps.max_degree) is object \
            or sum(_products_into(ps.q, sizes).values()) > pairs:
        return _primitive_by_division(ps)
    return _primitive_by_multiples(ps)


def _products_into(q: int, sizes: dict[int, int]) -> dict[int, int]:
    """For each member degree e' (sizes maps degree to member count), the
    products the multiples pass forms into it: every member of a degree
    e < e' times every monic cofactor of degree e' - e."""
    return {high: sum(sizes[low] * q**(high - low)
                      for low in sizes if low < high) for high in sizes}


def _primitive_by_division(ps: PolySet) -> tuple[bool, tuple[int, int] | None]:
    """is_primitive by trial division of each member by every member of
    lower degree."""
    q = ps.q
    lower: list[int] = []
    for block in ps.by_degree().values():
        members = block.tolist()
        for b in members:
            for a in lower:
                if index_divrem(q, b, a)[1] == 0:
                    return False, (a, b)
        lower.extend(members)
    return True, None


def _primitive_by_multiples(ps: PolySet,
                            ) -> tuple[bool, tuple[int, int] | None]:
    """is_primitive by forming, for each pair of member degrees e < e',
    every product of a degree-e member with a monic cofactor of degree
    e' - e, and looking the products up among the degree-e' members.

    block_multiples loops over the smaller side of a pair: each member
    times every cofactor, or each cofactor times a block of members, and
    each of its arrays of at most sieve.BLOCK products is looked up in
    one pass.  Every product into e' lies in [q^e', 2 q^e'), so when the
    pass forms at least q^e' products into e' (_products_into), one byte
    per index of that range marks the degree-e' members and a lookup is
    one gather: the mask costs at most a byte per product formed.  A
    target wider than the products formed into it keeps the binary
    search (_least_hit), which holds nothing of its own.  Target
    degrees run upward, so the first one that holds a product holds the
    least multiple b, and its least divisor a is the least over the
    products equal to b.
    """
    q, blocks = ps.q, ps.by_degree()
    formed = _products_into(q, {d: len(block) for d, block in blocks.items()})
    for top, target in blocks.items():
        base, mask = q**top, None
        if base <= formed[top]:
            mask = np.zeros(base, bool)
            mask[target - base] = True
        found: list[tuple[int, int]] = []       # (multiple, divisor)
        for e, block in blocks.items():
            f = top - e
            if f <= 0:
                break
            for a, products in block_multiples(q, block, f, f, np.int64):
                at = (_least_hit(products, target) if mask is None
                      else _least_masked(products, mask, base))
                if at is not None:
                    found.append((int(products[at]),
                                  a if isinstance(a, int) else int(a[at])))
        if found:
            b, a = min(found)
            return False, (a, b)
    return True, None


def _least_masked(products: np.ndarray, mask: np.ndarray,
                  base: int) -> int | None:
    """Position of the least of the products, all in [base, base +
    len(mask)), whose slot products - base is set in mask; None when none
    is."""
    hits = np.flatnonzero(mask[products - base])
    if not hits.size:
        return None
    return int(hits[np.argmin(products[hits])])


def _least_hit(products: np.ndarray, members: np.ndarray) -> int | None:
    """Position of the least of the products that members, an ascending
    array, holds; None when it holds none."""
    pos = np.searchsorted(members, products)
    np.minimum(pos, len(members) - 1, out=pos)
    hits = np.flatnonzero(members[pos] == products)
    if not hits.size:
        return None
    return int(hits[np.argmin(products[hits])])


# ----------------------------------------------------------------------
# Erdos sums
# ----------------------------------------------------------------------

def erdos_sum(ps: PolySet) -> Fraction:
    """sum_{a in S} 1 / (||a|| deg a), exact."""
    total = Fraction(0)
    for d, c in sorted(ps.degree_counts().items()):
        total += Fraction(c, d * ps.q**d)
    return total


# ----------------------------------------------------------------------
# Density
# ----------------------------------------------------------------------

class DensityRow(NamedTuple):
    n: int
    count: int
    monic_total: int
    ratio: Fraction
    running_max: Fraction

    def to_json(self) -> dict:
        return {"n": self.n, "count": self.count,
                "monic_total": str(self.monic_total),
                "ratio": f"{self.ratio.numerator}/{self.ratio.denominator}",
                "ratio_float": float(self.ratio),
                "running_max_float": float(self.running_max)}


def density_profile(ps: PolySet) -> tuple[DensityRow, ...]:
    """Exact counting-density rows: #(S up to degree n) / M_q(n), n <= horizon."""
    counts = ps.degree_counts()
    rows = []
    running = 0
    peak = Fraction(0)
    for n in range(1, ps.horizon + 1):
        running += counts.get(n, 0)
        ratio = Fraction(running, monic_cumulative(ps.q, n))
        peak = max(peak, ratio)
        rows.append(DensityRow(n, running, monic_cumulative(ps.q, n), ratio, peak))
    return tuple(rows)


class DensityBoundReport(NamedTuple):
    """Outcome of the weighted density inequality
    sum_{a in S} (1/||a||) prod_{deg p <= D(a)} (1 - 1/||p||)  <=  1,
    D(a) the largest irreducible-factor degree of a.

    lhs brackets the left side, exact is it in lowest terms while that
    prints, else None, and ok is the verdict."""

    q: int
    size: int
    lhs: BracketedValue
    exact: Fraction | None
    by_level: tuple[tuple[int, int], ...]
    ok: bool

    def to_json(self) -> dict:
        out = {"q": self.q, "size": self.size,
               "lhs_float": float(self.lhs.lo), "lhs": self.lhs.to_json(),
               "by_level": [[m, c] for m, c in self.by_level],
               "ok": self.ok}
        if self.exact is not None:
            out["lhs_exact"] = (f"{self.exact.numerator}/"
                                f"{self.exact.denominator}")
        return out


def verify_erdos_density_inequality(ps: PolySet) -> DensityBoundReport:
    """Check the weighted bound <= 1 by a certified bracket on its left side.

    D is read off one multiples pass to the top member degree H, as the
    pass checks: every product of a degree-d irreducible sets its byte to
    d, and d ascends.  With members bucketed by (degree da, D(a) = m), the
    left side lies in sum cnt q^(H - da) [lo_m, hi_m] / (q^H 2^w), from
    mertens_brackets; the verdict is hi <= 1 or lo > 1.  The exact sum
    A / q^E, A of ~q^D bits, is formed only while it prints or when the
    bracket holds 1, and then decides as the integer comparison A <= q^E.

    For a primitive set that never happens.  The sets M_a = {a c : c prime
    to every p with deg p <= D(a)}, of density q^-deg a P(D(a)), are
    disjoint (if a c = b c' and D(a) <= D(b), a's factors are those of b
    of degree <= D(a), so a | b), and miss the polynomials with no factor
    of degree <= D = max D(a), of density P(D).  So lhs <= 1 - P(D), and
    the bracket is narrower than 73 H D 2^-DEFAULT_PRECISION_BITS.
    """
    from .brackets import BracketedValue
    q = ps.q
    if not len(ps):
        return DensityBoundReport(q, 0, BracketedValue(0, 0), Fraction(0),
                                  (), True)
    top = ps.max_degree
    passes = multiples_pass(q, top)
    levels = np.zeros(2 * q**top, dtype=np.int8)
    for d, products in passes:
        levels[products] = d
    # member counts per (degree da, D(a) = m), and per level m
    buckets = []
    per_level: dict[int, int] = defaultdict(int)
    for da, block in ps.by_degree().items():
        # D(a) <= da; sorted in place, the levels of a degree are counted
        # in int8, where a bincount would first widen them to int64
        lv = levels[block]
        lv.sort(kind="stable")
        ends = np.searchsorted(lv, np.arange(da + 1, dtype=lv.dtype), "right")
        for m, cnt in enumerate(np.diff(ends, prepend=0).tolist()):
            if cnt:
                buckets.append((da, m, cnt))
                per_level[m] += cnt
    by_level = tuple(sorted(per_level.items()))
    # no level passes the top degree: asking its pi' first keeps the
    # table of counts the walks below grow from passing it
    pi_prime(q, top)
    top_level = by_level[-1][0]
    brackets = dict(zip(range(1, top_level + 1), mertens_brackets(q)))
    w = brackets[top_level][2]
    lo, hi = (sum(cnt * q**(top - da) * brackets[m][end] << w - brackets[m][2]
                  for da, m, cnt in buckets) for end in (0, 1))
    scale = q**top << w
    lhs = BracketedValue(Fraction(lo, scale), Fraction(hi, scale))
    ok, exact = lhs.hi <= 1, None
    exponents = list(accumulate(d * pi_prime(q, d)
                                for d in range(1, top_level + 1)))
    max_exp = max(exponents[m - 1] + da for da, m, _ in buckets)
    prints = exact_prints(q, max_exp)
    if prints or lhs.lo <= 1 < lhs.hi:
        parts = dict(zip(range(1, top_level + 1), mertens_parts(q)))
        num = sum(cnt * parts[m][0] * q**(max_exp - parts[m][1] - da)
                  for da, m, cnt in buckets)
        ok = num <= q**max_exp
        if prints:
            exact = Fraction(num, q**max_exp)
    return DensityBoundReport(q, len(ps), lhs, exact, by_level, ok)


# ----------------------------------------------------------------------
# Seeded random primitive sets
# ----------------------------------------------------------------------

def random_primitive_set(q: int, horizon: int, seed: int,
                         per_degree: int = 8) -> PolySet:
    """Greedy seeded sample: walk degrees upward, keep a random candidate
    unless one of the kept members divides it."""
    _check_prime(q)
    if horizon < 1:
        raise UsageError("horizon must be >= 1")
    if per_degree < 1:
        raise UsageError("per_degree must be >= 1")
    rng = random.Random(seed)
    kept: list[int] = []
    kept_idx: set[int] = set()
    for d in range(1, horizon + 1):
        for _ in range(per_degree):
            idx = q**d + rng.randrange(q**d)
            if idx in kept_idx:
                continue
            if any(index_divrem(q, idx, a)[1] == 0 for a in kept):
                continue
            kept.append(idx)
            kept_idx.add(idx)
    return PolySet(q, horizon, tuple(kept))
