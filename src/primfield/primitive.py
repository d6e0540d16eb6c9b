"""Primitive sets of monic polynomials: certificates, densities, Erdos sums.

A set S of non-unit monic polynomials is primitive when no member divides
another.  Everything here is exact: primitivity certificates come with an
explicit dividing pair on failure, and densities and Erdos sums are
rationals.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, pairwise
from typing import Iterable, Sequence

import numpy as np

from .counting import _LowestTerms, mertens_parts, monic_cumulative
from .errors import UsageError, VerificationError
from .fieldpoly import (_check_prime, format_index, index_degree,
                        index_divrem, index_mul, is_prime, parse_index)
from .sieve import FactorSieve, build_factor_sieve


# ----------------------------------------------------------------------
# Finite sets of monic polynomials below a degree horizon
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PolySet:
    """Finite set of non-unit monic polynomials with degrees <= horizon,
    held as their indices.

    Indices are deduplicated and ascending, which is also (degree, index)
    order because degree-d indices fill [q^d, 2 q^d).  They stay Python
    ints, so members may lie past any fixed-width integer range.
    """

    q: int
    horizon: int
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_prime(self.q)
        if self.horizon < 1:
            raise UsageError("horizon must be >= 1")
        q = self.q
        indices = tuple(map(operator.index, self.indices))
        # read_set and the constructions pass ascending, duplicate-free
        # members; only other input pays for a set and a sort
        if not all(a < b for a, b in pairwise(indices)):
            indices = tuple(sorted(set(indices)))
        object.__setattr__(self, "indices", indices)
        if indices and indices[0] < 1:
            raise UsageError(f"index {indices[0]} is not positive")
        for d, block in self.by_degree().items():
            if block[-1] >= 2 * q**d:
                raise UsageError(
                    f"index {block[-1]} has leading base-{q} digit != 1")
        if indices and indices[0] == 1:
            raise UsageError("members must be non-unit (degree >= 1)")
        beyond = bisect_left(indices, q**(self.horizon + 1))
        if beyond < len(indices):
            raise UsageError(f"member {format_index(q, indices[beyond])}"
                             f" exceeds horizon {self.horizon}")

    def __len__(self) -> int:
        return len(self.indices)

    def by_degree(self) -> dict[int, tuple[int, ...]]:
        """Members grouped by degree, ascending within each group."""
        out: dict[int, tuple[int, ...]] = {}
        q, indices = self.q, self.indices
        i = 0
        while i < len(indices):
            d = index_degree(q, indices[i])
            j = bisect_left(indices, q**(d + 1), i)
            out[d] = indices[i:j]
            i = j
        return out

    def degree_counts(self) -> dict[int, int]:
        return {d: len(block) for d, block in self.by_degree().items()}

    @property
    def max_degree(self) -> int:
        return index_degree(self.q, self.indices[-1]) if self.indices else 0


# ----------------------------------------------------------------------
# Set files
# ----------------------------------------------------------------------

_WRITE_BLOCK = 1 << 15   # members formatted per numpy pass
_READ_CHUNK = 1 << 18    # characters of a set file parsed per numpy pass
_NEWLINE, _COMMA, _ZERO = ord("\n"), ord(","), ord("0")


def _index_dtype(q: int, degree: int):
    """int64 while q^(degree+1), a bound on every index of that degree and
    on every digit times its weight, fits; else Python ints in an object
    array."""
    return np.int64 if q**(degree + 1) < 2**63 else object


def write_set(ps: PolySet, fh) -> None:
    """One header line `q=..;horizon=..`, then one member per line in the
    canonical form of `format_index`, ascending.

    Members are formatted in blocks of one degree: one `% q` and `// q`
    per digit column give the base-q digit matrix, each digit's decimal
    text fills a fixed-width cell right-aligned, and one mask drops the
    pad bytes.
    """
    q = ps.q
    fh.write(f"q={q};horizon={ps.horizon}\n")
    prefix = np.frombuffer(f"q={q};".encode(), np.uint8)
    width = len(str(q - 1))
    for d, block in ps.by_degree().items():
        for lo in range(0, len(block), _WRITE_BLOCK):
            rest = np.array(block[lo:lo + _WRITE_BLOCK], _index_dtype(q, d))
            digits = np.empty((len(rest), d + 1), np.min_scalar_type(q - 1))
            for k in range(d + 1):
                digits[:, k] = rest % q
                rest //= q
            cells = np.empty(digits.shape + (width + 1,), np.uint8)
            for j in range(width):
                place = 10**(width - 1 - j)
                high = digits // place
                cells[..., j] = high % 10 + _ZERO
                if place > 1:
                    cells[..., j][high == 0] = 0     # pad byte
            cells[..., width] = _COMMA
            cells[:, -1, width] = _NEWLINE
            text = np.concatenate(
                (np.broadcast_to(prefix, (len(digits), len(prefix))),
                 cells.reshape(len(digits), -1)), axis=1)
            fh.write(text[text != 0].tobytes().decode("ascii"))


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


def _canonical_lines(a: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                     q: int) -> tuple[np.ndarray, np.ndarray]:
    """Which lines a[starts[i]:ends[i]] (each followed by a newline) read
    exactly as write_set writes them, `q=Q;c0,...,cd` with decimal
    coefficients below q, no leading zeros and c_d = 1; and the index of
    each line that does, as an int64 or object array."""
    prefix = f"q={q};".encode()
    width = len(str(q - 1))
    canon = np.zeros(len(starts), bool)
    ok = ends - starts > len(prefix)
    for k, byte in enumerate(prefix):
        ok &= a[np.minimum(starts + k, len(a) - 1)] == byte
    lines = np.flatnonzero(ok)
    body, stop = starts[lines] + len(prefix), ends[lines]
    dig = a - np.uint8(_ZERO)
    digit = dig < 10
    comma = a == _COMMA
    # A body holds digit runs joined by single commas: no other byte, and
    # no comma that a digit does not follow.
    bad = ~(digit | comma)
    bad[:-1] |= comma[:-1] & ~digit[1:]
    if lines.size:
        bounds = np.column_stack((body, stop)).ravel()
        keep = digit[body] & ~np.logical_or.reduceat(bad, bounds)[::2]
        lines, body, stop = lines[keep], body[keep], stop[keep]
    if not lines.size:
        return canon, np.zeros(0, np.int64)
    # token starts: digits inside a body that follow a non-digit
    edge = np.zeros(len(a) + 1, np.int8)
    edge[body], edge[stop] = 1, -1
    first = np.cumsum(edge[:-1], dtype=np.int8).astype(bool) & digit
    first[1:] &= ~digit[:-1]
    tstart = np.flatnonzero(first)
    head = np.searchsorted(tstart, body)        # first token of each line
    ntok = np.diff(head, append=len(tstart))
    tail = head + ntok - 1
    widths = np.empty_like(tstart)
    widths[:-1] = tstart[1:] - tstart[:-1] - 1  # a comma precedes the next
    widths[tail] = stop - tstart[tail]
    coeff = dig[tstart].astype(np.int64)
    good = (widths <= width) & ((widths == 1) | (coeff > 0))
    for j in range(1, width):
        longer = np.flatnonzero(widths > j)
        coeff[longer] = coeff[longer] * 10 + dig[tstart[longer] + j]
    good &= coeff < q
    line_ok = np.logical_and.reduceat(good, head) & (coeff[tail] == 1)
    coeff[~good] = 0        # rejected lines must not overflow either
    dtype = _index_dtype(q, int(ntok.max()) - 1)
    weights = np.array([q**k for k in range(int(ntok.max()))], dtype)
    power = np.arange(len(tstart)) - np.repeat(head, ntok)
    index = np.add.reduceat(coeff.astype(dtype, copy=False) * weights[power],
                            head)
    canon[lines[line_ok]] = True
    return canon, index[line_ok]


class _SetFileLines:
    """Member lines read so far: index and line-number arrays of those in
    canonical form, and (index, text) of every other by line number."""

    def __init__(self, q: int, line: int):
        self.q = q
        self.line = line        # number of the next line to read
        # Members need a prime q (parse_index words the error), and bulk
        # coefficients of up to 18 decimal digits fit int64.
        self.bulk = is_prime(q) and len(str(q - 1)) <= 18
        self.indices: list[np.ndarray] = []
        self.numbers: list[np.ndarray] = []
        self.others: dict[int, tuple[int, str]] = {}

    def read(self, chunk: str) -> None:
        """Parse newline-terminated text.  Lines write_set could have
        written are parsed in bulk; every other line, split as
        str.splitlines() splits it, goes through parse_index.  On a parse
        error, self.line is the failing line."""
        if not chunk:
            return
        a = np.frombuffer(chunk.encode("utf-8", "surrogatepass"), np.uint8)
        ends = np.flatnonzero(a == _NEWLINE)
        starts = np.concatenate(([0], ends[:-1] + 1))
        if self.bulk:
            canon, index = _canonical_lines(a, starts, ends, self.q)
        else:
            canon, index = np.zeros(len(ends), bool), np.zeros(0, np.int64)
        count = np.ones(len(ends), np.int64)
        raws = {}
        for s in np.flatnonzero(~canon).tolist():
            raw = a[starts[s]:ends[s] + 1].tobytes()
            raws[s] = raw.decode("utf-8", "surrogatepass").splitlines()
            count[s] = len(raws[s])
        number = self.line + np.cumsum(count) - count
        following = self.line + int(count.sum())
        self.indices.append(index)
        self.numbers.append(number[canon])
        for s, lines in raws.items():
            for k, raw in enumerate(lines):
                self.line = int(number[s]) + k
                text = raw.strip()
                if not text or text.startswith("#"):
                    continue
                try:
                    _, idx = parse_index(text, q=self.q)
                except UsageError as exc:
                    raise UsageError(f"line {self.line}: {exc}") from None
                self.others[self.line] = idx, text
        self.line = following

    def members(self, before: int | None = None) -> tuple[int, ...]:
        """The member indices, ascending, of the lines before `before`;
        raises on the first line that repeats an earlier member."""
        values = [idx for idx, _ in self.others.values()]
        index = np.concatenate(self.indices + [np.array(
            values, np.int64 if max(values, default=0) < 2**63 else object)])
        number = np.concatenate(self.numbers + [np.array(list(self.others),
                                                         np.int64)])
        keep = np.argsort(number, kind="stable")    # line order
        if before is not None:
            keep = keep[number[keep] < before]
        index, number = index[keep], number[keep]
        if len(index) > 1 and not (index[1:] > index[:-1]).all():
            order = np.argsort(index, kind="stable")
            index = index[order]
            again = np.flatnonzero(index[1:] == index[:-1]) + 1
            if again.size:
                at = again[np.argmin(number[order[again]])]
                line = int(number[order[at]])
                text = (self.others[line][1] if line in self.others
                        else format_index(self.q, int(index[at])))
                raise UsageError(f"line {line}: duplicate member {text!r}")
        return tuple(index.tolist())


def read_set(fh) -> PolySet:
    """Inverse of write_set.  Member lines may also be bare decimal
    indices or bare coefficient lists; blank lines and `#` comments are
    skipped.  Errors name the line, counted as str.splitlines() counts.

    The text is parsed in chunks of about 256k characters, so temporaries
    stay a few megabytes: lines in the form write_set writes are converted
    with numpy passes, any other line goes through parse_index, which
    words every parse error.
    """
    chunks = _text_chunks(fh, _READ_CHUNK)
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
    found = _SetFileLines(q, 2)
    try:
        found.read("".join(rest) + first[cut:])
        for chunk in chunks:
            found.read(chunk)
    except UsageError:
        found.members(before=found.line)
        raise
    indices = found.members()
    try:
        return PolySet(q, horizon, indices)
    except UsageError as exc:
        raise UsageError(f"set file invalid: {exc}") from None


# ----------------------------------------------------------------------
# Primitivity certificates
# ----------------------------------------------------------------------

def _divisor_indices(q: int, factors: Sequence[tuple[int, int]]) -> Iterable[int]:
    """Indexes of all monic divisors given [(irreducible index, mult)]."""
    divs = [1]
    for p_idx, mult in factors:
        grown = []
        for d in divs:
            acc = d
            for _ in range(mult):
                acc = index_mul(q, acc, p_idx)
                grown.append(acc)
        divs.extend(grown)
    return divs


def is_primitive(ps: PolySet, sieve: FactorSieve | None = None,
                 ) -> tuple[bool, tuple[int, int] | None]:
    """Decide primitivity; on failure also return the index pair (a, b)
    of two members with a | b: the least member b with a proper divisor
    in the set, and its least such divisor a.

    Distinct monic polynomials of equal degree never divide one another,
    so only cross-degree pairs count.  Given a sieve that covers the set,
    or else one from divisor_walk_sieve, the divisor walk decides; other
    sets use trial division pair by pair.
    """
    if len(ps.by_degree()) <= 1:
        return True, None
    if not _covers(sieve, ps):
        sieve = divisor_walk_sieve(ps)
        if sieve is None:
            return _primitive_by_division(ps)
    return _primitive_by_divisors(ps, sieve)


def _covers(sieve: FactorSieve | None, ps: PolySet) -> bool:
    return (sieve is not None and sieve.q == ps.q
            and sieve.horizon >= ps.max_degree)


def divisor_walk_sieve(ps: PolySet) -> FactorSieve | None:
    """A sieve covering ps when building it (2 q^D entries for top degree
    D) and walking every member's divisors costs less than trial division
    of the cross-degree pairs; None when division is cheaper."""
    sizes = [len(block) for block in ps.by_degree().values()]
    pairs = sum(map(operator.mul, sizes[1:], accumulate(sizes)))
    if 2 * ps.q**ps.max_degree + len(ps) > pairs:
        return None
    return build_factor_sieve(ps.q, ps.max_degree)


def _primitive_by_division(ps: PolySet) -> tuple[bool, tuple[int, int] | None]:
    """is_primitive by trial division of each member by every member of
    lower degree."""
    q = ps.q
    lower: list[int] = []
    for block in ps.by_degree().values():
        for b in block:
            for a in lower:
                if index_divrem(q, b, a)[1] == 0:
                    return False, (a, b)
        lower.extend(block)
    return True, None


def _primitive_by_divisors(ps: PolySet, sieve: FactorSieve,
                           ) -> tuple[bool, tuple[int, int] | None]:
    """is_primitive by looking up every proper divisor of each member, from
    its factorization in a sieve that covers the set, in the member set."""
    q = ps.q
    idx_set = set(ps.indices)
    for b in ps.indices:
        found = [a for a in _divisor_indices(q, sieve.factor_index(b))
                 if a != b and a in idx_set]
        if found:
            return False, (min(found), b)
    return True, None


def assert_primitive(ps: PolySet, **kwargs) -> None:
    """Raise VerificationError with the dividing pair if ps is not primitive."""
    ok, witness = is_primitive(ps, **kwargs)
    if not ok:
        a, b = (format_index(ps.q, i) for i in witness)
        raise VerificationError(f"not primitive: {a} divides {b}")


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

@dataclass(frozen=True)
class DensityRow:
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


def _decimal_digits(n: int) -> int:
    """len(str(n)) for n >= 0, by exact comparison with powers of ten:
    str() refuses integers past 4300 digits."""
    k = max(1, int((n.bit_length() - 1) * math.log10(2)))
    # one power of ten, 10^k, scaled by 10 per step of either loop
    power = 10**k
    while power <= n:
        k += 1
        power *= 10
    while k > 1 and power // 10 > n:
        k -= 1
        power //= 10
    return k


@dataclass(frozen=True)
class DensityBoundReport:
    """Outcome of the weighted density inequality
    sum_{a in S} (1/||a||) prod_{deg p <= D(a)} (1 - 1/||p||)  <=  1,
    D(a) the largest irreducible-factor degree of a."""

    q: int
    size: int
    lhs: Fraction
    by_level: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return self.lhs <= 1

    def to_json(self) -> dict:
        num = self.lhs.numerator
        digits = _decimal_digits(num)
        return {"q": self.q, "size": self.size,
                "lhs_float": float(self.lhs),
                "lhs": f"{num % 10**30}... (len {digits})" if digits > 40
                else f"{num}/{self.lhs.denominator}",
                "by_level": [[m, c] for m, c in self.by_level],
                "ok": self.ok}


def verify_erdos_density_inequality(ps: PolySet,
                                    sieve: FactorSieve | None = None,
                                    ) -> DensityBoundReport:
    """Exact check that any primitive set satisfies the weighted bound <= 1.

    Members are bucketed by (degree, D(a)); with P(m) = A_m / q^{E_m},
    read off one running product up to the top level, the whole left side
    is a single integer comparison against q^{max exponent}.
    """
    if not ps.indices:
        return DensityBoundReport(ps.q, 0, Fraction(0), ())
    if not _covers(sieve, ps):
        sieve = build_factor_sieve(ps.q, ps.max_degree)
    q = ps.q
    idx = np.asarray(ps.indices)
    levels = sieve.max_factor_degrees()[idx]
    # member counts per (degree da, D(a) = m) in cell da * width + m
    width = sieve.horizon + 1
    cells = np.bincount(sieve.degrees(idx) * width + levels).tolist()
    buckets = [(*divmod(i, width), c) for i, c in enumerate(cells) if c]
    by_level = tuple((m, c) for m, c in enumerate(np.bincount(levels).tolist())
                     if c)
    wanted = {m for m, _ in by_level}
    parts = {m: part for m, part in zip(range(1, max(wanted) + 1),
                                        mertens_parts(q)) if m in wanted}
    max_exp = max(parts[m][1] + da for da, m, _ in buckets)
    num = 0
    for da, m, cnt in buckets:
        a_m, e_m = parts[m]
        num += cnt * a_m * q**(max_exp - e_m - da)
    num, exp = _cancel_powers(num, q, max_exp)
    lhs = Fraction(_LowestTerms(num, q**exp))
    return DensityBoundReport(q, len(ps), lhs, by_level)


def _cancel_powers(num: int, q: int, exp: int) -> tuple[int, int]:
    """(num / q^k, exp - k) for the largest k <= exp with q^k | num.

    With q prime, num / q^exp is then in lowest terms, found without the
    general gcd a Fraction of two ~500k-bit integers would run."""
    if q == 2:
        k = min((num & -num).bit_length() - 1, exp) if num else exp
        return num >> k, exp - k
    while exp and num % q == 0:
        num //= q
        exp -= 1
    return num, exp


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
