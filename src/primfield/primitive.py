"""Primitive sets of monic polynomials: certificates, densities, Erdos sums.

A set S of non-unit monic polynomials is primitive when no member divides
another.  Everything here is exact: primitivity certificates come with an
explicit dividing pair on failure, densities and Erdos partial sums are
rationals, and the irreducible Erdos sum carries a certified tail bracket.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .brackets import BracketedValue
from .counting import mertens_exact_parts, monic_cumulative
from .errors import BudgetError, UsageError, VerificationError
from .fieldpoly import (DEFAULT_SIEVE_ENTRIES, FactorSieve, _check_prime,
                        build_factor_sieve, format_index, index_degree,
                        index_divrem, index_mul, parse_index)
from .irreducibles import pi_prime


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
        indices = tuple(sorted(set(map(operator.index, self.indices))))
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

    def __contains__(self, index: int) -> bool:
        i = bisect_left(self.indices, index)
        return i < len(self.indices) and self.indices[i] == index

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


def write_set(ps: PolySet, fh) -> None:
    """One header line `q=..;horizon=..`, then one polynomial per line."""
    fh.write(f"q={ps.q};horizon={ps.horizon}\n")
    for i in ps.indices:
        fh.write(format_index(ps.q, i) + "\n")


def read_set(fh) -> PolySet:
    """Inverse of write_set; member lines may also be bare decimal indexes
    or bare coefficient lists."""
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
    indices: list[int] = []
    seen: set[int] = set()
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
                 method: str = "auto", max_pairs: int = 2**22,
                 max_sieve_entries: int = DEFAULT_SIEVE_ENTRIES,
                 ) -> tuple[bool, tuple[int, int] | None]:
    """Decide primitivity; on failure also return the index pair (a, b)
    of two members with a | b.

    Distinct monic polynomials of equal degree never divide one another,
    so only cross-degree pairs are examined.  Small sets use trial
    division pair by pair; large sets factor each member once and look
    up every proper divisor in the index set.
    """
    if method not in ("auto", "pairwise", "divisors"):
        raise UsageError(f"unknown method {method!r}")
    by_degree = ps.by_degree()
    if len(by_degree) <= 1:
        return True, None
    counts = {d: len(g) for d, g in by_degree.items()}
    pairs = 0
    degrees = sorted(counts)
    for i, d1 in enumerate(degrees):
        pairs += counts[d1] * sum(counts[d2] for d2 in degrees[i + 1:])
    if method == "auto":
        if sieve is not None and sieve.q == ps.q and sieve.horizon >= ps.max_degree:
            method = "divisors"
        elif pairs <= max_pairs:
            method = "pairwise"
        else:
            method = "divisors"
    if method == "pairwise":
        if pairs > max_pairs:
            raise BudgetError(f"{pairs} cross-degree pairs exceed budget"
                              f" {max_pairs}; use the divisors method")
        q = ps.q
        for i, d1 in enumerate(degrees):
            for d2 in degrees[i + 1:]:
                for a in by_degree[d1]:
                    for b in by_degree[d2]:
                        if index_divrem(q, b, a)[1] == 0:
                            return False, (a, b)
        return True, None
    if sieve is None or sieve.q != ps.q or sieve.horizon < ps.max_degree:
        sieve = build_factor_sieve(ps.q, ps.max_degree,
                                   max_entries=max_sieve_entries)
    q = ps.q
    idx_set = set(ps.indices)
    for b in ps.indices:
        for a in _divisor_indices(q, sieve.factor_index(b)):
            if a != b and a in idx_set:
                return False, (a, b)
    return True, None


def assert_primitive(ps: PolySet, **kwargs) -> None:
    """Raise VerificationError with the dividing pair if ps is not primitive."""
    ok, witness = is_primitive(ps, **kwargs)
    if not ok:
        a, b = (format_index(ps.q, i) for i in witness)
        raise VerificationError(f"not primitive: {a} divides {b}",
                                witness=(a, b))


# ----------------------------------------------------------------------
# Erdos sums
# ----------------------------------------------------------------------

def erdos_sum(ps: PolySet) -> Fraction:
    """sum_{a in S} 1 / (||a|| deg a), exact."""
    total = Fraction(0)
    for d, c in sorted(ps.degree_counts().items()):
        total += Fraction(c, d * ps.q**d)
    return total


def erdos_sum_irreducibles(q: int, eps=Fraction(1, 100)) -> BracketedValue:
    """Certified bracket of width < eps for sum over all irreducibles p of
    1 / (||p|| deg p).

    Cut at D > 1/eps: each degree-d term is at most 1/d^2 because
    pi'_q(d) <= q^d/d, so the tail beyond D is below sum_{d>D} 1/d^2 < 1/D,
    and the bracket width 1/D stays strictly under eps.
    """
    _check_prime(q)
    eps = Fraction(eps)
    if eps <= 0:
        raise UsageError("eps must be positive")
    cut = math.floor(1 / eps) + 1
    partial = Fraction(0)
    for d in range(1, cut + 1):
        partial += Fraction(pi_prime(q, d), d * q**d)
    return BracketedValue(partial, partial + Fraction(1, cut))


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
    while 10**k <= n:
        k += 1
    while k > 1 and 10**(k - 1) > n:
        k -= 1
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
                                    max_sieve_entries: int = DEFAULT_SIEVE_ENTRIES,
                                    ) -> DensityBoundReport:
    """Exact check that any primitive set satisfies the weighted bound <= 1.

    Members are bucketed by (degree, D(a)); with P(m) = A_m / q^{E_m} the
    whole left side is a single integer comparison against q^{max exponent}.
    """
    if not ps.indices:
        return DensityBoundReport(ps.q, 0, Fraction(0), ())
    if sieve is None or sieve.q != ps.q or sieve.horizon < ps.max_degree:
        sieve = build_factor_sieve(ps.q, ps.max_degree,
                                   max_entries=max_sieve_entries)
    q = ps.q
    idx = np.asarray(ps.indices)
    levels = sieve.max_factor_degrees()[idx]
    # member counts per (degree da, D(a) = m) in cell da * width + m
    width = sieve.horizon + 1
    cells = np.bincount(sieve.degrees(idx) * width + levels).tolist()
    buckets = [(*divmod(i, width), c) for i, c in enumerate(cells) if c]
    by_level = tuple((m, c) for m, c in enumerate(np.bincount(levels).tolist())
                     if c)
    parts = {m: mertens_exact_parts(q, m) for m, _ in by_level}
    max_exp = max(parts[m][1] + da for da, m, _ in buckets)
    num = 0
    for da, m, cnt in buckets:
        a_m, e_m = parts[m]
        num += cnt * a_m * q**(max_exp - e_m - da)
    lhs = Fraction(num, q**max_exp)
    return DensityBoundReport(q, len(ps), lhs, by_level)


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
