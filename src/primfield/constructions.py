"""Two explicit primitive-set constructions with certified bookkeeping.

The sparse layered construction stacks whole degree slices, admitting a
new slice only when its multiples occupy a vanishing share of every later
degree; the result is primitive by construction and its counting density
is an exact rational.

The thinned-irreducible construction picks a sparse sequence t_1, t_2, ...
of irreducibles along a slowly growing rank schedule r_k = floor(k L(k)),
certifies that the Erdos-style weight of the ranks beyond some k_0 is
below 1/2, and assembles the sets
S_k = { t_k g : g squarefree, omega(g) = k - 1, no t_j divides g, j <= k }
whose union is primitive with k running from k_0 upward.  The growth
and t-sequence code brackets its reals with brackets.IntervalContext at
an explicit precision, handed down to every step that rounds; the
t-sequence code imports it, so the slice construction does not load it.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from fractions import Fraction
from itertools import accumulate
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import DEFAULT_PRECISION_BITS
from .counting import monic_cumulative, strike_counts
from .errors import BudgetError, PrecisionError, UsageError
from .fieldpoly import _check_prime, index_degree
from .irreducibles import kth_irreducible_degree, pi_cumulative, pi_prime
from .primitive import PolySet, is_primitive
from .sieve import (_check_indexable, irreducibles_at, monic_multiples,
                    multiples_pass)

if TYPE_CHECKING:    # loaded by the functions that form brackets
    from .brackets import Interval, IntervalContext


# ----------------------------------------------------------------------
# Growth schedules L(x)
# ----------------------------------------------------------------------

_GROWTH_RE = re.compile(r"^(log|iterlog):(.+)$")


class GrowthFunction:
    """Slow growth schedule L(x) >= 1, nondecreasing; immutable.

    kind "log":     L(x) = (log(x + e))^(1 + eps)
    kind "iterlog": L(x) = prod_{m=2}^{j-1} log_m(x) * (log_j(x))^(1+eps)
                    with log_1(x) = log(x + e) and each further iterate
                    clamped below at 1 (log of the max with e).
    """

    __slots__ = ("kind", "eps", "j")

    def __init__(self, kind: str, eps: Fraction, j: int = 2) -> None:
        if kind not in ("log", "iterlog"):
            raise UsageError(f"unknown growth kind {kind!r}")
        if eps <= 0:
            raise UsageError("growth eps must be positive")
        if kind == "iterlog" and j < 2:
            raise UsageError("iterlog depth j must be >= 2")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "j", j)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")
    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if not isinstance(other, GrowthFunction):
            return NotImplemented
        return (self.kind, self.eps, self.j) == (other.kind, other.eps, other.j)

    def __hash__(self) -> int:
        return hash((self.kind, self.eps, self.j))

    def __repr__(self) -> str:
        return (f"GrowthFunction(kind={self.kind!r}, eps={self.eps!r},"
                f" j={self.j!r})")

    @classmethod
    def parse(cls, text: str) -> "GrowthFunction":
        m = _GROWTH_RE.match(text.strip())
        if not m:
            raise UsageError(f"cannot parse growth function {text!r},"
                             " expected e.g. 'log:eps=0.1' or 'iterlog:j=2,eps=0.1'")
        kind, args = m.groups()
        eps = None
        j = 2
        for part in args.split(","):
            key, _, val = part.partition("=")
            key = key.strip()
            try:
                if key == "eps":
                    eps = Fraction(val.strip())
                elif key == "j":
                    j = int(val.strip())
                else:
                    raise UsageError(f"unknown growth parameter {key!r}")
            except (ValueError, ZeroDivisionError):
                raise UsageError(f"bad growth parameter {part!r}") from None
        if eps is None:
            raise UsageError("growth function needs eps=..")
        return cls(kind, eps, j)

    def format(self) -> str:
        if self.kind == "log":
            return f"log:eps={self.eps}"
        return f"iterlog:j={self.j},eps={self.eps}"

    def value_iv(self, iv: IntervalContext, x: int) -> Interval:
        """Certified interval for L(x), x a positive integer."""
        if x < 1:
            raise UsageError("growth argument must be >= 1")
        e = iv.e
        v = iv.log(iv.add(x, e))
        if self.kind == "log":
            return iv.pow(v, iv.fraction(1 + self.eps))
        prod = iv.of(1)
        for m in range(2, self.j + 1):
            if v.bracket().hi <= e.bracket().lo:
                # fully clamped: log(max(v, e)) = log e = 1 exactly
                v = iv.of(1)
            else:
                v = iv.log(v.max(e))
            if m < self.j:
                prod = iv.mul(prod, v)
        return iv.mul(prod, iv.pow(v, iv.fraction(1 + self.eps)))

    def value_float(self, x: np.ndarray) -> np.ndarray:
        """Fast float64 evaluation matching value_iv (for floor screening)."""
        v = np.log(x + math.e)
        if self.kind == "log":
            return v**float(1 + self.eps)
        prod = np.ones_like(v)
        for m in range(2, self.j + 1):
            v = np.log(np.maximum(v, math.e))
            if m < self.j:
                prod = prod * v
        return prod * v**float(1 + self.eps)

    def tail_integral_upper(self, iv: IntervalContext,
                            K: int) -> Fraction | None:
        """Rational upper bound for int_K^inf dt / (t log^2 t L(t)).

        kind "log": the integrand is below 1/(t (log t)^(3+eps)), giving
        1/((2+eps)(log K)^(2+eps)).  kind "iterlog": log^2 t L(t) is at
        least log t * log_2 t * ... * log_{j-1} t * (log_j t)^(1+eps)
        with plain iterated logs, and u = log_j t turns the integral into
        int du/u^(1+eps) = 1/(eps (log_j K)^eps); valid once log_j K > 0.
        None while an iterated log of K is at most 1: the cutoff is then
        too small for this bound.
        """
        if self.kind == "log":
            lk = iv.log(K)
            power = iv.fraction(2 + self.eps)
            return iv.div(1, iv.mul(power, iv.pow(lk, power))).bracket().hi
        v = iv.log(K)
        for _ in range(2, self.j + 1):
            if v.bracket().lo <= 1:
                return None
            v = iv.log(v)
        power = iv.fraction(self.eps)
        return iv.div(1, iv.mul(power, iv.pow(v, power))).bracket().hi


# ----------------------------------------------------------------------
# Certified irreducible-count constant
# ----------------------------------------------------------------------

def irreducible_density_constant(q: int) -> Fraction:
    """Smallest certified c with pi_q(n) <= c q^n / n for every n >= 1.

    Exact maximum over n <= 64; for n > 64 the geometric split
    sum_{d<n} q^d/d <= 2 q^n/(n(q-1)) + n q^{(3-n)/2}/(q-1) * q^n/n
    keeps the ratio below 1 + 2/(q-1) + 2^-24/(q-1), since
    n q^{(3-n)/2} <= 64 * 2^{-30.5} < 2^-24 there and is decreasing.
    """
    _check_prime(q)
    small = max(Fraction(n * pi_cumulative(q, n), q**n) for n in range(1, 65))
    closed = 1 + Fraction(2, q - 1) + Fraction(1, (q - 1) << 24)
    return max(small, closed)


# ----------------------------------------------------------------------
# Thinned irreducible sequence t_k
# ----------------------------------------------------------------------

class TSequence(NamedTuple):
    """Irreducibles t_k at ranks r_k = floor(k L(k)), with a certified
    cutoff k0 such that sum_{k >= k0} 1/(||t_k|| deg t_k) < 1/2.

    suffix_sum is the exact rational sum over k0 <= k <= K; tail_bound
    dominates the remainder beyond K.  terms holds the indices of the
    first polynomials of the sequence.
    """

    q: int
    growth: GrowthFunction
    K: int
    k0: int
    ranks: tuple[int, ...]
    degrees: tuple[int, ...]
    terms: tuple[int, ...]
    suffix_sum: Fraction
    tail_bound: Fraction

    @property
    def certified(self) -> bool:
        return self.suffix_sum + self.tail_bound < Fraction(1, 2)


def _rank_floor_iv(growth: GrowthFunction, k: int,
                   precision_bits: int) -> int:
    """floor(k L(k)) with the bracket pinched until the floor is certain."""
    from .brackets import IntervalContext
    bits = precision_bits
    while bits <= 4096:
        iv = IntervalContext(bits)
        b = iv.mul(k, growth.value_iv(iv, k)).bracket()
        lo, hi = math.floor(b.lo), math.floor(b.hi)
        if lo == hi:
            return lo
        bits *= 2
    raise PrecisionError(f"floor of {k} L({k}) straddles an integer")


def _rank_schedule(growth: GrowthFunction, K: int,
                   precision_bits: int) -> np.ndarray:
    """Rigorous r_k = floor(k L(k)) for k = 1..K, float-screened."""
    ks = np.arange(1, K + 1, dtype=np.float64)
    y = ks * growth.value_float(ks)
    fl = np.floor(y)
    frac = y - fl
    # float64 evaluation is correct to ~1e-13 relative; anything not that
    # close to an integer keeps its float floor, the rest get intervals
    tol = np.maximum(1e-9, y * 1e-11)
    ranks = fl.astype(np.int64)
    for i in np.nonzero((frac < tol) | (frac > 1 - tol))[0]:
        ranks[i] = _rank_floor_iv(growth, int(i) + 1, precision_bits)
    return ranks


# The method's limit on exact suffix terms: the cutoff K doubles from 2^12
# until the tail bound beyond it certifies, and a growth law whose tail
# needs more exact terms than this is refused with a BudgetError.
MAX_EXACT_TERMS = 2**17


def build_t_sequence(q: int, growth: GrowthFunction,
                     materialize: int = 64,
                     precision_bits: int = DEFAULT_PRECISION_BITS,
                     ) -> TSequence:
    """Certify a cutoff k0 with sum_{k>=k0} 1/(||t_k|| deg t_k) < 1/2.

    Exact terms are summed up to a cutoff K; beyond K, with
    c = irreducible_density_constant(q) and theta discounting the floor,
    rank r_k >= theta k L(k) forces deg t_k >= log_q(r_k / c) >= log_q k
    once theta L(K+1) >= c, so each term is at most
    (c log^2 q / theta) / (k log^2 k L(k)) and the integral bound of the
    growth schedule finishes the tail.  K doubles until both the
    precondition and tail < 1/2 hold, up to MAX_EXACT_TERMS.
    """
    _check_prime(q)
    if materialize < 1:
        raise UsageError("materialize must be >= 1")
    c = irreducible_density_constant(q)
    K = min(2**12, MAX_EXACT_TERMS)
    from .brackets import IntervalContext
    iv = IntervalContext(precision_bits)
    while True:
        l_next = growth.value_iv(iv, K + 1).bracket().lo
        theta = 1 - 1 / ((K + 1) * l_next)
        ok_pre = theta > 0 and theta * l_next >= c
        tail = None
        integral = growth.tail_integral_upper(iv, K) if ok_pre else None
        if integral is not None:
            pre = iv.div(iv.mul(iv.fraction(c), iv.pow(iv.log(q), 2)),
                         iv.fraction(theta)).bracket().hi
            tail = pre * integral
        if tail is not None and tail < Fraction(1, 2):
            break
        if K >= MAX_EXACT_TERMS:
            raise BudgetError(
                f"tail bound not below 1/2 within {MAX_EXACT_TERMS} terms"
                f" for growth {growth.format()} at q={q}")
        K = min(2 * K, MAX_EXACT_TERMS)
    ranks = _rank_schedule(growth, K, precision_bits)
    diffs = np.diff(ranks)
    assert (diffs > 0).all(), "rank schedule must be strictly increasing"
    # the degree of rank r is the least d with pi_cumulative(q, d) >= r; the
    # sums are cut at the last rank's degree, as later ones outgrow int64
    dmax = kth_irreducible_degree(q, int(ranks[-1]))
    cum = np.array([pi_cumulative(q, d) for d in range(dmax + 1)], np.int64)
    degs = np.searchsorted(cum, ranks, side="left")
    # exact suffix sums over a common denominator q^dmax * lcm(1..dmax)
    den = q**dmax * math.lcm(*range(1, dmax + 1))
    nums = [den // (q**int(dd) * int(dd)) for dd in degs]
    suffix = list(accumulate(reversed(nums)))
    suffix.reverse()
    suffix.append(0)
    k0 = None
    for k in range(1, K + 2):
        if Fraction(suffix[k - 1], den) + tail < Fraction(1, 2):
            k0 = k
            break
    assert k0 is not None and k0 <= K
    # t_k is the irreducible of rank r_k, all read from one walk
    mat = min(materialize, K)
    terms = tuple(irreducibles_at(q, ranks[:mat].tolist()))
    for t, dd in zip(terms, degs[:mat]):
        assert index_degree(q, t) == int(dd)
    return TSequence(q, growth, K, k0, tuple(int(r) for r in ranks[:mat]),
                     tuple(int(dd) for dd in degs[:mat]), terms,
                     Fraction(suffix[k0 - 1], den), tail)


# ----------------------------------------------------------------------
# Sparse layered construction from degree slices
# ----------------------------------------------------------------------

def divisor_degree_counts(q: int, horizon: int) -> list[list[int]]:
    """counts[m][n]: monic polynomials of degree m with a monic divisor of
    degree exactly n, for 0 <= n <= m <= horizon.

    If f has k_e irreducible factors of degree e, counted with
    multiplicity, its divisor degrees are the sums of j_e e with
    0 <= j_e <= k_e, so they depend on the k_e alone; and
    C(pi'(e) + k - 1, k) products of k irreducibles have degree-e type k.
    A DP over the irreducible degrees e = 1..horizon, with states (degree
    so far, divisor-degree bitmask), counts every factorisation type at
    once, with no sieve.
    """
    states: dict[tuple[int, int], int] = defaultdict(int, {(0, 1): 1})
    for e in range(1, horizon + 1):
        supply = pi_prime(q, e)
        # the states before degree e, grown in place by k >= 1 factors
        for (deg, mask), count in [item for item in states.items()
                                   if item[0][0] + e <= horizon]:
            wide = mask
            for k in range(1, (horizon - deg) // e + 1):
                wide |= mask << k * e
                states[deg + k * e, wide] += \
                    count * math.comb(supply + k - 1, k)
    counts = [[0] * (horizon + 1) for _ in range(horizon + 1)]
    for (deg, mask), count in states.items():
        row = counts[deg]
        for n in range(deg + 1):
            if mask >> n & 1:
                row[n] += count
    return counts


class SliceWindowRow(NamedTuple):
    """Window scan for one candidate slice degree at one admission level."""

    level: int
    degree: int
    threshold: Fraction
    worst_degree: int | None
    worst_ratio: Fraction
    admitted: bool

    def to_json(self) -> dict:
        return {"level": self.level, "degree": self.degree,
                "threshold": str(self.threshold),
                "worst_degree": self.worst_degree,
                "worst_ratio": str(self.worst_ratio),
                "worst_ratio_float": float(self.worst_ratio),
                "admitted": self.admitted}


class SparseConstruction(NamedTuple):
    """Layered degree-slice construction output.

    Level i admits slice degree n_i when, for every later degree m up to
    the horizon, polynomials with a divisor of degree n_i fill at most
    eps / 2^(i+1) of all monic polynomials of degree <= m; the set keeps
    each admitted slice minus multiples of earlier admitted slices.
    Level 1 always admits the horizon slice and nothing below it
    (besicovitch_construct), so window is the level-1 scan, levels is
    (horizon,) and members is that slice.
    """

    q: int
    eps: Fraction
    horizon: int
    levels: tuple[int, ...]
    window: tuple[SliceWindowRow, ...]
    members: PolySet
    density: Fraction

    @property
    def ok(self) -> bool:
        return bool(self.levels)

    def to_json(self) -> dict:
        return {"q": self.q, "eps": str(self.eps), "horizon": self.horizon,
                "levels": list(self.levels),
                "size": len(self.members),
                "density": str(self.density),
                "density_float": float(self.density),
                # the eps that would admit a first level: one always is
                "suggested_eps": None,
                "ok": self.ok,
                "window": [r.to_json() for r in self.window]}


def besicovitch_construct(q: int, eps, horizon: int) -> SparseConstruction:
    """Greedy layered slice construction at a degree horizon.

    T_n(m) counts monic polynomials of degree <= m having a divisor of
    degree exactly n, from divisor_degree_counts; level 1 admits the
    least slice degree n with T_n(m)/M_q(m) <= eps/4 for every m beyond
    n up to the horizon (vacuous at the horizon itself).

    That is always the horizon h, for every q and eps.  For n < h the
    ratio at m = n + 1 exceeds (q^2 + 2q - 3)/(2q^2) >= 1/2 > eps/4: the
    slice gives q^n, and by Bonferroni at most C(q, 2) q^(n-1)
    polynomials of degree n + 1 have no root, that is no divisor of
    degree n.  So no later level is scanned, the members are the
    horizon slice [q^h, 2 q^h), and no sieve is built.
    """
    _check_prime(q)
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise UsageError("eps must be in (0, 1)")
    if horizon < 1:
        raise UsageError("horizon must be >= 1")
    counts = divisor_degree_counts(q, horizon)
    M = [monic_cumulative(q, m) for m in range(horizon + 1)]
    threshold = eps / 4
    window_rows: list[SliceWindowRow] = []
    for n in range(1, horizon + 1):
        worst_m, worst = None, Fraction(0)
        T = counts[n][n]
        for m in range(n + 1, horizon + 1):
            T += counts[m][n]
            ratio = Fraction(T, M[m])
            if ratio > worst:
                worst_m, worst = m, ratio
        window_rows.append(SliceWindowRow(1, n, threshold, worst_m, worst,
                                          worst <= threshold))
    levels = tuple(r.degree for r in window_rows if r.admitted)
    assert levels == (horizon,), levels
    base = q**horizon
    members = PolySet(q, horizon, np.arange(base, 2 * base))
    return SparseConstruction(q, eps, horizon, levels, tuple(window_rows),
                              members, Fraction(base, M[horizon]))


# ----------------------------------------------------------------------
# Thinned-irreducible construction
# ----------------------------------------------------------------------

class MPConstruction(NamedTuple):
    """Union over k of S_k = {t_k g : squarefree, omega = k, no earlier
    t_j dividing}, counted exactly to the horizon and materialized up to
    enum_horizon.

    counts[k-1][n] is |S_k at degree n| from the deflated count table;
    members holds the enumerated polynomials of degree <= enum_horizon,
    cross-checked against the same counts; witness is None when
    is_primitive certifies the members, else its dividing pair.
    """

    q: int
    horizon: int
    enum_horizon: int
    tseq: TSequence
    k_max: int
    counts: tuple[tuple[int, ...], ...]
    members: PolySet
    cross_checked: bool
    erdos_partial: Fraction
    erdos_partial_from_k0: Fraction
    witness: tuple[int, int] | None

    def total_by_degree(self) -> tuple[int, ...]:
        out = [0] * (self.horizon + 1)
        for row in self.counts:
            for n, v in enumerate(row):
                out[n] += v
        return tuple(out)


def mp_construct(q: int, tseq: TSequence, horizon: int,
                 enum_horizon: int | None = None) -> MPConstruction:
    """Assemble the thinned-irreducible primitive family up to a horizon.

    Counting is exact at every degree <= horizon: S_k at degree n counts
    the squarefree g of degree n - deg t_k with k - 1 distinct factors
    avoiding t_1 .. t_k (strike_counts).  Members are enumerated only up
    to enum_horizon (from one multiples pass over every monic polynomial
    there); cross_checked says whether the enumeration reproduces the
    counts, and is_primitive certifies the members.  The default
    enum_horizon is the largest h <= horizon with q^h <= 2^18.
    """
    _check_prime(q)
    if tseq.q != q:
        raise UsageError("t-sequence belongs to a different field")
    if horizon < 1:
        raise UsageError("horizon must be >= 1")
    if enum_horizon is None:
        enum_horizon = max((h for h in range(2, horizon + 1)
                            if q**h <= 1 << 18), default=1)
    if enum_horizon < 1:
        raise UsageError("enum_horizon must be >= 1")
    if enum_horizon > horizon:
        raise UsageError("enum_horizon cannot exceed horizon")
    # usable k: t_k materialized and deg t_k + (k-1) within the horizon
    k_max = 0
    for k in range(1, len(tseq.terms) + 1):
        if tseq.degrees[k - 1] + (k - 1) <= horizon:
            k_max = k
        else:
            break
    if k_max == 0:
        raise UsageError("horizon below the first usable degree")
    if k_max == len(tseq.terms) and tseq.degrees[-1] + k_max <= horizon:
        raise BudgetError("materialize more t-sequence terms for this horizon")
    counts = strike_counts(q, horizon, tseq.degrees[:k_max])
    indices, got = _enumerate_members(q, tseq, k_max, enum_horizon)
    cross = got.reshape(k_max, enum_horizon + 1).tolist() == \
        [list(row[:enum_horizon + 1]) for row in counts]
    members = PolySet(q, horizon, indices)
    _, witness = is_primitive(members)
    den = q**horizon * math.lcm(*range(1, horizon + 1))
    total = 0
    total_k0 = 0
    for k, row in enumerate(counts, start=1):
        for n, v in enumerate(row):
            if n and v:
                w = v * (den // (q**n * n))
                total += w
                if k >= tseq.k0:
                    total_k0 += w
    return MPConstruction(q, horizon, enum_horizon, tseq, k_max,
                          counts, members, cross,
                          Fraction(total, den), Fraction(total_k0, den),
                          witness)


def _enumerate_members(q: int, tseq: TSequence, k_max: int,
                       enum_horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """The members of degree <= enum_horizon, ascending, and their counts
    per (k, degree) in slot (k - 1) * (enum_horizon + 1) + degree.  f
    joins S_k when it is squarefree, its least t-rank is k and omega(f) = k.

    Each product of a degree-d irreducible of the wheel's slice, from one
    multiples pass, adds 64 + d to its slot: omega above the low six bits,
    and in them the sum of the distinct factor degrees (< 64), which is
    deg f exactly when f is squarefree.  The least t-rank is written over
    the multiples of each t_k, k descending; h + 1 stands for none, or one
    above enum_horizon: neither equals omega.  The least t-rank and omega
    stay <= h + 1 <= 62 and are held in int8."""
    h = enum_horizon
    passes = multiples_pass(q, h)
    # int16 slots: twice the one byte per index that the pass checks
    _check_indexable(q, h, 2 * q**h * np.dtype(np.int16).itemsize)
    factors = np.zeros(2 * q**h, dtype=np.int16)
    for d, products in passes:
        factors[products] += 64 + d
    del products                    # the pass's last block
    least = np.full(len(factors), h + 1, dtype=np.int8)
    for k in range(min(k_max, h), 0, -1):
        if tseq.degrees[k - 1] <= h:
            for _, products in monic_multiples(
                    q, [tseq.terms[k - 1]], 0, h - tseq.degrees[k - 1],
                    np.int64):
                least[products] = k
    # omega, then in the same bytes whether it equals the least t-rank
    same = np.right_shift(factors, 6, out=np.empty_like(least))
    indices = np.flatnonzero(np.equal(same, least, out=same.view(bool)))
    del same
    degrees = np.searchsorted(q**np.arange(1, h + 1), indices, side="right")
    squarefree = factors[indices] & 63 == degrees
    slots = (least[indices] - 1).astype(np.int64) * (h + 1) + degrees
    return (indices[squarefree],
            np.bincount(slots[squarefree], minlength=k_max * (h + 1)))


class MPDiagnosticsRow(NamedTuple):
    n: int
    total: int
    scaled: float
    band_lo: float
    band_hi: float
    z_worst: float

    def to_json(self) -> dict:
        return {"n": self.n, "total": str(self.total), "scaled": self.scaled,
                "band_lo": self.band_lo, "band_hi": self.band_hi,
                "z_worst": self.z_worst}


def mp_diagnostics(mpc: MPConstruction) -> tuple[MPDiagnosticsRow, ...]:
    """Float diagnostics per degree: the count of the union scaled by
    log n max(1, loglog n) L(log n) / q^n, crude sandwich markers
    q^(n - deg t_B) for B near (1/2) log n and (3/2) log n, and the
    largest (k-1)/log^2(n - deg t_k) over contributing k (display only)."""
    out = []
    totals = mpc.total_by_degree()
    tseq = mpc.tseq
    for n in range(2, mpc.horizon + 1):
        ln = math.log(n)
        lln = math.log(max(ln, math.e))
        lval = float(tseq.growth.value_float(np.array([ln]))[0])
        scaled = totals[n] * ln * lln * lval / float(mpc.q)**n
        b_lo = max(1, math.floor(0.5 * ln))
        b_hi = max(1, math.floor(1.5 * ln))
        b_lo = min(b_lo, len(tseq.degrees))
        b_hi = min(b_hi, len(tseq.degrees))
        band_hi = float(mpc.q)**(n - tseq.degrees[b_lo - 1])
        band_lo = float(mpc.q)**(n - tseq.degrees[b_hi - 1])
        z = 0.0
        for k in range(1, mpc.k_max + 1):
            if mpc.counts[k - 1][n] and n - tseq.degrees[k - 1] > 1:
                zz = (k - 1) / math.log(n - tseq.degrees[k - 1])**2
                z = max(z, zz)
        out.append(MPDiagnosticsRow(n, totals[n], scaled, band_lo, band_hi, z))
    return tuple(out)
