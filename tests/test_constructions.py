"""Both primitive-set constructions and their certificates."""

import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from primfield import constructions, counting
from primfield.brackets import IntervalContext
from primfield.constructions import (GrowthFunction, besicovitch_construct,
                                     build_t_sequence, divisor_degree_counts,
                                     irreducible_density_constant,
                                     mp_construct, mp_diagnostics)
from primfield.errors import BudgetError, UsageError
from primfield.fieldpoly import index_degree
from primfield.irreducibles import pi_cumulative, pi_prime
from primfield.primitive import erdos_sum
from primfield.counting import monic_cumulative

from oracles import (Factorization, assert_primitive, build_factor_sieve,
                     divisor_degree_masks, enumerate_members_folds,
                     is_irreducible, mp_counts_rebuilt,
                     strike_counts_full, t_sequence_tail_mp)


# ----------------------------------------------------------------------
# Growth functions
# ----------------------------------------------------------------------

def test_growth_parse_format_round_trip():
    for text in ("log:eps=0.1", "log:eps=1/4", "iterlog:j=2,eps=2",
                 "iterlog:j=3,eps=1/2"):
        g = GrowthFunction.parse(text)
        assert GrowthFunction.parse(g.format()) == g


def test_growth_parse_rejects_garbage():
    for text in ("", "pow:eps=1", "log:", "log:eps=0", "log:eps=-1",
                 "iterlog:j=1,eps=1", "log:eps=x", "log:zeta=1",
                 "iterlog:eps"):
        with pytest.raises(UsageError):
            GrowthFunction.parse(text)


def test_growth_parse_refuses_a_zero_denominator():
    for text, part in (("log:eps=1/0", "eps=1/0"),
                       ("iterlog:j=2,eps=3/0", "eps=3/0")):
        with pytest.raises(UsageError,
                           match=f"^bad growth parameter '{part}'$"):
            GrowthFunction.parse(text)


@pytest.mark.parametrize("spec", ["log:eps=0.1", "iterlog:j=2,eps=2",
                                  "iterlog:j=3,eps=1"])
def test_growth_iv_contains_float_and_is_monotone(spec):
    g = GrowthFunction.parse(spec)
    xs = [1, 2, 3, 5, 10, 100, 10**4, 10**6]
    iv = IntervalContext(96)
    brackets = [g.value_iv(iv, x).bracket() for x in xs]
    floats = g.value_float(np.array(xs, dtype=np.float64))
    for b, f in zip(brackets, floats):
        assert float(b.lo) - 1e-9 <= f <= float(b.hi) + 1e-9
        assert b.lo >= 1  # L is clamped at 1
    for a, b in zip(brackets, brackets[1:]):
        assert b.hi >= a.lo  # nondecreasing up to bracket width


def test_growth_matches_closed_form():
    g = GrowthFunction.parse("log:eps=0.1")
    b = g.value_iv(IntervalContext(96), 10).bracket()
    mp.dps = 40
    ref = Fraction(str(mp.log(10 + mp.e)**Fraction(11, 10)))
    assert abs((b.lo + b.hi) / 2 - ref) < Fraction(1, 10**20)


def test_growth_tail_integral_decreasing():
    g = GrowthFunction.parse("log:eps=0.1")
    iv = IntervalContext(96)
    t1 = g.tail_integral_upper(iv, 2**12)
    t2 = g.tail_integral_upper(iv, 2**14)
    assert 0 < t2 < t1
    # closed form 1/((2 + eps) log^(2+eps) K)
    k = 2**12
    ref = 1.0 / (2.1 * math.log(k)**2.1)
    assert abs(float(t1) - ref) < 1e-10


def test_growth_tail_integral_needs_iterated_logs_above_one():
    # log log K > 1 exactly when K > e^e = 15.15...
    g = GrowthFunction.parse("iterlog:j=3,eps=2")
    iv = IntervalContext(96)
    assert g.tail_integral_upper(iv, 15) is None
    assert g.tail_integral_upper(iv, 16) > 0


@pytest.mark.parametrize("q,spec,bits", [(2, "log:eps=0.1", 128),
                                         (3, "log:eps=0.1", 128),
                                         (2, "log:eps=1/3", 300),
                                         (2, "iterlog:j=2,eps=2", 128)])
def test_the_tail_bound_is_mpmaths_exact_bound(q, spec, bits):
    """construct mp's exact tail_bound (setpipe's golden mp.json holds the
    q = 2, log:eps=0.1 one): the rational is the one mpmath's interval
    context gives at the same cutoff, to the last bit."""
    growth = GrowthFunction.parse(spec)
    tseq = build_t_sequence(q, growth, precision_bits=bits)
    assert tseq.tail_bound == t_sequence_tail_mp(
        q, growth, tseq.K, irreducible_density_constant(q), bits)


def test_budget_error_inside_the_tail_bound_propagates(monkeypatch):
    """A deadline that expires while the tail is bounded stops the run; it
    is not taken for a cutoff too small, which would double K."""
    real = GrowthFunction.tail_integral_upper
    fired = []

    def expire_once(self, iv, K):
        if not fired:
            fired.append(K)
            raise BudgetError("deadline")
        return real(self, iv, K)

    monkeypatch.setattr(GrowthFunction, "tail_integral_upper", expire_once)
    with pytest.raises(BudgetError, match="deadline"):
        build_t_sequence(2, GrowthFunction.parse("log:eps=0.1"))
    assert fired == [4096]


# ----------------------------------------------------------------------
# Density constant
# ----------------------------------------------------------------------

def test_density_constant_golden_and_dominance():
    assert irreducible_density_constant(2) == 3 + Fraction(1, 2**24)
    assert irreducible_density_constant(3) == 2 + Fraction(1, 2**25)
    for q in (2, 3, 5):
        c = irreducible_density_constant(q)
        for n in range(1, 121):
            assert pi_cumulative(q, n) * n <= c * q**n


# ----------------------------------------------------------------------
# t-sequences
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def tseq2():
    return build_t_sequence(2, GrowthFunction.parse("log:eps=0.1"))


def test_t_sequence_certificate_golden(tseq2):
    t = tseq2
    assert (t.q, t.K, t.k0) == (2, 4096, 2)
    assert t.ranks[:10] == (1, 3, 5, 8, 10, 14, 17, 20, 24, 27)
    assert t.degrees[:10] == (1, 2, 3, 4, 5, 5, 6, 6, 7, 7)
    assert t.certified
    assert t.suffix_sum + t.tail_bound < Fraction(1, 2)
    assert abs(t.suffix_sum - Fraction("0.218612")) < Fraction(1, 10**4)
    assert abs(t.tail_bound - Fraction("0.008027")) < Fraction(1, 10**4)


def test_t_sequence_suffix_matches_independent_recompute(tseq2):
    t = tseq2
    mp.dps = 60
    g = GrowthFunction.parse("log:eps=0.1")
    cum = [0]
    while cum[-1] < t.ranks[-1]:
        cum.append(pi_cumulative(2, len(cum)))
    suffix = Fraction(0)
    for k in range(t.k0, t.K + 1):
        val = k * mp.log(k + mp.e)**mp.mpf("1.1")
        rank = int(mp.floor(val))
        assert abs(val - mp.nint(val)) > mp.mpf("1e-30")  # off boundaries
        if k <= len(t.ranks):
            assert rank == t.ranks[k - 1]
        while cum[-1] < rank:
            cum.append(pi_cumulative(2, len(cum)))
        deg = next(n for n in range(1, len(cum)) if cum[n] >= rank)
        if k <= len(t.degrees):
            assert deg == t.degrees[k - 1]
        suffix += Fraction(1, deg * 2**deg)
    assert suffix == t.suffix_sum


def test_t_sequence_terms_are_ordered_irreducibles(tseq2, sieve2):
    t = tseq2
    assert all(r2 > r1 for r1, r2 in zip(t.ranks, t.ranks[1:]))
    assert all(d2 >= d1 for d1, d2 in zip(t.degrees, t.degrees[1:]))
    seen = set()
    for k, term in enumerate(t.terms, start=1):
        assert type(term) is int
        assert index_degree(2, term) == t.degrees[k - 1]
        assert is_irreducible(2, term)
        assert term not in seen
        seen.add(term)


def test_t_sequence_other_laws_certify():
    t3 = build_t_sequence(3, GrowthFunction.parse("log:eps=0.1"))
    assert t3.certified and t3.k0 == 2
    ti = build_t_sequence(2, GrowthFunction.parse("iterlog:j=2,eps=2"))
    assert ti.certified and ti.k0 == 3


@pytest.mark.parametrize("materialize", [0, -3])
def test_t_sequence_refuses_materialize_below_one(materialize):
    with pytest.raises(UsageError, match="^materialize must be >= 1$"):
        build_t_sequence(2, GrowthFunction.parse("log:eps=0.1"),
                         materialize=materialize)


def test_t_sequence_honors_small_budget(monkeypatch):
    # an easy growth law certifies inside a tiny term limit and the
    # cutoff K never exceeds it
    monkeypatch.setattr(constructions, "MAX_EXACT_TERMS", 100)
    t = build_t_sequence(2, GrowthFunction.parse("log:eps=0.1"))
    assert t.K <= 100
    assert t.certified


def test_t_sequence_budget_failures(monkeypatch):
    monkeypatch.setattr(constructions, "MAX_EXACT_TERMS", 4)
    with pytest.raises(BudgetError, match="within 4 terms"):
        # K = 4 leaves theta L(K+1) below the density constant
        build_t_sequence(2, GrowthFunction.parse("log:eps=0.1"))
    monkeypatch.setattr(constructions, "MAX_EXACT_TERMS", 2**13)
    with pytest.raises(BudgetError):
        # eps=1 iterated-log tail needs K near 8e7, far over any desk budget
        build_t_sequence(2, GrowthFunction.parse("iterlog:j=2,eps=1"))


# ----------------------------------------------------------------------
# Divisor-degree masks
# ----------------------------------------------------------------------

def test_masks_match_per_polynomial_recurrence(sieve2, sieve3):
    for sieve, dmax in ((sieve2, 10), (sieve3, 5)):
        q = sieve.q
        masks = divisor_degree_masks(sieve)
        for n in range(1, dmax + 1):
            for f in range(q**n, 2 * q**n):
                assert masks[f] == \
                    Factorization.of(sieve, f).divisor_degree_mask


@pytest.mark.parametrize("q,horizon", [(2, 12), (3, 7), (5, 5), (7, 4)])
def test_divisor_degree_counts_match_sieve_masks(q, horizon):
    """The factorisation-type DP against the per-index masks, every cell."""
    masks = divisor_degree_masks(build_factor_sieve(q, horizon))
    counts = divisor_degree_counts(q, horizon)
    assert counts[0] == [1] + [0] * horizon
    for m in range(1, horizon + 1):
        block = masks[q**m:2 * q**m]
        want = [int(np.count_nonzero(block >> np.uint64(n) & 1))
                for n in range(horizon + 1)]
        assert counts[m] == want, m


# ----------------------------------------------------------------------
# Layered slice construction
# ----------------------------------------------------------------------

def test_besicovitch_small_q2():
    res = besicovitch_construct(2, Fraction(1, 4), 12)
    assert res.ok and res.levels == (12,)
    assert len(res.members) == 4096
    assert res.density == Fraction(4096, monic_cumulative(2, 12))
    assert_primitive(res.members)
    # every degree below the admitted level was refused for cause
    refused = {r.degree for r in res.window if not r.admitted}
    assert refused == set(range(1, 12))
    for r in res.window:
        assert r.admitted == (r.worst_ratio <= r.threshold)
        if not r.admitted:
            assert r.worst_degree is not None


def test_besicovitch_small_q3():
    res = besicovitch_construct(3, Fraction(1, 4), 6)
    assert res.levels == (6,) and len(res.members) == 729
    assert res.density == Fraction(729, monic_cumulative(3, 6))
    assert_primitive(res.members)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_besicovitch_admits_only_the_horizon_slice(q):
    """Level 1 never opens below the horizon: for n < h the window ratio
    at m = n + 1 is above (q^2 + 2q - 3)/(2q^2) >= 1/2 > eps/4.  The
    construction itself runs wherever its slice has at most 10^5 members."""
    floor = Fraction(q * q + 2 * q - 3, 2 * q * q)
    assert floor >= Fraction(1, 2)
    counts = divisor_degree_counts(q, 10)
    for n in range(1, 10):
        share = Fraction(counts[n][n] + counts[n + 1][n],
                         monic_cumulative(q, n + 1))
        assert share > floor, n
    for eps in (Fraction(1, 10**6), Fraction(1, 4), Fraction(999, 1000)):
        for h in range(1, 11):
            if q**h > 10**5:
                break
            res = besicovitch_construct(q, eps, h)
            assert res.levels == (h,) and res.ok
            assert res.to_json()["suggested_eps"] is None
            assert res.members.indices.tolist() == list(range(q**h, 2 * q**h))
            assert [r.admitted for r in res.window] == \
                [False] * (h - 1) + [True]
            for r in res.window[:-1]:
                assert r.worst_ratio > floor > eps / 4


def test_besicovitch_guards():
    for eps in (0, 1, Fraction(3, 2), -1):
        with pytest.raises(UsageError):
            besicovitch_construct(2, eps, 10)
    with pytest.raises(UsageError):
        besicovitch_construct(2, Fraction(1, 4), 0)


# ----------------------------------------------------------------------
# Thinned-irreducible construction
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def mp12(tseq2):
    return mp_construct(2, tseq2, 12, enum_horizon=12)


def test_mp_counts_equal_enumeration_of_union(mp12):
    assert mp12.cross_checked
    assert mp12.enum_horizon == 12
    by_degree = mp12.members.degree_counts()
    for n, total in enumerate(mp12.total_by_degree()):
        assert by_degree.get(n, 0) == total


def test_mp_erdos_partial_matches_member_sum(mp12):
    # horizon == enum_horizon, so the table-side sum must equal the
    # member-side sum exactly
    assert mp12.erdos_partial == erdos_sum(mp12.members)
    assert 0 < mp12.erdos_partial_from_k0 <= mp12.erdos_partial


def test_mp_s1_row_is_the_single_first_term(mp12, tseq2):
    row = mp12.counts[0]
    d1 = tseq2.degrees[0]
    assert row[d1] == 1
    assert sum(row) == 1


def test_mp_members_satisfy_slice_conditions(mp12, tseq2, sieve2):
    term_rank = {t: k for k, t in enumerate(tseq2.terms, start=1)}
    for i in mp12.members.indices.tolist():
        fac = Factorization.of(sieve2, i)
        assert fac.is_squarefree
        hits = sorted(term_rank[p] for p, _ in fac.factors
                      if p in term_rank)
        assert hits, "every member is divisible by some t_k"
        assert fac.omega == hits[0]
    assert_primitive(mp12.members)


def assert_mp_membership_rule(res):
    """Every index to enum_horizon is a member iff it is squarefree and
    its least t-rank k satisfies k <= k_max and omega = k."""
    q = res.q
    sieve = build_factor_sieve(q, res.enum_horizon)
    term_rank = {t: k for k, t in enumerate(res.tseq.terms, start=1)}
    members = set(res.members.indices.tolist())
    assert all(index_degree(q, i) <= res.enum_horizon for i in members)
    for n in range(1, res.enum_horizon + 1):
        for f in range(q**n, 2 * q**n):
            fac = Factorization.of(sieve, f)
            least = min((term_rank[p] for p, _ in fac.factors
                         if p in term_rank), default=None)
            rule = (fac.is_squarefree and least is not None
                    and least <= res.k_max and fac.omega == least)
            assert (f in members) == rule, f


def test_mp_membership_both_directions(mp12):
    assert_mp_membership_rule(mp12)


@pytest.fixture(scope="module")
def mp_q3():
    tseq = build_t_sequence(3, GrowthFunction.parse("log:eps=0.1"))
    return mp_construct(3, tseq, 9, enum_horizon=9)


def test_mp_q3_small(mp_q3):
    res = mp_q3
    assert res.cross_checked
    assert res.erdos_partial == erdos_sum(res.members)
    assert_primitive(res.members)


def test_mp_q3_membership_both_directions(mp_q3):
    assert_mp_membership_rule(mp_q3)


@pytest.mark.parametrize("q,horizon,enum_horizon",
                         [(2, 40, 12), (2, 40, 18), (3, 20, 8), (3, 20, 11),
                          (5, 14, 7), (7, 10, 5)])
def test_mp_enumeration_matches_the_sieve_folds(q, horizon, enum_horizon):
    """The members and their (k, degree) counts from one multiples pass
    against the least-factor sieve's folds."""
    tseq = build_t_sequence(q, GrowthFunction.parse("log:eps=0.1"))
    res = mp_construct(q, tseq, horizon, enum_horizon)
    got = constructions._enumerate_members(q, tseq, res.k_max, enum_horizon)
    want = enumerate_members_folds(q, tseq, res.k_max, enum_horizon)
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tolist() == want[1].tolist()
    assert res.cross_checked and len(got[0]) == len(res.members)


@pytest.mark.parametrize("q,horizon", [(2, 11), (2, 20), (3, 8), (3, 11)])
def test_mp_counts_equal_one_count_table_per_term(q, horizon):
    """The one deflated table against a table rebuilt per k, with t-terms
    of repeated degrees among those used."""
    tseq = build_t_sequence(q, GrowthFunction.parse("log:eps=0.1"))
    res = mp_construct(q, tseq, horizon, enum_horizon=min(horizon, 8))
    used = tseq.degrees[:res.k_max]
    assert len(set(used)) < len(used)
    assert res.counts == mp_counts_rebuilt(q, used, horizon)
    assert res.cross_checked


@pytest.mark.parametrize("q,horizon", [(2, 60), (2, 300), (3, 60), (3, 300)])
def test_strikes_stop_at_the_first_zero_term(q, horizon):
    """Striking stops at the first S_k that is zero through the horizon,
    and the counts are those of striking every term, zero rows included."""
    tseq = build_t_sequence(q, GrowthFunction.parse("log:eps=0.1"),
                            materialize=400)
    k_max = max(k for k in range(1, len(tseq.degrees) + 1)
                if tseq.degrees[k - 1] + k - 1 <= horizon)
    used = tseq.degrees[:k_max]
    counts = counting.strike_counts(q, horizon, used)
    assert counts == strike_counts_full(q, horizon, used)
    assert not any(counts[-1]) and any(counts[0])


@pytest.mark.parametrize("q,horizon,want", [(2, 40, 18), (2, 12, 12),
                                            (3, 40, 11), (3, 9, 9),
                                            (5, 30, 7), (7, 30, 6)])
def test_mp_default_enumeration_horizon_follows_q(monkeypatch, q, horizon,
                                                  want):
    """By default members are enumerated to the largest degree h <= horizon
    with q^h <= 2^18: the enumeration then holds 2 q^h <= 2^19 slots."""
    class Enumerating(Exception):
        pass

    def spy(q_, tseq, k_max, enum_horizon):
        raise Enumerating(enum_horizon)

    monkeypatch.setattr(constructions, "_enumerate_members", spy)
    tseq = build_t_sequence(q, GrowthFunction.parse("log:eps=0.1"))
    with pytest.raises(Enumerating) as caught:
        mp_construct(q, tseq, horizon)
    assert caught.value.args == (want,)


def test_mp_guards(tseq2):
    with pytest.raises(UsageError):
        mp_construct(3, tseq2, 12)  # t-sequence for the wrong field
    with pytest.raises(UsageError):
        mp_construct(2, tseq2, 12, enum_horizon=14)
    with pytest.raises(BudgetError):
        # materialized prefix too short for this horizon
        short = build_t_sequence(2, GrowthFunction.parse("log:eps=0.1"),
                                 materialize=4)
        mp_construct(2, short, 40, enum_horizon=10)


def test_mp_diagnostics_shape(mp12):
    rows = mp_diagnostics(mp12)
    assert [r.n for r in rows] == list(range(2, 13))
    totals = mp12.total_by_degree()
    for r in rows:
        assert r.total == totals[r.n]
        assert r.band_lo <= r.band_hi
        assert r.z_worst >= 0
