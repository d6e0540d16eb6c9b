"""The package's public names."""

import ast
import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import primfield
from primfield import (brackets, constructions, counting, fieldpoly,
                       irreducibles, primitive, sieve)
from primfield.errors import UsageError

SRC = Path(primfield.__file__).resolve().parent

# the coefficient-tuple layer; its checks live in the test oracles now,
# and the integer index is the only polynomial type; a construction that
# cannot start is a UsageError; one address-space ceiling replaces the
# sieve budget, and is_primitive picks its path by cost, not a pair cap;
# library code no command reached, the exact Mertens product's second
# path, and the size caps the run's deadline and ceiling made redundant;
# the product kernels form their own digit rows; one multiples pass
# replaces the least-factor sieve and its folds; one table of counts per
# field replaces a second table and its own Moebius pass; the Mertens
# product of one n and the raising primitivity check, which only the
# tests called; a whole slice of one degree's irreducibles, now read from
# the one walk; the trial-factoring Moebius function, since one Moebius
# run, taking mu from a prime-factor sieve, fills the table and feeds the
# Erdos sum; mpmath's interval glue, as one integer interval type forms
# every certified real
DELETED = ("ConstructionError", "DEFAULT_ENUM_BUDGET", "DEFAULT_SIEVE_ENTRIES",
           "FactorSieve", "Factorization", "MAX_BRACKET_RANKS", "MAX_PAIRS",
           "MonicPoly", "TailSums", "build_factor_sieve", "divides",
           "enumerate_monic", "euler_gamma_bracket", "factorize",
           "format_poly", "is_irreducible", "iv_span", "iv_to_float",
           "mertens_exact", "mertens_exact_parts", "monic_count",
           "monic_digits", "parse_poly", "pi_prime_table", "poly_divrem",
           "poly_mul", "sathe_selberg_H", "tail_sums", "mertens_product",
           "assert_primitive", "irreducible_slice", "moebius", "precision",
           "iv_from_fraction", "iv_to_fractions", "iv_pointwise_max")


def test_all_names_resolve_and_deleted_names_are_gone():
    namespace = {}
    exec("from primfield import *", namespace)
    assert set(primfield.__all__) <= set(namespace)
    assert len(set(primfield.__all__)) == len(primfield.__all__)
    for name in DELETED:
        assert name not in primfield.__all__
        assert not hasattr(primfield, name), name
        for module in (brackets, constructions, counting, fieldpoly,
                       irreducibles, primitive, sieve):
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(brackets.BracketedValue, "from_iv")


def test_every_table_reader_takes_its_rows_from_the_build():
    """The two inequality checks take no table of their own, and the mp
    construction reads the packed build's rows, not a whole table."""
    for fn in (counting.verify_hr_bound, counting.verify_recurrence_bound):
        assert "table" not in inspect.signature(fn).parameters, fn.__name__
    assert not hasattr(constructions, "build_count_table")


def test_irreducibles_have_one_source_and_the_kernels_no_digit_rows(
        monkeypatch):
    """A degree's irreducibles come from one walk of the wheel: during the
    multiples pass to h the wheel forms, for each degree d = 2..h once,
    each irreducible p != x of degree e <= d/2 times the (q - 1) q^(d-e-1)
    monic r of degree d - e with r(0) != 0, and nothing more.  The
    product kernels take no sieve and no digit rows from their callers."""
    real = sieve.monic_multiples
    for q, h in ((2, 14), (3, 7)):
        formed = []

        def counted(q_, ps, lo, hi, dtype, prime_to_x=False):
            for p, products in real(q_, ps, lo, hi, dtype, prime_to_x):
                if prime_to_x:          # the wheel's products alone
                    formed.append(len(products))
                yield p, products

        monkeypatch.setattr(sieve, "monic_multiples", counted)
        for _ in sieve.multiples_pass(q, h):
            pass
        assert sum(formed) == sum(
            (irreducibles.pi_prime(q, e) - (e == 1)) * (q - 1) * q**(d - e - 1)
            for d in range(2, h + 1) for e in range(1, d // 2 + 1)), q
    for fn in (irreducibles.kth_irreducible, sieve.monic_multiples,
               sieve.index_multiples, sieve.block_multiples):
        params = inspect.signature(fn).parameters
        assert not {"sieve", "g_digits"} & set(params), fn.__name__
    assert list(inspect.signature(irreducibles.kth_irreducible).parameters) \
        == ["q", "k"]


def test_ranks_of_several_degrees_are_read_from_one_walk(monkeypatch):
    """irreducibles_at starts the wheel once for ranks of eight degrees
    up to 10, two of them with two ranks, and reads each where
    kth_irreducible finds it."""
    walks = []
    real = sieve._wheel

    def spy(q, degrees):
        walks.append(sorted(degrees))
        return real(q, degrees)

    ks = [1, 2, 3, 4, 7, 20, 50, 100, 101, 140]
    want = [irreducibles.kth_irreducible(2, k) for k in ks]
    monkeypatch.setattr(sieve, "_wheel", spy)
    assert sieve.irreducibles_at(2, ks) == want
    assert walks == [sorted({irreducibles.kth_irreducible_degree(2, k)
                             for k in ks})]


def test_irreducible_counts_come_from_one_table_behind_public_names():
    """pi_prime reads the per-field table, with no cache of its own, and
    no module imports a private name of irreducibles."""
    assert not hasattr(irreducibles.pi_prime, "cache_info")
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "irreducibles":
                imported |= {(path.name, a.name) for a in node.names}
    assert ("counting.py", "pi_prime") in imported
    assert [pair for pair in imported if pair[1][0] == "_"] == []


def test_the_package_root_loads_its_names_on_first_use():
    """import primfield alone loads no numpy or mpmath, and resolving
    every name of __all__ loads no mpmath; every name of __all__ is
    listed by dir() and resolves from its module."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = ("import sys, primfield\n"
             "print(sorted({'numpy', 'mpmath'} & set(sys.modules)))\n"
             "for name in primfield.__all__:\n"
             "    getattr(primfield, name)\n"
             "print(sorted({'numpy', 'mpmath'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n['numpy']\n", done.stdout
    assert set(primfield.__all__) <= set(dir(primfield))
    for name in primfield.__all__:
        value = getattr(primfield, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        primfield.frobnicate


def test_every_top_level_name_is_used_in_src():
    """Each function or class a module defines is named somewhere in the
    package's own code (the re-exports of __init__ do not count)."""
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = {name: mod for name, mod in defined.items() if name not in used}
    assert unused == {}


# the records a computation returns: the plain rows and reports, and the
# three that check their fields when built, each with fields to build from
PLAIN_RECORDS = (counting.CountTable, counting.InequalityReport,
                 counting.MertensValue, counting.NortonSide,
                 counting.NortonReport, irreducibles.DegreeBracketReport,
                 constructions.TSequence, constructions.SliceWindowRow,
                 constructions.SparseConstruction,
                 constructions.MPConstruction, constructions.MPDiagnosticsRow,
                 primitive.DensityRow, primitive.DensityBoundReport)
CHECKED_RECORDS = {
    brackets.BracketedValue: (1, Fraction(3, 2)),
    constructions.GrowthFunction: ("iterlog", Fraction(1, 10), 3),
    primitive.PolySet: (3, 4, [3, 4, 10]),
}


@pytest.mark.parametrize("record", [*PLAIN_RECORDS, *CHECKED_RECORDS],
                         ids=lambda r: r.__name__)
def test_records_compare_by_value_and_refuse_assignment(record):
    if record in CHECKED_RECORDS:
        fields = CHECKED_RECORDS[record]
        names = record.__slots__
    else:
        names = record._fields
        fields = [f"{name} value" for name in names]
    a, b = record(*fields), record(*fields)
    assert a == b and not a != b and a is not b
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def test_checked_records_compare_their_fields_and_keep_their_messages():
    """Equal fields, after coercion, make equal records with equal hashes;
    any other field makes another record.  Each refusal keeps its message
    (PolySet's member checks are pinned in test_primitive)."""
    c = brackets.BracketedValue(1, Fraction(2))
    assert c == brackets.BracketedValue(Fraction(1), 2)
    assert hash(c) == hash(brackets.BracketedValue(Fraction(1), 2))
    assert c != brackets.BracketedValue(1, 3)
    g = constructions.GrowthFunction("log", Fraction(1, 10))
    assert (g.kind, g.eps, g.j) == ("log", Fraction(1, 10), 2)
    assert hash(g) == hash(constructions.GrowthFunction.parse("log:eps=0.1"))
    assert g != constructions.GrowthFunction("log", Fraction(1, 10), 3)
    ps = primitive.PolySet(2, 3, [3, 2, 3])
    assert ps.indices.tolist() == [2, 3] and not ps.indices.flags.writeable
    assert ps != primitive.PolySet(2, 4, [2, 3])
    refused = [
        (constructions.GrowthFunction, ("exp", Fraction(1)),
         "unknown growth kind 'exp'"),
        (constructions.GrowthFunction, ("log", Fraction(0)),
         "growth eps must be positive"),
        (constructions.GrowthFunction, ("iterlog", Fraction(1), 1),
         "iterlog depth j must be >= 2"),
        (primitive.PolySet, (4, 3, []), "field order 4 is not prime"),
        (primitive.PolySet, (2, 0, []), "horizon must be >= 1"),
    ]
    for record, fields, message in refused:
        with pytest.raises(UsageError) as caught:
            record(*fields)
        assert str(caught.value) == message
