"""The package's public names."""

import primfield
from primfield import fieldpoly, primitive

# the coefficient-tuple layer; its checks live in the test oracles now,
# and the integer index is the only polynomial type; a construction that
# cannot start is a UsageError; one address-space ceiling replaces the
# sieve budget, and is_primitive picks its path by cost, not a pair cap
DELETED = ("ConstructionError", "DEFAULT_ENUM_BUDGET", "DEFAULT_SIEVE_ENTRIES",
           "Factorization", "MAX_PAIRS", "MonicPoly", "divides",
           "enumerate_monic", "factorize", "format_poly", "is_irreducible",
           "parse_poly", "poly_divrem", "poly_mul")


def test_all_names_resolve_and_deleted_names_are_gone():
    namespace = {}
    exec("from primfield import *", namespace)
    assert set(primfield.__all__) <= set(namespace)
    assert len(set(primfield.__all__)) == len(primfield.__all__)
    for name in DELETED:
        assert name not in primfield.__all__
        assert not hasattr(primfield, name), name
        assert not hasattr(fieldpoly, name), name
        assert not hasattr(primitive, name), name
