"""Exact and certified computations around primitive sets of monic
polynomials over finite fields.

Counting functions are exact integers or rationals; analytic quantities
carry certified outward-rounded brackets; constructions ship with
machine-checkable certificates.
"""

__version__ = "0.1.0"

from .brackets import BracketedValue, precision
from .counting import (CountTable, build_count_table, evaluate_G,
                       mertens_product, monic_cumulative, norton_check,
                       verify_hr_bound, verify_recurrence_bound)
from .constructions import (GrowthFunction, MPConstruction,
                            SparseConstruction, TSequence,
                            besicovitch_construct, build_t_sequence,
                            irreducible_density_constant, mp_construct,
                            mp_diagnostics)
from .errors import (BudgetError, PrecisionError, PrimfieldError,
                     UsageError, VerificationError)
from .fieldpoly import (FactorSieve, build_factor_sieve, format_index,
                        parse_index)
from .irreducibles import (check_degree_brackets, kth_irreducible,
                           kth_irreducible_degree, moebius, pi_cumulative,
                           pi_prime)
from .primitive import (PolySet, assert_primitive, density_profile,
                        erdos_sum, erdos_sum_irreducibles, is_primitive,
                        random_primitive_set, read_set,
                        verify_erdos_density_inequality, write_set)

__all__ = [
    "BracketedValue", "BudgetError", "CountTable", "FactorSieve",
    "GrowthFunction", "MPConstruction", "PolySet",
    "PrecisionError", "PrimfieldError", "SparseConstruction", "TSequence",
    "UsageError", "VerificationError", "assert_primitive",
    "besicovitch_construct", "build_count_table", "build_factor_sieve",
    "build_t_sequence", "check_degree_brackets", "density_profile",
    "erdos_sum", "erdos_sum_irreducibles", "evaluate_G", "format_index",
    "is_primitive", "irreducible_density_constant", "kth_irreducible",
    "kth_irreducible_degree", "mertens_product", "moebius",
    "monic_cumulative", "mp_construct", "mp_diagnostics", "norton_check",
    "parse_index", "pi_cumulative", "pi_prime", "precision",
    "random_primitive_set", "read_set", "verify_erdos_density_inequality",
    "verify_hr_bound", "verify_recurrence_bound", "write_set",
]
