"""Exact and certified computations around primitive sets of monic
polynomials over finite fields.

Counting functions are exact integers or rationals; analytic quantities
carry certified outward-rounded brackets; constructions ship with
machine-checkable certificates.

Each exported name is imported from its module on first use (PEP 562), so
`import primfield` loads no numpy, and a caller of the exact counts
never does.
"""

from importlib import import_module

__version__ = "0.1.0"

# bits of precision of certified brackets; cli reads it without brackets
DEFAULT_PRECISION_BITS = 128

_EXPORTS = {
    "brackets": ("BracketedValue",),
    "constructions": ("GrowthFunction", "MPConstruction",
                      "SparseConstruction", "TSequence",
                      "besicovitch_construct", "build_t_sequence",
                      "irreducible_density_constant", "mp_construct",
                      "mp_diagnostics"),
    "counting": ("CountTable", "build_count_table", "evaluate_G",
                 "monic_cumulative", "norton_check",
                 "verify_hr_bound", "verify_recurrence_bound"),
    "errors": ("BudgetError", "PrecisionError", "PrimfieldError",
               "UsageError", "VerificationError"),
    "fieldpoly": ("format_index", "parse_index"),
    "irreducibles": ("check_degree_brackets", "erdos_sum_irreducibles",
                     "kth_irreducible", "kth_irreducible_degree",
                     "pi_cumulative", "pi_prime"),
    "primitive": ("PolySet", "density_profile",
                  "erdos_sum", "is_primitive", "random_primitive_set",
                  "read_set", "verify_erdos_density_inequality",
                  "write_set"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value     # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
