"""Error taxonomy shared across the package.

Three failure families matter to callers: the inputs were unusable, a
resource budget would be exceeded, or a checked mathematical statement
actually failed.  The CLI maps these onto distinct exit codes.
"""

from __future__ import annotations


class PrimfieldError(Exception):
    """Base class for all package errors."""


class UsageError(PrimfieldError):
    """Bad argument or precondition violation (caller mistake)."""


class BudgetError(PrimfieldError):
    """The request would exceed a memory, size, or iteration budget."""


class PrecisionError(PrimfieldError):
    """Requested certified width not reachable at the precision cap."""


class VerificationError(PrimfieldError):
    """A checked inequality or certificate failed; carries a witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
