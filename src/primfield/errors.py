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
    """The run reached its memory ceiling or deadline, or the request is
    past a fixed limit of the method."""


class PrecisionError(PrimfieldError):
    """Requested certified width not reachable at the precision cap."""


class VerificationError(PrimfieldError):
    """A checked inequality or certificate failed; the message names the
    counterexample."""
