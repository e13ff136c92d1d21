"""Exception hierarchy.

Everything raised on purpose by this package derives from SignedPosetError,
so callers can catch one thing. InputError (with its subclasses ParseError
and AsymmetryViolation) blames the input. InternalInconsistency is special:
it means a structural theorem this package relies on failed on a concrete
input, which indicates a bug in our code (or a falsified theorem) and is
never silently swallowed.
"""

from __future__ import annotations


class SignedPosetError(Exception):
    """Base class for all package errors."""


class InputError(SignedPosetError, ValueError):
    """The input is not acceptable: a malformed file, an asymmetric generating
    set, or a ground size outside what was asked for.  The CLI exits 2."""


class AsymmetryViolation(InputError):
    """A generating set closes up to contain some root together with its negative."""

    def __init__(self, root, message: str | None = None):
        self.root = root
        super().__init__(message or f"closure contains both {root} and {-root}")


class CycleDetected(SignedPosetError):
    """A relation set that should be acyclic is not."""


class InternalInconsistency(SignedPosetError):
    """A postcondition guaranteed by a proved statement failed; report, never ignore."""


class UnboundedSystem(SignedPosetError):
    """A coordinate side of a halfspace system has no single-coordinate row
    bounding it, so its lattice points cannot be counted."""


class NegativeHstar(SignedPosetError):
    """h* coefficients came out negative (signals a counting bug)."""


class ParseError(InputError):
    """Poset file syntax or semantic error, with position information."""

    def __init__(self, message: str, line: int, column: int = 0):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, col {column}: {message}")
