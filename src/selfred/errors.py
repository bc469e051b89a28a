"""Exception types shared across the package."""

from __future__ import annotations


class SelfReducibilityError(Exception):
    """Base class for all errors raised by this package."""


class FormulaSyntaxError(SelfReducibilityError):
    """Malformed formula text; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (byte offset {offset})")
        self.message, self.offset = message, offset


class UnknownVariable(SelfReducibilityError):
    """A variable index that does not occur in the formula."""


class NoVariables(SelfReducibilityError):
    """Self-reduction was requested on a constant formula."""


class IncompleteAssignment(SelfReducibilityError):
    """An assignment does not cover every variable of the formula."""


class TooLarge(SelfReducibilityError):
    """The formula exceeds the exhaustive-enumeration limit or the counting budget."""


class MalformedInput(SelfReducibilityError, TypeError):
    """A value that is not a formula (a node subclass instance included)
    reached a function that takes one, at the root or below."""


class InvalidBound(SelfReducibilityError):
    """A polynomial bound with a coefficient that is not a nonnegative int."""


class EncodingInvariantBroken(SelfReducibilityError):
    """A tree node serialized longer than the input formula."""


class OracleContractViolation(SelfReducibilityError):
    """An oracle's answers are inconsistent with its declared contract."""


class ConstantOperand(SelfReducibilityError):
    """The combiner was applied to a zero-variable operand."""


class InvalidParams(SelfReducibilityError, ValueError):
    """Invalid parameters: of a generator or experiment, of a node, of a
    renaming, or of an oracle style or decider mode."""
