"""Exception types shared across the package."""

from __future__ import annotations


class BeliefMCError(Exception):
    """Base class for every error raised by this package."""


class FrameMismatchError(BeliefMCError):
    """Operands were built over different frames."""


class InvalidProblemError(BeliefMCError):
    """A problem violates a structural invariant.

    ``violations`` holds one human-readable line per broken invariant, in
    the order they were detected.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class TotalConflictError(BeliefMCError):
    """Every joint outcome is contradictory; the combination is undefined."""


class ExcessiveConflictError(BeliefMCError):
    """The per-trial restart cap was exhausted.

    ``conflict_estimate`` carries the fraction of rejected draws observed up
    to the point of failure, which estimates the conflict mass.
    """

    def __init__(self, message: str, conflict_estimate: float):
        self.conflict_estimate = conflict_estimate
        super().__init__(message)


class ResourceLimitError(BeliefMCError):
    """A configured size or time cap was exceeded; the message names the step."""


class FrameTooLargeError(ResourceLimitError):
    """An operation that enumerates subsets was asked for on too wide a frame."""


class ParseError(BeliefMCError):
    """A problem file could not be parsed; carries 1-based line and column."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")
