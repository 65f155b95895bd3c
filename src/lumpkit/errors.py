"""Exception types shared across the package."""

from __future__ import annotations


class LumpkitError(Exception):
    """Base class for all errors raised by lumpkit."""


class ModelSyntaxError(LumpkitError):
    """Malformed model text.

    Carries the 1-based line and column of the offending token when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = f"line {line}, column {column}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ModelValidationError(LumpkitError):
    """Structurally valid model text that violates a semantic requirement,
    e.g. a rank-deficient observable matrix or a non-positive horizon."""


class EvaluationError(LumpkitError):
    """Drift evaluation hit a division by an exactly zero denominator, or an
    integer power overflowed the float range.

    Sums and products that overflow give infinities, which propagate
    silently. A zero denominator and an overflowing power make Python floats
    raise, and are reported as this error.
    """

    def __init__(self, message: str, component: int | None = None, point=None):
        self.component = component
        self.point = point
        super().__init__(message)


class SamplingError(LumpkitError):
    """Random sampling failed repeatedly, e.g. every draw hit a singular point."""


class RankDeficiencyError(LumpkitError):
    """A matrix that must have full row rank does not, or the rows given to
    ``LumpingMatrix`` are not orthonormal."""


class PseudoinverseError(LumpkitError):
    """``build_reduced_drift`` found L @ Lbar != I, with Lbar defaulting to
    the transpose of L."""


class DimensionMismatchError(LumpkitError):
    """Operands with incompatible shapes."""


class IntegrationError(LumpkitError):
    """The ODE solver could not finish: step underflow (stiffness suspected),
    step budget exhausted, or a drift evaluation failure along the way."""

    def __init__(self, message: str, time_reached: float | None = None):
        self.time_reached = time_reached
        super().__init__(message)


class MonotonicityError(LumpkitError):
    """A tolerance sweep produced a reduction size that grew with the
    tolerance; reported rather than silently accepted."""
