"""Exception types shared across the package."""


class OrdinalSeasonalityError(Exception):
    """Base class for all package errors."""


class InvalidInputError(OrdinalSeasonalityError, ValueError):
    """Input violates a precondition (wrong length, non-finite value, ...)."""


class SchemaError(OrdinalSeasonalityError, ValueError):
    """A file does not match the declared column schema."""


class OrderError(OrdinalSeasonalityError, ValueError):
    """Dates are not strictly increasing."""


class RejectedRowError(OrdinalSeasonalityError, ValueError):
    """A row is structurally unusable (e.g. weekend date in daily equity data)."""


class DegenerateSeriesError(OrdinalSeasonalityError, ValueError):
    """The series carries no variation to analyze (e.g. constant values)."""
