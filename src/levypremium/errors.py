"""Exception hierarchy shared across the package."""


class LevyPremiumError(Exception):
    """Base class for all package errors."""


class DomainError(LevyPremiumError, ValueError):
    """A mathematical-domain violation (argument outside a feasibility region)."""


class InvalidParameterError(LevyPremiumError, ValueError):
    """Distribution parameters violate their invariants."""


class DataError(LevyPremiumError, ValueError):
    """Input data is malformed, degenerate, or misaligned."""


class GridError(LevyPremiumError, ValueError):
    """An inversion grid cannot represent the requested density or datum."""


class CalibrationError(LevyPremiumError, RuntimeError):
    """Root-finding for the risk-aversion coefficient cannot proceed."""
