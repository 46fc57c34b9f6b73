"""Exception hierarchy. Each class carries the CLI exit code for its family."""


class ReplikitError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ParseError(ReplikitError, ValueError):
    """Malformed or ambiguous input (CSV rows, option values). Exit code 2."""

    exit_code = 2


class DomainError(ReplikitError, ValueError):
    """Argument outside the mathematical domain of an operation. Exit code 3."""

    exit_code = 3


class InsufficientDataError(DomainError):
    """Too few observations or studies for the requested statistic."""


class DegenerateSampleError(DomainError):
    """Zero pooled standard deviation; effect size undefined."""


class PairingError(DomainError):
    """Batch cannot be split into pairs (odd number of experiments)."""


class InconsistentIntervalError(DomainError):
    """Interval is not symmetric about the stated effect size."""


class NoSolutionError(ReplikitError):
    """Numeric inversion target unreachable within the search range. Exit code 4."""

    exit_code = 4


class ConvergenceError(ReplikitError):
    """An iterative numeric routine failed to converge. Exit code 4."""

    exit_code = 4
