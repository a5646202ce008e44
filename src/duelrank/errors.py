"""Exception hierarchy shared across the package: one class per remedy."""


class DuelRankError(Exception):
    """Base class for all package errors."""


class MatrixLoadError(DuelRankError):
    """A win-matrix file is unreadable, not square or not a win matrix."""


class ConfigError(DuelRankError):
    """A bad argument: a config value or parameter outside its range."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class SolverError(DuelRankError):
    """Iterative solver failed to converge; carries the last iterate."""

    def __init__(self, message: str, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class ContractViolationError(DuelRankError):
    """An operation was called outside its stated contract."""
