"""Exception hierarchy shared across the package."""


class DuelRankError(Exception):
    """Base class for all package errors."""


class InvalidSizeError(DuelRankError):
    """Player count (or another dimension) is too small."""


class InvalidParameterError(DuelRankError):
    """A numeric parameter is outside its allowed range."""


class MatrixLoadError(DuelRankError):
    """Base class for win-matrix file ingestion failures."""


class MatrixParseError(MatrixLoadError):
    """File could not be parsed as a numeric CSV."""


class NonSquareMatrixError(MatrixLoadError):
    """Row and column counts disagree."""


class AntisymmetryError(MatrixLoadError):
    """p[i][j] + p[j][i] deviates from 1 beyond tolerance."""


class DiagonalError(MatrixLoadError):
    """A diagonal entry deviates from 0.5 beyond tolerance."""


class ConfigError(DuelRankError):
    """Invalid or inconsistent configuration."""

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
