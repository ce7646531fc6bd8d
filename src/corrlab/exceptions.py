"""Exception hierarchy shared across the library."""


class CorrlabError(Exception):
    """Base class for all library errors."""


class InvalidInput(CorrlabError):
    """Arguments violate a documented precondition."""


class NumericalFailure(CorrlabError):
    """A numerical routine failed (non-convergence, NaN, overflow)."""


class NotPositiveDefinite(CorrlabError):
    """A matrix required to be positive definite is not."""


class ConvergenceFailure(NumericalFailure):
    """Iterative scheme exhausted its budget.

    Carries the last iterate and residual so callers can inspect or resume.
    """

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class ShapeError(CorrlabError):
    """Tensor/layer shape mismatch."""


class ConfigError(CorrlabError):
    """Inconsistent or unsupported configuration."""


class TrainingDiverged(NumericalFailure):
    """Training produced NaN losses; carries the last stable checkpoint."""

    def __init__(self, message, last_checkpoint=None):
        super().__init__(message)
        self.last_checkpoint = last_checkpoint


class ParseError(CorrlabError):
    """Malformed input data file."""

    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class DegenerateColumn(CorrlabError):
    """A returns column is constant within an estimation window."""

    def __init__(self, message, asset=None, window=None):
        super().__init__(message)
        self.asset = asset
        self.window = window


class DegenerateStructure(CorrlabError):
    """Matrix structure too degenerate for the requested feature."""


class DegenerateBasis(CorrlabError):
    """Reference set has rank < 2; no projection plane exists."""


class UnsupportedVersion(CorrlabError):
    """On-disk container version not understood by this build."""


class CorruptData(CorrlabError):
    """An input file cannot be read, decoded or parsed, or breaks its format."""


class RankDeficient(CorrlabError):
    """Regression design matrix is rank deficient."""

    def __init__(self, message, collinear=None):
        super().__init__(message)
        self.collinear = collinear or []
