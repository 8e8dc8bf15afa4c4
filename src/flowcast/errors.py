"""Exception types raised across the flowcast package."""


class FlowcastError(Exception):
    """Base class for all flowcast errors."""


# --- ingestion ---------------------------------------------------------

class EmptyFlow(FlowcastError):
    """A flow was constructed from zero packet events."""


class MalformedEvent(FlowcastError):
    """A packet event carries an invalid field (e.g. negative byte count)."""


class IoError(FlowcastError):
    """A file could not be read or written."""


class ParseError(FlowcastError):
    """A file violates its schema.  Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InsufficientGroup(FlowcastError):
    """A flow group is too small for the requested operation."""


# --- spectral ----------------------------------------------------------

class EmptySeries(FlowcastError):
    """Chunking was attempted on an empty series."""


class FrameDimMismatch(FlowcastError):
    """Spectral frame dimensions are inconsistent with each other or with
    the requested chunk length."""


# --- reduction / kernels ------------------------------------------------

class InsufficientData(FlowcastError):
    """Not enough rows to fit a statistic."""


class BadDimension(FlowcastError):
    """Matrix/vector dimensions do not match the fitted model."""


class ZeroBandwidth(FlowcastError):
    """The median heuristic produced a zero bandwidth (identical samples)."""


# --- filter -------------------------------------------------------------

class FlowTooShort(FlowcastError):
    """A flow is too short to cover the configured windows."""


class ModelFileError(FlowcastError):
    """A model file is not a readable flowcast model of the supported
    format version."""


class NumericalFailure(FlowcastError):
    """A regularized linear solve failed despite jitter escalation.
    Carries the name of the offending matrix."""

    def __init__(self, matrix: str, detail: str = ""):
        self.matrix = matrix
        message = f"numerical failure while factorizing {matrix}"
        if detail:
            message += f": {detail}"
        super().__init__(message)


# --- evaluation / search -------------------------------------------------

class UndefinedError(FlowcastError):
    """An error metric is undefined (e.g. the actual horizon has no peak)."""


class EmptySpace(FlowcastError):
    """A hyperparameter search space has an empty grid."""


class NoViableCandidate(FlowcastError):
    """Every candidate in a search failed to learn."""


class BadTemplate(FlowcastError):
    """A synthetic burst template has impossible geometry."""
