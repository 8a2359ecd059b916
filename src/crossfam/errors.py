"""Exception types shared across the package."""


class CrossfamError(Exception):
    """Base class for domain errors raised by crossfam."""


class NotGeneralPositionError(CrossfamError):
    """A point set required to be in general position has collinear or coincident points.

    ``triple`` names the collinear index triple when the raiser knows it.
    """

    def __init__(self, message: str, triple: tuple[int, int, int] | None = None):
        self.triple = triple
        super().__init__(message)


class InvalidSegmentError(CrossfamError):
    """A segment refers to a point index outside the ambient point set."""


class SizeLimitError(CrossfamError):
    """Input exceeds the size cap of an exhaustive routine."""


class DegenerateEpsilonError(CrossfamError):
    """A replication spacing produced collinear points or coordinate collisions."""


class EpsilonSearchError(CrossfamError):
    """The certified spacing search exhausted its halving budget."""


class SameSourceSegmentError(CrossfamError):
    """A segment joins two copies of the same source point, so it cannot be contracted."""


class SignotopeViolationError(CrossfamError):
    """A truth assignment violates the orientation-sequence axioms."""


class RetryExhaustedError(CrossfamError):
    """Random perturbation failed to reach general position within the retry budget."""


class ParseError(CrossfamError):
    """Malformed input file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
