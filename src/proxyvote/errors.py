"""Exception types shared across the package."""


class ProxyVoteError(Exception):
    """Base class for all package-specific errors."""


class DegenerateInputError(ProxyVoteError, ValueError):
    """Input is geometrically degenerate (coincident points, near-zero direction)."""


class DimensionMismatchError(ProxyVoteError, ValueError):
    """Array shapes of paired inputs do not agree."""


class BehindCameraError(ProxyVoteError, ValueError):
    """A point has non-positive depth in the camera frame."""


class InsufficientSupportError(ProxyVoteError, ValueError):
    """Too few masked pixels (or points) to run the operation."""


class NoValidHypothesisError(ProxyVoteError, RuntimeError):
    """No sampled pixel pair formed a hypothesis: each pair was one pixel
    twice, had parallel directions or one shorter than EPS_NORM, or had
    rays that met behind a pixel."""


class TooFewPointsError(ProxyVoteError, ValueError):
    """Fewer correspondences / points than the solver requires."""


class DegenerateConfigurationError(ProxyVoteError, ValueError):
    """Point configuration is rank-deficient for the solver."""


class ModelLoadError(ProxyVoteError, ValueError):
    """A model file failed to parse; message carries the offending line."""


class ConfigurationError(ProxyVoteError, ValueError):
    """A configuration cannot be satisfied (e.g. pose sampling rejection limit)."""


class DivergenceError(ProxyVoteError, RuntimeError):
    """Optimization produced a non-finite loss. Carries the trace up to failure."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class AlignmentError(ProxyVoteError, ValueError):
    """Trace files to be merged have mismatched lengths."""
