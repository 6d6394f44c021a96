"""Exception types shared across the package.

A caller catches ProxyVoteError: vote and eval record a keypoint or pose
that raises one as a failed row, and the CLI reports one as exit 1. The
subclasses are kept where a type says more than the message: a
DegenerateInputError is also a ValueError, a ModelLoadError names the
file it could not read, and a DivergenceError carries the trace so far.
"""


class ProxyVoteError(Exception):
    """Base class for all package-specific errors."""


class DegenerateInputError(ProxyVoteError, ValueError):
    """Input that cannot support the computation: coincident or too few
    points, a near-zero direction, a point behind the camera, mismatched
    shapes, pose ranges no pose fits, or no sampled pixel pair that forms a
    hypothesis (each pair was one pixel twice, had parallel directions or
    one shorter than EPS_NORM, or had rays that met behind a pixel)."""


class ModelLoadError(ProxyVoteError, ValueError):
    """An input file failed to parse or check; the message names the file."""


class DivergenceError(ProxyVoteError, RuntimeError):
    """Optimization produced a non-finite loss. Carries the trace up to failure."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
