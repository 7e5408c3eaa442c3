"""Exception types shared across the package.

Two broad families: configuration/argument problems (`DomainError`) and
numeric failures detected mid-run (boundary leakage, caustics, mass drift,
escaping trajectories, inconclusive classification, norm drift, a result
row holding nan or inf).  The CLI maps the first to exit code 1, the
second to exit code 2.
"""


class LabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(LabError, ValueError):
    """An argument or configuration value is outside the supported domain."""


class BoundaryLeak(LabError):
    """Wave-packet mass near the periodic boundary exceeded tolerance; a
    driver may retry on a wider grid."""


class CausticError(LabError):
    """Hamilton-Jacobi characteristics crossed at `t_caustic`."""

    def __init__(self, message, t_caustic=None):
        super().__init__(message)
        self.t_caustic = t_caustic


class MassDriftError(LabError):
    """Phase-space mass drifted beyond tolerance (grid too coarse)."""


class EscapeError(LabError):
    """A trajectory left the configured spatial bound (unbounded motion)."""


class InconclusiveError(LabError):
    """Classification residuals straddle the tolerance across widths;
    grid or window artifacts are suspected."""
