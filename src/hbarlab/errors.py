"""Exception types shared across the package.

Two broad families: configuration/argument problems (`DomainError`) and
numeric failures detected mid-run (boundary leakage, caustics, mass drift,
escaping trajectories, inconclusive classification, phase nodes, norm
drift).  The CLI maps the first to exit code 1, the second to exit code 2.
"""


class LabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(LabError, ValueError):
    """An argument or configuration value is outside the supported domain."""


class BoundaryLeak(LabError):
    """Wave-packet mass near the periodic boundary exceeded tolerance.

    Carries the offending state (`psi`) so a driver can inspect it or retry
    on a wider grid.
    """

    def __init__(self, message, psi=None, leak=None):
        super().__init__(message)
        self.psi = psi
        self.leak = leak


class NodeError(LabError):
    """Phase extraction failed: the region where the phase is defined is
    disconnected, so unwrapping would be ambiguous."""


class CausticError(LabError):
    """Hamilton-Jacobi characteristics crossed.

    `t_caustic` is the detected crossing time; `partial` holds whatever
    result was assembled before the caustic (may be None).
    """

    def __init__(self, message, t_caustic=None, partial=None):
        super().__init__(message)
        self.t_caustic = t_caustic
        self.partial = partial


class MassDriftError(LabError):
    """Phase-space mass drifted beyond tolerance (grid too coarse)."""


class EscapeError(LabError):
    """A trajectory left the configured spatial bound (unbounded motion)."""


class InconclusiveError(LabError):
    """Classification residuals straddle the tolerance across widths;
    grid or window artifacts are suspected."""
