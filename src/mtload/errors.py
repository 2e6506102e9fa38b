"""Exception types shared across the package."""


class MtloadError(Exception):
    """Base class for package-specific errors."""


class ConfigError(MtloadError):
    """Invalid configuration input: an unknown key or a bad value."""


class InputDataError(ConfigError, ValueError):
    """Input data a fit or a data container cannot take: too few samples,
    a time axis that does not increase, non-finite, degenerate or
    malformed values.
    The CLI exits 2 on it, as on any configuration error."""


class UntrappedCloudError(MtloadError):
    """Gravity overwhelms the magnetic confinement; the thermal density
    profile is not normalizable and no finite volume exists."""


class FitNotConvergedError(MtloadError):
    """An iterative fit exhausted its iteration budget; the message gives
    the budget and the residual norm reached."""


class GravityAxisError(MtloadError):
    """A density-image fit cannot use the image's vertical axis: the image
    has one pixel along it, so the sag parameter is not determined, or the
    fit converged to a non-positive sag, which normally means the axis is
    mislabeled or flipped."""
