"""Exception types shared across the package, and the argument domains.

A domain is a pair (test, phrase): ``test(value)`` is true for a value
inside it, and the phrase completes "must be ..." in the message that
refuses one outside it. Every test is false for NaN, and for +-inf unless
its phrase names infinity. The library's scalar guards and the scenario
keys check through the same domains.
"""

import math
import sys


def at_least(low):
    return (lambda v: low <= v < math.inf, f">= {low}")


FINITE = (math.isfinite, "finite")
POSITIVE = (lambda v: 0 < v < math.inf, "positive")
NONNEGATIVE = at_least(0)
FRACTION = (lambda v: 0 <= v <= 1, "in [0, 1]")
POSITIVE_FRACTION = (lambda v: 0 < v <= 1, "in (0, 1]")
POSITIVE_OR_INF = (lambda v: 0 < v <= math.inf, "positive or inf")
# a normal float, whose reciprocal is finite
POSITIVE_NORMAL = at_least(sys.float_info.min)


def require(name: str, value, domain) -> None:
    """Raise ValueError naming ``name`` and ``value`` unless ``value`` lies
    in ``domain``."""
    test, phrase = domain
    if not test(value):
        raise ValueError(f"{name} must be {phrase}, got {value!r}")


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
    """An iterative fit exhausted its iteration budget or stalled; the
    message names which, and the residual norm reached."""


class GravityAxisError(MtloadError):
    """A density-image fit cannot use the image's vertical axis: the image
    has one pixel along it, so the sag parameter is not determined, or the
    fit ends at a non-positive sag, which normally means the axis is
    mislabeled or flipped."""
