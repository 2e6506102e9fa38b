"""Forward time evolution of the trapped cloud.

Loading with the reservoir on follows the aggregate linear model
N(t) = N0 (1 - exp(-Gamma t)); two-body losses during loading are
neglected (the mean density times beta stays well below the inverse
loading time constant). After the reservoir is switched off the peak
density obeys

    dn/dt = -n/t0 - beta n^2 - (n/V) dV/dt

with a linearly growing volume V(t) = V0 (1 + alpha t) standing in for the
phenomenological heating. With u = 1/n the equation is linear,
du/dt = u (1/t0 + alpha/(1 + alpha t)) + beta, and from a start time s

    n(t) = n(s) w(t) / (1 + beta n(s) int_s^t w(t') dt'),
    w(t) = exp(-(t - s)/t0) (1 + alpha s)/(1 + alpha t).

The integral of w is the only numerical step, a fixed Gauss-Legendre sum;
the atom number follows as N = n V.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .collisions import GAUSS_NODES, GAUSS_WEIGHTS

VolumeLaw = Callable[[float], tuple[float, float]]  # t -> (V, dV/dt)


@dataclass(frozen=True)
class RateModel:
    """Rate parameters of the trap after loading: background lifetime t0,
    two-body coefficient beta, and the linear volume-growth law
    V(t) = V0 (1 + alpha t).

    Every field must be finite, except that ``background_lifetime`` may be
    ``math.inf`` to disable background loss.
    """

    background_lifetime: float = math.inf  # s (t0)
    two_body_coeff: float = 0.0        # m^3/s (beta)
    initial_volume: float = 1.0        # m^3 (V0)
    volume_growth_rate: float = 0.0    # 1/s (alpha)

    def __post_init__(self):
        for name in ("two_body_coeff", "volume_growth_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, "
                                 f"got {value!r}")
        if not 0 < self.background_lifetime <= math.inf:
            raise ValueError("background_lifetime must be positive, got "
                             f"{self.background_lifetime!r}")
        if not (math.isfinite(self.initial_volume)
                and self.initial_volume > 0):
            raise ValueError("initial_volume must be finite and positive, "
                             f"got {self.initial_volume!r}")

    def volume_law(self) -> VolumeLaw:
        v0, alpha = self.initial_volume, self.volume_growth_rate

        def law(t: float) -> tuple[float, float]:
            return v0 * (1.0 + alpha * t), v0 * alpha

        return law


@dataclass(frozen=True)
class Trajectory:
    """Sampled decay history: times, peak density, atom number, volume."""

    times: np.ndarray         # s
    peak_density: np.ndarray  # 1/m^3
    atom_number: np.ndarray   # count
    volume: np.ndarray        # m^3

    def __post_init__(self):
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        for name in ("peak_density", "atom_number", "volume"):
            if np.any(np.asarray(getattr(self, name)) < 0):
                raise ValueError(f"{name} must be nonnegative")


def loading_curve(r: float, gamma: float, t):
    """Atom number while loading: N(t) = (R/Gamma)(1 - exp(-Gamma t)).

    ``gamma == 0`` degenerates to the linear limit N = R t. Accepts scalar
    or array times.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    if gamma == 0.0:
        out = r * t
    else:
        out = -(r / gamma) * np.expm1(-gamma * t)
    return out if out.ndim else float(out)


def steady_state_population(r: float, gamma: float) -> float:
    """Steady-state atom number N0 = R / Gamma."""
    if gamma <= 0:
        raise ValueError("no steady state exists for gamma <= 0")
    return r / gamma


def mot_on_decay_rate(n_e: float, sigma_ed: float, v: float,
                      gamma_background: float = 0.0) -> float:
    """Trap decay rate with the reservoir overlapped:
    Gamma = gamma_background + n_e * sigma_ed * v.

    With the default ``gamma_background=0`` this is the background-
    subtracted collisional rate.
    """
    if n_e < 0 or sigma_ed < 0 or v < 0 or gamma_background < 0:
        raise ValueError("inputs must be >= 0")
    return gamma_background + n_e * sigma_ed * v


def decay_density_at(times: np.ndarray, initial_density: float,
                     model: RateModel) -> np.ndarray:
    """Peak density at the given times (times[0] is the start) under the
    background + two-body + dilution equation, from its exact solution.

    With s = times[0] and w(t) = exp(-(t-s)/t0) (1 + alpha s)/(1 + alpha t),

        n(t) = n(s) w(t) / (1 + beta n(s) int_s^t w).

    The integral is summed with the 32-node Gauss-Legendre rule on panels
    no wider than t0, between break points at the sample times and where
    1 + alpha t doubles, so that no panel is wider than (1 + alpha a)/alpha
    at its start a either.
    """
    times = np.asarray(times, dtype=float)
    if not (math.isfinite(initial_density) and initial_density > 0):
        raise ValueError("initial_density must be finite and positive, got "
                         f"{initial_density!r}")
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1-D array")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")
    t0 = model.background_lifetime
    beta, alpha = model.two_body_coeff, model.volume_growth_rate
    s = times[0]

    def w(t):
        return np.exp(-(t - s) / t0) * ((1.0 + alpha * s) / (1.0 + alpha * t))

    # past 746 t0 the integrand underflows to 0, so the panels stop there;
    # the doubling points keep the panel count logarithmic in alpha t
    ends = np.minimum(times, s + 746.0 * t0)
    growth = (1.0 + alpha * ends[-1]) / (1.0 + alpha * s)
    doublings = ((1.0 + alpha * s) * 2.0 ** np.arange(1.0, np.log2(growth))
                 - 1.0) / alpha
    breaks = np.sort(np.concatenate((ends, doublings)))
    width = np.diff(breaks)
    panels = np.maximum(1.0, np.ceil(width / t0)).astype(np.intp)
    first = np.cumsum(panels) - panels
    step = np.repeat(width / panels, panels)
    index = np.arange(panels.sum()) - np.repeat(first, panels)
    left = np.repeat(breaks[:-1], panels) + step * index
    nodes = left[:, None] + (0.5 * step)[:, None] * (1.0 + GAUSS_NODES)
    per_panel = 0.5 * step * (w(nodes) @ GAUSS_WEIGHTS)
    integral = np.zeros_like(breaks)
    np.cumsum(np.add.reduceat(per_panel, first), out=integral[1:])
    return initial_density * w(times) / (
        1.0 + beta * initial_density
        * integral[np.searchsorted(breaks, ends)])


def integrate_mt_decay(initial_density: float, model: RateModel,
                       t_end: float, dt_hint: float) -> Trajectory:
    """Sample the post-loading decay from 0 to ``t_end`` in the fewest
    equal steps no longer than ``dt_hint``. Emits peak density, the volume
    law, and the atom number N = n0 V."""
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be finite and positive, got {t_end!r}")
    if not (math.isfinite(dt_hint) and dt_hint > 0):
        raise ValueError("dt_hint must be finite and positive, got "
                         f"{dt_hint!r}")
    n_steps = max(1, math.ceil(t_end / dt_hint))
    # t_end / dt_hint can round up past an integer, as it does for
    # dt_hint = t_end / (samples - 1); one step fewer then already fits
    if n_steps > 1 and t_end / (n_steps - 1) <= dt_hint:
        n_steps -= 1
    times = np.linspace(0.0, t_end, n_steps + 1)
    density = decay_density_at(times, initial_density, model)
    volume, _ = model.volume_law()(times)
    return Trajectory(times=times, peak_density=density,
                      atom_number=density * volume, volume=volume)
