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

    n(t) = w(t) / (1/n(s) + beta I(t)),
    w(t) = exp(-(t - s)/t0) (1 + alpha s)/(1 + alpha t),
    I(t) = int_s^t w(t') dt'.

w and I are free of n(s) and beta, and n(s) must be a normal float for
1/n(s) to be finite. I is the only numerical step: the fixed 32-node
Gauss-Legendre rule on panels no wider than t0, between break points at
the sample times and where 1 + alpha t doubles, so that no panel is wider
than (1 + alpha a)/alpha at its start a either. The atom number follows
as N = n V.
"""

import math
from dataclasses import dataclass

import numpy as np

from .collisions import GAUSS_NODES, GAUSS_WEIGHTS
from .errors import (NONNEGATIVE, POSITIVE, POSITIVE_NORMAL, POSITIVE_OR_INF,
                     require)


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
        require("background_lifetime", self.background_lifetime,
                POSITIVE_OR_INF)
        require("two_body_coeff", self.two_body_coeff, NONNEGATIVE)
        require("initial_volume", self.initial_volume, POSITIVE)
        require("volume_growth_rate", self.volume_growth_rate, NONNEGATIVE)

    def volume_law(self):
        """V(t) = V0 (1 + alpha t), for scalar or array t."""
        v0, alpha = self.initial_volume, self.volume_growth_rate

        def law(t):
            return v0 * (1.0 + alpha * t)

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
    require("gamma", gamma, NONNEGATIVE)
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
    require("gamma", gamma, POSITIVE)
    return r / gamma


def mot_on_decay_rate(n_e: float, sigma_ed: float, v: float,
                      gamma_background: float = 0.0) -> float:
    """Trap decay rate with the reservoir overlapped:
    Gamma = gamma_background + n_e * sigma_ed * v.

    With the default ``gamma_background=0`` this is the background-
    subtracted collisional rate.
    """
    require("n_e", n_e, NONNEGATIVE)
    require("sigma_ed", sigma_ed, NONNEGATIVE)
    require("v", v, NONNEGATIVE)
    require("gamma_background", gamma_background, NONNEGATIVE)
    return gamma_background + n_e * sigma_ed * v


def _decay_solution(times: np.ndarray, t0: float, alpha: float):
    """``(w, I)`` of the decay solution in the module docstring on
    ``times``, whose first entry is the start s, for lifetime t0 and volume
    growth rate alpha; w(s) = 1 and I(s) = 0. Raises ValueError unless
    ``times`` is a nonempty 1-D array of finite, strictly increasing
    values.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1-D array")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")
    s = times[0]

    def w(t):
        # at a subnormal t0, (t - s)/t0 overflows to inf, and exp(-inf) = 0
        # is the exact limit
        with np.errstate(over="ignore"):
            decay = np.exp(-(t - s) / t0)
        return decay * ((1.0 + alpha * s) / (1.0 + alpha * t))

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
    integral = integral[np.searchsorted(breaks, ends)]
    return w(times), integral


def decay_density_at(times: np.ndarray, initial_density: float,
                     model: RateModel) -> np.ndarray:
    """Peak density n(t) of the decay solution in the module docstring at
    ``times``, whose first entry is the start; at the start it is
    ``initial_density`` exactly. Raises ValueError for an initial density
    that is not a finite normal float, and for ``times`` as
    ``_decay_solution`` does."""
    require("initial_density", initial_density, POSITIVE_NORMAL)
    w, integral = _decay_solution(times, model.background_lifetime,
                                  model.volume_growth_rate)
    out = w / (1.0 / initial_density + model.two_body_coeff * integral)
    out[0] = initial_density
    return out


def integrate_mt_decay(initial_density: float, model: RateModel,
                       t_end: float, dt_hint: float) -> Trajectory:
    """Sample the post-loading decay from 0 to ``t_end`` in the fewest
    equal steps no longer than ``dt_hint``. Emits peak density, the volume
    law, and the atom number N = n0 V."""
    require("t_end", t_end, POSITIVE)
    require("dt_hint", dt_hint, POSITIVE)
    n_steps = max(1, math.ceil(t_end / dt_hint))
    # t_end / dt_hint can round up past an integer, as it does for
    # dt_hint = t_end / (samples - 1); one step fewer then already fits
    if n_steps > 1 and t_end / (n_steps - 1) <= dt_hint:
        n_steps -= 1
    times = np.linspace(0.0, t_end, n_steps + 1)
    density = decay_density_at(times, initial_density, model)
    volume = model.volume_law()(times)
    return Trajectory(times=times, peak_density=density,
                      atom_number=density * volume, volume=volume)
