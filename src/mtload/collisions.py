"""Collision kinematics linking the reservoir and the magnetically trapped
cloud: mean collisional velocity, effective excited-atom density, and the
finite-reservoir-size overlap correction."""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .constants import K_B
from .species import SpeciesData

# fixed Gauss-Legendre rule for the angle t in (-pi/2, pi/2) of the
# overlap integral; its integrand is analytic in t
_NODES, _WEIGHTS = leggauss(32)
_COS_T = np.cos(0.5 * math.pi * _NODES)
_SIN2_T = np.sin(0.5 * math.pi * _NODES) ** 2
_WEIGHTS_T = 0.5 * math.pi * _WEIGHTS


def mean_collision_velocity(t_mot: float, t_mt: float,
                            species: SpeciesData) -> float:
    """Average relative velocity between the two thermal clouds,

    v = sqrt((T_MOT + T_MT) * 8 k_B / (pi m)).
    """
    if t_mot < 0 or t_mt < 0:
        raise ValueError("temperatures must be >= 0")
    if t_mot == 0 and t_mt == 0:
        raise ValueError("at least one temperature must be positive")
    return math.sqrt((t_mot + t_mt) * 8.0 * K_B / (math.pi * species.mass))


def excited_mot_density(n_mot: float, p_e: float, v_mt: float) -> float:
    """Effective density of excited reservoir atoms: the excited-atom
    number spread over the trapped-cloud volume, N_MOT * P_e / V."""
    if v_mt <= 0:
        raise ValueError("v_mt must be positive")
    return n_mot * p_e / v_mt


def overlap_correction(size_ratio: float) -> float:
    """Finite-reservoir-size correction factor for the collisional loss
    rate, as a function of the size ratio sigma/r (reservoir Gaussian
    radius over trapped-cloud 1/e radius).

    Defined as the density-weighted overlap of a normalized isotropic
    Gaussian of radius ``size_ratio`` (in units of the 1/e radius) with the
    trapped-cloud profile relative to its peak, sag term dropped:

        f(q) = E[ exp(-sqrt(x^2 + y^2 + 4 z^2)) ],  (x,y,z) ~ N(0, q^2 I).

    f -> 1 for a point-like reservoir and decreases monotonically with q.
    The exact integrand is a modeling choice; only the magnitude range is
    physically constrained, not a point value.

    In cylinder coordinates with rho = s cos t, 2 z = s sin t (Jacobian
    s/2) the anisotropic radius is s, and

        f(q) = 1/(2 q^3 sqrt(2 pi)) int_{-pi/2}^{pi/2} cos t I2(a(t)) dt,
        I_n(a) = int_0^inf s^n exp(-a s^2 - s) ds,
        a(t) = (cos^2 t + sin^2 t / 4) / (2 q^2).

    The radial integrals close exactly: I0 = sqrt(pi/4a) e^{1/4a}
    erfc(1/(2 sqrt a)), and integrating by parts gives
    I1 = (1 - I0)/(2a), I2 = (I0 - I1)/(2a). The angle integral is a
    fixed 32-point Gauss-Legendre rule.
    """
    if not 0.0 < size_ratio <= 1.0:
        raise ValueError("size_ratio must be in (0, 1]")
    q = size_ratio
    a = (_COS_T ** 2 + 0.25 * _SIN2_T) / (2.0 * q * q)
    x = 0.5 / np.sqrt(a)
    erfc = np.array([math.erfc(v) for v in x])
    i0 = np.sqrt(math.pi / (4.0 * a)) * np.exp(x * x) * erfc
    i1 = (1.0 - i0) / (2.0 * a)
    i2 = (i0 - i1) / (2.0 * a)
    return (float(_WEIGHTS_T @ (_COS_T * i2))
            / (2.0 * q ** 3 * math.sqrt(2.0 * math.pi)))


def cross_section_from_beta(beta: float, v: float) -> float:
    """Operational cross section sigma = beta / v for a two-body loss
    coefficient beta at mean collisional velocity v. No identical-particle
    factors are applied."""
    if v <= 0:
        raise ValueError("v must be positive")
    if beta < 0:
        raise ValueError("beta must be >= 0")
    return beta / v
