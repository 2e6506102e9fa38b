"""Collision kinematics linking the reservoir and the magnetically trapped
cloud: mean collisional velocity, effective excited-atom density, and the
finite-reservoir-size overlap correction."""

import math

import numpy as np

from .constants import K_B
from .species import SpeciesData

# fixed 32-node Gauss-Legendre rule on [-1, 1], shared with the decay
# integral in dynamics: the 16 positive nodes and their weights, exactly
# as numpy.polynomial.legendre.leggauss(32) gives them (it symmetrises
# its output, so mirroring the half rebuilds the whole rule bit for bit;
# a test checks it), kept as literals so importing the package does not
# load numpy.polynomial
_GAUSS_HALF_NODES = np.array([
    0.048307665687738324, 0.1444719615827965, 0.23928736225213706,
    0.33186860228212767, 0.42135127613063533, 0.5068999089322294,
    0.5877157572407623, 0.6630442669302152, 0.7321821187402897,
    0.7944837959679424, 0.84936761373257, 0.8963211557660521,
    0.9349060759377397, 0.9647622555875064, 0.9856115115452684,
    0.9972638618494816,
])
_GAUSS_HALF_WEIGHTS = np.array([
    0.09654008851472766, 0.09563872007927471, 0.09384439908080451,
    0.09117387869576378, 0.08765209300440378, 0.08331192422694671,
    0.07819389578707023, 0.07234579410884834, 0.06582222277636168,
    0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
    0.034273862913021765, 0.025392065309262024, 0.016274394730905743,
    0.007018610009470506,
])
GAUSS_NODES = np.concatenate((-_GAUSS_HALF_NODES[::-1], _GAUSS_HALF_NODES))
GAUSS_WEIGHTS = np.concatenate((_GAUSS_HALF_WEIGHTS[::-1],
                                _GAUSS_HALF_WEIGHTS))
# the rule mapped to the angle t in (-pi/2, pi/2) of the overlap integral;
# its integrand is analytic in t
_COS_T = np.cos(0.5 * math.pi * GAUSS_NODES)
_SIN2_T = np.sin(0.5 * math.pi * GAUSS_NODES) ** 2
_WEIGHTS_T = 0.5 * math.pi * GAUSS_WEIGHTS


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
