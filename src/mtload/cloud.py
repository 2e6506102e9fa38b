"""Thermal-equilibrium geometry of the trapped cloud in the quadrupole
field with gravity.

The density profile is

    n(x, y, z) = n0 * exp(-B * sqrt(x^2 + y^2 + 4 z^2) - G * y)

with y the vertical (gravity) axis and z the coil axis. The shape
parameters are B = mu_bar * b / (2 k_B T) and G = m g / (k_B T); their
ratio fixes the mean magnetic moment independently of temperature.
"""

import math
from dataclasses import dataclass

from .constants import G_ACCEL, K_B, H_PLANCK
from .errors import NONNEGATIVE, POSITIVE, UntrappedCloudError, require
from .species import SpeciesData

# prefactor of the finite-reservoir-size term in the transfer-temperature
# prediction; equals (2/9) * sqrt(8/pi)
VIRIAL_TRANSFER_PREFACTOR = 8.0 / (9.0 * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class QuadrupoleField:
    """Quadrupole field with radial gradient ``gradient`` (T/m); the strong
    (coil) axis carries twice that, which is where the 4 z^2 anisotropy of
    the density profile comes from."""

    gradient: float  # T/m

    def __post_init__(self):
        require("gradient", self.gradient, POSITIVE)


@dataclass(frozen=True)
class MotCloud:
    """Gaussian reservoir cloud: 1/e^(1/2) radius sigma per axis,
    temperature, atom number. ``size_sigma=0`` is allowed and means a
    point-like reservoir."""

    size_sigma: float     # m
    temperature: float    # K
    atom_number: float    # count

    def __post_init__(self):
        require("size_sigma", self.size_sigma, NONNEGATIVE)
        require("temperature", self.temperature, POSITIVE)
        require("atom_number", self.atom_number, POSITIVE)


def shape_params(temperature: float, mu_bar: float, field: QuadrupoleField,
                 species: SpeciesData) -> tuple[float, float]:
    """Shape parameters (B, G) of the trapped-cloud profile.

    B = mu_bar * b / (2 k_B T),  G = m g / (k_B T). Both scale as 1/T, so
    B/G is a thermometry-free measure of mu_bar.
    """
    require("temperature", temperature, POSITIVE)
    kt = K_B * temperature
    b_shape = mu_bar * field.gradient / (2.0 * kt)
    g_shape = species.mass * G_ACCEL / kt
    return b_shape, g_shape


def effective_volume(shape_b: float, shape_g: float) -> float:
    """Effective volume V = integral of n/n0 over all space (m^3).

    Rescaling the coil axis (z' = 2z) and carrying out the angular average
    of the sag term exactly leaves a single radial integral,

        V = 2 pi * int_0^inf r^2 exp(-B r) sinh(G r)/(G r) dr
          = 4 pi B / (B^2 - G^2)^2,

    which is exact for every G < B. The profile is only normalizable
    while the magnetic confinement beats gravity along -y, i.e. G < B;
    at G >= B the integrand grows without bound and no volume exists.
    """
    require("shape_b", shape_b, POSITIVE)
    require("shape_g", shape_g, NONNEGATIVE)
    if shape_g >= shape_b:
        raise UntrappedCloudError(
            f"gravity overwhelms confinement (shape_g={shape_g:g} >= "
            f"shape_b={shape_b:g}); the cloud is untrapped"
        )
    # (B - G)(B + G) rather than B^2 - G^2: no cancellation as G -> B
    denominator = ((shape_b - shape_g) * (shape_b + shape_g)) ** 2
    if denominator == 0.0:
        raise ValueError("no finite effective volume: ((B - G)(B + G))^2 "
                         f"underflows to 0 at shape_b={shape_b!r}")
    return 4.0 * math.pi * shape_b / denominator


def phase_space_density(peak_density: float, temperature: float,
                        species: SpeciesData) -> float:
    """Peak density times the cubed thermal de Broglie wavelength."""
    require("peak_density", peak_density, NONNEGATIVE)
    require("temperature", temperature, POSITIVE)
    lam = H_PLANCK / math.sqrt(2.0 * math.pi * species.mass * K_B * temperature)
    return peak_density * lam ** 3


def predict_mt_temperature(mot: MotCloud, field: QuadrupoleField,
                           mu_bar: float) -> float:
    """Virial-theorem temperature of atoms transferred from the reservoir.

    Point transfer in a linear potential gives T = T_MOT / 3; the finite
    reservoir size adds

        dT = 8/(9 sqrt(2 pi)) * mu_bar * b * sigma / k_B.

    The isotropic-trap estimate leaves the angular average of the
    anisotropic gradient open; b here is the configured radial gradient,
    unmodified, which is also the convention of the Monte Carlo energy
    audit this prediction is checked against.
    """
    delta_t = (VIRIAL_TRANSFER_PREFACTOR * mu_bar * field.gradient
               * mot.size_sigma / K_B)
    return mot.temperature / 3.0 + delta_t

