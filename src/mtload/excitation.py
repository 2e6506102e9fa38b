"""Excited-state population of the reservoir cloud and the continuous
transfer rate into the magnetic trap."""

from dataclasses import dataclass

from .errors import FRACTION, NONNEGATIVE, at_least, require
from .species import SpeciesData

# polarization-averaged saturation intensity convention, <I_s> = 7/3 I_s
SATURATION_AVERAGE_FACTOR = 7.0 / 3.0


@dataclass(frozen=True)
class LightField:
    """Trap light parameters.

    ``detuning`` is laser frequency minus atomic frequency in rad/s
    (negative for red detuning). The total intensity is
    ``beam_count * single_beam_intensity``; set ``beam_count=1`` to model a
    single traveling beam instead of the ideal retroreflected set.
    """

    single_beam_intensity: float    # W/m^2
    beam_count: int = 6
    detuning: float = 0.0           # rad/s

    def __post_init__(self):
        require("single_beam_intensity", self.single_beam_intensity,
                NONNEGATIVE)
        require("beam_count", self.beam_count, at_least(1))

    @property
    def total_intensity(self) -> float:
        return self.beam_count * self.single_beam_intensity


def excitation_probability(light: LightField, species: SpeciesData) -> float:
    """Steady-state excited fraction of a saturated two-level atom.

    P = (s/2) / (1 + s + (2 delta / gamma)^2)

    with s = total intensity over the polarization-averaged saturation
    intensity (7/3 I_s). Bounded by 1/2, increasing in intensity,
    decreasing in |detuning|: 0 where (2 delta / gamma)^2 overflows.
    """
    s = light.total_intensity / (
        SATURATION_AVERAGE_FACTOR * species.saturation_intensity
    )
    x = 2.0 * light.detuning / species.gamma_eg
    return 0.5 * s / (1.0 + s + x * x)


def transfer_rate(n_mot: float, p_e: float, species: SpeciesData,
                  efficiency: float) -> float:
    """Continuous loading rate R = efficiency * N_MOT * P_e * gamma_ed (1/s)."""
    require("n_mot", n_mot, NONNEGATIVE)
    require("efficiency", efficiency, FRACTION)
    return efficiency * n_mot * p_e * species.gamma_ed


def efficiency_from_rate(rate: float, n_mot: float, p_e: float,
                         species: SpeciesData) -> float:
    """Invert :func:`transfer_rate` for the efficiency."""
    denom = n_mot * p_e * species.gamma_ed
    if denom <= 0:
        raise ValueError("n_mot and p_e must be positive to infer an efficiency")
    return rate / denom
