"""Excited-state population of the reservoir cloud and the continuous
transfer rate into the magnetic trap."""

from dataclasses import dataclass

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
        if self.single_beam_intensity < 0:
            raise ValueError("single_beam_intensity must be >= 0")
        if self.beam_count < 1:
            raise ValueError("beam_count must be >= 1")

    @property
    def total_intensity(self) -> float:
        return self.beam_count * self.single_beam_intensity


def excitation_probability(light: LightField, species: SpeciesData) -> float:
    """Steady-state excited fraction of a saturated two-level atom.

    P = (s/2) / (1 + s + (2 delta / gamma)^2)

    with s = total intensity over the polarization-averaged saturation
    intensity (7/3 I_s). Bounded by 1/2, increasing in intensity,
    decreasing in |detuning|.
    """
    s = light.total_intensity / (
        SATURATION_AVERAGE_FACTOR * species.saturation_intensity
    )
    return 0.5 * s / (1.0 + s + (2.0 * light.detuning / species.gamma_eg) ** 2)


def transfer_rate(n_mot: float, p_e: float, species: SpeciesData,
                  efficiency: float) -> float:
    """Continuous loading rate R = efficiency * N_MOT * P_e * gamma_ed (1/s)."""
    if n_mot < 0:
        raise ValueError("n_mot must be >= 0")
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError("efficiency must be within [0, 1]")
    return efficiency * n_mot * p_e * species.gamma_ed


def efficiency_from_rate(rate: float, n_mot: float, p_e: float,
                         species: SpeciesData) -> float:
    """Invert :func:`transfer_rate` for the efficiency."""
    denom = n_mot * p_e * species.gamma_ed
    if denom <= 0:
        raise ValueError("n_mot and p_e must be positive to infer an efficiency")
    return rate / denom
