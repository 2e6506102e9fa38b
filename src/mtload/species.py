"""Atomic species data, in SI units.

Everything inside the package is SI. Experiment-friendly units appear only
in scenario key names (``trap.gradient_G_per_cm``, ``mot.sigma_um``), and
the scenario accessors convert them to SI.
"""

from dataclasses import dataclass, fields

from .errors import POSITIVE, require

_ATOMIC_MASS_UNIT = 1.66053906660e-27  # kg


@dataclass(frozen=True)
class SpeciesData:
    """Parameters of the three-level system (ground, cooling-excited,
    metastable-dark) that drives the continuous transfer.

    Decay rates in 1/s, intensities in W/m^2, everything SI.
    """

    mass: float                  # kg
    gamma_eg: float              # 1/s, strong cooling decay
    gamma_ed: float              # 1/s, weak leak into the dark state
    saturation_intensity: float  # W/m^2
    lande_g_d: float             # g-factor of the dark state

    def __post_init__(self):
        for field in fields(self):
            require(field.name, getattr(self, field.name), POSITIVE)


def chromium52(lande_g_d: float = 1.5) -> SpeciesData:
    """Bundled 52Cr dataset, SI units.

    The dark-state g-factor is not fixed by the bundled data; 1.5 is the
    LS-coupling value for the relevant term and can be overridden. Outputs
    that depend on the mean magnetic moment scale linearly with it.
    """
    return SpeciesData(
        mass=51.94050623 * _ATOMIC_MASS_UNIT,
        gamma_eg=3.15e7,
        gamma_ed=127.0,
        saturation_intensity=85.0,  # 8.5 mW/cm^2
        lande_g_d=lande_g_d,
    )

