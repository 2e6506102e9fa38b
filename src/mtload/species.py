"""Atomic species data, in SI units.

Everything inside the package is SI. Experiment-friendly units appear only
in scenario key names (``trap.gradient_G_per_cm``, ``mot.sigma_um``), and
the scenario accessors convert them to SI.
"""

from dataclasses import dataclass

_ATOMIC_MASS_UNIT = 1.66053906660e-27  # kg


@dataclass(frozen=True)
class SpeciesData:
    """Parameters of the three-level system (ground, cooling-excited,
    metastable-dark) that drives the continuous transfer.

    Decay rates in 1/s, intensities in W/m^2, everything SI.
    """

    mass: float                              # kg
    gamma_eg: float                          # 1/s, strong cooling decay
    gamma_ed: float                          # 1/s, weak leak into the dark state
    gamma_pd3: float                         # 1/s, leak into the second dark state
    wavelength_ps: float                     # m, cooling transition
    saturation_intensity: float              # W/m^2
    lande_g_d: float                         # g-factor of the dark state
    metastable_lifetime_lower_bound: float   # s

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        for name in ("gamma_eg", "gamma_ed", "gamma_pd3",
                     "wavelength_ps", "saturation_intensity"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.lande_g_d <= 0:
            raise ValueError("lande_g_d must be positive")
        if self.metastable_lifetime_lower_bound <= 0:
            raise ValueError("metastable_lifetime_lower_bound must be positive")

    @property
    def branching_ratio(self) -> float:
        """Cooling cycles per leak into the dark state, gamma_eg / gamma_ed."""
        return self.gamma_eg / self.gamma_ed


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
        gamma_pd3=42.0,
        wavelength_ps=425.6e-9,
        saturation_intensity=85.0,  # 8.5 mW/cm^2
        lande_g_d=lande_g_d,
        metastable_lifetime_lower_bound=50.0,
    )

