"""Scenario files: the line-oriented ``key = value`` configuration that
drives every command.

Keys use dotted section paths (``trap.gradient_G_per_cm = 20``), values
are numbers, comma-separated number lists, or short strings, '#' starts a
comment, and unknown keys are hard errors. Experiment-friendly units live
in the key names; everything is converted to SI on access. The canonical
form (sorted keys, normalized values) is hashed into every output file so
a result can always be traced back to its exact configuration.
"""

import math
from dataclasses import dataclass

from .cloud import MotCloud, QuadrupoleField, predict_mt_temperature
from .constants import MU_B
from .errors import (FINITE, FRACTION, NONNEGATIVE, POSITIVE,
                     POSITIVE_FRACTION, POSITIVE_NORMAL, ConfigError,
                     at_least)
from .excitation import LightField
from .species import SpeciesData, chromium52
from .tables import format_number, read_text


# parsers: each takes a value's stripped text and returns the value, or
# raises ValueError with the message that follows "line N: key: "
def _float(text: str, expected: str = "a number", part=None) -> float:
    """``part`` of ``text``, or all of it, as a finite float."""
    try:
        value = float(text if part is None else part)
    except ValueError:
        raise ValueError(f"expected {expected}, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    return value


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _float_or_virial(text: str):
    return text if text == "virial" else _float(text, "a number or 'virial'")


def _float_list(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if parts == [""]:
        raise ValueError("expected a nonempty comma-separated number list")
    return tuple(_float(text, "numbers", p) for p in parts)


# key -> (parser, default, domain); a list key's domain must hold for each
# element
SCENARIO_KEYS: dict[str, tuple] = {
    "seed": (_int, 42, NONNEGATIVE),
    "species.name": (str, "cr52", (lambda v: v == "cr52",
                                   "'cr52', the only bundled dataset")),
    "species.lande_g_d": (_float, 1.5, POSITIVE),
    # default gradient chosen so the default scenario lands at the headline
    # operating point (steady state near 1e8 atoms, tau near 1 s)
    "trap.gradient_G_per_cm": (_float, 15.0, POSITIVE),
    "mot.sigma_um": (_float, 200.0, NONNEGATIVE),
    "mot.temperature_uK": (_float, 300.0, POSITIVE),
    "mot.atom_number": (_float, 1.0e7, POSITIVE),
    "mt.temperature_uK": (_float_or_virial, "virial",
                          (lambda v: v == "virial" or v > 0,
                           "positive or 'virial'")),
    "transfer.efficiency": (_float, 0.32, FRACTION),
    "transfer.mean_zeeman_m": (_int, 4, (lambda m: 1 <= m <= 4, "in [1, 4]")),
    "light.intensity_per_beam_sat": (_float, 15.0, NONNEGATIVE),
    "light.beam_count": (_int, 6, at_least(1)),
    "light.detuning_linewidths": (_float, -2.0, FINITE),
    "rates.background_lifetime_s": (_float, 60.0, POSITIVE),
    "rates.mot_on_background_rate_per_s": (_float, 0.2, NONNEGATIVE),
    "rates.two_body_m3_per_s": (_float, 7.0e-17, NONNEGATIVE),
    "rates.volume_growth_per_s": (_float, 0.1, NONNEGATIVE),
    "rates.sigma_ed_m2": (_float, 1.0e-15, NONNEGATIVE),
    "rates.overlap_factor": (_float, 1.0, POSITIVE_FRACTION),
    "sim.t_end_s": (_float, 5.0, POSITIVE),
    "sim.samples": (_int, 51, at_least(2)),
    "decay.initial_density_m3": (_float, 1.0e16, POSITIVE_NORMAL),
    "decay.t_end_s": (_float, 10.0, POSITIVE),
    "decay.samples": (_int, 101, at_least(2)),
    "mc.particles": (_int, 100_000, at_least(2)),
    "noise.sigma_rel": (_float, 0.0, NONNEGATIVE),
    "figure2.detunings_linewidths": (_float_list, (-2.0, -5.0, -8.0),
                                     FINITE),
    "figure2.efficiencies": (_float_list, (0.32, 0.25, 0.16), FRACTION),
    "figure2.atom_numbers": (_float_list, (2e6, 5e6, 1e7, 2e7, 3.5e7,
                                           5e7, 7.5e7, 1e8), POSITIVE),
    "figure3.atom_numbers": (_float_list, (1e6, 2e6, 3.5e6, 5e6, 7.5e6, 1e7,
                                           2e7, 3e7, 4e7, 5.5e7, 7.5e7, 1e8),
                             POSITIVE),
    "figure4.lightshift": (_float_list, (3.0, 6.0, 9.0, 12.0, 15.0, 18.0,
                                         21.0, 24.0, 27.0, 30.0),
                           NONNEGATIVE),
    "figure4.tmot_offset_uK": (_float, 60.0, POSITIVE),
    "figure4.tmot_slope_uK": (_float, 15.0, NONNEGATIVE),
}


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(map(format_number, value))
    return format_number(value)


@dataclass(frozen=True)
class Scenario:
    """Resolved scenario: every known key bound to a validated value."""

    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def seed(self) -> int:
        return self.values["seed"]

    def canonical_text(self) -> str:
        lines = [f"{key} = {_format_value(self.values[key])}"
                 for key in sorted(self.values)]
        return "\n".join(lines) + "\n"

    def with_seed(self, seed: int) -> "Scenario":
        _check("seed", seed)
        values = dict(self.values)
        values["seed"] = int(seed)
        return Scenario(values)

    # --- typed SI accessors -------------------------------------------------

    def species(self) -> SpeciesData:
        return chromium52(lande_g_d=self.values["species.lande_g_d"])

    def field(self) -> QuadrupoleField:
        return QuadrupoleField(
            gradient=self.values["trap.gradient_G_per_cm"] * 0.01)

    def mot_cloud(self) -> MotCloud:
        return MotCloud(
            size_sigma=self.values["mot.sigma_um"] * 1e-6,
            temperature=self.values["mot.temperature_uK"] * 1e-6,
            atom_number=self.values["mot.atom_number"],
        )

    def light_field(self,
                    detuning_linewidths: float | None = None) -> LightField:
        species = self.species()
        detuning_lw = (detuning_linewidths if detuning_linewidths is not None
                       else self.values["light.detuning_linewidths"])
        return LightField(
            single_beam_intensity=(self.values["light.intensity_per_beam_sat"]
                                   * species.saturation_intensity),
            beam_count=self.values["light.beam_count"],
            detuning=detuning_lw * species.gamma_eg,
        )

    def mu_bar(self) -> float:
        return (self.values["species.lande_g_d"]
                * self.values["transfer.mean_zeeman_m"] * MU_B)

    def mt_temperature(self) -> float:
        """Magnetic-trap temperature: explicit value or, for 'virial', the
        transfer-temperature prediction from the reservoir parameters."""
        configured = self.values["mt.temperature_uK"]
        if configured != "virial":
            return configured * 1e-6
        return predict_mt_temperature(self.mot_cloud(), self.field(),
                                      self.mu_bar())


def _check(key: str, value) -> None:
    test, phrase = SCENARIO_KEYS[key][2]
    if not all(map(test, value if isinstance(value, tuple) else (value,))):
        raise ConfigError(f"{key}: must be {phrase}")


def _validate(values: dict) -> None:
    for key, value in values.items():
        _check(key, value)
    if (len(values["figure2.efficiencies"])
            != len(values["figure2.detunings_linewidths"])):
        raise ConfigError("figure2.efficiencies: must have one efficiency "
                          "per detuning")


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; unknown keys, bad values, and duplicate keys
    are hard errors."""
    values = {key: default for key, (_, default, _) in SCENARIO_KEYS.items()}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {raw.strip()!r}")
        key, _, value_text = line.partition("=")
        key = key.strip()
        if key not in SCENARIO_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            values[key] = SCENARIO_KEYS[key][0](value_text.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
    _validate(values)
    return Scenario(values)


def load_scenario(path: str | None = None,
                  seed_override: int | None = None) -> Scenario:
    """Load a scenario file (or the built-in defaults for ``None``) and
    apply an optional seed override."""
    if path is None:
        scenario = parse_scenario("")
    else:
        scenario = parse_scenario(read_text(path))
    if seed_override is not None:
        scenario = scenario.with_seed(seed_override)
    return scenario

