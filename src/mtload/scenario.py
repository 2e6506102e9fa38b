"""Scenario files: the line-oriented ``key = value`` configuration that
drives every command.

Keys use dotted section paths (``trap.gradient_G_per_cm = 20``), values
are numbers, comma-separated number lists, or short strings, '#' starts a
comment, and unknown keys are hard errors. Experiment-friendly units live
in the key names; everything is converted to SI on access. The canonical
form (sorted keys, normalized values) is hashed into every output file so
a result can always be traced back to its exact configuration.
"""

import hashlib
import math
from dataclasses import dataclass

from .cloud import MotCloud, QuadrupoleField, predict_mt_temperature
from .constants import MU_B
from .errors import ConfigError
from .excitation import LightField
from .species import SpeciesData, chromium52, unit_convert

_FLOAT = "float"
_INT = "int"
_STR = "str"
_FLOAT_LIST = "float_list"
_FLOAT_OR_VIRIAL = "float_or_virial"

# key -> (kind, default)
SCENARIO_KEYS: dict[str, tuple[str, object]] = {
    "seed": (_INT, 42),
    "species.name": (_STR, "cr52"),
    "species.lande_g_d": (_FLOAT, 1.5),
    # default gradient chosen so the default scenario lands at the headline
    # operating point (steady state near 1e8 atoms, tau near 1 s)
    "trap.gradient_G_per_cm": (_FLOAT, 15.0),
    "mot.sigma_um": (_FLOAT, 200.0),
    "mot.temperature_uK": (_FLOAT, 300.0),
    "mot.atom_number": (_FLOAT, 1.0e7),
    "mt.temperature_uK": (_FLOAT_OR_VIRIAL, "virial"),
    "transfer.efficiency": (_FLOAT, 0.32),
    "transfer.mean_zeeman_m": (_INT, 4),
    "light.intensity_per_beam_sat": (_FLOAT, 15.0),
    "light.beam_count": (_INT, 6),
    "light.detuning_linewidths": (_FLOAT, -2.0),
    "rates.background_lifetime_s": (_FLOAT, 60.0),
    "rates.mot_on_background_rate_per_s": (_FLOAT, 0.2),
    "rates.two_body_m3_per_s": (_FLOAT, 7.0e-17),
    "rates.volume_growth_per_s": (_FLOAT, 0.1),
    "rates.sigma_ed_m2": (_FLOAT, 1.0e-15),
    "rates.overlap_factor": (_FLOAT, 1.0),
    "sim.t_end_s": (_FLOAT, 5.0),
    "sim.samples": (_INT, 51),
    "decay.initial_density_m3": (_FLOAT, 1.0e16),
    "decay.t_end_s": (_FLOAT, 10.0),
    "decay.samples": (_INT, 101),
    "mc.particles": (_INT, 100_000),
    "noise.sigma_rel": (_FLOAT, 0.0),
    "figure2.detunings_linewidths": (_FLOAT_LIST, (-2.0, -5.0, -8.0)),
    "figure2.efficiencies": (_FLOAT_LIST, (0.32, 0.25, 0.16)),
    "figure2.atom_numbers": (_FLOAT_LIST, (2e6, 5e6, 1e7, 2e7, 3.5e7,
                                           5e7, 7.5e7, 1e8)),
    "figure3.atom_numbers": (_FLOAT_LIST, (1e6, 2e6, 3.5e6, 5e6, 7.5e6, 1e7,
                                           2e7, 3e7, 4e7, 5.5e7, 7.5e7, 1e8)),
    "figure4.lightshift": (_FLOAT_LIST, (3.0, 6.0, 9.0, 12.0, 15.0, 18.0,
                                         21.0, 24.0, 27.0, 30.0)),
    "figure4.tmot_offset_uK": (_FLOAT, 60.0),
    "figure4.tmot_slope_uK": (_FLOAT, 15.0),
}


def _parse_value(key: str, kind: str, text: str, lineno: int):
    def fail(message):
        raise ConfigError(f"line {lineno}: {key}: {message}")

    def number(part: str, expected: str) -> float:
        try:
            value = float(part)
        except ValueError:
            fail(f"expected {expected}, got {text!r}")
        if not math.isfinite(value):
            fail(f"must be finite, got {text!r}")
        return value

    text = text.strip()
    if kind == _STR:
        return text
    if kind == _INT:
        try:
            return int(text)
        except ValueError:
            fail(f"expected an integer, got {text!r}")
    if kind == _FLOAT:
        return number(text, "a number")
    if kind == _FLOAT_OR_VIRIAL:
        if text == "virial":
            return "virial"
        return number(text, "a number or 'virial'")
    if kind == _FLOAT_LIST:
        parts = [p.strip() for p in text.split(",")]
        if not parts or parts == [""]:
            fail("expected a nonempty comma-separated number list")
        return tuple(number(p, "numbers") for p in parts)
    raise AssertionError(f"unhandled kind {kind}")


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    if isinstance(value, bool):
        raise AssertionError("no boolean scenario keys")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


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

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()

    def with_seed(self, seed: int) -> "Scenario":
        if seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        values = dict(self.values)
        values["seed"] = int(seed)
        return Scenario(values)

    # --- typed SI accessors -------------------------------------------------

    def species(self) -> SpeciesData:
        return chromium52(lande_g_d=self.values["species.lande_g_d"])

    def field(self) -> QuadrupoleField:
        b = unit_convert(self.values["trap.gradient_G_per_cm"], "G/cm", "T/m")
        return QuadrupoleField(gradient=b)

    def mot_cloud(self) -> MotCloud:
        return MotCloud(
            size_sigma=unit_convert(self.values["mot.sigma_um"], "um", "m"),
            temperature=unit_convert(self.values["mot.temperature_uK"],
                                     "uK", "K"),
            atom_number=self.values["mot.atom_number"],
        )

    def light_field(self, detuning_linewidths: float | None = None,
                    species: SpeciesData | None = None) -> LightField:
        species = species if species is not None else self.species()
        detuning_lw = (detuning_linewidths if detuning_linewidths is not None
                       else self.values["light.detuning_linewidths"])
        return LightField(
            single_beam_intensity=(self.values["light.intensity_per_beam_sat"]
                                   * species.saturation_intensity),
            beam_count=self.values["light.beam_count"],
            detuning=detuning_lw * species.gamma_eg,
        )

    def mu_bar(self, species: SpeciesData | None = None) -> float:
        species = species if species is not None else self.species()
        return (species.lande_g_d * self.values["transfer.mean_zeeman_m"]
                * MU_B)

    def mt_temperature(self, species: SpeciesData | None = None) -> float:
        """Magnetic-trap temperature: explicit value or, for 'virial', the
        transfer-temperature prediction from the reservoir parameters."""
        configured = self.values["mt.temperature_uK"]
        if configured != "virial":
            return unit_convert(configured, "uK", "K")
        species = species if species is not None else self.species()
        return predict_mt_temperature(self.mot_cloud(), self.field(),
                                      self.mu_bar(species))


def _validate(values: dict) -> None:
    def require(cond: bool, key: str, message: str):
        if not cond:
            raise ConfigError(f"{key}: {message}")

    require(values["species.name"] == "cr52", "species.name",
            "only the bundled 'cr52' dataset is available")
    require(values["species.lande_g_d"] > 0, "species.lande_g_d",
            "must be positive")
    require(values["trap.gradient_G_per_cm"] > 0, "trap.gradient_G_per_cm",
            "must be positive")
    require(values["mot.sigma_um"] >= 0, "mot.sigma_um", "must be >= 0")
    require(values["mot.temperature_uK"] > 0, "mot.temperature_uK",
            "must be positive")
    require(values["mot.atom_number"] > 0, "mot.atom_number",
            "must be positive")
    mt_t = values["mt.temperature_uK"]
    require(mt_t == "virial" or mt_t > 0, "mt.temperature_uK",
            "must be positive or 'virial'")
    require(0.0 <= values["transfer.efficiency"] <= 1.0, "transfer.efficiency",
            "must lie in [0, 1]")
    require(values["transfer.mean_zeeman_m"] in range(1, 5),
            "transfer.mean_zeeman_m", "must be an integer in [1, 4]")
    require(values["light.intensity_per_beam_sat"] >= 0,
            "light.intensity_per_beam_sat", "must be >= 0")
    require(values["light.beam_count"] >= 1, "light.beam_count",
            "must be >= 1")
    require(values["rates.background_lifetime_s"] > 0,
            "rates.background_lifetime_s", "must be positive")
    require(values["rates.mot_on_background_rate_per_s"] >= 0,
            "rates.mot_on_background_rate_per_s", "must be >= 0")
    require(values["rates.two_body_m3_per_s"] >= 0, "rates.two_body_m3_per_s",
            "must be >= 0")
    require(values["rates.volume_growth_per_s"] >= 0,
            "rates.volume_growth_per_s", "must be >= 0")
    require(values["rates.sigma_ed_m2"] >= 0, "rates.sigma_ed_m2",
            "must be >= 0")
    require(0.0 < values["rates.overlap_factor"] <= 1.0,
            "rates.overlap_factor", "must lie in (0, 1]")
    require(values["sim.t_end_s"] > 0, "sim.t_end_s", "must be positive")
    require(values["sim.samples"] >= 2, "sim.samples", "must be >= 2")
    require(values["decay.initial_density_m3"] > 0,
            "decay.initial_density_m3", "must be positive")
    require(values["decay.t_end_s"] > 0, "decay.t_end_s", "must be positive")
    require(values["decay.samples"] >= 2, "decay.samples", "must be >= 2")
    require(values["mc.particles"] >= 1, "mc.particles", "must be >= 1")
    require(values["noise.sigma_rel"] >= 0, "noise.sigma_rel",
            "must be >= 0")
    require(values["seed"] >= 0, "seed", "must be a nonnegative integer")
    require(len(values["figure2.efficiencies"])
            == len(values["figure2.detunings_linewidths"]),
            "figure2.efficiencies",
            "must have one efficiency per detuning")
    require(all(0.0 <= e <= 1.0 for e in values["figure2.efficiencies"]),
            "figure2.efficiencies", "efficiencies must lie in [0, 1]")
    require(all(n > 0 for n in values["figure2.atom_numbers"]),
            "figure2.atom_numbers", "atom numbers must be positive")
    require(all(n > 0 for n in values["figure3.atom_numbers"]),
            "figure3.atom_numbers", "atom numbers must be positive")
    require(values["figure4.tmot_offset_uK"] > 0, "figure4.tmot_offset_uK",
            "must be positive")
    require(values["figure4.tmot_slope_uK"] >= 0, "figure4.tmot_slope_uK",
            "must be >= 0")
    require(all(v >= 0 for v in values["figure4.lightshift"]),
            "figure4.lightshift", "light-shift values must be >= 0")


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; unknown keys, bad values, and duplicate keys
    are hard errors."""
    values = {key: default for key, (_, default) in SCENARIO_KEYS.items()}
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
        kind, _ = SCENARIO_KEYS[key]
        values[key] = _parse_value(key, kind, value_text, lineno)
    _validate(values)
    return Scenario(values)


def load_scenario(path: str | None = None,
                  seed_override: int | None = None) -> Scenario:
    """Load a scenario file (or the built-in defaults for ``None``) and
    apply an optional seed override."""
    if path is None:
        scenario = parse_scenario("")
    else:
        # unreadable files propagate as OSError (I/O failure, not config)
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        scenario = parse_scenario(text)
    if seed_override is not None:
        scenario = scenario.with_seed(seed_override)
    return scenario


def default_scenario() -> Scenario:
    return parse_scenario("")
