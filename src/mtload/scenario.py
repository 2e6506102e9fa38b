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
import sys
from dataclasses import dataclass

from .cloud import MotCloud, QuadrupoleField, predict_mt_temperature
from .constants import MU_B
from .errors import ConfigError
from .excitation import LightField
from .species import SpeciesData, chromium52
from .tables import format_number, read_text

_FLOAT = "float"
_INT = "int"
_STR = "str"
_FLOAT_LIST = "float_list"
_FLOAT_OR_VIRIAL = "float_or_virial"

# domains: (test, the phrase after "must be" in the error message); a list
# key's test must hold for each element
def _at_least(low):
    return (lambda v: v >= low, f">= {low}")


_FINITE = (math.isfinite, "finite")
_POSITIVE = (lambda v: v > 0, "positive")
_NONNEGATIVE = _at_least(0)
_FRACTION = (lambda v: 0 <= v <= 1, "in [0, 1]")

# key -> (kind, default, domain)
SCENARIO_KEYS: dict[str, tuple[str, object, tuple]] = {
    "seed": (_INT, 42, _NONNEGATIVE),
    "species.name": (_STR, "cr52", (lambda v: v == "cr52",
                                    "'cr52', the only bundled dataset")),
    "species.lande_g_d": (_FLOAT, 1.5, _POSITIVE),
    # default gradient chosen so the default scenario lands at the headline
    # operating point (steady state near 1e8 atoms, tau near 1 s)
    "trap.gradient_G_per_cm": (_FLOAT, 15.0, _POSITIVE),
    "mot.sigma_um": (_FLOAT, 200.0, _NONNEGATIVE),
    "mot.temperature_uK": (_FLOAT, 300.0, _POSITIVE),
    "mot.atom_number": (_FLOAT, 1.0e7, _POSITIVE),
    "mt.temperature_uK": (_FLOAT_OR_VIRIAL, "virial",
                          (lambda v: v == "virial" or v > 0,
                           "positive or 'virial'")),
    "transfer.efficiency": (_FLOAT, 0.32, _FRACTION),
    "transfer.mean_zeeman_m": (_INT, 4, (lambda m: 1 <= m <= 4, "in [1, 4]")),
    "light.intensity_per_beam_sat": (_FLOAT, 15.0, _NONNEGATIVE),
    "light.beam_count": (_INT, 6, _at_least(1)),
    "light.detuning_linewidths": (_FLOAT, -2.0, _FINITE),
    "rates.background_lifetime_s": (_FLOAT, 60.0, _POSITIVE),
    "rates.mot_on_background_rate_per_s": (_FLOAT, 0.2, _NONNEGATIVE),
    "rates.two_body_m3_per_s": (_FLOAT, 7.0e-17, _NONNEGATIVE),
    "rates.volume_growth_per_s": (_FLOAT, 0.1, _NONNEGATIVE),
    "rates.sigma_ed_m2": (_FLOAT, 1.0e-15, _NONNEGATIVE),
    "rates.overlap_factor": (_FLOAT, 1.0, (lambda v: 0 < v <= 1,
                                           "in (0, 1]")),
    "sim.t_end_s": (_FLOAT, 5.0, _POSITIVE),
    "sim.samples": (_INT, 51, _at_least(2)),
    # a normal float, so that 1/n stays finite in the decay solution
    "decay.initial_density_m3": (_FLOAT, 1.0e16,
                                 _at_least(sys.float_info.min)),
    "decay.t_end_s": (_FLOAT, 10.0, _POSITIVE),
    "decay.samples": (_INT, 101, _at_least(2)),
    "mc.particles": (_INT, 100_000, _at_least(2)),
    "noise.sigma_rel": (_FLOAT, 0.0, _NONNEGATIVE),
    "figure2.detunings_linewidths": (_FLOAT_LIST, (-2.0, -5.0, -8.0),
                                     _FINITE),
    "figure2.efficiencies": (_FLOAT_LIST, (0.32, 0.25, 0.16), _FRACTION),
    "figure2.atom_numbers": (_FLOAT_LIST, (2e6, 5e6, 1e7, 2e7, 3.5e7,
                                           5e7, 7.5e7, 1e8), _POSITIVE),
    "figure3.atom_numbers": (_FLOAT_LIST, (1e6, 2e6, 3.5e6, 5e6, 7.5e6, 1e7,
                                           2e7, 3e7, 4e7, 5.5e7, 7.5e7, 1e8),
                             _POSITIVE),
    "figure4.lightshift": (_FLOAT_LIST, (3.0, 6.0, 9.0, 12.0, 15.0, 18.0,
                                         21.0, 24.0, 27.0, 30.0),
                           _NONNEGATIVE),
    "figure4.tmot_offset_uK": (_FLOAT, 60.0, _POSITIVE),
    "figure4.tmot_slope_uK": (_FLOAT, 15.0, _NONNEGATIVE),
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
        if parts == [""]:
            fail("expected a nonempty comma-separated number list")
        return tuple(number(p, "numbers") for p in parts)
    raise AssertionError(f"unhandled kind {kind}")


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

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()

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
        kind = SCENARIO_KEYS[key][0]
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
        scenario = parse_scenario(read_text(path))
    if seed_override is not None:
        scenario = scenario.with_seed(seed_override)
    return scenario

