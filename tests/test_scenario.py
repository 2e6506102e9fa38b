import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtload import ConfigError
from mtload.scenario import SCENARIO_KEYS, load_scenario, parse_scenario

SAMPLE = """
# comment line
trap.gradient_G_per_cm = 20     # inline comment
mot.temperature_uK = 250
mot.atom_number = 2.5e7
light.detuning_linewidths = -5
figure2.detunings_linewidths = -2, -5
figure2.efficiencies = 0.3, 0.2
seed = 99
"""


def test_defaults_parse_and_validate():
    sc = parse_scenario("")
    assert load_scenario() == sc
    assert sc.seed == 42
    assert sc["trap.gradient_G_per_cm"] == 15.0
    assert sc["mt.temperature_uK"] == "virial"


def test_parse_sample():
    sc = parse_scenario(SAMPLE)
    assert sc["trap.gradient_G_per_cm"] == 20.0
    assert sc["mot.atom_number"] == 2.5e7
    assert sc.seed == 99
    assert sc["figure2.efficiencies"] == (0.3, 0.2)


def test_si_accessors():
    sc = parse_scenario(SAMPLE)
    assert sc.field().gradient == pytest.approx(0.20, rel=1e-12)
    assert sc.mot_cloud().temperature == pytest.approx(250e-6, rel=1e-12)
    assert sc.mot_cloud().size_sigma == pytest.approx(200e-6, rel=1e-12)
    light = sc.light_field()
    sp = sc.species()
    assert light.detuning == pytest.approx(-5 * sp.gamma_eg, rel=1e-12)
    assert light.total_intensity == pytest.approx(
        6 * 15 * sp.saturation_intensity, rel=1e-12)


def test_mt_temperature_virial_vs_explicit():
    sc = parse_scenario("")
    t_virial = sc.mt_temperature()
    assert t_virial > sc.mot_cloud().temperature / 3.0
    sc2 = parse_scenario("mt.temperature_uK = 120")
    assert sc2.mt_temperature() == pytest.approx(120e-6, rel=1e-12)


def test_g_factor_scales_moment_dependent_outputs():
    # the dark-state g-factor is configuration, not baked into formulas:
    # doubling it doubles the mean moment and the size term of the
    # transfer temperature
    base = parse_scenario("species.lande_g_d = 1.5")
    doubled = parse_scenario("species.lande_g_d = 3.0")
    assert doubled.mu_bar() == pytest.approx(2 * base.mu_bar(), rel=1e-12)
    third = base.mot_cloud().temperature / 3.0
    dt_base = base.mt_temperature() - third
    dt_doubled = doubled.mt_temperature() - third
    assert dt_doubled == pytest.approx(2 * dt_base, rel=1e-12)


def test_unknown_key_is_hard_error():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_scenario("trap.gradient = 20")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_scenario("seed = 1\nseed = 2")


def test_bad_value_reports_line_and_key():
    with pytest.raises(ConfigError, match="line 1: mot.atom_number"):
        parse_scenario("mot.atom_number = many")


def test_validation_reports_field_path():
    with pytest.raises(ConfigError, match="transfer.efficiency"):
        parse_scenario("transfer.efficiency = 1.5")
    with pytest.raises(ConfigError, match="figure2.efficiencies"):
        parse_scenario("figure2.detunings_linewidths = -2, -5, -8\n"
                       "figure2.efficiencies = 0.3")
    with pytest.raises(ConfigError, match="mot.temperature_uK"):
        parse_scenario("mot.temperature_uK = -3")


# Every domain edge, written out by hand as an oracle independent of the
# key table: (key, the edge value inside the domain, the first value
# outside it). A two-sided domain has one case per edge.
BOUNDARIES = [
    ("seed", "0", "-1"),
    ("species.name", "cr52", "cr53"),
    ("species.lande_g_d", "1e-300", "0"),
    ("trap.gradient_G_per_cm", "1e-300", "0"),
    ("mot.sigma_um", "0", "-1e-300"),
    ("mot.temperature_uK", "1e-300", "0"),
    ("mot.atom_number", "1e-300", "0"),
    ("mt.temperature_uK", "1e-300", "0"),
    ("transfer.efficiency", "0", "-1e-300"),
    ("transfer.efficiency", "1", "1.0000000000000002"),
    ("transfer.mean_zeeman_m", "1", "0"),
    ("transfer.mean_zeeman_m", "4", "5"),
    ("light.intensity_per_beam_sat", "0", "-1e-300"),
    ("light.beam_count", "1", "0"),
    ("rates.background_lifetime_s", "1e-300", "0"),
    ("rates.mot_on_background_rate_per_s", "0", "-1e-300"),
    ("rates.two_body_m3_per_s", "0", "-1e-300"),
    ("rates.volume_growth_per_s", "0", "-1e-300"),
    ("rates.sigma_ed_m2", "0", "-1e-300"),
    ("rates.overlap_factor", "1e-300", "0"),
    ("rates.overlap_factor", "1", "1.0000000000000002"),
    ("sim.t_end_s", "1e-300", "0"),
    ("sim.samples", "2", "1"),
    ("decay.initial_density_m3", "1e-300", "0"),
    ("decay.t_end_s", "1e-300", "0"),
    ("decay.samples", "2", "1"),
    ("mc.particles", "1", "0"),
    ("noise.sigma_rel", "0", "-1e-300"),
    ("figure2.efficiencies", "0, 0.5, 0.5", "0.5, -1e-300, 0.5"),
    ("figure2.efficiencies", "0.5, 0.5, 1",
     "0.5, 0.5, 1.0000000000000002"),
    ("figure2.atom_numbers", "1e-300", "1e7, 0"),
    ("figure3.atom_numbers", "1e-300", "0, 1e7"),
    ("figure4.lightshift", "0", "3, -1e-300"),
    ("figure4.tmot_offset_uK", "1e-300", "0"),
    ("figure4.tmot_slope_uK", "0", "-1e-300"),
]


@pytest.mark.parametrize("key,inside,outside", BOUNDARIES)
def test_domain_edges(key, inside, outside):
    parse_scenario(f"{key} = {inside}")
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
        parse_scenario(f"{key} = {outside}")


def test_keys_without_a_domain_take_any_finite_value():
    parse_scenario("light.detuning_linewidths = -1.7976931348623157e+308\n"
                   "figure2.detunings_linewidths = -1.7976931348623157e+308,"
                   " 0, 1.7976931348623157e+308")


def test_every_key_has_a_boundary_case():
    covered = {key for key, _, _ in BOUNDARIES}
    assert covered | {"light.detuning_linewidths",
                      "figure2.detunings_linewidths"} == set(SCENARIO_KEYS)


@pytest.mark.parametrize("key", [
    "figure2.detunings_linewidths", "figure2.efficiencies",
    "figure2.atom_numbers", "figure3.atom_numbers", "figure4.lightshift"])
def test_empty_sweep_rejected_by_the_parser(key):
    with pytest.raises(ConfigError, match=f"line 1: {key}: expected a "
                                          "nonempty"):
        parse_scenario(f"{key} =")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_scenario("just some words")


def test_canonical_text_sorted_and_stable():
    a = parse_scenario("seed = 7\nmot.sigma_um = 150")
    b = parse_scenario("mot.sigma_um = 150\nseed = 7")
    assert a.canonical_text() == b.canonical_text()
    assert a.sha256() == b.sha256()
    lines = a.canonical_text().splitlines()
    assert lines == sorted(lines)


def test_hash_sensitive_to_values():
    a = parse_scenario("mot.sigma_um = 150")
    b = parse_scenario("mot.sigma_um = 151")
    assert a.sha256() != b.sha256()


def test_seed_override_changes_canonical_form():
    sc = parse_scenario("seed = 1")
    sc2 = sc.with_seed(2)
    assert sc2.seed == 2
    assert sc.seed == 1
    assert "seed = 2" in sc2.canonical_text()


def test_seed_override_checked_against_the_seed_domain():
    sc = parse_scenario("")
    assert sc.with_seed(0).seed == 0
    with pytest.raises(ConfigError, match=r"^seed: must be >= 0$"):
        sc.with_seed(-1)


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text(SAMPLE, encoding="utf-8")
    sc = load_scenario(str(path), seed_override=123)
    assert sc.seed == 123
    assert sc["mot.atom_number"] == 2.5e7


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_scenario(str(tmp_path / "nope.cfg"))


def test_canonical_round_trip():
    sc = parse_scenario(SAMPLE)
    again = parse_scenario(sc.canonical_text())
    assert again.values == sc.values


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
FRACTION = st.floats(0.0, 1.0)


def number_list(values):
    return st.lists(values, min_size=1, max_size=5).map(tuple)


# every float-valued key with the values its validation accepts
FLOAT_OVERRIDES = {
    "species.lande_g_d": POSITIVE,
    "trap.gradient_G_per_cm": POSITIVE,
    "mot.sigma_um": NONNEGATIVE,
    "mot.temperature_uK": POSITIVE,
    "mot.atom_number": POSITIVE,
    "mt.temperature_uK": POSITIVE | st.just("virial"),
    "transfer.efficiency": FRACTION,
    "light.intensity_per_beam_sat": NONNEGATIVE,
    "light.detuning_linewidths": FINITE,
    "rates.background_lifetime_s": POSITIVE,
    "rates.mot_on_background_rate_per_s": NONNEGATIVE,
    "rates.two_body_m3_per_s": NONNEGATIVE,
    "rates.volume_growth_per_s": NONNEGATIVE,
    "rates.sigma_ed_m2": NONNEGATIVE,
    "rates.overlap_factor": st.floats(0.0, 1.0, exclude_min=True),
    "sim.t_end_s": POSITIVE,
    "decay.initial_density_m3": POSITIVE,
    "decay.t_end_s": POSITIVE,
    "noise.sigma_rel": NONNEGATIVE,
    "figure2.atom_numbers": number_list(POSITIVE),
    "figure3.atom_numbers": number_list(POSITIVE),
    "figure4.lightshift": number_list(NONNEGATIVE),
    "figure4.tmot_offset_uK": POSITIVE,
    "figure4.tmot_slope_uK": NONNEGATIVE,
}


def override_text(value):
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    return value if isinstance(value, str) else repr(value)


@settings(max_examples=80, deadline=None)
@given(overrides=st.fixed_dictionaries({}, optional=FLOAT_OVERRIDES))
def test_canonical_text_round_trip_property(overrides):
    sc = parse_scenario("".join(f"{key} = {override_text(value)}\n"
                                for key, value in overrides.items()))
    for key, value in overrides.items():
        assert sc[key] == value, key
    assert parse_scenario(sc.canonical_text()) == sc
