import math

import pytest

from mtload import chromium52
from mtload.species import SpeciesData


def test_bundled_rates(cr):
    assert cr.gamma_eg == 3.15e7
    assert cr.gamma_ed == 127.0
    assert cr.gamma_pd3 == 42.0


def test_branching_ratio_band(cr):
    # stated value 250 000, bundled dataset must sit within 2%
    assert 200_000 <= cr.branching_ratio <= 300_000
    assert abs(cr.branching_ratio / 250_000 - 1.0) < 0.02


def test_mass_and_metastable_bound(cr):
    assert abs(cr.mass - 8.6249239734e-26) / 8.6249239734e-26 < 1e-9
    assert cr.metastable_lifetime_lower_bound >= 50.0


def test_all_constants_positive_finite(cr):
    for name in ("mass", "gamma_eg", "gamma_ed", "gamma_pd3",
                 "wavelength_ps", "saturation_intensity", "lande_g_d",
                 "metastable_lifetime_lower_bound"):
        value = getattr(cr, name)
        assert value > 0 and math.isfinite(value)


def test_g_d_is_configuration_not_hardcoded():
    assert chromium52().lande_g_d == 1.5
    assert chromium52(lande_g_d=1.2).lande_g_d == 1.2


def test_invalid_species_rejected():
    with pytest.raises(ValueError):
        SpeciesData(mass=-1.0, gamma_eg=1.0, gamma_ed=1.0, gamma_pd3=1.0,
                    wavelength_ps=1.0, saturation_intensity=1.0,
                    lande_g_d=1.5, metastable_lifetime_lower_bound=1.0)
    with pytest.raises(ValueError):
        SpeciesData(mass=1.0, gamma_eg=0.0, gamma_ed=1.0, gamma_pd3=1.0,
                    wavelength_ps=1.0, saturation_intensity=1.0,
                    lande_g_d=1.5, metastable_lifetime_lower_bound=1.0)

