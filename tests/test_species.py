import math

import pytest

from mtload import chromium52
from mtload.species import SpeciesData


def test_bundled_rates(cr):
    assert cr.gamma_eg == 3.15e7
    assert cr.gamma_ed == 127.0


def test_mass_and_metastable_bound(cr):
    assert abs(cr.mass - 8.6249239734e-26) / 8.6249239734e-26 < 1e-9


def test_all_constants_positive_finite(cr):
    for name in ("mass", "gamma_eg", "gamma_ed", "saturation_intensity",
                 "lande_g_d"):
        value = getattr(cr, name)
        assert value > 0 and math.isfinite(value)


def test_g_d_is_configuration_not_hardcoded():
    assert chromium52().lande_g_d == 1.5
    assert chromium52(lande_g_d=1.2).lande_g_d == 1.2


def test_invalid_species_rejected():
    with pytest.raises(ValueError):
        SpeciesData(mass=-1.0, gamma_eg=1.0, gamma_ed=1.0,
                    saturation_intensity=1.0, lande_g_d=1.5)
    with pytest.raises(ValueError):
        SpeciesData(mass=1.0, gamma_eg=0.0, gamma_ed=1.0,
                    saturation_intensity=1.0, lande_g_d=1.5)

