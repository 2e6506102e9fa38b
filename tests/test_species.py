from mtload import chromium52


def test_bundled_rates(cr):
    assert cr.gamma_eg == 3.15e7
    assert cr.gamma_ed == 127.0


def test_mass_and_metastable_bound(cr):
    assert abs(cr.mass - 8.6249239734e-26) / 8.6249239734e-26 < 1e-9


def test_g_d_is_configuration_not_hardcoded():
    assert chromium52().lande_g_d == 1.5
    assert chromium52(lande_g_d=1.2).lande_g_d == 1.2

