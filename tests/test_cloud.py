import math

import numpy as np
import pytest
from scipy import integrate

from mtload import (MotCloud, QuadrupoleField, UntrappedCloudError,
                    effective_volume, phase_space_density,
                    predict_mt_temperature, shape_params)
from mtload.cloud import VIRIAL_TRANSFER_PREFACTOR
from mtload.constants import G_ACCEL, K_B, MU_B


def radial_quadrature_volume(shape_b, shape_g):
    # independent numerical oracle: the radial integral
    # V = 2 pi int_0^inf r^2 e^{-B r} sinh(G r)/(G r) dr by adaptive
    # quadrature in u = B r, overflow-safe as G -> B
    ratio = shape_g / shape_b

    def integrand(u):
        return (-u * math.exp(-(1.0 - ratio) * u)
                * math.expm1(-2.0 * ratio * u) / (2.0 * ratio))

    val, _ = integrate.quad(integrand, 0.0, math.inf, epsabs=0.0,
                            epsrel=1e-11, limit=200)
    return 2.0 * math.pi * val / shape_b ** 3


# ---------------------------------------------------------------- shape


def test_shape_params_reference_values(cr, field):
    b_shape, g_shape = shape_params(100e-6, 6 * MU_B, field, cr)
    assert b_shape == pytest.approx(2015.1414468775192, rel=1e-12)
    assert g_shape == pytest.approx(612.6221123807774, rel=1e-12)
    assert 1.0 / b_shape == pytest.approx(496.24e-6, rel=1e-3)


def test_shape_params_temperature_scaling(cr, field):
    b1, g1 = shape_params(100e-6, 6 * MU_B, field, cr)
    b2, g2 = shape_params(200e-6, 6 * MU_B, field, cr)
    assert b2 == pytest.approx(b1 / 2, rel=1e-14)
    assert g2 == pytest.approx(g1 / 2, rel=1e-14)


def test_mu_bar_recovery_identity(cr, rng):
    # 2 m g B / (b G) returns mu_bar exactly for any parameters
    for _ in range(25):
        t = float(rng.uniform(20e-6, 500e-6))
        mu = float(rng.uniform(1.5, 6.0)) * MU_B
        grad = float(rng.uniform(0.05, 0.3))
        fld = QuadrupoleField(grad)
        b_shape, g_shape = shape_params(t, mu, fld, cr)
        recovered = 2 * cr.mass * G_ACCEL * b_shape / (grad * g_shape)
        assert recovered == pytest.approx(mu, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------- density


def relative_density(point, shape_b, shape_g):
    # the trapped-cloud profile n/n0, written out independently of mtload
    x, y, z = (np.asarray(c, dtype=float) for c in point)
    return np.exp(-shape_b * np.sqrt(x ** 2 + y ** 2 + 4.0 * z ** 2)
                  - shape_g * y)


def test_density_origin_is_peak(cr, field):
    # the sag shifts no density above the centre's: G < B at these shapes
    b_shape, g_shape = shape_params(100e-6, 6 * MU_B, field, cr)
    axis = np.linspace(-3e-3, 3e-3, 41)
    x, y, z = np.meshgrid(axis, axis, axis, indexing="ij")
    values = relative_density((x, y, z), b_shape, g_shape)
    assert values.max() == relative_density((0.0, 0.0, 0.0), b_shape,
                                            g_shape) == 1.0


def test_density_one_over_e_radius(cr, field):
    t, mu = 100e-6, 6 * MU_B
    b_shape, g_shape = shape_params(t, mu, field, cr)
    x = 2.0 * K_B * t / (mu * field.gradient)
    assert 1.0 / b_shape == pytest.approx(x, rel=1e-14, abs=0.0)
    # radial direction is unaffected by the sag term
    assert relative_density((x, 0.0, 0.0), b_shape, g_shape) == \
        pytest.approx(math.exp(-1.0), rel=1e-12, abs=0.0)


def test_density_symmetry_and_sag(cr, field):
    b_shape, g_shape = shape_params(100e-6, 6 * MU_B, field, cr)
    z = 3e-4
    assert relative_density((0, 0, z), b_shape, g_shape) == \
        relative_density((0, 0, -z), b_shape, g_shape)
    y = 3e-4
    below = relative_density((0, -y, 0), b_shape, g_shape)
    above = relative_density((0, y, 0), b_shape, g_shape)
    assert below > above  # gravity sag: denser underneath


def test_density_integrates_to_atom_number(cr, field):
    # tensor Gauss rule over the raw 3-D profile with n0 = N / V, in
    # spherical coordinates about the y (gravity) axis after z' = 2z:
    # Gauss-Laguerre in B r, Gauss-Legendre in cos(theta), the trapezoid
    # rule in phi
    atom_number = 1e7
    b_shape, g_shape = shape_params(100e-6, 6 * MU_B, field, cr)
    peak_density = atom_number / effective_volume(b_shape, g_shape)
    u, w_u = np.polynomial.laguerre.laggauss(48)
    r = u / b_shape
    w_r = w_u * np.exp(u) * r ** 2 / b_shape
    cos_t, w_cos = np.polynomial.legendre.leggauss(24)
    phi = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    rr, ct, ph = np.meshgrid(r, cos_t, phi, indexing="ij")
    st = np.sqrt(1.0 - ct ** 2)
    x, y, z = rr * st * np.cos(ph), rr * ct, rr * st * np.sin(ph) / 2.0
    weights = (w_r[:, None, None] * w_cos[None, :, None]
               * (2.0 * math.pi / phi.size))
    # dz = dz'/2
    total = 0.5 * peak_density * np.sum(
        weights * relative_density((x, y, z), b_shape, g_shape))
    assert total == pytest.approx(atom_number, rel=1e-9)


# ------------------------------------------------------------- volume


@pytest.mark.parametrize("b_shape", [50.0, 500.0, 2000.0, 8000.0, 50000.0])
def test_volume_matches_analytic_at_zero_sag(b_shape):
    # spans three decades of cloud size
    expected = 4.0 * math.pi / b_shape ** 3
    assert effective_volume(b_shape, 0.0) == pytest.approx(expected, rel=1e-4,
                                                           abs=0.0)


@pytest.mark.parametrize("b_shape,g_shape", [
    (2000.0, 612.0), (1000.0, 800.0), (5000.0, 100.0), (800.0, 790.0),
    (1000.0, 999.0),
])
def test_volume_matches_closed_form_with_sag(b_shape, g_shape):
    assert effective_volume(b_shape, g_shape) == pytest.approx(
        radial_quadrature_volume(b_shape, g_shape), rel=1e-9, abs=0.0)


def test_volume_monotone_in_sag():
    values = [effective_volume(1000.0, g) for g in (0.0, 300.0, 600.0, 900.0,
                                                    990.0)]
    assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))


def test_volume_grows_without_bound_toward_untrapped_limit():
    base = effective_volume(1000.0, 0.0)
    assert effective_volume(1000.0, 999.0) > 1e5 * base


def test_volume_dilation_scaling():
    # B -> k B at fixed G/B ratio scales V by k^-3
    v1 = effective_volume(1000.0, 400.0)
    v2 = effective_volume(3000.0, 1200.0)
    assert v2 == pytest.approx(v1 / 27.0, rel=1e-8, abs=0.0)


def test_volume_untrapped_guard():
    with pytest.raises(UntrappedCloudError):
        effective_volume(1000.0, 1000.0)
    with pytest.raises(UntrappedCloudError):
        effective_volume(1000.0, 1500.0)


@pytest.mark.parametrize("b_shape,g_shape", [(1e-100, 0.0), (1e-300, 5e-301)])
def test_volume_with_underflowing_denominator_is_refused(b_shape, g_shape):
    # ((B - G)(B + G))^2 rounds to 0 for a tiny B: no finite volume
    with pytest.raises(ValueError, match=f"underflows.*shape_b={b_shape!r}"):
        effective_volume(b_shape, g_shape)


# --------------------------------------------------- phase-space density


def test_phase_space_density_reference(cr):
    psd = phase_space_density(1e16, 50e-6, cr)
    assert psd == pytest.approx(4.0205497637166924e-07, rel=1e-9, abs=0.0)
    assert 3.5e-7 <= psd <= 4.5e-7  # clears the 1e-7 scale comfortably


def test_phase_space_density_scalings(cr):
    psd = phase_space_density(1e16, 100e-6, cr)
    colder = phase_space_density(1e16, 50e-6, cr)
    assert colder == pytest.approx(psd * 2 ** 1.5, rel=1e-12, abs=0.0)
    assert phase_space_density(0.0, 50e-6, cr) == 0.0


# -------------------------------------------------- transfer temperature


def test_point_transfer_limit(cr, field):
    mot = MotCloud(size_sigma=0.0, temperature=300e-6, atom_number=1e7)
    assert predict_mt_temperature(mot, field, 6 * MU_B) == pytest.approx(
        100e-6, rel=1e-14, abs=0.0)


def test_transfer_temperature_reference(cr):
    mot = MotCloud(size_sigma=200e-6, temperature=300e-6, atom_number=1e7)
    fld = QuadrupoleField(0.2)
    t = predict_mt_temperature(mot, fld, 6 * MU_B)
    delta = t - 100e-6
    assert delta == pytest.approx(5.716800882835628e-05, rel=1e-12, abs=0.0)
    assert delta == pytest.approx(57e-6, rel=0.02)


def test_transfer_temperature_linearities(cr):
    fld = QuadrupoleField(0.2)
    mu = 6 * MU_B

    def tmt(t_mot=300e-6, sigma=200e-6, grad=0.2, mu_bar=mu):
        return predict_mt_temperature(
            MotCloud(sigma, t_mot, 1e7), QuadrupoleField(grad), mu_bar)

    # slope 1/3 in T_MOT at fixed size term
    d = tmt(t_mot=400e-6) - tmt(t_mot=300e-6)
    assert d == pytest.approx(100e-6 / 3, rel=1e-12, abs=0.0)
    # linear in gradient, size, and moment
    base = tmt() - tmt(sigma=0.0)
    assert tmt(grad=0.4) - tmt(sigma=0.0, grad=0.4) == pytest.approx(
        2 * base, rel=1e-12, abs=0.0)
    assert tmt(sigma=400e-6) - tmt(sigma=0.0) == pytest.approx(
        2 * base, rel=1e-12, abs=0.0)
    assert tmt(mu_bar=3 * MU_B) - tmt(sigma=0.0, mu_bar=3 * MU_B) == \
        pytest.approx(base / 2, rel=1e-12, abs=0.0)


def test_prefactor_identity():
    assert VIRIAL_TRANSFER_PREFACTOR == pytest.approx(
        (2.0 / 9.0) * math.sqrt(8.0 / math.pi), rel=1e-12, abs=0.0)
