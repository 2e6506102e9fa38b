import math

import numpy as np
import pytest
from scipy import integrate

from mtload import (DensityImage, GravityAxisError, InputDataError,
                    QuadrupoleField, RateModel, fit_density_image, fit_linear,
                    fit_loading_curve, fit_two_body_loss,
                    render_density_image, shape_params)
from mtload.constants import G_ACCEL, K_B, MU_B
from mtload.dynamics import decay_density_at
from mtload.estimation import (SampleSeries, image_from_table,
                               image_to_table, profile_model)
from mtload.mc import seed_stream
from mtload.tables import parse_csv


def loading_samples(n0=1e8, tau=1.0, span=5.0, count=30, noise=0.0,
                    rng=None):
    t = np.linspace(0.0, span, count)
    y = n0 * -np.expm1(-t / tau)
    sigma = None
    if noise > 0.0:
        y = y * (1.0 + noise * rng.standard_normal(t.shape))
        sigma = noise * np.maximum(np.abs(y), 1e-3 * np.max(np.abs(y)))
    return SampleSeries(t, y, sigma)


# ------------------------------------------------------------- loading


def test_loading_fit_noiseless_round_trip():
    res = fit_loading_curve(loading_samples())
    assert res.converged and res.iterations <= 100
    assert res.params["N0"] == pytest.approx(1e8, rel=1e-6)
    assert res.params["tau"] == pytest.approx(1.0, rel=1e-6)
    assert res.extras["R"] == pytest.approx(1e8, rel=1e-6)


def test_loading_fit_noisy_monte_carlo():
    ok = 0
    trials = 60
    for trial in range(trials):
        rng = seed_stream(1001, f"loading-{trial}")
        res = fit_loading_curve(loading_samples(noise=0.03, rng=rng))
        if (abs(res.params["N0"] / 1e8 - 1) < 0.05
                and abs(res.params["tau"] - 1.0) < 0.05):
            ok += 1
    assert ok >= math.ceil(0.95 * trials)


def test_loading_fit_low_confidence_flag():
    # data spanning only a fifth of tau cannot pin the plateau down
    res = fit_loading_curve(loading_samples(tau=25.0, span=5.0))
    assert res.extras.get("low_confidence") is True


def test_loading_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_loading_curve(SampleSeries([0, 1, 2], [1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        fit_loading_curve(SampleSeries(np.arange(6.0),
                                       np.full(6, 5.0)))
    with pytest.raises(ValueError):
        fit_loading_curve(SampleSeries(np.zeros(6), np.arange(6.0)))


def test_loading_fit_deterministic():
    rng = seed_stream(17, "det")
    data = loading_samples(noise=0.03, rng=rng)
    r1 = fit_loading_curve(data)
    r2 = fit_loading_curve(data)
    assert r1.params == r2.params and r1.stderr == r2.stderr


def test_stderr_shrinks_with_sample_count():
    # doubling the sample count should shrink errors roughly as 1/sqrt(2)
    ratios = []
    for trial in range(40):
        rng = seed_stream(2002, f"small-{trial}")
        small = fit_loading_curve(loading_samples(count=30, noise=0.03,
                                                  rng=rng))
        rng = seed_stream(2002, f"large-{trial}")
        large = fit_loading_curve(loading_samples(count=60, noise=0.03,
                                                  rng=rng))
        ratios.append(small.stderr["tau"] / large.stderr["tau"])
    mean_ratio = float(np.mean(ratios))
    assert 1.2 <= mean_ratio <= 1.7


# -------------------------------------------------------------- linear


def test_linear_fit_exact_line():
    x = np.linspace(1e14, 2e15, 10)
    res = fit_linear(SampleSeries(x, 1e-15 * x))
    assert res.params["slope"] == pytest.approx(1e-15, rel=1e-12)
    assert abs(res.params["intercept"]) < 1e-6


def test_linear_fit_recovers_intercept():
    x = np.linspace(1e14, 2e15, 12)
    res = fit_linear(SampleSeries(x, 0.2 + 1e-15 * x))
    assert res.params["intercept"] == pytest.approx(0.2, rel=1e-9)


def test_linear_fit_figure3_style_monte_carlo():
    x = np.array([1, 2, 3.5, 5, 7.5, 10, 20, 30, 40, 55, 75, 100]) * 2.4e14
    ok = 0
    trials = 100
    for trial in range(trials):
        rng = seed_stream(3003, f"f3-{trial}")
        y = (0.2 + 1e-15 * x) * (1 + 0.10 * rng.standard_normal(x.shape))
        res = fit_linear(SampleSeries(x, y))
        if abs(res.params["slope"] / 1e-15 - 1) < 0.15:
            ok += 1
    assert ok >= math.ceil(0.95 * trials)


def test_linear_fit_weighted():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = np.array([0.0, 1.0, 2.0, 9.0])
    sigma = np.array([0.01, 0.01, 0.01, 100.0])  # last point says nothing
    res = fit_linear(SampleSeries(x, y, sigma))
    assert res.params["slope"] == pytest.approx(1.0, abs=1e-3)


def test_linear_fit_degenerate_rejected():
    with pytest.raises(ValueError):
        fit_linear(SampleSeries([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        fit_linear(SampleSeries([1.0, 2.0], [1.0, 2.0]))


# ------------------------------------------------------- density image


def reference_cloud(cr):
    fld = QuadrupoleField(0.1)
    mu = 6 * MU_B
    b_shape, g_shape = shape_params(100e-6, mu, fld, cr)
    return fld, mu, b_shape, g_shape


def test_projection_formula_matches_numeric_integral(cr):
    # the Bessel-kernel column density must equal the line-of-sight
    # integral of the raw 3-D profile
    _, _, b_shape, g_shape = reference_cloud(cr)
    image = render_density_image(1e16, b_shape, g_shape, pitch=2e-4,
                                 shape=(5, 5))
    c0, c1 = image.coordinates()
    for i, j in ((2, 2), (0, 1), (4, 3), (1, 4)):
        y, x = c0[i, j], c1[i, j]

        def integrand(z):
            r = math.sqrt(x * x + y * y + 4 * z * z)
            return 1e16 * math.exp(-b_shape * r - g_shape * y)

        expected, _ = integrate.quad(integrand, -np.inf, np.inf,
                                     epsabs=1.0, epsrel=1e-10)
        assert image.values[i, j] == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("axes,mode", [
    (("y", "x"), "projection"),
    (("y", "z"), "projection"),
    (("y", "x"), "slice"),
])
def test_image_fit_noiseless_round_trip(cr, axes, mode):
    fld, mu, b_shape, g_shape = reference_cloud(cr)
    image = render_density_image(1e16, b_shape, g_shape, pitch=4e-5,
                                 shape=(64, 64), axes=axes, mode=mode)
    res = fit_density_image(image, fld, cr, mode=mode)
    assert res.params["n0"] == pytest.approx(1e16, rel=1e-4)
    assert res.params["shape_b"] == pytest.approx(b_shape, rel=1e-4)
    assert res.params["shape_g"] == pytest.approx(g_shape, rel=1e-4)
    assert res.extras["temperature"] == pytest.approx(100e-6, rel=1e-4)
    assert res.extras["mu_bar"] == pytest.approx(mu, rel=1e-4)


def test_image_fit_with_pixel_noise(cr):
    # mean moment 3.5 -> 5.25 mu_B, inside the physically expected band
    fld = QuadrupoleField(0.1)
    mu = 5.25 * MU_B
    b_shape, g_shape = shape_params(100e-6, mu, fld, cr)
    base = render_density_image(1e16, b_shape, g_shape, pitch=4e-5,
                                shape=(64, 64))
    for trial in range(5):
        rng = seed_stream(4004, f"img-{trial}")
        noisy = np.clip(base.values * (1 + 0.05 *
                                       rng.standard_normal(base.values.shape)),
                        0.0, None)
        res = fit_density_image(DensityImage(noisy, base.pitch, base.axes),
                                fld, cr)
        assert res.extras["temperature"] == pytest.approx(100e-6, rel=0.10)
        lo, hi = res.extras["mu_bar_physical_range"]
        assert lo <= res.extras["mu_bar"] <= hi
        assert 4.5 * MU_B <= res.extras["mu_bar"] <= 6.0 * MU_B


def test_image_fit_derived_relations(cr):
    fld, mu, b_shape, g_shape = reference_cloud(cr)
    image = render_density_image(1e16, b_shape, g_shape, pitch=4e-5,
                                 shape=(48, 48))
    res = fit_density_image(image, fld, cr)
    g_fit = res.params["shape_g"]
    b_fit = res.params["shape_b"]
    assert res.extras["temperature"] == pytest.approx(
        cr.mass * G_ACCEL / (K_B * g_fit), rel=1e-12)
    assert res.extras["mu_bar"] == pytest.approx(
        2 * cr.mass * G_ACCEL * b_fit / (fld.gradient * g_fit), rel=1e-12)


def test_image_fit_flipped_gravity_axis(cr):
    fld, _, b_shape, g_shape = reference_cloud(cr)
    image = render_density_image(1e16, b_shape, g_shape, pitch=4e-5,
                                 shape=(64, 64))
    flipped = DensityImage(image.values[::-1].copy(), image.pitch,
                           image.axes)
    with pytest.raises(GravityAxisError):
        fit_density_image(flipped, fld, cr)


def test_image_validation():
    with pytest.raises(ValueError):
        DensityImage(np.ones((4, 4)), pitch=0.0)
    with pytest.raises(ValueError):
        DensityImage(np.ones(4), pitch=1e-5)
    with pytest.raises(ValueError):
        DensityImage(np.ones((4, 4)), pitch=1e-5, axes=("x", "z"))
    with pytest.raises(ValueError):
        DensityImage(-np.ones((4, 4)), pitch=1e-5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_data_is_input_error(bad):
    with pytest.raises(InputDataError, match="finite"):
        SampleSeries([0.0, 1.0, 2.0], [1.0, bad, 3.0])
    with pytest.raises(InputDataError, match="finite"):
        SampleSeries([0.0, bad, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(InputDataError, match="positive"):
        SampleSeries([0.0, 1.0], [1.0, 2.0], [1.0, -abs(bad)])
    values = np.ones((4, 4))
    values[1, 2] = bad
    with pytest.raises(InputDataError, match="finite"):
        DensityImage(values, pitch=1e-5)
    with pytest.raises(InputDataError, match="pitch"):
        DensityImage(np.ones((4, 4)), pitch=abs(bad))


def test_image_table_round_trip(cr):
    _, _, b_shape, g_shape = reference_cloud(cr)
    image = render_density_image(1e16, b_shape, g_shape, pitch=5e-5,
                                 shape=(8, 6), axes=("y", "z"))
    table = image_to_table(image, mode="projection")
    back, mode = image_from_table(parse_csv(table.to_csv()))
    assert mode == "projection"
    assert back.pitch == image.pitch
    assert back.axes == image.axes
    np.testing.assert_allclose(back.values, image.values, rtol=1e-12)


def test_profile_model_kernel_limit():
    image = DensityImage(np.ones((3, 3)), pitch=1e-4)
    vals = profile_model(image, 1e16, 2000.0, 0.0)
    # center pixel sits at rho=0 where the kernel limit applies
    assert vals[1, 1] == pytest.approx(1e16 / 2000.0, rel=1e-12)


# ------------------------------------------------------------ two-body


def synthetic_decay(beta=7e-17, t0=60.0, alpha=0.1, v0=1.4e-9, n0=1e16,
                    span=10.0, count=60):
    t = np.linspace(0.0, span, count)
    model = RateModel(background_lifetime=t0, two_body_coeff=beta,
                      initial_volume=v0, volume_growth_rate=alpha)
    density = decay_density_at(t, n0, model)
    volume = v0 * (1.0 + alpha * t)
    return SampleSeries(t, density), SampleSeries(t, volume)


def test_two_body_fit_noiseless_round_trip():
    density, volume = synthetic_decay()
    res = fit_two_body_loss(density, 60.0, volume)
    assert res.converged
    assert res.params["beta"] == pytest.approx(7e-17, rel=1e-4)
    assert res.extras["volume_alpha"] == pytest.approx(0.1, rel=1e-6)
    assert res.extras["t0_sensitivity"] < 0.15


def test_two_body_fit_insensitive_to_t0():
    density, volume = synthetic_decay()
    base = fit_two_body_loss(density, 60.0, volume).params["beta"]
    shifted = fit_two_body_loss(density, 90.0, volume).params["beta"]
    assert abs(shifted - base) / base < 0.15


def test_two_body_fit_zero_beta_consistent_with_zero():
    density, volume = synthetic_decay(beta=0.0)
    res = fit_two_body_loss(density, 60.0, volume)
    assert abs(res.params["beta"]) <= 2.0 * max(res.stderr["beta"], 1e-25)


def test_two_body_fit_input_validation():
    density, volume = synthetic_decay()
    with pytest.raises(ValueError):
        fit_two_body_loss(density, 0.0, volume)
    bad = SampleSeries(density.x[::-1].copy(), density.y)
    with pytest.raises(ValueError):
        fit_two_body_loss(bad, 60.0, volume)
