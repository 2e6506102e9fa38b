import math
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from mtload import (DensityImage, FitNotConvergedError, GravityAxisError,
                    InputDataError, QuadrupoleField, RateModel,
                    fit_density_image, fit_linear, fit_loading_curve,
                    fit_two_body_loss, render_density_image, shape_params)
from mtload.constants import G_ACCEL, K_B, MU_B
from mtload.dynamics import decay_density_at
from mtload import dynamics, estimation, pipelines
from mtload.estimation import (SampleSeries, image_from_table,
                               image_to_table, profile_model)
from mtload.mc import seed_stream
from mtload.scenario import load_scenario
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
    assert 1 <= res.iterations <= 100
    assert res.params["N0"] == pytest.approx(1e8, rel=1e-6)
    assert res.params["tau"] == pytest.approx(1.0, rel=1e-6)
    assert res.extras["R"] == pytest.approx(1e8, rel=1e-6)


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
    # no start point with N0 > 0
    with pytest.raises(InputDataError, match="no sample is positive"):
        fit_loading_curve(SampleSeries(np.arange(6.0), -np.arange(6.0)))


@st.composite
def loading_like_curves(draw):
    """Rising, decaying, pure-noise and noisy rising sample curves, on
    grids of 5 to 60 points, optionally with uncertainties."""
    count = draw(st.integers(5, 60))
    span = draw(st.floats(1e-2, 1e2))
    t = np.linspace(0.0, span, count)
    scale = draw(st.floats(1.0, 1e12))
    tau = span * draw(st.floats(1e-3, 1e2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("rising", "decaying", "noise",
                                 "noisy rising")))
    if kind == "rising":
        y = scale * -np.expm1(-t / tau)
    elif kind == "decaying":
        y = scale * np.exp(-t / tau)
    elif kind == "noise":
        y = scale * rng.standard_normal(count)
    else:
        y = scale * -np.expm1(-t / tau) * (
            1.0 + draw(st.floats(1e-3, 0.5)) * rng.standard_normal(count))
    sigma = None
    if draw(st.booleans()):
        sigma = 0.01 * scale * (1.0 + rng.random(count))
    return SampleSeries(t, y, sigma)


@settings(max_examples=150, deadline=None)
@given(loading_like_curves())
def test_loading_fit_converges_finite_or_raises(data):
    # the fit stays where N0 > 0 and tau > 0 by refusing steps, so it never
    # evaluates the model outside that domain; a RuntimeWarning (overflow,
    # division by zero) is an error here
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            res = fit_loading_curve(data)
        except (FitNotConvergedError, InputDataError):
            return
    assert 1 <= res.iterations < 200
    assert res.params["N0"] > 0 and res.params["tau"] > 0
    values = [*res.params.values(), res.residual_norm, res.extras["R"]]
    assert all(math.isfinite(v) for v in values)
    # a parameter the data do not determine reads NaN; an exact 0 only
    # fits data the model matches exactly
    for err in res.stderr.values():
        assert (math.isnan(err) or 0.0 < err < math.inf
                or err == 0.0 and res.residual_norm == 0.0)


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
    assert res.params["slope"] == pytest.approx(1e-15, rel=1e-12, abs=0.0)
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


def test_linear_fit_does_not_depend_on_memory_layout():
    # the CLI passes strided columns of the parsed table; contiguous
    # copies of the same numbers give the same bits
    table = np.array([[0.0, 1.0, 0.1], [1.0, 3.1, 0.2], [2.0, 4.9, 0.1],
                      [3.0, 7.2, 0.3]])
    strided = fit_linear(SampleSeries(table[:, 0], table[:, 1], table[:, 2]))
    contiguous = fit_linear(SampleSeries(*(table[:, i].copy()
                                           for i in range(3))))
    assert strided.params == contiguous.params
    assert strided.stderr == contiguous.stderr


def test_linear_fit_degenerate_rejected():
    with pytest.raises(InputDataError, match="zero variance"):
        fit_linear(SampleSeries([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        fit_linear(SampleSeries([1.0, 2.0], [1.0, 2.0]))


def test_sample_series_refuses_a_zero_sigma():
    with pytest.raises(InputDataError, match="must be positive"):
        SampleSeries([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [0.1, 0.0, 0.1])


# ------------------------------------------------------- density image


def reference_cloud(cr):
    fld = QuadrupoleField(0.1)
    mu = 6 * MU_B
    b_shape, g_shape = shape_params(100e-6, mu, fld, cr)
    return fld, mu, b_shape, g_shape


def raw_profile(n0, b_shape, g_shape, x, y, z):
    """The 3-D trapped-cloud density, written out here for the oracles."""
    r = math.sqrt(x * x + y * y + 4 * z * z)
    return n0 * math.exp(-b_shape * r - g_shape * y)


@pytest.mark.parametrize("axes", [("y", "x"), ("y", "z")],
                         ids=["y-x", "y-z"])
def test_projection_formula_matches_numeric_integral(cr, axes):
    # the Bessel-kernel column density must equal the integral of the raw
    # 3-D profile along the axis the image does not contain
    _, _, b_shape, g_shape = reference_cloud(cr)
    image = render_density_image(1e16, b_shape, g_shape, pitch=2e-4,
                                 shape=(5, 5), axes=axes)
    c0, c1 = image.coordinates()
    for i, j in ((2, 2), (0, 1), (4, 3), (1, 4)):
        y, c = c0[i, j], c1[i, j]

        def integrand(s):
            point = {"x": c, "z": s} if axes[1] == "x" else {"x": s, "z": c}
            return raw_profile(1e16, b_shape, g_shape, y=y, **point)

        expected, _ = integrate.quad(integrand, -np.inf, np.inf,
                                     epsabs=1.0, epsrel=1e-10)
        assert image.values[i, j] == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("axes", [("y", "x"), ("y", "z")],
                         ids=["y-x", "y-z"])
def test_slice_formula_matches_profile_on_its_plane(cr, axes):
    # a (y, x) slice is the z = 0 plane of the raw 3-D profile, a (y, z)
    # slice the x = 0 plane
    _, _, b_shape, g_shape = reference_cloud(cr)
    image = render_density_image(1e16, b_shape, g_shape, pitch=2e-4,
                                 shape=(5, 5), axes=axes, mode="slice")
    c0, c1 = image.coordinates()
    for i, j in ((2, 2), (0, 1), (4, 3), (1, 4), (0, 2), (4, 2)):
        y, c = c0[i, j], c1[i, j]
        point = {"x": c, "z": 0.0} if axes[1] == "x" else {"x": 0.0, "z": c}
        expected = raw_profile(1e16, b_shape, g_shape, y=y, **point)
        assert image.values[i, j] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("mode", ["projection", "slice"])
@pytest.mark.parametrize("axes", [("y", "x"), ("y", "z"), ("x", "y")])
def test_gravity_sags_the_image_downwards(cr, axes, mode):
    # gravity pulls along -y, so the image holds more atoms below its
    # centre than above, whichever image axis y is
    _, _, b_shape, g_shape = reference_cloud(cr)
    image = render_density_image(1e16, b_shape, g_shape, pitch=4e-5,
                                 shape=(64, 64), axes=axes, mode=mode)
    y = image.coordinates()[axes.index("y")]
    assert image.values[y < 0].sum() > 1.1 * image.values[y > 0].sum()


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
    assert res.extras["mu_bar"] == pytest.approx(mu, rel=1e-4, abs=0.0)


def test_image_fit_derived_relations(cr):
    fld, mu, b_shape, g_shape = reference_cloud(cr)
    image = render_density_image(1e16, b_shape, g_shape, pitch=4e-5,
                                 shape=(48, 48))
    res = fit_density_image(image, fld, cr)
    g_fit = res.params["shape_g"]
    b_fit = res.params["shape_b"]
    assert res.extras["temperature"] == pytest.approx(
        cr.mass * G_ACCEL / (K_B * g_fit), rel=1e-12, abs=0.0)
    assert res.extras["mu_bar"] == pytest.approx(
        2 * cr.mass * G_ACCEL * b_fit / (fld.gradient * g_fit), rel=1e-12,
        abs=0.0)
    # the derived values' errors sit in stderr under their own names
    assert list(res.extras) == ["temperature", "mu_bar"]
    rel_b = res.stderr["shape_b"] / b_fit
    rel_g = res.stderr["shape_g"] / g_fit
    assert res.stderr["temperature"] == pytest.approx(
        res.extras["temperature"] * rel_g, rel=1e-12, abs=0.0)
    assert res.stderr["mu_bar"] == pytest.approx(
        res.extras["mu_bar"] * math.hypot(rel_b, rel_g), rel=1e-12, abs=0.0)


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
    with pytest.raises(InputDataError, match="uncertainties"):
        SampleSeries([0.0, 1.0], [1.0, 2.0], [1.0, bad])
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


@pytest.mark.parametrize("name,n0,shape_b", [
    ("shape_b", 1e16, 0.0), ("shape_b", 1e16, -2000.0),
    ("shape_b", 1e16, math.nan), ("shape_b", 1e16, math.inf),
    ("n0", 0.0, 2000.0), ("n0", -1e16, 2000.0), ("n0", math.nan, 2000.0),
])
def test_profile_model_rejects_non_physical_parameters(name, n0, shape_b):
    image = DensityImage(np.ones((3, 3)), pitch=1e-4)
    for mode in ("projection", "slice"):
        with pytest.raises(ValueError, match=name):
            profile_model(image, n0, shape_b, 0.0, mode)


@pytest.mark.parametrize("axes,mode", [
    (("y", "x"), "projection"),
    (("y", "z"), "projection"),
    (("y", "x"), "slice"),
])
def test_image_model_equals_profile_model(cr, axes, mode):
    # the fit builds the pixel geometry once and evaluates it many times;
    # every evaluation must be exactly profile_model's
    _, _, b_shape, g_shape = reference_cloud(cr)
    image = render_density_image(1e16, b_shape, g_shape, pitch=4e-5,
                                 shape=(17, 12), axes=axes, mode=mode)
    model = estimation._image_model(image, mode)
    for n0, shape_b, shape_g in ((1e16, b_shape, g_shape),
                                 (3e15, 0.5 * b_shape, 2.0 * g_shape),
                                 (1e16, b_shape, -g_shape),
                                 (1e16, b_shape, g_shape)):
        assert np.array_equal(model(n0, shape_b, shape_g),
                              profile_model(image, n0, shape_b, shape_g,
                                            mode))


@pytest.mark.parametrize("axes,mode", [
    (("y", "x"), "projection"),
    (("y", "z"), "projection"),
    (("y", "x"), "slice"),
])
def test_image_fit_refuses_non_positive_steps(cr, monkeypatch, axes, mode):
    # on this small, tightly cropped image the first Gauss-Newton step
    # takes shape_b below zero; the fit refuses it and still converges
    fld = QuadrupoleField(0.1)
    b_shape, g_shape = shape_params(80e-6, 3 * MU_B, fld, cr)
    image = render_density_image(1e16, b_shape, g_shape,
                                 pitch=1.4 / (b_shape * 8), shape=(8, 8),
                                 axes=axes, mode=mode)
    proposed = []
    build = estimation._image_model
    fit = estimation.least_squares

    def checked_model(*args):
        model = build(*args)

        def evaluate(n0, shape_b, shape_g):
            assert n0 > 0 and shape_b > 0
            return model(n0, shape_b, shape_g)

        return evaluate

    def spied_fit(residual, *args, **kwargs):
        def spy(p):
            proposed.append(min(p[0], p[1]))
            return residual(p)

        return fit(spy, *args, **kwargs)

    monkeypatch.setattr(estimation, "_image_model", checked_model)
    monkeypatch.setattr(estimation, "least_squares", spied_fit)
    res = fit_density_image(image, fld, cr, mode=mode)
    assert min(proposed) <= 0
    assert res.params["shape_b"] == pytest.approx(b_shape, rel=1e-8)
    assert res.params["n0"] == pytest.approx(1e16, rel=1e-8)


@pytest.mark.parametrize("mode", ["projection", "slice"])
@pytest.mark.parametrize("axes", [("y", "x"), ("y", "z"), ("z", "y")])
def test_image_initial_guess_uses_the_model_geometry(axes, mode):
    # the guess reads the same pixel geometry as the model, so along the
    # coil axis z it counts each pixel twice as far out, as the field does
    shape_b = 3000.0
    image = render_density_image(1e16, shape_b, 0.1 * shape_b,
                                 pitch=24.0 / (shape_b * 128),
                                 shape=(128, 128), axes=axes, mode=mode)
    _, b0, _ = estimation._image_initial_guess(image, mode)
    assert b0 == pytest.approx(shape_b, rel=0.05)


def test_image_fit_with_one_row_names_shape_g(cr):
    # one pixel along y: the sag is not determined by the image
    image = render_density_image(1e16, 3000.0, 700.0, pitch=4e-5,
                                 shape=(32, 32))
    for values, axes in ((image.values[:1, :5], ("y", "x")),
                         (image.values[:5, :1], ("x", "y"))):
        crop = DensityImage(values, image.pitch, axes)
        with pytest.raises(GravityAxisError, match="shape_g"):
            fit_density_image(crop, QuadrupoleField(0.15), cr)


def test_image_fit_on_2x2_crop_gives_nan_for_undetermined(cr):
    # four pixels at the centre barely determine n0 and shape_b apart;
    # they read NaN, where an ill-conditioned J^T J once gave 0.0
    image = render_density_image(1e16, 3000.0, 700.0, 4e-5, (32, 32))
    crop = DensityImage(image.values[15:17, 15:17], image.pitch, image.axes)
    res = fit_density_image(crop, QuadrupoleField(0.15), cr)
    assert math.isnan(res.stderr["n0"]) and math.isnan(res.stderr["shape_b"])
    assert 0.0 < res.stderr["shape_g"] < 1e-6
    assert 0.0 < res.stderr["temperature"] < 1e-12


# -------------------------------------------------------- Bessel kernel


def mpmath_kernel(u):
    """u K1(u) to 40 digits, rounded once to double."""
    with mpmath.workdps(40):
        x = mpmath.mpf(float(u))
        return float(x * mpmath.besselk(1, x))


def kernel_grid():
    """(0, 700] on a log grid, the series' tiny-t region, both sides of the
    branch edge at u = 2 and the bulk of each branch."""
    edge = [np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0)]
    return np.concatenate([np.geomspace(1e-300, 700.0, 61),
                           [5e-324, 1e-160, 1e-150, 1e-140], edge,
                           np.linspace(0.05, 1.95, 20),
                           np.linspace(2.1, 40.0, 20)])


def test_kernel_matches_mpmath():
    u = kernel_grid()
    expected = np.array([mpmath_kernel(v) for v in u])
    got = estimation._bessel_kernel(u)
    assert np.all(np.abs(got - expected) <= 2e-15 * expected)


def test_kernel_matches_scipy():
    # below about 1e-308 scipy's K1(u) overflows, so the grid starts above
    u = np.concatenate([np.geomspace(1e-300, 700.0, 20001),
                        np.linspace(1e-3, 40.0, 20001),
                        [np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0)]])
    expected = u * special.k1(u)
    got = estimation._bessel_kernel(u)
    assert np.all(np.abs(got - expected) <= 2e-15 * expected)


def test_kernel_where_it_underflows():
    # beyond u = 708 e^-u is subnormal; the kernel still rounds to within
    # one unit of the smallest subnormal, and is 0 from about u = 748 on
    u = np.array([700.5, 705.0, 708.0, 709.0, 712.0, 720.0, 735.0, 745.0,
                  747.0, 748.0, 750.0, 800.0, 1e3, 1e6, 1e300])
    expected = np.array([mpmath_kernel(v) for v in u])
    got = estimation._bessel_kernel(u)
    tiny = np.nextafter(0.0, 1.0)
    assert np.all(np.abs(got - expected) <= 2e-15 * expected + tiny)
    assert got[-4:].tolist() == [0.0] * 4


def test_kernel_limits_and_domain():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = estimation._bessel_kernel(
            np.array([0.0, 5e-324, 1e-300, math.inf]))
    assert got.tolist() == [1.0, 1.0, 1.0, 0.0]
    for bad in (-1.0, -5e-324, -math.inf, math.nan):
        with pytest.raises(ValueError, match="u >= 0"):
            estimation._bessel_kernel(np.array([1.0, bad]))


def test_kernel_series_coefficients_are_correctly_rounded():
    # R's coefficients are -(psi(j+1) + psi(j+2)) / (j! (j+1)!)
    p, r = estimation._SERIES_P[::-1], estimation._SERIES_R[::-1]
    with mpmath.workdps(40):
        for j, (pj, rj) in enumerate(zip(p, r)):
            den = mpmath.factorial(j) * mpmath.factorial(j + 1)
            assert pj == float(1 / den)
            assert rj == float(-(mpmath.digamma(j + 1)
                                 + mpmath.digamma(j + 2)) / den)


def chebyshev_coefficients(terms):
    """Interpolant of sqrt(u) e^u K1(u) in x = 4/u - 1 at the Chebyshev
    points of the first kind, in 40-digit mpmath."""
    with mpmath.workdps(40):
        nodes = [mpmath.cos(mpmath.pi * (k + mpmath.mpf(1) / 2) / terms)
                 for k in range(terms)]
        values = []
        for x in nodes:
            u = 4 / (x + 1)
            values.append(mpmath.sqrt(u) * mpmath.exp(u)
                          * mpmath.besselk(1, u))
        coefficients = []
        for j in range(terms):
            c = 2 * mpmath.fsum(
                v * mpmath.cos(mpmath.pi * j * (k + mpmath.mpf(1) / 2)
                               / terms)
                for k, v in enumerate(values)) / terms
            coefficients.append(float(c / 2 if j == 0 else c))
    return tuple(coefficients)


def test_kernel_chebyshev_coefficients_regenerate():
    committed = estimation._CHEBYSHEV
    assert chebyshev_coefficients(len(committed)) == committed


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
    assert res.iterations == 1
    assert list(res.params) == ["n_init", "beta"]
    assert res.params["n_init"] == pytest.approx(1e16, rel=1e-12)
    assert res.params["beta"] == pytest.approx(7e-17, rel=1e-4, abs=0.0)
    assert res.extras["volume_alpha"] == pytest.approx(0.1, rel=1e-6)
    assert res.extras["t0_sensitivity"] < 0.15


def test_two_body_fit_zero_beta_consistent_with_zero():
    density, volume = synthetic_decay(beta=0.0)
    res = fit_two_body_loss(density, 60.0, volume)
    # noiseless, beta and its stderr are rounding: the stderr's floor
    # (relative noise below sqrt(eps)) keeps such a beta consistent with 0
    assert res.extras["beta_consistent_with_zero"]
    assert "t0_sensitivity" not in res.extras


@pytest.mark.parametrize("beta,fits", [(7e-17, 3), (0.0, 1)])
def test_two_body_fit_solves_the_decay_once_per_fit(monkeypatch, beta, fits):
    # w and its integral do not depend on n_init or beta, so each t0 value
    # (three with t0_sensitivity, one when beta is consistent with 0)
    # builds one solution; the fit neither iterates nor runs the whole of
    # decay_density_at
    density, volume = synthetic_decay(beta=beta)
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def forbidden(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"{name} called during the fit")
        return fail

    monkeypatch.setattr(estimation, "_decay_solution",
                        counted("solutions", estimation._decay_solution))
    monkeypatch.setattr(estimation, "least_squares",
                        forbidden("least_squares"))
    for module in (dynamics, estimation):
        monkeypatch.setattr(module, "decay_density_at",
                            forbidden("decay_density_at"), raising=False)
    res = fit_two_body_loss(density, 60.0, volume)
    assert ("t0_sensitivity" in res.extras) == (fits == 3)
    assert res.extras.get("beta_consistent_with_zero", False) == (fits == 1)
    assert counts == {"solutions": fits}


@pytest.mark.parametrize("beta", [0.0, 7e-17])
def test_two_body_fit_stderr_is_calibrated(beta):
    # relative noise on the density only, as simulate-decay draws it, and
    # an exact volume: over 200 seeds every fit returns, and the scatter
    # of beta matches its mean stderr (known to about 5% at 200 seeds)
    clean, volume = synthetic_decay(beta=beta)
    betas, stderrs = [], []
    for trial in range(200):
        rng = seed_stream(5005, f"decay-{trial}")
        noisy = clean.y * (1.0 + 0.01 * rng.standard_normal(clean.y.shape))
        res = fit_two_body_loss(SampleSeries(clean.x, noisy), 60.0, volume)
        betas.append(res.params["beta"])
        stderrs.append(res.stderr["beta"])
    ratio = np.std(betas, ddof=1) / np.mean(stderrs)
    assert 0.85 <= ratio <= 1.15


@settings(max_examples=40, deadline=None)
@given(n_init=st.floats(14.0, 18.0).map(lambda e: 10.0 ** e),
       t0=st.just(math.inf) | st.floats(1.0, 1000.0),
       alpha=st.floats(0.0, 1.0),
       strength=st.just(0.0) | st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e),
       count=st.integers(5, 60))
def test_two_body_fit_noiseless_round_trip_property(n_init, t0, alpha,
                                                    strength, count):
    # beta n_init times the 10 s span, the two-body term's strength, is 0
    # or in [1e-2, 1e2], where noiseless data determine beta
    beta = strength / (n_init * 10.0)
    density, volume = synthetic_decay(beta=beta, t0=t0, alpha=alpha,
                                      n0=n_init, count=count)
    res = fit_two_body_loss(density, t0, volume)
    assert res.params["n_init"] == pytest.approx(n_init, rel=1e-9)
    assert res.extras.get("beta_consistent_with_zero", False) == (beta == 0)
    if beta > 0:
        assert res.params["beta"] == pytest.approx(beta, rel=1e-6, abs=0.0)


def two_pass_reference(z, integral):
    """n_init and beta of the two-body fit's two weighted passes, weights
    1/z^2 then 1/z_hat^2, from the normal equations in 60-digit mpmath."""
    with mpmath.workdps(60):
        z = [mpmath.mpf(float(v)) for v in z]
        s = [mpmath.mpf(float(v)) for v in integral]
        z_hat = z
        for _ in range(2):
            w = [1 / v ** 2 for v in z_hat]
            s00, s01 = mpmath.fsum(w), mpmath.fsum(a * b for a, b in zip(w, s))
            s11 = mpmath.fsum(a * b * b for a, b in zip(w, s))
            b0 = mpmath.fsum(a * b for a, b in zip(w, z))
            b1 = mpmath.fsum(a * b * c for a, b, c in zip(w, s, z))
            det = s00 * s11 - s01 ** 2
            u, beta = (s11 * b0 - s01 * b1) / det, (s00 * b1 - s01 * b0) / det
            z_hat = [u + beta * v for v in s]
        return float(1 / u), float(beta)


def test_two_body_fit_at_a_short_lifetime_matches_extended_precision():
    # at t0 = 0.5 s on the default decay the weights 1/z^2 span 16
    # decades: a solve of the normal equations in doubles was 3.7% off
    table = parse_csv(pipelines.simulate_decay(load_scenario()).to_csv())
    t, density = table.column("t"), table.column("n0")
    res = fit_two_body_loss(SampleSeries(t, density), 0.5,
                            SampleSeries(t, table.column("V")))
    w, integral = dynamics._decay_solution(t, 0.5,
                                           res.extras["volume_alpha"])
    n_init, beta = two_pass_reference(w / density, integral)
    assert res.params["n_init"] == pytest.approx(n_init, rel=1e-6, abs=0.0)
    assert res.params["beta"] == pytest.approx(beta, rel=1e-6, abs=0.0)


def test_two_body_fit_on_two_samples_has_no_stderr():
    # two samples determine (n_init, beta) exactly and leave no degree of
    # freedom for an error estimate: NaN, never a division by zero
    density, volume = synthetic_decay()
    res = fit_two_body_loss(SampleSeries(density.x[:2], density.y[:2]),
                            60.0, volume)
    assert res.params["beta"] == pytest.approx(7e-17, rel=1e-9, abs=0.0)
    assert all(math.isnan(e) for e in res.stderr.values())
    assert res.extras["beta_consistent_with_zero"]


def test_two_body_fit_input_validation():
    density, volume = synthetic_decay()
    with pytest.raises(ValueError):
        fit_two_body_loss(density, 0.0, volume)
    bad = SampleSeries(density.x[::-1].copy(), density.y)
    with pytest.raises(ValueError):
        fit_two_body_loss(bad, 60.0, volume)
