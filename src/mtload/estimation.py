"""Inverse problems: the four fitting procedures used on the measured
(here: synthetic) data.

* loading-curve fit, N(t) = N0 (1 - exp(-t/tau)), also reporting R = N0/tau
* density-image fit for (n0, shape_b, shape_g), with derived temperature
  and mean magnetic moment
* straight-line least squares (optionally uncertainty-weighted)
* two-body loss coefficient fit through the decay equation with a
  pre-fitted linear volume growth

Only the loading and image fits iterate, from data-driven guesses; the
others are closed form. Every fitter is a deterministic function of its
inputs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cloud import QuadrupoleField
from .constants import G_ACCEL, K_B
from .dynamics import _decay_solution
from .errors import ConfigError, GravityAxisError, InputDataError
from .leastsq import _EPS, FitResult, _stderr, least_squares
from .species import SpeciesData
from .tables import ResultTable

_AXIS_LABELS = ("x", "y", "z")
# the image models: a column density along the line of sight, or a
# volume density in a plane through the trap centre
IMAGE_MODES = ("projection", "slice")


@dataclass(frozen=True)
class SampleSeries:
    """Ordered (x, y) samples with optional 1-sigma uncertainties."""

    x: np.ndarray
    y: np.ndarray
    y_sigma: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, float, order="C"))
        object.__setattr__(self, "y", np.asarray(self.y, float, order="C"))
        if self.x.ndim != 1 or self.x.shape != self.y.shape:
            raise InputDataError(
                "x and y must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise InputDataError("x and y must be finite")
        if self.y_sigma is not None:
            sig = np.asarray(self.y_sigma, float, order="C")
            if sig.shape != self.x.shape:
                raise InputDataError("y_sigma must match x in length")
            if not np.all(np.isfinite(sig) & (sig > 0)):
                raise InputDataError(
                    "uncertainties must be positive and finite")
            object.__setattr__(self, "y_sigma", sig)

    def require_time_axis(self):
        if not np.all(np.diff(self.x) > 0):
            raise InputDataError(
                "time series requires strictly increasing x")


@dataclass(frozen=True)
class DensityImage:
    """2-D grid of column densities (projection) or volume densities
    (slice) on a square pixel raster.

    ``axes`` labels the (row, column) coordinates and must include the
    vertical axis "y"; pixel (i, j) sits at coordinate
    ((i - (n_rows-1)/2) * pitch, (j - (n_cols-1)/2) * pitch) along
    (axes[0], axes[1]), with +y pointing up against gravity.
    """

    values: np.ndarray
    pitch: float                      # m
    axes: tuple[str, str] = ("y", "x")

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 2:
            raise InputDataError("values must be a 2-D grid")
        if not np.all(np.isfinite(self.values)):
            raise InputDataError("values must be finite")
        if np.any(self.values < 0):
            raise InputDataError("values must be nonnegative")
        if not 0 < self.pitch < math.inf:
            raise InputDataError("pitch must be positive and finite")
        if (len(self.axes) != 2 or self.axes[0] == self.axes[1]
                or any(a not in _AXIS_LABELS for a in self.axes)
                or "y" not in self.axes):
            raise InputDataError(
                "axes must be two distinct labels from (x, y, z) including y"
            )

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Pixel-center coordinate grids along (axes[0], axes[1])."""
        n0, n1 = self.values.shape
        c0 = (np.arange(n0) - (n0 - 1) / 2.0) * self.pitch
        c1 = (np.arange(n1) - (n1 - 1) / 2.0) * self.pitch
        return np.meshgrid(c0, c1, indexing="ij")


# u K1(u) for u <= 2, from A&S 9.6.11 with n = 1 and t = u^2/4:
#   u K1(u) = 1 + t (P(t) ln t + R(t)),
#   P(t) = sum_j t^j / (j! (j+1)!), so that u I1(u) = 2 t P(t),
#   R(t) = -sum_j [psi(j+1) + psi(j+2)] t^j / (j! (j+1)!)
#        = sum_j (2 gamma - H_j - H_{j+1}) t^j / (j! (j+1)!),
# with H_j the harmonic numbers. 13 terms: on t <= 1 the first omitted one
# is below 1e-20.
_SERIES_TERMS = 13
_EULER_GAMMA_E40 = 5772156649015328606065120900824024310422  # gamma 10^40


def _series_coefficients(terms):
    """P's and R's coefficients, highest power first as np.polyval takes
    them. Each is one correctly rounded division of two integers."""
    p, r = [], []
    for j in range(terms):
        f = math.factorial(j + 1)
        den = math.factorial(j) * f
        h = 2 * sum(f // i for i in range(1, j + 1)) + f // (j + 1)
        # h = (j+1)! (H_j + H_{j+1})
        p.append(1 / den)
        r.append((2 * _EULER_GAMMA_E40 * f - 10 ** 40 * h)
                 / (10 ** 40 * f * den))
    return np.array(p[::-1]), np.array(r[::-1])


_SERIES_P, _SERIES_R = _series_coefficients(_SERIES_TERMS)

# u K1(u) for u > 2 is sqrt(u) e^-u g(x), x = 4/u - 1 in (-1, 1), where
# g = sum_j c_j T_j(x) interpolates sqrt(u) e^u K1(u) at the 26 Chebyshev
# points x_k = cos(pi (k + 1/2)/26); Clenshaw's recurrence runs in
# 2x = 8/u - 2. The coefficients are 40-digit mpmath values rounded once
# to double; a test regenerates them.
_CHEBYSHEV = (
    1.3603130952422213, 0.10392373657681724, -0.002857816859622779,
    0.00019521551847135162, -1.936197974166083e-05, 2.406484947837217e-06,
    -3.5019606030878126e-07, 5.7410841254500495e-08,
    -1.0345762465678097e-08, 2.0150497551970347e-09,
    -4.190354759341925e-10, 9.218315187605298e-11, -2.1299678384277483e-11,
    5.139639673481238e-12, -1.2891739609469437e-12, 3.348419665976578e-13,
    -8.976705180003592e-14, 2.477154418848081e-14, -7.0198369440056604e-15,
    2.0387027696753716e-15, -6.057036324985763e-16, 1.8380630276636901e-16,
    -5.688600400987335e-17, 1.7915864727446217e-17, -5.685417352989891e-18,
    1.6686739374640153e-18,
)
# below it u K1(u) rounds to 1; the floor keeps t normal and ln t finite
_SERIES_FLOOR = 1e-150
# from about u = 748 on, u K1(u) underflows to 0; the cap keeps u finite
_ASYMPTOTIC_CAP = 1e3


def _bessel_kernel(u: np.ndarray) -> np.ndarray:
    """k(u) = u K1(u) for u >= 0, the line-of-sight kernel of the
    trapped-cloud profile, in numpy alone.

    k(0) = 1 and k(+inf) = 0 exactly. On u <= 2 it sums the power series
    of A&S 9.6.11; beyond, it evaluates a 26-term Chebyshev interpolant of
    sqrt(u) e^u K1(u) in 4/u by Clenshaw's recurrence. Against 40-digit
    mpmath its relative error on (0, 700] was at most 7.4e-16 over 2300
    points, where scipy.special.k1 reached 8.5e-16; the tests bound it by
    2e-15. e^-u enters as the square of e^-u/2, so that where k(u) is
    subnormal (u > 708) it still rounds to within a unit of the smallest
    subnormal. Raises ValueError for a negative or NaN u.
    """
    u = np.asarray(u, dtype=float)
    if not np.all(u >= 0.0):
        raise ValueError("the kernel u K1(u) needs u >= 0")
    out = np.empty_like(u)
    near = u <= 2.0
    far = ~near
    s = np.maximum(u[near], _SERIES_FLOOR)
    t = 0.25 * s * s
    out[near] = 1.0 + t * (2.0 * np.log(0.5 * s) * np.polyval(_SERIES_P, t)
                           + np.polyval(_SERIES_R, t))
    v = np.minimum(u[far], _ASYMPTOTIC_CAP)
    x = 8.0 / v - 2.0
    b0, b1 = 0.0, 0.0
    for c in _CHEBYSHEV[:0:-1]:
        b0, b1 = x * b0 - b1 + c, b0
    g = 0.5 * x * b0 - b1 + _CHEBYSHEV[0]
    half = np.exp(-0.5 * v)
    out[far] = half * (np.sqrt(v) * g) * half
    return out


def _pixel_geometry(image: DensityImage):
    """(y, radial, scale) on the image's pixels, for the model and its
    initial guess alike. |B| = b sqrt(x^2 + y^2 + 4 z^2), so the image
    axis c next to y counts twice (scale = 2) if it is the coil axis z and
    once if it is x, and radial = sqrt(y^2 + (scale c)^2): the field's
    distance in a slice, the kernel's transverse distance in a
    projection."""
    c0, c1 = image.coordinates()
    coords = {image.axes[0]: c0, image.axes[1]: c1}
    y = coords["y"]
    other = next(a for a in image.axes if a != "y")
    scale = 2.0 if other == "z" else 1.0
    return y, np.hypot(scale * coords[other], y), scale


def _image_model(image: DensityImage, mode: str):
    """profile_model as a function of (n0, shape_b, shape_g) alone: the
    pixel geometry is computed once, for a fit's repeated evaluations."""
    if mode not in IMAGE_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    y, radial, scale = _pixel_geometry(image)
    if mode == "slice":
        def slice_model(n0, shape_b, shape_g):
            return n0 * np.exp(-shape_b * radial - shape_g * y)

        return slice_model

    def projection_model(n0, shape_b, shape_g):
        front = scale * n0 / shape_b
        return front * np.exp(-shape_g * y) * _bessel_kernel(shape_b * radial)

    return projection_model


def profile_model(image: DensityImage, n0: float, shape_b: float,
                  shape_g: float, mode: str = "projection") -> np.ndarray:
    """Forward model of the image for peak density n0 and shape (B, G).

    Projection along the coil axis z:   (n0/B) e^{-G y} k(B rho),
    projection along a radial axis x:  (2 n0/B) e^{-G y} k(B q),
    slice through the origin:           n0 e^{-B rho - G y},
    with k(u) = u K1(u) (``_bessel_kernel``, numpy only),
    rho = sqrt(x^2+y^2), q = sqrt(y^2+4z^2). n0 and B must be positive
    and finite; a ValueError names the one that is not.
    """
    for name, value in (("n0", n0), ("shape_b", shape_b)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, "
                             f"got {value!r}")
    return _image_model(image, mode)(n0, shape_b, shape_g)


def render_density_image(n0: float, shape_b: float, shape_g: float,
                         pitch: float, shape: tuple[int, int],
                         axes: tuple[str, str] = ("y", "x"),
                         mode: str = "projection") -> DensityImage:
    """Synthesize a noiseless image from the cloud model (the same forward
    model the image fit inverts; tests check it against direct numerical
    line-of-sight integration of the 3-D density)."""
    blank = DensityImage(values=np.zeros(shape), pitch=pitch, axes=axes)
    values = profile_model(blank, n0, shape_b, shape_g, mode)
    return DensityImage(values=values, pitch=pitch, axes=axes)


def image_to_table(image: DensityImage, mode: str = "projection"):
    """Long-format table of an image (one row per pixel) with the grid
    shape, pitch, axes, and mode recorded in the provenance so the grid can
    be rebuilt exactly."""
    c0, c1 = image.coordinates()
    unit = "1/m^3" if mode == "slice" else "1/m^2"
    rows = np.column_stack((c0.ravel(), c1.ravel(),
                            image.values.ravel())).tolist()
    provenance = [
        ("image-shape", f"{image.values.shape[0]}x{image.values.shape[1]}"),
        ("image-pitch-m", repr(image.pitch)),
        ("image-axes", f"{image.axes[0]},{image.axes[1]}"),
        ("image-mode", mode),
    ]
    return ResultTable(
        columns=[(image.axes[0], "m"), (image.axes[1], "m"),
                 ("value", unit)],
        rows=rows,
        provenance=provenance,
    )


def image_from_table(parsed) -> tuple[DensityImage, str]:
    """Rebuild (image, mode) from a parsed long-format table."""
    meta = dict(parsed.provenance)
    for key in ("image-shape", "image-pitch-m", "image-axes", "image-mode"):
        if key not in meta:
            raise ConfigError(f"image file lacks required header {key!r}")
    try:
        n0, _, n1 = meta["image-shape"].partition("x")
        shape = (int(n0), int(n1))
        pitch = float(meta["image-pitch-m"])
    except ValueError as exc:
        raise ConfigError(f"bad image header: {exc}") from exc
    if min(shape) < 1:
        raise ConfigError(f"image-shape must give two positive sizes, got "
                          f"{meta['image-shape']!r}")
    axes = tuple(a.strip() for a in meta["image-axes"].split(","))
    if len(axes) != 2:
        raise ConfigError("image-axes must name two axes")
    if meta["image-mode"] not in IMAGE_MODES:
        raise ConfigError(f"unknown image-mode {meta['image-mode']!r}: "
                          f"expected {' or '.join(IMAGE_MODES)}")
    values = parsed.column("value")
    if values.size != shape[0] * shape[1]:
        raise ConfigError(
            f"image has {values.size} pixels but header says "
            f"{shape[0]}x{shape[1]}"
        )
    image = DensityImage(values=values.reshape(shape), pitch=pitch,
                         axes=axes)
    return image, meta["image-mode"]


def fit_loading_curve(data: SampleSeries) -> FitResult:
    """Fit N(t) = N0 (1 - exp(-t/tau)); extras carry R = N0/tau.

    Residuals are weighted by the sample uncertainties when the series has
    them, plain otherwise. Initial guesses: N0 from the largest sample,
    tau from the first time the curve reaches (1 - 1/e) of it. N0 and tau
    stay positive: a step that would take either to zero or below is
    refused and shortened. Data without a positive sample have no start
    point inside that domain and raise InputDataError. If the fitted tau
    exceeds the data span the result is flagged low-confidence
    (extras['low_confidence']).
    """
    data.require_time_axis()
    t, y = data.x, data.y
    if len(t) < 5:
        raise InputDataError(
            "need at least 5 samples to fit a loading curve")
    if np.allclose(y, y[0]):
        raise InputDataError("degenerate data: all samples equal")
    n0_guess = float(np.max(y))
    if n0_guess <= 0:
        raise InputDataError("no sample is positive, so the fit has no "
                             "start point with N0 > 0")
    tau_guess = float(t[np.argmax(y >= (1.0 - 1.0 / math.e) * n0_guess)])
    span = float(t[-1] - t[0])
    if tau_guess <= 0:
        tau_guess = span / len(t)
    weight = 1.0 if data.y_sigma is None else 1.0 / data.y_sigma
    refused = np.full(t.size, math.inf)

    def residual(p):
        n0, tau = p
        if not (n0 > 0.0 and tau > 0.0):
            return refused
        return (n0 * -np.expm1(-t / tau) - y) * weight

    result = least_squares(residual, [n0_guess, tau_guess], ("N0", "tau"))
    n0, tau = result.params["N0"], result.params["tau"]
    result.extras["R"] = n0 / tau
    if tau > span:
        result.extras["low_confidence"] = True
    return result


def _weighted_line(design: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Weighted linear least squares: the coefficients c minimizing
    sum w (y - design c)^2 from the normal equations, the weighted sum of
    squared residuals, and the weighted design sqrt(w) design that
    ``_stderr`` takes."""
    wd = design * w[:, None]
    coef = np.linalg.solve(design.T @ wd, wd.T @ y)
    resid = y - design @ coef
    return coef, float(resid @ (w * resid)), design * np.sqrt(w)[:, None]


def fit_linear(data: SampleSeries) -> FitResult:
    """Straight-line least squares, uncertainty-weighted when sigmas are
    present. Closed form, no iteration. The standard errors come from
    least_squares' SVD routine on the weighted design: unweighted, scaled
    by the reduced chi-square; weighted, taking the sigmas as absolute."""
    x, y = data.x, data.y
    if len(x) < 3:
        raise InputDataError("need at least 3 points for a line fit")
    if np.all(x == x[0]):
        raise InputDataError("degenerate data: x has zero variance")
    w = np.ones_like(x) if data.y_sigma is None else 1.0 / data.y_sigma ** 2
    coef, ssr_w, weighted = _weighted_line(
        np.column_stack([x, np.ones_like(x)]), y, w)
    s2 = ssr_w / (x.size - 2) if data.y_sigma is None else 1.0
    stderr = _stderr(weighted, s2)
    return FitResult(
        params={"slope": float(coef[0]), "intercept": float(coef[1])},
        stderr={"slope": float(stderr[0]), "intercept": float(stderr[1])},
        residual_norm=math.sqrt(ssr_w),
        iterations=1,
    )


def _image_initial_guess(image: DensityImage, mode: str):
    y, radial, scale = _pixel_geometry(image)
    v = image.values
    total = float(v.sum())
    if total <= 0:
        raise InputDataError("degenerate image: all pixels zero")
    r_mean = float((v * radial).sum() / total)
    if r_mean <= 0:
        raise InputDataError("degenerate image: no spatial extent")
    # intensity-weighted mean radius of the model: (3 pi/4)/B projected,
    # 2/B for the slice profile
    b0 = (3.0 * math.pi / 4.0) / r_mean if mode == "projection" else 2.0 / r_mean
    peak = float(v.max())
    n0_0 = peak if mode == "slice" else peak * b0 / scale
    # sag from the vertical log-asymmetry one mean radius above/below the
    # horizontal center of the image
    if image.axes[0] != "y":
        y, v = y.T, v.T
    j_mid = v.shape[1] // 2
    vert_coords, column = y[:, j_mid], v[:, j_mid]
    i_up = int(np.argmin(np.abs(vert_coords - r_mean)))
    i_dn = int(np.argmin(np.abs(vert_coords + r_mean)))
    g0 = 0.05 * b0
    if column[i_up] > 0 and column[i_dn] > 0 and i_up != i_dn:
        dy = vert_coords[i_up] - vert_coords[i_dn]
        est = math.log(column[i_dn] / column[i_up]) / dy
        if est > 0:
            g0 = min(est, 0.95 * b0)
    return n0_0, b0, g0


def fit_density_image(image: DensityImage, field: QuadrupoleField,
                      species: SpeciesData,
                      mode: str = "projection") -> FitResult:
    """Fit (n0, shape_b, shape_g) to an image and derive the temperature
    and mean magnetic moment.

    T = m g / (k_B shape_g) and mu_bar = 2 m g shape_b / (b shape_g); both
    land in extras, their propagated uncertainties in stderr. n0 and shape_b
    stay positive: a step that would take either to zero or below is
    refused and shortened. An image with one pixel along the vertical
    axis does not determine shape_g, and a fit that converges to
    shape_g <= 0 has the sag pointing the wrong way, so the vertical axis
    is misidentified; both raise GravityAxisError. An image of fewer
    than 4 pixels leaves no residual to estimate the errors from and
    raises InputDataError.
    """
    if image.values.shape[image.axes.index("y")] < 2:
        raise GravityAxisError(
            "the image has one pixel along the vertical axis y, so it does "
            "not determine shape_g")
    names = ("n0", "shape_b", "shape_g")
    if image.values.size <= len(names):
        # no residual degree of freedom is left, so no error estimate
        raise InputDataError(
            f"the image has {image.values.size} pixels; fitting "
            f"{', '.join(names)} needs at least {len(names) + 1}")
    n0_0, b0, g0 = _image_initial_guess(image, mode)
    flat = image.values.ravel()
    model = _image_model(image, mode)
    refused = np.full(flat.size, math.inf)

    def residual(p):
        n0, shape_b, shape_g = p
        if not (n0 > 0.0 and shape_b > 0.0):
            return refused
        return model(n0, shape_b, shape_g).ravel() - flat

    result = least_squares(residual, [n0_0, b0, g0], names)
    shape_b = result.params["shape_b"]
    shape_g = result.params["shape_g"]
    if shape_g <= 0:
        raise GravityAxisError(
            f"fitted shape_g={shape_g:.3e} is not positive; the image's "
            "vertical axis looks mislabeled"
        )
    mg = species.mass * G_ACCEL
    temperature = mg / (K_B * shape_g)
    mu_bar = 2.0 * mg * shape_b / (field.gradient * shape_g)
    rel_b = result.stderr["shape_b"] / shape_b
    rel_g = result.stderr["shape_g"] / shape_g
    result.extras.update(temperature=temperature, mu_bar=mu_bar)
    result.stderr.update(temperature=temperature * rel_g,
                         mu_bar=mu_bar * math.hypot(rel_b, rel_g))
    return result


def fit_two_body_loss(density_series: SampleSeries, t0: float,
                      volume_series: SampleSeries) -> FitResult:
    """Fit the start density n_init and the two-body coefficient beta in
    closed form, after a linear fit of the volume history,
    V(t) = V0 (1 + alpha t); a fit that gives V0 <= 0 raises
    InputDataError. A negative fitted volume growth rate, a shrinking
    cloud, is set to 0 and marked by ``volume_alpha_clamped = True``.

    With w and I of the decay solution (``mtload.dynamics``), computed
    once per t0 value, z = w/n = 1/n_init + beta I is linear in
    (1/n_init, beta). The noise is taken as relative, as the simulations
    draw it, so two weighted line solves: weights 1/z^2, then 1/z_hat^2
    from the first fit; ``residual_norm`` is the weighted, relative norm of
    the second. beta is unconstrained and may come out negative. It and
    1/n_init read about sigma^2 high, +1e-4 relative at 1% noise, since
    E[1/(1 + e)] = 1 + sigma^2 for relative noise e; this is not
    corrected. n_init's stderr follows by the delta method, and the
    reduced chi-square is floored at eps: relative noise below sqrt(eps)
    is rounding.

    ``t0`` comes from an independent ground-state decay measurement;
    extras report how much beta moves when t0 is perturbed by +-50%
    (t0_sensitivity), or carry ``beta_consistent_with_zero = True`` when
    beta is not at least twice its stderr. Every density sample must be
    positive: the first that is not raises InputDataError naming its data
    row. A w(t) that underflows to 0 raises ValueError naming t0 and the
    first such row.
    """
    density_series.require_time_axis()
    if t0 <= 0:
        raise InputDataError("t0 must be positive")
    volume = fit_linear(volume_series).params
    v0 = volume["intercept"]
    if v0 <= 0:
        raise InputDataError("volume fit gave a non-positive initial volume")
    alpha = volume["slope"] / v0
    clamped = alpha < 0
    if clamped:
        alpha = 0.0
    t = density_series.x
    y = density_series.y
    row = int(np.argmax(y <= 0))
    if y[row] <= 0:
        raise InputDataError(f"density sample in data row {row + 1} is "
                             f"{float(y[row])!r}; each must be positive")

    def solve(t0_value: float):
        w, integral = _decay_solution(t, t0_value, alpha)
        if w[-1] == 0.0:  # w falls with t, so it is smallest last
            row = int(np.argmax(w == 0.0))
            raise ValueError(f"the decay solution w(t) underflows to 0 at "
                             f"t0 = {t0_value!r} s in data row {row + 1}")
        z = w / y
        design = np.column_stack([np.ones_like(z), integral])
        z_hat = design @ _weighted_line(design, z, 1.0 / z ** 2)[0]
        return _weighted_line(design, z, 1.0 / z_hat ** 2)

    (u, beta), ssr, weighted = solve(t0)
    s2 = max(ssr / (t.size - 2), _EPS) if t.size > 2 else math.nan
    u_err, beta_err = _stderr(weighted, s2)
    result = FitResult(
        params={"n_init": float(1.0 / u), "beta": float(beta)},
        stderr={"n_init": float(u_err / u ** 2), "beta": float(beta_err)},
        residual_norm=math.sqrt(ssr),
        iterations=1,
    )
    if not beta >= 2.0 * beta_err:
        # a shift relative to a beta that the data do not tell from 0
        # means nothing
        result.extras["beta_consistent_with_zero"] = True
    else:
        shifts = [abs(solve(t0 * factor)[0][1] - beta)
                  for factor in (1.5, 0.5)]
        result.extras["t0_sensitivity"] = float(max(shifts) / beta)
    result.extras["volume_v0"] = v0
    result.extras["volume_alpha"] = alpha
    if clamped:
        result.extras["volume_alpha_clamped"] = True
    return result
