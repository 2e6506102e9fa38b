"""Inverse problems: the four fitting procedures used on the measured
(here: synthetic) data.

* loading-curve fit, N(t) = N0 (1 - exp(-t/tau)), also reporting R = N0/tau
* density-image fit for (n0, shape_b, shape_g), with derived temperature
  and mean magnetic moment
* straight-line least squares (optionally uncertainty-weighted)
* two-body loss coefficient fit through the decay equation with a
  pre-fitted linear volume growth

Initial guesses are data-driven heuristics, never magic constants, and
every fitter is a deterministic function of its inputs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cloud import QuadrupoleField
from .constants import G_ACCEL, K_B, MU_B
from .dynamics import RateModel, decay_density_at
from .errors import GravityAxisError, InputDataError
from .leastsq import FitResult, least_squares
from .species import SpeciesData

_AXIS_LABELS = ("x", "y", "z")


@dataclass(frozen=True)
class SampleSeries:
    """Ordered (x, y) samples with optional 1-sigma uncertainties."""

    x: np.ndarray
    y: np.ndarray
    y_sigma: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.x.ndim != 1 or self.x.shape != self.y.shape:
            raise InputDataError(
                "x and y must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise InputDataError("x and y must be finite")
        if self.y_sigma is not None:
            sig = np.asarray(self.y_sigma, dtype=float)
            if sig.shape != self.x.shape:
                raise InputDataError("y_sigma must match x in length")
            if not np.all(sig > 0):
                raise InputDataError("uncertainties must be positive")
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

    @property
    def line_of_sight(self) -> str:
        """Axis the image integrates over (the one missing from ``axes``)."""
        return next(a for a in _AXIS_LABELS if a not in self.axes)

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Pixel-center coordinate grids along (axes[0], axes[1])."""
        n0, n1 = self.values.shape
        c0 = (np.arange(n0) - (n0 - 1) / 2.0) * self.pitch
        c1 = (np.arange(n1) - (n1 - 1) / 2.0) * self.pitch
        return np.meshgrid(c0, c1, indexing="ij")


def _bessel_kernel(u: np.ndarray) -> np.ndarray:
    """u * K1(u) with the u -> 0 limit of 1 (line-of-sight kernel of the
    trapped-cloud profile)."""
    # scipy is imported here, not at module level: only the density-image
    # model needs it, and it dominates the package's import time
    from scipy import special

    u = np.asarray(u, dtype=float)
    out = np.ones_like(u)
    nz = u > 0
    out[nz] = u[nz] * special.k1(u[nz])
    return out


def profile_model(image: DensityImage, n0: float, shape_b: float,
                  shape_g: float, mode: str = "projection") -> np.ndarray:
    """Forward model of the image for peak density n0 and shape (B, G).

    Projection along the coil axis z:   (n0/B) e^{-G y} k(B rho),
    projection along a radial axis x:  (2 n0/B) e^{-G y} k(B q),
    slice through the origin:           n0 e^{-B rho - G y},
    with k(u) = u K1(u), rho = sqrt(x^2+y^2), q = sqrt(y^2+4z^2).
    """
    c0, c1 = image.coordinates()
    coords = {image.axes[0]: c0, image.axes[1]: c1}
    y = coords["y"]
    if mode == "slice":
        other = next(a for a in image.axes if a != "y")
        scale = 2.0 if other == "z" else 1.0
        r = np.sqrt(coords[other] ** 2 * scale ** 2 + y ** 2)
        return n0 * np.exp(-shape_b * r - shape_g * y)
    if mode != "projection":
        raise ValueError(f"unknown mode {mode!r}")
    los = image.line_of_sight
    if los == "z":
        rho = np.hypot(coords["x"], y)
        front = n0 / shape_b
    else:  # integrate along x; the remaining transverse coordinate is z
        rho = np.sqrt(y ** 2 + 4.0 * coords["z"] ** 2)
        front = 2.0 * n0 / shape_b
    return front * np.exp(-shape_g * y) * _bessel_kernel(shape_b * rho)


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
    from .tables import ResultTable  # local import keeps tables decoupled

    c0, c1 = image.coordinates()
    unit = "1/m^3" if mode == "slice" else "1/m^2"
    rows = [
        (float(c0[i, j]), float(c1[i, j]), float(image.values[i, j]))
        for i in range(image.values.shape[0])
        for j in range(image.values.shape[1])
    ]
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
    from .errors import ConfigError

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
    axes = tuple(a.strip() for a in meta["image-axes"].split(","))
    if len(axes) != 2:
        raise ConfigError("image-axes must name two axes")
    if meta["image-mode"] not in ("projection", "slice"):
        raise ConfigError(f"unknown image-mode {meta['image-mode']!r}: "
                          "expected projection or slice")
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
    tau from the first time the curve reaches (1 - 1/e) of it. If the
    fitted tau exceeds the data span the result is flagged low-confidence
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
    target = (1.0 - 1.0 / math.e) * n0_guess
    above = np.nonzero(y >= target)[0]
    span = float(t[-1] - t[0])
    tau_guess = float(t[above[0]]) if above.size else span / 3.0
    if tau_guess <= 0:
        tau_guess = span / len(t)
    weight = 1.0 if data.y_sigma is None else 1.0 / data.y_sigma

    def residual(p):
        n0, tau = p
        return (n0 * -np.expm1(-t / tau) - y) * weight

    result = least_squares(residual, [n0_guess, tau_guess], ("N0", "tau"),
                           lower_bounds=[0.0, 1e-300])
    n0, tau = result.params["N0"], result.params["tau"]
    result.extras["R"] = n0 / tau
    if tau > span:
        result.extras["low_confidence"] = True
    return result


def fit_linear(data: SampleSeries) -> FitResult:
    """Straight-line least squares, uncertainty-weighted when sigmas are
    present. Closed form, no iteration."""
    x, y = data.x, data.y
    if len(x) < 3:
        raise InputDataError("need at least 3 points for a line fit")
    if np.all(x == x[0]):
        raise InputDataError("degenerate data: x has zero variance")
    w = np.ones_like(x) if data.y_sigma is None else 1.0 / data.y_sigma ** 2
    design = np.column_stack([x, np.ones_like(x)])
    wd = design * w[:, None]
    normal = design.T @ wd
    rhs = wd.T @ y
    coef = np.linalg.solve(normal, rhs)
    resid = y - design @ coef
    ssr_w = float(resid @ (w * resid))
    cov = np.linalg.inv(normal)
    if data.y_sigma is None:
        dof = len(x) - 2
        cov = cov * (ssr_w / dof if dof > 0 else 0.0)
    stderr = np.sqrt(np.diag(cov))
    return FitResult(
        params={"slope": float(coef[0]), "intercept": float(coef[1])},
        stderr={"slope": float(stderr[0]), "intercept": float(stderr[1])},
        residual_norm=math.sqrt(ssr_w),
        converged=True,
        iterations=1,
    )


def _image_initial_guess(image: DensityImage, mode: str):
    c0, c1 = image.coordinates()
    coords = {image.axes[0]: c0, image.axes[1]: c1}
    y = coords["y"]
    v = image.values
    total = float(v.sum())
    if total <= 0:
        raise InputDataError("degenerate image: all pixels zero")
    if mode == "projection" and image.line_of_sight == "x":
        radial = np.sqrt(y ** 2 + 4.0 * coords["z"] ** 2)
    else:
        other = next(a for a in image.axes if a != "y")
        radial = np.hypot(coords[other], y)
    r_mean = float((v * radial).sum() / total)
    if r_mean <= 0:
        raise InputDataError("degenerate image: no spatial extent")
    # intensity-weighted mean radius of the model: (3 pi/4)/B projected,
    # 2/B for the slice profile
    b0 = (3.0 * math.pi / 4.0) / r_mean if mode == "projection" else 2.0 / r_mean
    peak = float(v.max())
    if mode == "slice":
        n0_0 = peak
    elif image.line_of_sight == "z":
        n0_0 = peak * b0
    else:
        n0_0 = peak * b0 / 2.0
    # sag from the vertical log-asymmetry one mean radius above/below the
    # horizontal center of the image
    axis0_is_y = image.axes[0] == "y"
    vert_coords = c0[:, 0] if axis0_is_y else c1[0, :]
    j_mid = (v.shape[1] if axis0_is_y else v.shape[0]) // 2
    column = v[:, j_mid] if axis0_is_y else v[j_mid, :]
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
    land in extras together with propagated uncertainties. A fit that
    converges to shape_g <= 0 raises GravityAxisError: the sag points the
    wrong way, so the vertical axis is misidentified.
    """
    n0_0, b0, g0 = _image_initial_guess(image, mode)
    flat = image.values.ravel()

    def residual(p):
        n0, shape_b, shape_g = p
        return (profile_model(image, n0, shape_b, shape_g, mode).ravel()
                - flat)

    result = least_squares(residual, [n0_0, b0, g0],
                           ("n0", "shape_b", "shape_g"))
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
    result.extras.update(
        temperature=temperature,
        temperature_stderr=temperature * rel_g,
        mu_bar=mu_bar,
        mu_bar_stderr=mu_bar * math.hypot(rel_b, rel_g),
        mu_bar_physical_range=(species.lande_g_d * 1.0 * MU_B,
                               species.lande_g_d * 4.0 * MU_B),
        mode=mode,
    )
    return result


def fit_volume_growth(volume_series: SampleSeries) -> tuple[float, float]:
    """Linear fit of the volume history; returns (V0, alpha) for
    V(t) = V0 (1 + alpha t)."""
    fit = fit_linear(volume_series)
    v0 = fit.params["intercept"]
    if v0 <= 0:
        raise ValueError("volume fit gave a non-positive initial volume")
    alpha = fit.params["slope"] / v0
    if alpha < 0:
        alpha = 0.0
    return v0, alpha


def fit_two_body_loss(density_series: SampleSeries, t0: float,
                      volume_series: SampleSeries) -> FitResult:
    """Single-parameter fit of the two-body coefficient beta.

    The volume history is fitted linearly first; every model evaluation
    then takes the exact solution of the decay equation from the first
    density sample (``decay_density_at``).
    ``t0`` comes from an independent ground-state decay measurement.
    extras report how much the fitted beta moves when t0 is perturbed by
    +-50% (the t0_sensitivity fraction) and whether a negative beta
    iterate had to be clamped.
    """
    density_series.require_time_axis()
    if t0 <= 0:
        raise InputDataError("t0 must be positive")
    v0, alpha = fit_volume_growth(volume_series)
    t = density_series.x
    y = density_series.y
    if y[0] <= 0:
        raise InputDataError("first density sample must be positive")
    n_init = float(y[0])

    def fit_beta(t0_value: float) -> FitResult:
        def residual(p):
            model = RateModel(background_lifetime=t0_value,
                              two_body_coeff=max(float(p[0]), 0.0),
                              initial_volume=v0, volume_growth_rate=alpha)
            return decay_density_at(t, n_init, model) - y

        # early-time excess decay rate over background and dilution sets
        # the starting beta
        dt = t[1] - t[0]
        rate0 = -(y[1] - y[0]) / (dt * n_init)
        excess = rate0 - 1.0 / t0_value - alpha / (1.0 + alpha * t[0])
        beta0 = max(excess / n_init, 1e-3 / (n_init * (t[-1] - t[0])))
        return least_squares(residual, [beta0], ("beta",),
                             lower_bounds=[0.0])

    result = fit_beta(t0)
    beta = result.params["beta"]
    shifts = []
    for factor in (1.5, 0.5):
        perturbed = fit_beta(t0 * factor).params["beta"]
        shifts.append(abs(perturbed - beta))
    if beta > 0:
        result.extras["t0_sensitivity"] = max(shifts) / beta
    else:
        result.extras["t0_sensitivity"] = float("nan")
    result.extras["volume_v0"] = v0
    result.extras["volume_alpha"] = alpha
    return result
