"""Small dense nonlinear least squares.

Damped Gauss-Newton (Levenberg-style) iteration on a user-supplied
residual function; the residual callable is the whole contract. Jacobians
are numeric central differences with a relative step of 1e-6. Iteration
stops when the relative parameter change falls below 1e-8 or the
relative change of the residual norm below 1e-10; exhausting the
iteration budget, or a stall where no step lowers the sum of squares,
raises FitNotConvergedError. No randomized restarts: results are
deterministic functions of the input.

Every fit's standard errors, the closed-form fits' in ``estimation``
included, come from one routine: sqrt(s2 diag((J^T J)^-1)), s2 the
reduced chi-square, from the SVD of the Jacobian or weighted design with
its columns scaled to unit norm. They are NaN, never an exact 0, for a
parameter the data leave free or when no degree of freedom is left.

A residual that is not finite marks a point outside the model's domain. A
step whose sum of squares is infinite or NaN is never accepted: the damping
grows and the step shortens until it stays inside. So a fitter keeps a
parameter in its domain by returning a non-finite residual outside it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FitNotConvergedError

_MAX_ITER = 200
_XTOL = 1e-8
_FTOL = 1e-10
_REL_STEP = 1e-6

_LAMBDA0 = 1e-3
_LAMBDA_SHRINK = 0.3
_LAMBDA_GROW = 10.0
_LAMBDA_MAX = 1e12
_EPS = np.finfo(float).eps


@dataclass
class FitResult:
    """Fitted parameters with curvature-based standard errors.

    ``extras`` holds derived values (for example R = N0/tau) and bool
    flags (``low_confidence``). ``stderr`` holds the errors of parameters
    and derived values alike, by name; a value without one has no entry.
    A fit table lists the parameters, then the derived values (stderr NaN
    where there is no entry), and notes iterations, residual_norm, flags.
    """

    params: dict[str, float]
    stderr: dict[str, float]
    residual_norm: float
    iterations: int
    extras: dict = field(default_factory=dict)


def numeric_jacobian(residual_fn, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of the residual vector at x."""
    x = np.asarray(x, dtype=float)
    r0 = np.asarray(residual_fn(x), dtype=float)
    jac = np.empty((r0.size, x.size))
    for j in range(x.size):
        h = _REL_STEP * abs(x[j])
        if h == 0.0:
            h = _REL_STEP
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        rp = np.asarray(residual_fn(xp), dtype=float)
        rm = np.asarray(residual_fn(xm), dtype=float)
        # inf - inf gives a NaN column: its step is refused, its stderr NaN
        with np.errstate(invalid="ignore"):
            jac[:, j] = (rp - rm) / (xp[j] - xm[j])
    return jac


def _stderr(jac: np.ndarray, s2: float) -> np.ndarray:
    """Standard errors sqrt(s2 diag((J^T J)^-1)) from the SVD of J.

    J's columns are scaled to unit norm first, so that parameters of very
    different size do not look degenerate. A singular value at or below
    max(m, n) eps s_max marks a direction the data leave free, and a
    parameter whose weight in such a direction exceeds sqrt(eps) gets NaN,
    never an exact 0; so does every parameter of a non-finite J.
    """
    if not np.all(np.isfinite(jac)):
        return np.full(jac.shape[1], math.nan)
    norms = np.linalg.norm(jac, axis=0)
    norms[norms == 0.0] = 1.0
    _, sv, vt = np.linalg.svd(jac / norms, full_matrices=False)
    free = sv <= max(jac.shape) * _EPS * sv[0]
    var = np.sum((vt[~free] / sv[~free, None]) ** 2, axis=0)
    var[np.any(np.abs(vt[free]) > math.sqrt(_EPS), axis=0)] = math.nan
    return np.sqrt(s2 * var) / norms


def least_squares(residual_fn, x0, names: tuple[str, ...]) -> FitResult:
    """Minimize sum(residual_fn(x)^2) starting at x0.

    Every accepted iterate has a finite sum of squares, so the fit stays in
    the domain on which residual_fn is finite. x0 must lie inside it: a
    ValueError is raised when the sum of squares at x0 is not finite.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.ndim != 1 or len(names) != x.size:
        raise ValueError("x0 and names must have matching lengths")

    r = np.asarray(residual_fn(x), dtype=float)
    ssr = float(r @ r)
    if not math.isfinite(ssr):
        raise ValueError(f"the residual at the start point {x.tolist()} is "
                         "not finite: it lies outside the model's domain")
    lam = _LAMBDA0

    for iterations in range(1, _MAX_ITER + 1):
        jac = numeric_jacobian(residual_fn, x)
        jtj = jac.T @ jac
        grad = jac.T @ r
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = 1.0
        while lam <= _LAMBDA_MAX:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= _LAMBDA_GROW
                continue
            x_new = x + step
            r_new = np.asarray(residual_fn(x_new), dtype=float)
            ssr_new = float(r_new @ r_new)
            # False for an infinite or NaN ssr_new: the step is refused
            if ssr_new <= ssr:
                break
            lam *= _LAMBDA_GROW
        else:
            raise FitNotConvergedError(
                f"stalled at iteration {iterations}: no step lowers the sum "
                f"of squares (residual norm {math.sqrt(ssr):.6e})")

        dx_rel = np.max(np.abs(x_new - x) / np.maximum(np.abs(x_new), 1e-300))
        df_rel = abs(math.sqrt(ssr) - math.sqrt(ssr_new)) / max(
            math.sqrt(ssr), 1e-300)
        x, r, ssr = x_new, r_new, ssr_new
        lam = max(lam * _LAMBDA_SHRINK, 1e-12)
        if dx_rel < _XTOL or df_rel < _FTOL:
            break
    else:
        raise FitNotConvergedError(
            f"no convergence within {_MAX_ITER} iterations "
            f"(residual norm {math.sqrt(ssr):.6e})")
    dof = r.size - x.size
    # with no residual degree of freedom the scale, so every error, is
    # unknown: NaN, never an exact 0
    s2 = ssr / dof if dof > 0 else math.nan
    stderr = _stderr(numeric_jacobian(residual_fn, x), s2)
    return FitResult(
        params=dict(zip(names, x.tolist())),
        stderr=dict(zip(names, stderr.tolist())),
        residual_norm=math.sqrt(ssr),
        iterations=iterations,
    )
