"""Small dense nonlinear least squares.

Damped Gauss-Newton (Levenberg-style) iteration on a user-supplied
residual function; the residual callable is the whole contract. Jacobians
are numeric central differences with a relative step of 1e-6. Iteration is
declared converged when the relative parameter change falls below 1e-8 or
the relative change of the residual norm below 1e-10; exhausting the
iteration budget raises FitNotConvergedError. No randomized restarts:
results are deterministic functions of the input.

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


@dataclass
class FitResult:
    """Fitted parameters with curvature-based standard errors.

    ``extras`` carries fitter-specific derived quantities (for example the
    loading rate R = N0/tau, or a fitted temperature).
    """

    params: dict[str, float]
    stderr: dict[str, float]
    residual_norm: float
    converged: bool
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
        jac[:, j] = (rp - rm) / (xp[j] - xm[j])
    return jac


def _covariance(jac: np.ndarray, ssr: float) -> np.ndarray:
    m, n = jac.shape
    jtj = jac.T @ jac
    try:
        inv = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        inv = np.linalg.pinv(jtj)
    dof = m - n
    # with no residual degree of freedom the scale, so every error, is
    # unknown: NaN, never an exact 0
    s2 = ssr / dof if dof > 0 else math.nan
    return s2 * inv


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
    converged = False
    iterations = 0

    for iterations in range(1, _MAX_ITER + 1):
        jac = numeric_jacobian(residual_fn, x)
        jtj = jac.T @ jac
        grad = jac.T @ r
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = 1.0
        accepted = False
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
                accepted = True
                break
            lam *= _LAMBDA_GROW
        if not accepted:
            break

        dx_rel = np.max(np.abs(x_new - x) / np.maximum(np.abs(x_new), 1e-300))
        df_rel = abs(math.sqrt(ssr) - math.sqrt(ssr_new)) / max(
            math.sqrt(ssr), 1e-300)
        x, r, ssr = x_new, r_new, ssr_new
        lam = max(lam * _LAMBDA_SHRINK, 1e-12)
        if dx_rel < _XTOL or df_rel < _FTOL:
            converged = True
            break

    if not converged:
        raise FitNotConvergedError(
            f"no convergence within {_MAX_ITER} iterations "
            f"(residual norm {math.sqrt(ssr):.6e})")
    jac = numeric_jacobian(residual_fn, x)
    cov = _covariance(jac, ssr)
    stderr = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return FitResult(
        params=dict(zip(names, x.tolist())),
        stderr=dict(zip(names, stderr.tolist())),
        residual_norm=math.sqrt(ssr),
        converged=converged,
        iterations=iterations,
    )
