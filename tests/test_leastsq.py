import warnings

import numpy as np
import pytest

from mtload import FitNotConvergedError, leastsq
from mtload.leastsq import least_squares, numeric_jacobian


def test_jacobian_against_analytic():
    t = np.linspace(0.1, 4.0, 15)

    def residual(p):
        return p[0] * np.exp(-p[1] * t)

    x = np.array([2.5, 0.7])
    jac = numeric_jacobian(residual, x)
    np.testing.assert_allclose(jac[:, 0], np.exp(-x[1] * t), rtol=1e-7)
    np.testing.assert_allclose(jac[:, 1], -x[0] * t * np.exp(-x[1] * t),
                               rtol=1e-6)


def test_exponential_recovery_noiseless():
    t = np.linspace(0.0, 5.0, 40)
    y = 3.2 * np.exp(-0.8 * t)

    def residual(p):
        return p[0] * np.exp(-p[1] * t) - y

    res = least_squares(residual, [1.0, 0.3], ("a", "k"))
    assert 1 <= res.iterations < 200
    assert res.params["a"] == pytest.approx(3.2, rel=1e-8)
    assert res.params["k"] == pytest.approx(0.8, rel=1e-8)
    assert res.residual_norm < 1e-8


def test_deterministic_repeat():
    t = np.linspace(0.0, 5.0, 40)
    rng = np.random.default_rng(5)
    y = 3.2 * np.exp(-0.8 * t) * (1 + 0.02 * rng.standard_normal(t.shape))

    def residual(p):
        return p[0] * np.exp(-p[1] * t) - y

    r1 = least_squares(residual, [1.0, 0.3], ("a", "k"))
    r2 = least_squares(residual, [1.0, 0.3], ("a", "k"))
    assert r1.params == r2.params
    assert r1.iterations == r2.iterations


def test_stderr_reasonable_for_linear_model(rng):
    # straight line with known noise: slope error should be near the
    # textbook value sigma/sqrt(sum (x - xbar)^2)
    x = np.linspace(0, 10, 50)
    noise = 0.5
    y = 2.0 * x + 1.0 + noise * rng.standard_normal(x.shape)

    def residual(p):
        return p[0] * x + p[1] - y

    res = least_squares(residual, [1.0, 0.0], ("slope", "intercept"))
    textbook = noise / np.sqrt(np.sum((x - x.mean()) ** 2))
    assert res.stderr["slope"] == pytest.approx(textbook, rel=0.5)


def test_non_convergence_carries_best_iterate(monkeypatch):
    # the error names the budget and the residual norm reached; a failed
    # fit takes one Jacobian per iteration and none for standard errors
    monkeypatch.setattr(leastsq, "_MAX_ITER", 2)
    jacobians = []

    def counted_jacobian(residual_fn, x):
        jacobians.append(x)
        return numeric_jacobian(residual_fn, x)

    monkeypatch.setattr(leastsq, "numeric_jacobian", counted_jacobian)
    t = np.linspace(0.0, 5.0, 40)
    y = 3.2 * np.exp(-0.8 * t)

    def residual(p):
        return p[0] * np.exp(-p[1] * t) - y

    with pytest.raises(FitNotConvergedError,
                       match=r"within 2 iterations \(residual norm "):
        least_squares(residual, [100.0, 5.0], ("a", "k"))
    assert len(jacobians) == 2


def test_refused_steps_keep_parameter_in_domain():
    # the unconstrained optimum is slope = -0.5; the residual marks
    # slope <= 0 as outside the domain, so steps there are shortened
    x_data = np.linspace(0, 1, 20)
    y = -0.5 * x_data
    proposed = []

    def residual(p):
        proposed.append(p[0])
        if not p[0] > 0.0:
            return np.full(x_data.size, np.inf)
        return p[0] * x_data - y

    res = least_squares(residual, [1.0], ("slope",))
    assert min(proposed) <= 0.0
    assert 1 <= res.iterations < 200
    assert 0.0 < res.params["slope"] < 1e-3
    assert np.isfinite(res.stderr["slope"]) and np.isfinite(res.residual_norm)
    assert "clamped" not in res.extras


@pytest.mark.parametrize("start,outside", [([-1.0], np.inf),
                                           ([0.0], np.nan),
                                           ([np.nan], np.inf)])
def test_start_outside_domain_raises(start, outside):
    x_data = np.linspace(0, 1, 20)
    calls = []

    def residual(p):
        calls.append(p.copy())
        if not p[0] > 0.0:
            return np.full(x_data.size, outside)
        return p[0] * x_data - x_data

    with pytest.raises(ValueError, match="start point"):
        least_squares(residual, start, ("slope",))
    # the residual it already evaluates at x0 decides: no extra call
    assert len(calls) == 1


def test_input_validation():
    with pytest.raises(ValueError):
        least_squares(lambda p: p, [1.0, 2.0], ("only-one",))


def test_no_residual_dof_gives_nan_stderr():
    # as many residuals as parameters: the fit is exact and the error scale
    # unknown, so no stderr may read as an exact 0
    def residual(p):
        return np.array([p[0] - 1.0, p[0] + p[1] - 3.0])

    res = least_squares(residual, [0.0, 0.0], ("a", "b"))
    assert res.params["a"] == pytest.approx(1.0)
    assert res.params["b"] == pytest.approx(2.0)
    assert all(np.isnan(v) for v in res.stderr.values())


def test_stall_names_its_iteration():
    # finite only at its start point: no step is ever accepted, so the fit
    # stops in its first iteration and says so, not that a budget ran out
    def residual(p):
        if p[0] != 1.0:
            return np.full(2, np.nan)
        return np.array([1.0, 2.0])

    with pytest.raises(FitNotConvergedError,
                       match=r"^stalled at iteration 1: no step lowers the "
                             r"sum of squares \(residual norm 2\.236068e\+00\)"):
        least_squares(residual, [1.0], ("a",))


def test_infinite_residual_on_both_sides_stalls_without_warning():
    # infinite on both sides of the start point, so each Jacobian column
    # is inf - inf: the NaN column refuses every step, silently
    def residual(p):
        if p[0] != 1.0:
            return np.full(2, np.inf)
        return np.array([1.0, 2.0])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FitNotConvergedError,
                           match=r"^stalled at iteration 1"):
            least_squares(residual, [1.0], ("a",))


def test_zero_jacobian_column_gives_nan_stderr():
    # a parameter that moves no residual is free: no step along it and the
    # error NaN, never an exact 0; its orthogonal partners keep the
    # solution and the error 1 / ||column||, however unlike their sizes are
    jac = np.array([[3.0, 0.0, 0.0],
                    [0.0, 1e17, 0.0],
                    [4.0, 0.0, 0.0],
                    [0.0, 1e17, 0.0]])
    c, stderr = leastsq._lstsq(jac, np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.isnan(stderr[2]) and c[2] == 0.0
    assert c[0] == pytest.approx(15.0 / 25.0, rel=1e-15, abs=0)
    assert c[1] == pytest.approx(3e-17, rel=1e-15, abs=0)
    assert stderr[0] == pytest.approx(1.0 / 5.0, rel=1e-15, abs=0)
    assert stderr[1] == pytest.approx(1.0 / (np.sqrt(2.0) * 1e17),
                                      rel=1e-15, abs=0)


@pytest.mark.parametrize("lam", [0.0, 1e-3, 1.0, 1e3])
def test_step_and_errors_match_the_normal_equations(rng, lam):
    # the normal equations, kept only here as the reference: on a
    # well-conditioned J the SVD's step solves
    # (J^T J + lam diag(J^T J)) s = -J^T r, and its errors are
    # sqrt(diag((J^T J)^-1))
    jac = rng.standard_normal((20, 4)) * [1.0, 1e3, 1e-2, 5.0]
    r = rng.standard_normal(20)
    jtj = jac.T @ jac
    step, err = leastsq._lstsq(jac, -r, lam)
    expected = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)), -jac.T @ r)
    np.testing.assert_allclose(step, expected, rtol=1e-12, atol=0)
    np.testing.assert_allclose(err, np.sqrt(np.diag(np.linalg.inv(jtj))),
                               rtol=1e-12, atol=0)


def test_jacobian_reaching_outside_domain_gives_nan_stderr():
    # the fit stops 1e-7 inside its domain p > 1, closer than the
    # Jacobian's step, so one difference is infinite: the error is unknown
    # (NaN), where an inverse of the infinite J^T J once gave 0.0
    def residual(p):
        if not p[0] > 1.0:
            return np.full(2, np.inf)
        return np.array([p[0], 1e6])

    res = least_squares(residual, [2.0000002], ("p",))
    assert res.params["p"] == pytest.approx(1.0000001, rel=1e-15, abs=0.0)
    assert np.isnan(res.stderr["p"])
