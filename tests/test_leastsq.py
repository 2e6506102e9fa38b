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
    assert res.converged
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
    assert res.converged
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
