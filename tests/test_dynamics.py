import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from mtload import (RateModel, Trajectory, integrate_mt_decay, loading_curve,
                    mot_on_decay_rate, steady_state_population)
from mtload.dynamics import _decay_solution, decay_density_at


def closed_form_decay(t, n0, t0, beta, alpha):
    """Independent solution of the decay equation via the substitution
    u = 1/n (linear first-order ODE, exponential-integral quadrature)."""
    t = np.asarray(t, dtype=float)
    if alpha == 0.0:
        integral = t0 * -np.expm1(-t / t0)
    else:
        a = 1.0 / (alpha * t0)
        integral = (np.exp(a) / alpha) * (special.exp1(a)
                                          - special.exp1(a * (1 + alpha * t)))
    u = np.exp(t / t0) * (1.0 + alpha * t) * (1.0 / n0 + beta * integral)
    return 1.0 / u


def ode_decay(times, n_start, t0, beta, alpha):
    """Independent numerical solution of the decay equation: DOP853 on
    y = log(n/n_start), so the tolerances are relative in n however far
    the density falls."""
    def rhs(t, y):
        return [-1.0 / t0 - beta * n_start * np.exp(y[0])
                - alpha / (1.0 + alpha * t)]

    sol = integrate.solve_ivp(rhs, (times[0], times[-1]), [0.0],
                              method="DOP853", t_eval=times, rtol=1e-12,
                              atol=1e-12)
    assert sol.success, sol.message
    return n_start * np.exp(sol.y[0])


# ------------------------------------------------------------- loading


def test_loading_starts_empty():
    assert loading_curve(1e8, 1.0, 0.0) == 0.0


def test_loading_headline_steady_state():
    n_inf = loading_curve(1e8, 1.0, 60.0)
    assert n_inf == pytest.approx(1e8, rel=1e-9)
    assert steady_state_population(1e8, 1.0) == 1e8


def test_loading_time_constant():
    n0 = steady_state_population(1e8, 1.0)
    assert loading_curve(1e8, 1.0, 1.0) == pytest.approx(
        n0 * (1 - 1 / math.e), rel=1e-12)


def test_loading_zero_gamma_linear_limit():
    assert loading_curve(1e8, 0.0, 2.5) == pytest.approx(2.5e8, rel=1e-15)


def test_loading_monotone_and_bounded(rng):
    for _ in range(10):
        r = float(rng.uniform(1e5, 1e9))
        gamma = float(rng.uniform(0.05, 5.0))
        t = np.linspace(0, 20 / gamma, 300)
        n = loading_curve(r, gamma, t)
        assert np.all(np.diff(n) >= 0)
        assert np.all(n <= r / gamma * (1 + 1e-12))


def test_steady_state_errors_and_scaling():
    assert steady_state_population(0.0, 1.0) == 0.0
    assert steady_state_population(1e8, 2.0) == pytest.approx(5e7)
    with pytest.raises(ValueError):
        steady_state_population(1e8, 0.0)


# ---------------------------------------------------------- decay rates


def test_mot_on_decay_rate_examples():
    assert mot_on_decay_rate(0.0, 1e-15, 0.4, 0.3) == 0.3
    assert mot_on_decay_rate(2.5e15, 1e-15, 0.4) == pytest.approx(1.0)
    # the background correction range used on the measured data
    for g_bg in (1 / 20, 1 / 2):
        total = mot_on_decay_rate(2.5e15, 1e-15, 0.4, g_bg)
        assert total == pytest.approx(1.0 + g_bg)


# ------------------------------------------------------------- decay


@st.composite
def decay_cases(draw):
    """(n0, t0, beta, alpha, times): t0 may be inf, beta and alpha may be
    0, and the grid may start after 0 and hold gaps of 100-200 t0 (of
    1000-2000 s when t0 is inf), at most two so that the closed form's
    exp(t/t0) stays finite."""
    n0 = 10.0 ** draw(st.floats(10.0, 20.0))
    t0 = draw(st.one_of(st.just(math.inf), st.floats(0.1, 1e3)))
    beta = draw(st.one_of(st.just(0.0),
                          st.floats(-20.0, -14.0).map(lambda e: 10.0 ** e)))
    alpha = draw(st.one_of(st.just(0.0), st.floats(1e-3, 100.0)))
    unit = t0 if math.isfinite(t0) else 10.0
    start = draw(st.one_of(st.just(0.0), st.floats(0.01, 5.0)))
    steps = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=15))
    for _ in range(draw(st.integers(0, 2))):
        steps.insert(draw(st.integers(0, len(steps))),
                     draw(st.floats(100.0, 200.0)))
    times = unit * (start + np.cumsum([0.0] + steps))
    return n0, t0, beta, alpha, times


def assert_one_formula(times, t0, alpha, n0, beta, density):
    # the two-body fit solves for (1/n0, beta) in the same (w, I) that
    # decay_density_at divides by: w / (1/n0 + beta I), and n0 at the start
    w, integral = _decay_solution(times, t0, alpha)
    assert w[0] == 1.0 and integral[0] == 0.0 and density[0] == n0
    np.testing.assert_array_equal(density[1:],
                                  (w / (1.0 / n0 + beta * integral))[1:])


@settings(max_examples=80, deadline=None)
@given(decay_cases())
# a 500 s gap at t0 = 3 s: the density falls to 3e-59 m^-3, far below
# any absolute tolerance an integrator would use
@example((1e16, 3.0, 7e-17, 0.1, np.array([0.0, 2.5, 500.0])))
# 20 t0 of pure exponential decay: relative accuracy late in the decay
@example((1e16, 20.0, 0.0, 0.0, np.linspace(0.0, 400.0, 41)))
def test_decay_matches_independent_oracles(case):
    n0, t0, beta, alpha, times = case
    model = RateModel(background_lifetime=t0, two_body_coeff=beta,
                      volume_growth_rate=alpha)
    if math.isfinite(t0) and (alpha == 0.0 or alpha * t0 > 1.0 / 700.0):
        # the exp1 closed form runs from t = 0; start the library at
        # times[0] from the closed form's density there
        expected = closed_form_decay(times, n0, t0, beta, alpha)
        got = decay_density_at(times, float(expected[0]), model)
        np.testing.assert_allclose(got, expected, rtol=1e-11)
    got = decay_density_at(times, n0, model)
    np.testing.assert_allclose(got, ode_decay(times, n0, t0, beta, alpha),
                               rtol=1e-9)
    assert_one_formula(times, t0, alpha, n0, beta, got)


def test_decay_far_past_the_exponential_underflow():
    # 1e12 lifetimes: the density underflows to exactly 0
    n = decay_density_at(np.array([0.0, 1e-3, 1e9]), 1e16,
                         RateModel(background_lifetime=1e-3,
                                   two_body_coeff=7e-17))
    assert n[0] == 1e16 and n[2] == 0.0
    assert n[1] == pytest.approx(1e16 / (math.e * (1 + 7e-17 * 1e16 * 1e-3
                                                   * (1 - 1 / math.e))),
                                 rel=1e-13)


@pytest.mark.parametrize("beta", (0.0, 7e-17))
def test_decay_at_subnormal_lifetime_is_exactly_zero_after_the_start(beta):
    # (t - s)/t0 overflows to inf and exp(-inf) = 0 is the exact limit:
    # no warning, which pytest turns into an error
    n = decay_density_at(np.linspace(0.0, 10.0, 5), 1e16,
                         RateModel(background_lifetime=5e-324,
                                   two_body_coeff=beta))
    np.testing.assert_array_equal(n, [1e16, 0.0, 0.0, 0.0, 0.0])


def test_decay_density_at_single_time():
    np.testing.assert_array_equal(
        decay_density_at([2.0], 1e15, RateModel(background_lifetime=5.0)),
        [1e15])


@pytest.mark.parametrize("t_end", (0.1, 0.3, 0.7, 1.0, 2.5, 3.0, 7.0, 10.0,
                                   30.0, 60.0, 100.0))
def test_step_from_sample_count_gives_that_many_samples(t_end):
    # the simulate-decay pipeline passes dt_hint = t_end / (samples - 1)
    model = RateModel(background_lifetime=60.0)
    for samples in range(2, 400):
        traj = integrate_mt_decay(1e16, model, t_end, t_end / (samples - 1))
        assert len(traj.times) == samples, samples
        assert traj.times[0] == 0.0 and traj.times[-1] == t_end


def test_dt_hint_between_counts_rounds_the_step_count_up():
    traj = integrate_mt_decay(1e16, RateModel(), 1.0, 0.3)
    np.testing.assert_allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_rate_model_validation():
    with pytest.raises(ValueError):
        RateModel(two_body_coeff=-1.0)
    with pytest.raises(ValueError):
        RateModel(background_lifetime=0.0)
    with pytest.raises(ValueError):
        RateModel(initial_volume=0.0)


@pytest.mark.parametrize("field,value", [
    ("two_body_coeff", math.nan), ("two_body_coeff", math.inf),
    ("volume_growth_rate", math.nan), ("volume_growth_rate", math.inf),
    ("background_lifetime", math.nan), ("background_lifetime", -math.inf),
    ("initial_volume", math.nan), ("initial_volume", math.inf),
])
def test_rate_model_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        RateModel(**{field: value})


@pytest.mark.parametrize("beta", (1e300, 1e292))
@pytest.mark.parametrize("n0", (1e16, 3.0603e16))
def test_decay_with_overflowing_two_body_term(beta, n0):
    # beta n0 (1e300) or beta n0 int w (1e292) overflows a double; the
    # density still starts at n0 exactly (1 / (1 / 3.0603e16) is not
    # 3.0603e16) and follows the closed form, with no RuntimeWarning
    times = np.linspace(0.0, 10.0, 101)
    density = decay_density_at(
        times, n0, RateModel(background_lifetime=60.0, two_body_coeff=beta,
                             volume_growth_rate=0.1))
    assert density[0] == n0
    assert np.all(np.isfinite(density)) and np.all(density > 0)
    np.testing.assert_allclose(
        density[1:], closed_form_decay(times[1:], n0, 60.0, beta, 0.1),
        rtol=1e-11)
    assert_one_formula(times, 60.0, 0.1, n0, beta, density)


# 1e-310 is subnormal: 1/n(s) would overflow and the decay read 0
@pytest.mark.parametrize("density", (math.nan, math.inf, 0.0, -1.0, 1e-310))
def test_decay_rejects_bad_initial_density(density):
    with pytest.raises(ValueError, match="initial_density"):
        decay_density_at([0.0, 1.0], density, RateModel())


@pytest.mark.parametrize("times", (
    [0.0, math.nan, 2.0], [0.0, 1.0, math.inf], [[0.0, 1.0]], [],
    [0.0, 2.0, 1.0], [0.0, 1.0, 1.0],
), ids=("nan", "inf", "2-D", "empty", "decreasing", "repeated"))
def test_decay_rejects_bad_times(times):
    with pytest.raises(ValueError, match="times"):
        decay_density_at(times, 1e16, RateModel())


@pytest.mark.parametrize("field,args", [
    ("t_end", (math.inf, 0.1)), ("t_end", (math.nan, 0.1)),
    ("t_end", (0.0, 0.1)), ("dt_hint", (1.0, math.inf)),
    ("dt_hint", (1.0, math.nan)), ("dt_hint", (1.0, 0.0)),
])
def test_integrate_rejects_bad_span(field, args):
    with pytest.raises(ValueError, match=field):
        integrate_mt_decay(1e16, RateModel(), *args)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0, 1.0]),
                   peak_density=np.ones(3), atom_number=np.ones(3),
                   volume=np.ones(3))
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 1.0]),
                   peak_density=np.array([1.0, -1.0]),
                   atom_number=np.ones(2), volume=np.ones(2))
