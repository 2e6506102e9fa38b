"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them all).
Tolerances are pinned here and nowhere else."""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from mtload import (MotCloud, PumpingDistribution, QuadrupoleField,
                    RateModel, chromium52, effective_volume,
                    integrate_mt_decay, loading_curve, overlap_correction,
                    phase_space_density, predict_mt_temperature,
                    simulate_transfer, steady_state_population)
from mtload.cli import main
from mtload.cloud import VIRIAL_TRANSFER_PREFACTOR, shape_params
from mtload.constants import MU_B
from mtload.dynamics import decay_density_at
from mtload.estimation import (DensityImage, SampleSeries, fit_density_image,
                               fit_loading_curve, fit_two_body_loss,
                               render_density_image)
from mtload.mc import seed_stream
from mtload.pipelines import figure2, figure3
from mtload.scenario import parse_scenario

CR = chromium52()


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"[criterion {num}] FAIL: {description}")
        raise
    print(f"[criterion {num}] PASS: {description}")


def test_criterion_1_headline_steady_state():
    with criterion(1, "steady state 1e8 at R=1e8/s, Gamma=1/s; 95% by 3 s"):
        n0 = steady_state_population(1e8, 1.0)
        assert n0 == pytest.approx(1e8, rel=1e-9)
        n3 = loading_curve(1e8, 1.0, 3.0)
        assert n3 == pytest.approx(1e8 * -math.expm1(-3.0), rel=1e-9)
        assert n3 >= 0.95 * n0


def test_criterion_2_phase_space_density():
    with criterion(2, "psd(1e16 m^-3, 50 uK) inside [3.5e-7, 4.5e-7]"):
        psd = phase_space_density(1e16, 50e-6, CR)
        assert 3.5e-7 <= psd <= 4.5e-7
        assert psd > 1e-7


def test_criterion_3_virial_oracle():
    with criterion(3, "MC transfer temperature within 2% of the analytic "
                      "prediction over the full parameter grid"):
        for sigma in (0.0, 100e-6, 200e-6):
            for gradient in (0.1, 0.2):
                for g_d_m in (4.5, 6.0):
                    mean_m = int(round(g_d_m / CR.lande_g_d))
                    field = QuadrupoleField(gradient)
                    cloud = MotCloud(size_sigma=sigma, temperature=300e-6,
                                     atom_number=1e7)
                    mu_bar = CR.lande_g_d * mean_m * MU_B
                    predicted = predict_mt_temperature(cloud, field, mu_bar)
                    label = f"acc3-{sigma}-{gradient}-{mean_m}"
                    report = simulate_transfer(
                        cloud, PumpingDistribution.point(mean_m), field, CR,
                        100_000, seed_stream(314, label))
                    assert abs(report.temperature_mc / predicted - 1) < 0.02
                    if sigma == 0.0:
                        stat = max(report.temperature_stderr, 1e-12)
                        assert abs(report.temperature_mc
                                   - cloud.temperature / 3.0) < 3 * stat


def test_criterion_4_prefactor_and_mean_radius():
    with criterion(4, "8/(9 sqrt(2 pi)) equals (2/9) sqrt(8/pi) to 1e-12; "
                      "MC mean radius matches sqrt(8/pi) sigma"):
        lhs = VIRIAL_TRANSFER_PREFACTOR
        rhs = (2.0 / 9.0) * math.sqrt(8.0 / math.pi)
        assert abs(lhs - rhs) < 1e-12
        report = simulate_transfer(
            MotCloud(200e-6, 300e-6, 1e7), PumpingDistribution.point(4),
            QuadrupoleField(0.2), CR, 100_000, seed_stream(314, "acc4"))
        diff = abs(report.mean_radius - report.mean_radius_expected)
        assert diff < 3 * report.mean_radius_stderr


def test_criterion_5_integrator_vs_closed_forms():
    with criterion(5, "decay integrator matches exponential and two-body "
                      "closed forms to 1e-6; dilution conserves N to 1e-9"):
        t0 = 20.0
        traj = integrate_mt_decay(1e16, RateModel(background_lifetime=t0),
                                  3 * t0, t0 / 40)
        np.testing.assert_allclose(traj.peak_density,
                                   1e16 * np.exp(-traj.times / t0),
                                   rtol=1e-6)
        beta, n_start = 7e-17, 1e16
        t_char = 1.0 / (beta * n_start)
        traj = integrate_mt_decay(n_start, RateModel(two_body_coeff=beta),
                                  3 * t_char, t_char / 40)
        np.testing.assert_allclose(
            traj.peak_density, n_start / (1 + beta * n_start * traj.times),
            rtol=1e-6)
        traj = integrate_mt_decay(
            1e16, RateModel(initial_volume=1.5e-9, volume_growth_rate=0.2),
            30.0, 0.25)
        np.testing.assert_allclose(traj.atom_number, traj.atom_number[0],
                                   rtol=1e-9)


def test_criterion_6a_loading_fit_round_trip():
    with criterion("6a", "loading fit recovers N0 and tau within 5% at 3% "
                         "noise in at least 95% of 200 trials"):
        successes = 0
        for trial in range(200):
            rng = seed_stream(628, f"acc6a-{trial}")
            t = np.linspace(0.0, 5.0, 30)
            y = 1e8 * -np.expm1(-t)
            y = y * (1.0 + 0.03 * rng.standard_normal(t.shape))
            sigma = 0.03 * np.maximum(np.abs(y), 1e-3 * np.max(np.abs(y)))
            res = fit_loading_curve(SampleSeries(t, y, sigma))
            if (abs(res.params["N0"] / 1e8 - 1) < 0.05
                    and abs(res.params["tau"] - 1.0) < 0.05):
                successes += 1
        assert successes >= 190


def test_criterion_6b_density_image_fit():
    with criterion("6b", "image fit at 5% pixel noise: T within 10%, mean "
                         "moment inside the (4.5-6) mu_B band"):
        field = QuadrupoleField(0.1)
        mu_true = 5.25 * MU_B  # mean m = 3.5, mid-band
        b_shape, g_shape = shape_params(100e-6, mu_true, field, CR)
        base = render_density_image(1e16, b_shape, g_shape, pitch=4e-5,
                                    shape=(64, 64))
        for trial in range(5):
            rng = seed_stream(628, f"acc6b-{trial}")
            noisy = np.clip(
                base.values * (1 + 0.05 *
                               rng.standard_normal(base.values.shape)),
                0.0, None)
            res = fit_density_image(
                DensityImage(noisy, base.pitch, base.axes), field, CR)
            assert abs(res.extras["temperature"] / 100e-6 - 1) < 0.10
            assert 4.5 * MU_B <= res.extras["mu_bar"] <= 6.0 * MU_B


def test_criterion_6c_figure3_cross_section():
    with criterion("6c", "figure-3 pipeline recovers sigma_ed = 1e-15 m^2 "
                         "within 15% at 10% noise"):
        sc = parse_scenario("noise.sigma_rel = 0.10")
        _, fit = figure3(sc)
        assert abs(fit.params["slope"] / 1e-15 - 1) < 0.15


def test_criterion_6d_two_body_fit():
    with criterion("6d", "beta fit: 7e-17 m^3/s within 1e-4 noiseless, "
                         "under 15% shift for t0 varied by +-50%"):
        t = np.linspace(0.0, 10.0, 60)
        model = RateModel(background_lifetime=60.0, two_body_coeff=7e-17,
                          initial_volume=1.4e-9, volume_growth_rate=0.1)
        density = SampleSeries(t, decay_density_at(t, 1e16, model))
        volume = SampleSeries(t, 1.4e-9 * (1 + 0.1 * t))
        res = fit_two_body_loss(density, 60.0, volume)
        assert abs(res.params["beta"] / 7e-17 - 1) < 1e-4
        assert res.extras["t0_sensitivity"] < 0.15


def test_criterion_7_volume_and_overlap():
    with criterion(7, "volume quadrature equals 4 pi/B^3 within 1e-4 across "
                      "three decades; overlap(0.25) inside [0.5, 0.8]"):
        for b_shape in (500.0, 2000.0, 8000.0):
            assert effective_volume(b_shape, 0.0) == pytest.approx(
                4 * math.pi / b_shape ** 3, rel=1e-4, abs=0.0)
        f = overlap_correction(0.25)
        assert 0.5 <= f <= 0.8


def test_criterion_8_efficiency_ordering():
    with criterion(8, "figure-2 pipeline orders the recovered efficiencies "
                      "eta(-2) > eta(-5) > eta(-8), all inside [0, 1]"):
        _, fits = figure2(parse_scenario(""))
        etas = {f.detuning_linewidths: f.efficiency for f in fits}
        assert etas[-2.0] > etas[-5.0] > etas[-8.0]
        assert all(0.0 <= e <= 1.0 for e in etas.values())


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "every CLI command is byte-identical across two runs "
                      "with the same scenario and seed"):
        cfg = tmp_path / "acc.cfg"
        cfg.write_text("mc.particles = 20000\nnoise.sigma_rel = 0.05\n",
                       encoding="utf-8")
        data = tmp_path / "data.csv"
        assert main(["simulate-loading", "--scenario", str(cfg),
                     "--seed", "9", "--out", str(data)]) == 0
        commands = [
            ["simulate-loading"], ["simulate-decay"], ["figure2"],
            ["figure3"], ["figure4"], ["mc-transfer"],
            ["fit", "loading-curve", str(data)],
        ]
        for cmd in commands:
            outputs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{'-'.join(cmd[:1])}-{tag}.csv"
                code = main(cmd + ["--scenario", str(cfg), "--seed", "9",
                                   "--out", str(out)])
                assert code == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1]
