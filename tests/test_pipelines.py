import numpy as np
import pytest

from mtload import pipelines
from mtload.pipelines import (figure2, figure3, figure4, loading_context,
                              mc_transfer, simulate_decay, simulate_loading)
from mtload.scenario import parse_scenario
from mtload.tables import parse_csv


def col(table, name):
    return parse_csv(table.to_csv()).column(name)


def test_default_context_hits_headline_operating_point():
    sc = parse_scenario("")
    ctx = loading_context(sc)
    n0 = ctx.rate / ctx.gamma_total
    tau = 1.0 / ctx.gamma_total
    # headline operating point: about 1e8 atoms accumulated in about 1 s
    assert 2e7 <= n0 <= 5e8
    assert 0.2 <= tau <= 5.0
    assert 1e7 <= ctx.rate <= 1e9


def test_simulate_loading_saturates():
    sc = parse_scenario("sim.t_end_s = 20\nsim.samples = 200")
    table = simulate_loading(sc)
    n = col(table, "N_MT")
    ctx = loading_context(sc)
    assert n[-1] == pytest.approx(ctx.rate / ctx.gamma_total, rel=1e-3)
    assert np.all(np.diff(n) >= -1e-6)


def test_simulate_loading_zero_detuning_is_finite():
    sc = parse_scenario("light.detuning_linewidths = 0")
    table = simulate_loading(sc)
    assert np.all(np.isfinite(col(table, "N_MT")))


def test_simulate_loading_noise_seeded():
    a = simulate_loading(parse_scenario("noise.sigma_rel = 0.05\nseed = 1"))
    b = simulate_loading(parse_scenario("noise.sigma_rel = 0.05\nseed = 2"))
    assert a.to_csv() != b.to_csv()


def test_simulate_decay_columns_consistent():
    sc = parse_scenario("")
    table = simulate_decay(sc)
    parsed = parse_csv(table.to_csv())
    n0 = parsed.column("n0")
    n = parsed.column("N")
    v = parsed.column("V")
    np.testing.assert_allclose(n, n0 * v, rtol=1e-12)
    assert np.all(np.diff(n0) < 0)


def test_figure2_efficiency_ordering_and_linearity():
    sc = parse_scenario("")
    table, fits = figure2(sc)
    etas = [f.efficiency for f in fits]
    assert etas[0] > etas[1] > etas[2]
    assert all(0.0 <= e <= 1.0 for e in etas)
    np.testing.assert_allclose(etas, [0.32, 0.25, 0.16], rtol=1e-9)
    # noiseless synthetic rates are exactly linear in N_MOT
    parsed = parse_csv(table.to_csv())
    det = parsed.column("detuning")
    n_mot = parsed.column("N_MOT")
    r = parsed.column("R")
    mask = det == -2.0
    coeffs = np.polyfit(n_mot[mask], r[mask], 1)
    residual = r[mask] - np.polyval(coeffs, n_mot[mask])
    assert np.max(np.abs(residual)) < 1e-10 * np.max(r)
    # headline loading-rate scale at the largest reservoir
    assert 1e7 <= r.max() <= 1e10


def test_figure2_notes_contain_fits():
    _, fits = figure2(parse_scenario(""))
    table, _ = figure2(parse_scenario(""))
    fit_notes = [n for n in table.notes if n.startswith("fit ")]
    assert len(fit_notes) == len(fits) == 3


def test_figure3_noiseless_fit_is_exact():
    sc = parse_scenario("")
    table, fit = figure3(sc)
    assert fit.params["slope"] == pytest.approx(1e-15, rel=1e-10, abs=0.0)
    assert fit.params["intercept"] == pytest.approx(0.2, rel=1e-6)


def test_figure3_overlap_factor_scales_slope():
    sc = parse_scenario("rates.overlap_factor = 0.6")
    _, fit = figure3(sc)
    assert fit.params["slope"] == pytest.approx(0.6e-15, rel=1e-9, abs=0.0)


def test_figure4_trap_colder_than_reservoir():
    sc = parse_scenario("mc.particles = 20000")
    table = figure4(sc)
    parsed = parse_csv(table.to_csv())
    t_mot = parsed.column("T_MOT")
    t_th = parsed.column("T_MT_th")
    t_mc = parsed.column("T_MT_mc")
    # the configured law, in K from its uK coefficients
    offset = sc["figure4.tmot_offset_uK"]
    slope_uk = sc["figure4.tmot_slope_uK"]
    assert t_mot.tolist() == [(offset + slope_uk * shift) * 1e-6
                              for shift in sc["figure4.lightshift"]]
    assert np.all(t_th < t_mot)
    # analytic prediction is linear in T_MOT with slope 1/3
    slope = np.polyfit(t_mot, t_th, 1)[0]
    assert slope == pytest.approx(1.0 / 3.0, rel=1e-9)
    np.testing.assert_allclose(t_mc, t_th, rtol=0.02)


def test_figure4_reports_mc_stderr_last():
    sc = parse_scenario("mc.particles = 20000")
    parsed = parse_csv(figure4(sc).to_csv())
    assert parsed.columns[-1] == ("T_MT_mc_stderr", "K")
    stderr = parsed.column("T_MT_mc_stderr")
    assert np.all(np.isfinite(stderr)) and np.all(stderr > 0)
    # 2e4 atoms: the error of the mean is well under 1% of the mean
    assert np.all(stderr < 0.01 * parsed.column("T_MT_mc"))


def test_mc_transfer_report_row():
    sc = parse_scenario("mc.particles = 50000")
    parsed = parse_csv(mc_transfer(sc).to_csv())
    assert parsed.column("trapped")[0] == 50000  # point pumping at m=4
    assert abs(parsed.column("rel_diff")[0]) < 0.02


def test_mc_transfer_reports_mean_radius_stderr_last():
    sc = parse_scenario("mc.particles = 20000")
    parsed = parse_csv(mc_transfer(sc).to_csv())
    assert parsed.columns[-1] == ("mean_radius_stderr", "m")
    stderr = parsed.column("mean_radius_stderr")[0]
    assert np.isfinite(stderr) and stderr > 0
    # 2e4 atoms: the error of the mean is well under 1% of the mean
    assert stderr < 0.01 * parsed.column("mean_radius")[0]
    diff = parsed.column("mean_radius")[0] - parsed.column(
        "mean_radius_expected")[0]
    assert abs(diff) < 5 * stderr


def test_untrapped_configuration_raises():
    from mtload.errors import UntrappedCloudError
    sc = parse_scenario("trap.gradient_G_per_cm = 0.05")
    with pytest.raises(UntrappedCloudError):
        loading_context(sc)


@pytest.mark.parametrize("pipeline", [simulate_loading, simulate_decay,
                                      figure2, figure3, figure4, mc_transfer])
def test_notes_name_exactly_the_seed_streams_drawn(monkeypatch, pipeline):
    drawn = []
    seed_stream = pipelines.seed_stream

    def recorder(seed, label):
        drawn.append(label)
        return seed_stream(seed, label)

    monkeypatch.setattr(pipelines, "seed_stream", recorder)
    result = pipeline(parse_scenario(""))
    table = result[0] if isinstance(result, tuple) else result
    named = [note[len("seed-stream "):] for note in table.notes
             if note.startswith("seed-stream ")]
    assert drawn and named == drawn
