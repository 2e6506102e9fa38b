import json
import os
import subprocess
import sys

import numpy as np
import pytest

from byte_manifest import COMMANDS, SCENARIOS
from mtload import RateModel, cli, pipelines
from mtload.cli import main
from mtload.dynamics import decay_density_at
from mtload.estimation import (DensityImage, SampleSeries, fit_linear,
                               image_to_table, render_density_image)
from mtload.leastsq import FitResult
from mtload.tables import ResultTable, parse_csv, read_csv

SMALL = "mc.particles = 20000\nsim.samples = 25\ndecay.samples = 41\n"


@pytest.fixture
def small_scenario(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL, encoding="utf-8")
    return str(path)


def run_to_file(tmp_path, args, name="out.csv"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    return code, out


@pytest.mark.parametrize("command", cli.SIMULATIONS)
def test_byte_identical_reruns(tmp_path, small_scenario, command):
    code1, out1 = run_to_file(
        tmp_path, [command, "--scenario", small_scenario, "--seed", "5"],
        "a.csv")
    code2, out2 = run_to_file(
        tmp_path, [command, "--scenario", small_scenario, "--seed", "5"],
        "b.csv")
    assert code1 == 0 and code2 == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_decay_writes_decay_samples_rows(tmp_path):
    # t_end / (samples - 1) rounds so that t_end over it exceeds 49
    cfg = tmp_path / "decay.cfg"
    cfg.write_text("decay.samples = 50\ndecay.t_end_s = 1.0\n",
                   encoding="utf-8")
    code, out = run_to_file(tmp_path, ["simulate-decay", "--scenario",
                                       str(cfg)])
    assert code == 0
    t = parse_csv(out.read_text(encoding="utf-8")).column("t")
    assert len(t) == 50 and t[0] == 0.0 and t[-1] == 1.0


def test_simulate_decay_with_huge_two_body_coefficient(tmp_path):
    # beta n0 = 1e316 overflows a double; the rows stay finite and start
    # at the scenario's density
    cfg = tmp_path / "decay.cfg"
    cfg.write_text("rates.two_body_m3_per_s = 1e300\n", encoding="utf-8")
    code, out = run_to_file(tmp_path, ["simulate-decay", "--scenario",
                                       str(cfg)])
    assert code == 0
    table = parse_csv(out.read_text(encoding="utf-8"))
    assert table.column("n0")[0] == 1e16
    assert np.all(np.isfinite(table.data)) and np.all(table.data >= 0)


def test_global_flags_accepted_before_subcommand(tmp_path, small_scenario):
    code, out = run_to_file(
        tmp_path, ["--scenario", small_scenario, "--seed", "5",
                   "simulate-loading"])
    assert code == 0
    code2, out2 = run_to_file(
        tmp_path, ["simulate-loading", "--scenario", small_scenario,
                   "--seed", "5"], "again.csv")
    assert code2 == 0
    assert out.read_bytes() == out2.read_bytes()


def test_stdout_matches_file_output(tmp_path, small_scenario, capsys):
    code = main(["mc-transfer", "--scenario", small_scenario])
    captured = capsys.readouterr().out
    assert code == 0
    _, out = run_to_file(tmp_path,
                         ["mc-transfer", "--scenario", small_scenario])
    assert captured == out.read_text(encoding="utf-8")


def test_seed_recorded_in_output(tmp_path, small_scenario):
    _, out = run_to_file(
        tmp_path, ["simulate-loading", "--scenario", small_scenario,
                   "--seed", "77"])
    parsed = parse_csv(out.read_text(encoding="utf-8"))
    meta = dict(parsed.provenance)
    assert meta["seed"] == "77"
    assert "scenario-sha256" in meta


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no.such.key = 1\n", encoding="utf-8")
    assert main(["simulate-loading", "--scenario", str(bad)]) == 2


def test_subnormal_initial_density_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "subnormal.cfg"
    cfg.write_text("decay.initial_density_m3 = 1e-310\n", encoding="utf-8")
    assert main(["simulate-decay", "--scenario", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "decay.initial_density_m3" in err


@pytest.mark.parametrize("line,key", [
    ("sim.t_end_s = inf", "sim.t_end_s"),
    ("mot.atom_number = inf", "mot.atom_number"),
    ("noise.sigma_rel = inf", "noise.sigma_rel"),
    ("mt.temperature_uK = nan", "mt.temperature_uK"),
    ("figure4.lightshift = 3.0, nan, 9.0", "figure4.lightshift"),
])
def test_non_finite_scenario_value_is_config_error(tmp_path, capsys, line,
                                                   key):
    cfg = tmp_path / "non_finite.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    assert main(["simulate-loading", "--scenario", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err and "finite" in err


@pytest.mark.parametrize("command, code", [
    (name, 2 if name in ("figure2", "figure3") else 0)
    for name in cli.SIMULATIONS])
def test_simulations_without_excitation(tmp_path, capsys, command, code):
    # intensity 0 is inside the key's domain, and P_e = 0 leaves figure2 a
    # loading rate of 0 and figure3 n_e v = 0 to fit: both refuse the key
    cfg = tmp_path / "dark.cfg"
    cfg.write_text(SMALL + "light.intensity_per_beam_sat = 0\n",
                   encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main([command, "--scenario", str(cfg), "--out", str(out)]) == code
    if code:
        err = capsys.readouterr().err
        assert "config error" in err and "light.intensity_per_beam_sat" in err
        assert not out.exists()


def test_negative_seed_is_config_error(capsys):
    assert main(["mc-transfer", "--seed", "-1"]) == 2
    assert "config error" in capsys.readouterr().err


def test_numeric_error_exit_code(tmp_path):
    cfg = tmp_path / "untrapped.cfg"
    cfg.write_text("trap.gradient_G_per_cm = 0.05\n", encoding="utf-8")
    assert main(["simulate-loading", "--scenario", str(cfg)]) == 3


def test_io_error_exit_code():
    assert main(["fit", "loading-curve", "/no/such/file.csv"]) == 4


def test_io_error_on_unwritable_output(tmp_path, small_scenario):
    assert main(["mc-transfer", "--scenario", small_scenario,
                 "--out", str(tmp_path / "missing-dir" / "x.csv")]) == 4


def fresh_output(tmp_path, small_scenario):
    code, out = run_to_file(
        tmp_path, ["simulate-loading", "--scenario", small_scenario],
        "fresh.csv")
    assert code == 0
    return out.read_bytes()


def test_longer_existing_output_is_cut_to_new_bytes(tmp_path,
                                                   small_scenario):
    expected = fresh_output(tmp_path, small_scenario)
    out = tmp_path / "old.csv"
    out.write_bytes(b"stale,row\n" * (len(expected) // 5))
    out.chmod(0o600)
    code, _ = run_to_file(
        tmp_path, ["simulate-loading", "--scenario", small_scenario],
        "old.csv")
    assert code == 0
    assert out.read_bytes() == expected
    assert out.stat().st_mode & 0o777 == 0o600


def test_symlinked_output_updates_its_target(tmp_path, small_scenario):
    expected = fresh_output(tmp_path, small_scenario)
    target = tmp_path / "target.csv"
    target.write_bytes(b"x" * (2 * len(expected)))
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    code, _ = run_to_file(
        tmp_path, ["simulate-loading", "--scenario", small_scenario],
        "link.csv")
    assert code == 0
    assert link.is_symlink()
    assert target.read_bytes() == expected


def test_output_to_devnull(small_scenario):
    assert main(["simulate-loading", "--scenario", small_scenario,
                 "--out", os.devnull]) == 0


def test_rerun_into_same_path_is_identical(tmp_path, small_scenario):
    args = ["figure4", "--scenario", small_scenario, "--seed", "5"]
    code1, out = run_to_file(tmp_path, args)
    first = out.read_bytes()
    code2, _ = run_to_file(tmp_path, args)
    assert code1 == 0 and code2 == 0
    assert out.read_bytes() == first


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_row_is_refused_and_out_untouched(tmp_path, monkeypatch,
                                                     capsys, bad):
    def mc_transfer(sc):
        return ResultTable(columns=[("T_MT_mc", "K"), ("rel_diff", "1")],
                           rows=[(1e-4, 0.01), (2e-4, bad)])

    monkeypatch.setattr(pipelines, "mc_transfer", mc_transfer)
    out = tmp_path / "keep.csv"
    out.write_bytes(b"previous,output\n")
    assert main(["mc-transfer", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "numeric failure" in captured.err
    assert "rel_diff" in captured.err and "row 2" in captured.err
    assert out.read_bytes() == b"previous,output\n"
    assert main(["mc-transfer"]) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", cli.SIMULATIONS)
def test_simulations_look_up_their_pipeline_at_call_time(tmp_path,
                                                          monkeypatch,
                                                          command):
    # run finds pipelines.<name> when it is called, so a wrapper set on the
    # module afterwards (a profiler's span, a test's stub) sees every call
    table = ResultTable(columns=[("x", "1")], rows=[(1.0,)],
                        notes=[f"stub {command}"])
    result = (table, []) if command in ("figure2", "figure3") else table
    monkeypatch.setattr(pipelines, command.replace("-", "_"),
                        lambda scenario: result)
    code, out = run_to_file(tmp_path, [command])
    assert code == 0
    assert out.read_text(encoding="utf-8") == table.to_csv()


@pytest.mark.parametrize("stderr,code", [
    (np.nan, 0), (np.inf, 3), (-np.inf, 3)])
def test_fit_table_keeps_nan_stderr_and_refuses_inf(tmp_path, monkeypatch,
                                                    stderr, code):
    # a derived value's stderr sits in FitResult.stderr under its own
    # name; a NaN one is written, an infinite one refused
    def run_fit(args, scenario):
        result = FitResult(params={"slope": 2.0},
                           stderr={"slope": 0.1, "intercept": stderr},
                           residual_norm=0.0, iterations=1,
                           extras={"intercept": 1.0})
        return cli._fit_result_table(result, scenario)

    monkeypatch.setattr(cli, "_run_fit", run_fit)
    out = tmp_path / "fit.csv"
    assert main(["fit", "linear", "unused.csv", "--out", str(out)]) == code
    assert out.exists() == (code == 0)


def test_fit_loading_curve_round_trip(tmp_path, small_scenario):
    _, data = run_to_file(
        tmp_path, ["simulate-loading", "--scenario", small_scenario],
        "load.csv")
    code, fit_out = run_to_file(
        tmp_path, ["fit", "loading-curve", str(data),
                   "--scenario", small_scenario], "fit.csv")
    assert code == 0
    notes = [line for line in fit_out.read_text(encoding="utf-8").splitlines()
             if line.startswith("# note ")]
    assert [note.split(" = ")[0] for note in notes] == [
        "# note iterations", "# note residual_norm"]
    # recover the derived loading rate from the simulate-loading notes
    data_parsed = parse_csv(data.read_text(encoding="utf-8"))
    derived = [n for n in data_parsed.notes if n.startswith("derived R_per_s")]
    r_truth = float(derived[0].split(" = ")[1])
    text = fit_out.read_text(encoding="utf-8")
    r_line = [l for l in text.splitlines() if l.startswith("R,")][0]
    r_fit = float(r_line.split(",")[1])
    assert abs(r_fit / r_truth - 1) < 1e-6


def test_fit_loading_curve_saturated_tau_stderr_is_nan(tmp_path):
    # samples 16 s apart: every one after t = 0 is saturated, so the data
    # do not determine tau; its stderr once printed as an exact 0.0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim.t_end_s = 800\nnoise.sigma_rel = 0.005\n",
                   encoding="utf-8")
    _, data = run_to_file(
        tmp_path, ["simulate-loading", "--scenario", str(cfg)], "load.csv")
    code, fit_out = run_to_file(
        tmp_path, ["fit", "loading-curve", str(data), "--scenario", str(cfg)],
        "fit.csv")
    assert code == 0
    rows = dict(line.split(",", 1) for line in
                fit_out.read_text(encoding="utf-8").splitlines()
                if not line.startswith("#"))
    assert rows["tau"].split(",")[1] == "nan"
    assert float(rows["N0"].split(",")[1]) > 0


def test_fit_two_body_round_trip(tmp_path, small_scenario):
    _, data = run_to_file(
        tmp_path, ["simulate-decay", "--scenario", small_scenario],
        "decay.csv")
    code, fit_out = run_to_file(
        tmp_path, ["fit", "two-body", str(data),
                   "--scenario", small_scenario], "fit.csv")
    assert code == 0
    text = fit_out.read_text(encoding="utf-8")
    beta_line = [l for l in text.splitlines() if l.startswith("beta,")][0]
    beta = float(beta_line.split(",")[1])
    assert abs(beta / 7e-17 - 1) < 1e-3
    # a growing cloud's rate is used as fitted, with no clamp note
    assert "volume_alpha_clamped" not in text


@pytest.mark.parametrize("seed", [3, 4, 6, 7])
def test_fit_two_body_without_two_body_loss(tmp_path, seed):
    # beta = 0 with 1% noise: the fit reports an unconstrained beta, of
    # either sign, within two stderr of 0 and a stderr on the scale of the
    # noise, not a NaN row. A shift relative to such a beta means nothing,
    # so the table notes that beta is consistent with 0 and has no
    # t0_sensitivity row
    cfg = tmp_path / "b0.cfg"
    cfg.write_text("rates.two_body_m3_per_s = 0\nnoise.sigma_rel = 0.01\n",
                   encoding="utf-8")
    args = ["--scenario", str(cfg), "--seed", str(seed)]
    code, data = run_to_file(tmp_path, ["simulate-decay"] + args, "d.csv")
    assert code == 0
    code, fit_out = run_to_file(
        tmp_path, ["fit", "two-body", str(data)] + args, "fit.csv")
    assert code == 0
    text = fit_out.read_text(encoding="utf-8")
    rows = {line.split(",")[0]: [float(v) for v in line.split(",")[1:]]
            for line in text.splitlines()[-3:]}
    assert list(rows) == ["beta", "volume_v0", "volume_alpha"]
    assert "# note beta_consistent_with_zero = True\n" in text
    assert "t0_sensitivity" not in text
    assert all(np.isfinite(value) for value, _ in rows.values())
    beta, beta_stderr = rows["beta"]
    assert abs(beta) < 2.0 * beta_stderr
    assert 1e-21 <= beta_stderr <= 1e-19


def test_fit_density_image_cli(tmp_path, cr):
    # 5% pixel noise; the fitted temperature must stay inside the 10%
    # accuracy the image fit is specified to deliver
    from mtload import DensityImage, QuadrupoleField, shape_params
    from mtload.constants import MU_B
    from mtload.mc import seed_stream

    b_shape, g_shape = shape_params(100e-6, 6 * MU_B, QuadrupoleField(0.15),
                                    cr)
    clean = render_density_image(1e16, b_shape, g_shape, pitch=5e-5,
                                 shape=(48, 48))
    rng = seed_stream(31, "cli-img")
    noisy = np.clip(clean.values
                    * (1 + 0.05 * rng.standard_normal(clean.values.shape)),
                    0.0, None)
    image = DensityImage(noisy, clean.pitch, clean.axes)
    img_path = tmp_path / "img.csv"
    img_path.write_text(image_to_table(image).to_csv(), encoding="utf-8")
    scenario = tmp_path / "img.cfg"
    scenario.write_text("trap.gradient_G_per_cm = 15\n", encoding="utf-8")
    code, fit_out = run_to_file(tmp_path,
                                ["fit", "density-image", str(img_path),
                                 "--scenario", str(scenario)])
    assert code == 0
    text = fit_out.read_text(encoding="utf-8")
    t_line = [l for l in text.splitlines() if l.startswith("temperature,")][0]
    assert float(t_line.split(",")[1]) == pytest.approx(100e-6, rel=0.10)
    mu_line = [l for l in text.splitlines() if l.startswith("mu_bar,")][0]
    assert float(mu_line.split(",")[1]) == pytest.approx(6 * MU_B, rel=0.10)


def test_fit_density_image_slice_mode_from_file(tmp_path, cr):
    # slice-mode images carry their mode in the provenance; the CLI picks
    # it up without an explicit --mode flag
    from mtload import QuadrupoleField, shape_params
    from mtload.constants import MU_B

    b_shape, g_shape = shape_params(120e-6, 4.5 * MU_B, QuadrupoleField(0.2),
                                    cr)
    image = render_density_image(5e15, b_shape, g_shape, pitch=6e-5,
                                 shape=(48, 48), mode="slice")
    img_path = tmp_path / "slice.csv"
    img_path.write_text(image_to_table(image, mode="slice").to_csv(),
                        encoding="utf-8")
    scenario = tmp_path / "slice.cfg"
    scenario.write_text("trap.gradient_G_per_cm = 20\n", encoding="utf-8")
    code, fit_out = run_to_file(tmp_path,
                                ["fit", "density-image", str(img_path),
                                 "--scenario", str(scenario)])
    assert code == 0
    text = fit_out.read_text(encoding="utf-8")
    t_line = [l for l in text.splitlines() if l.startswith("temperature,")][0]
    assert float(t_line.split(",")[1]) == pytest.approx(120e-6, rel=1e-4)
    mu_line = [l for l in text.splitlines() if l.startswith("mu_bar,")][0]
    assert float(mu_line.split(",")[1]) == pytest.approx(4.5 * MU_B,
                                                         rel=1e-4)


def test_fit_missing_column_is_config_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a(1),b(1)\n1.0,2.0\n", encoding="utf-8")
    assert main(["fit", "loading-curve", str(bad)]) == 2


def test_fit_linear_with_one_column_is_config_error(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("x(1)\n0\n1\n2\n", encoding="utf-8")
    assert main(["fit", "linear", str(data)]) == 2
    err = capsys.readouterr().err
    assert "config error: linear fit needs at least two columns" in err


@pytest.mark.parametrize("fitter,text,message", [
    ("loading-curve", "t(s),N_MT(count)\n0,0\n1,5\n2,8\n",
     "need at least 5 samples"),
    ("loading-curve", "t(s),N_MT(count)\n0,0\n1,5\n1,6\n2,8\n3,9\n4,9.5\n",
     "strictly increasing"),
    ("linear", "x(1),y(1)\n0,1\n1,3\n", "need at least 3 points"),
    ("loading-curve", "t(s),N_MT(count)\n0,0\n1,5\n2,nan\n3,9\n4,9.5\n",
     "must be finite"),
    ("loading-curve", "t(s),N_MT(count)\n0,0\n1,-5\n2,-8\n3,-9\n4,-9.5\n",
     "no sample is positive"),
    ("two-body", "t(s),n0(1/m^3),V(m^3)\n0,1e16,-1e-9\n1,9e15,-1.1e-9\n"
     "2,8e15,-1.2e-9\n", "non-positive initial volume"),
    ("two-body", "t(s),n0(1/m^3),V(m^3)\n0,-1e16,1e-9\n1,9e15,1.1e-9\n"
     "2,8e15,1.2e-9\n", "density sample in data row 1 is -1e+16"),
    pytest.param("two-body", "t(s),n0(1/m^3),V(m^3)\n0,1e16,1e-9\n"
                 "1,9e15,1.1e-9\n2,0,1.2e-9\n3,7e15,1.3e-9\n",
                 "density sample in data row 3 is 0.0",
                 id="two-body-zero-in-row-3"),
    pytest.param("density-image", image_to_table(DensityImage(
        np.zeros((2, 2)), 2e-5, ("y", "x"))).to_csv(),
        "degenerate image: all pixels zero", id="density-image-all-zero"),
    pytest.param("density-image", image_to_table(DensityImage(
        np.pad([[1.0]], 1), 2e-5, ("y", "x"))).to_csv(),
        "degenerate image: no spatial extent",
        id="density-image-lit-at-centre"),
])
def test_fit_input_data_error_exit_code(tmp_path, capsys, fitter, text,
                                        message):
    # data the fitter cannot take is an input error (2), not a numeric
    # failure (3)
    data = tmp_path / "data.csv"
    data.write_text(text, encoding="utf-8")
    out = tmp_path / "fit.csv"
    assert main(["fit", fitter, str(data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "input data error" in err and message in err
    assert not out.exists()


def test_fit_density_image_with_one_row_is_numeric_failure(tmp_path,
                                                          capsys):
    # a 1 x 5 crop of a cloud image: one pixel along y does not determine
    # the sag; the fit once exited 0 here with a negative density
    image = render_density_image(1e16, 3000.0, 700.0, 4e-5, (32, 32))
    crop = DensityImage(image.values[:1, :5], image.pitch, image.axes)
    data = tmp_path / "crop.csv"
    data.write_text(image_to_table(crop).to_csv(), encoding="utf-8")
    out = tmp_path / "fit.csv"
    out.write_text("previous\n", encoding="utf-8")
    assert main(["fit", "density-image", str(data), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "shape_g" in err
    assert out.read_text(encoding="utf-8") == "previous\n"


@pytest.mark.parametrize("rows", [2, 3])
def test_fit_density_image_with_fewer_than_4_pixels_is_input_error(
        tmp_path, capsys, rows):
    # a rows x 1 crop: three parameters leave no residual to estimate their
    # errors from; the fit once exited 0 with every stderr an exact 0.0
    image = render_density_image(1e16, 3000.0, 700.0, 4e-5, (32, 32))
    crop = DensityImage(image.values[15:15 + rows, 16:17], image.pitch,
                        image.axes)
    data = tmp_path / "crop.csv"
    data.write_text(image_to_table(crop).to_csv(), encoding="utf-8")
    out = tmp_path / "fit.csv"
    assert main(["fit", "density-image", str(data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "input data error" in err and "at least 4" in err
    assert not out.exists()


@pytest.mark.parametrize("args", [["simulate-loading", "--scenario"],
                                  ["fit", "linear"]])
def test_input_that_is_not_utf8_is_config_error(tmp_path, capsys, args):
    # a Latin-1 byte once surfaced as a numeric failure (exit 3)
    path = tmp_path / "latin1.txt"
    path.write_bytes("# r\xe9glage\nx(1),y(1)\n0,1\n1,2\n2,3\n"
                     .encode("latin-1"))
    assert main(args + [str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(path) in err
    assert "not UTF-8" in err


@pytest.mark.parametrize("header,replacement,message", [
    pytest.param("# image-mode = projection\n", "# image-mode = sideways\n",
                 "unknown image-mode 'sideways'", id="unknown-mode"),
    pytest.param("# image-mode = projection\n", "",
                 "lacks required header 'image-mode'", id="no-mode"),
    pytest.param("# image-shape = 8x8\n", "# image-shape = 8xA\n",
                 "bad image header", id="shape-not-a-number"),
    pytest.param("# image-axes = y,x\n", "# image-axes = y\n",
                 "image-axes must name two axes", id="one-axis"),
    pytest.param("# image-shape = 8x8\n", "# image-shape = 8x7\n",
                 "image has 64 pixels but header says 8x7",
                 id="pixel-count"),
])
def test_fit_unknown_image_mode_is_config_error(tmp_path, capsys, header,
                                                replacement, message):
    image = render_density_image(1e16, 5e3, 2e2, pitch=2e-5, shape=(8, 8))
    text = image_to_table(image).to_csv()
    assert header in text
    data = tmp_path / "img.csv"
    data.write_text(text.replace(header, replacement), encoding="utf-8")
    out = tmp_path / "fit.csv"
    assert main(["fit", "density-image", str(data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("shape,rows", [("-2x-3", 6), ("0x0", 0)])
def test_fit_image_with_non_positive_shape_is_config_error(tmp_path, capsys,
                                                           shape, rows):
    image = render_density_image(1e16, 5e3, 2e2, pitch=2e-5, shape=(2, 3))
    lines = image_to_table(image).to_csv().splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines)
                  if not line.startswith("#"))
    text = "".join(lines[:header + 1 + rows])
    data = tmp_path / "img.csv"
    data.write_text(text.replace("= 2x3", f"= {shape}"), encoding="utf-8")
    assert main(["fit", "density-image", str(data)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "image-shape" in err


def test_out_of_memory_is_numeric_failure(tmp_path, monkeypatch, capsys):
    # a stand-in for numpy failing to allocate; nothing large is allocated
    def simulate_loading(sc):
        raise MemoryError("Unable to allocate 7.45 GiB for an array")

    monkeypatch.setattr(pipelines, "simulate_loading", simulate_loading)
    out = tmp_path / "out.csv"
    assert main(["simulate-loading", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "out of memory: Unable to allocate 7.45 GiB" in err
    assert not out.exists()


def test_fit_linear_from_figure3_output(tmp_path, small_scenario):
    _, data = run_to_file(
        tmp_path, ["figure3", "--scenario", small_scenario], "f3.csv")
    code, fit_out = run_to_file(
        tmp_path, ["fit", "linear", str(data)], "fit.csv")
    assert code == 0
    text = fit_out.read_text(encoding="utf-8")
    slope = float([l for l in text.splitlines()
                   if l.startswith("slope,")][0].split(",")[1])
    assert slope == pytest.approx(1e-15, rel=1e-6)


def test_fit_linear_weighs_by_a_y_sigma_column(tmp_path):
    data = tmp_path / "line.csv"
    data.write_text("x(1),y(1),y_sigma(1)\n0,1,0.1\n1,3.1,0.2\n"
                    "2,4.9,0.1\n3,7.2,0.3\n", encoding="utf-8")
    code, fit_out = run_to_file(tmp_path, ["fit", "linear", str(data)],
                                "fit.csv")
    assert code == 0
    rows = {line.split(",")[0]: [float(v) for v in line.split(",")[1:]]
            for line in fit_out.read_text(encoding="utf-8").splitlines()
            if line.startswith(("slope,", "intercept,"))}
    # the CLI fits the parsed table's columns, which are strided views;
    # fit_linear's last digits depend on that layout, so the library runs
    # on the same views here
    parsed = parse_csv(data.read_text(encoding="utf-8"))
    x, y = parsed.data[:, 0], parsed.data[:, 1]
    weighted = fit_linear(SampleSeries(x, y, parsed.column("y_sigma")))
    plain = fit_linear(SampleSeries(x, y))
    for name, (value, stderr) in rows.items():
        assert value == weighted.params[name]
        assert stderr == weighted.stderr[name]
        assert value != plain.params[name]
    assert list(rows) == ["slope", "intercept"]


def test_fit_two_body_with_shrinking_volume(tmp_path):
    # V = 1e-9 (1 - 0.05 t) shrinks: the fitted growth rate is clamped to 0,
    # and a note says so, so the row does not read as a fitted 0
    t = np.linspace(0.0, 10.0, 21)
    n = decay_density_at(t, 1e16, RateModel(background_lifetime=60.0,
                                            two_body_coeff=7e-17))
    data = tmp_path / "decay.csv"
    data.write_text("t(s),n0(1/m^3),V(m^3)\n" + "".join(
        f"{ti!r},{ni!r},{1e-9 * (1.0 - 0.05 * ti)!r}\n"
        for ti, ni in zip(t.tolist(), n.tolist())), encoding="utf-8")
    code, fit_out = run_to_file(tmp_path, ["fit", "two-body", str(data)],
                                "fit.csv")
    assert code == 0
    text = fit_out.read_text(encoding="utf-8")
    rows = {line.split(",")[0]: line.split(",")[1:]
            for line in text.splitlines() if not line.startswith("#")}
    assert rows["volume_alpha"][0] == "0.0"
    assert "# note volume_alpha_clamped = True\n" in text
    assert float(rows["beta"][0]) == pytest.approx(7e-17, rel=1e-6)


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_mc_check_holds_through_the_cli(tmp_path, scenario):
    # the Monte Carlo check as a user runs it, on the byte manifest's
    # scenarios: every row's T_MT_mc within 5 of its standard errors of the
    # analytic T_MT_th, and mc-transfer's mean radius within 5 of its
    # standard errors of the exact sqrt(8/pi) sigma
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SCENARIOS[scenario], encoding="utf-8")
    tables = {}
    for command in ("figure4", "mc-transfer"):
        code, out = run_to_file(tmp_path, [command, "--scenario", str(cfg)],
                                f"{command}.csv")
        assert code == 0
        table = tables[command] = read_csv(str(out))
        gap = np.abs(table.column("T_MT_mc") - table.column("T_MT_th"))
        assert np.all(gap <= 5.0 * table.column("T_MT_mc_stderr")), command
    transfer = tables["mc-transfer"]
    gap = np.abs(transfer.column("mean_radius")
                 - transfer.column("mean_radius_expected"))
    assert np.all(gap <= 5.0 * transfer.column("mean_radius_stderr"))


def _fresh_env():
    """Environment for a new interpreter that imports this mtload."""
    import mtload

    src = os.path.dirname(os.path.dirname(os.path.abspath(mtload.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_console_entry_point_runs(small_scenario):
    proc = subprocess.run(
        [sys.executable, "-m", "mtload.cli", "mc-transfer",
         "--scenario", small_scenario, "--seed", "3"],
        env=_fresh_env(), capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("# mtload-version")


def test_rerun_of_embedded_scenario_is_identical(tmp_path, small_scenario):
    _, out = run_to_file(
        tmp_path, ["figure3", "--scenario", small_scenario, "--seed", "11"])
    parsed = parse_csv(out.read_text(encoding="utf-8"))
    embedded = tmp_path / "embedded.cfg"
    embedded.write_text("\n".join(value for key, value in parsed.provenance
                                  if key == "scenario"), encoding="utf-8")
    code, out2 = run_to_file(
        tmp_path, ["figure3", "--scenario", str(embedded)], "rerun.csv")
    assert code == 0
    assert out.read_bytes() == out2.read_bytes()


def test_version_matches_output_header(capsys):
    import mtload

    assert main(["simulate-loading"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == f"# mtload-version = {mtload.__version__}"


_NO_HEAVY_IMPORTS = """
import json, sys
import mtload
from mtload import QuadrupoleField, chromium52, cli, estimation

def heavy():
    return sorted(m for m in sys.modules
                  if m.partition('.')[0] == 'scipy'
                  or m == 'numpy.polynomial'
                  or m.startswith('numpy.polynomial.'))

report = {'import mtload': heavy()}
image = estimation.render_density_image(1e16, 3000.0, 700.0, 4e-5, (16, 16))
report['render_density_image'] = heavy()
estimation.fit_density_image(image, QuadrupoleField(0.15), chromium52())
report['fit_density_image'] = heavy()
with open('image.csv', 'w', encoding='utf-8') as fh:
    fh.write(estimation.image_to_table(image).to_csv())
for label, args in json.loads(sys.argv[2]):
    code = cli.main(args + ['--scenario', sys.argv[1]])
    report[label] = heavy() if code == 0 else f'exit {code}'
print(json.dumps(report))
"""


def test_import_loads_no_scipy(tmp_path, small_scenario):
    # neither importing mtload nor any of the README's ten commands, nor
    # rendering or fitting an image, loads scipy or numpy.polynomial; the
    # commands reach the child as JSON, so it does not import the manifest
    proc = subprocess.run(
        [sys.executable, "-c", _NO_HEAVY_IMPORTS, small_scenario,
         json.dumps(COMMANDS)],
        env=_fresh_env(), cwd=tmp_path, capture_output=True, text=True,
        check=True)
    report = json.loads(proc.stdout)
    assert len(report) == 3 + len(COMMANDS)
    assert report == {stage: [] for stage in report}
