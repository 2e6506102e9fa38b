import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mtload import cli, pipelines
from mtload.cli import main
from mtload.estimation import (DensityImage, image_to_table,
                               render_density_image)
from mtload.leastsq import FitResult
from mtload.tables import ResultTable, parse_csv

SMALL = "mc.particles = 20000\nsim.samples = 25\ndecay.samples = 41\n"

ALL_COMMANDS = ("simulate-loading", "simulate-decay", "figure2", "figure3",
                "figure4", "mc-transfer")


@pytest.fixture
def small_scenario(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL, encoding="utf-8")
    return str(path)


def run_to_file(tmp_path, args, name="out.csv"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    return code, out


@pytest.mark.parametrize("command", ALL_COMMANDS)
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


@pytest.mark.parametrize("stderr,code", [
    (np.nan, 0), (np.inf, 3), (-np.inf, 3)])
def test_fit_table_keeps_nan_stderr_and_refuses_inf(tmp_path, monkeypatch,
                                                    stderr, code):
    # a derived value without an uncertainty carries a NaN stderr
    def run_fit(args, scenario):
        result = FitResult(params={"slope": 2.0}, stderr={"slope": 0.1},
                           residual_norm=0.0, converged=True, iterations=1,
                           extras={"intercept": 1.0,
                                   "intercept_stderr": stderr})
        return cli._fit_result_table(result, scenario, scenario.seed)

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
    assert "# note converged = True" in fit_out.read_text(encoding="utf-8")
    # recover the derived loading rate from the simulate-loading notes
    data_parsed = parse_csv(data.read_text(encoding="utf-8"))
    derived = [n for n in data_parsed.notes if n.startswith("derived R_per_s")]
    r_truth = float(derived[0].split(" = ")[1])
    text = fit_out.read_text(encoding="utf-8")
    r_line = [l for l in text.splitlines() if l.startswith("R,")][0]
    r_fit = float(r_line.split(",")[1])
    assert abs(r_fit / r_truth - 1) < 1e-6


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


@pytest.mark.parametrize("seed", [3, 4, 6, 7])
def test_fit_two_body_without_two_body_loss(tmp_path, seed):
    # beta = 0 with 1% noise: the best beta lies at the edge of beta > 0
    # (seeds 4, 6, 7) or within two stderr of it (seed 3, beta/stderr =
    # 1.94). The fit stays inside by refusing steps and reports a small
    # positive beta with a stderr on the scale of the noise, not a NaN
    # row. A shift relative to such a beta means nothing, so the table
    # notes that beta is consistent with 0 and has no t0_sensitivity row
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
    assert beta > 0
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


def test_fit_unknown_image_mode_is_config_error(tmp_path, capsys):
    image = render_density_image(1e16, 5e3, 2e2, pitch=2e-5, shape=(8, 8))
    text = image_to_table(image).to_csv()
    data = tmp_path / "img.csv"
    data.write_text(text.replace("image-mode = projection",
                                 "image-mode = sideways"), encoding="utf-8")
    assert main(["fit", "density-image", str(data)]) == 2
    assert "sideways" in capsys.readouterr().err


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
    embedded.write_text(parsed.embedded_scenario_text(), encoding="utf-8")
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
commands = [
    ['simulate-loading', '--out', 'loading.csv'],
    ['simulate-decay', '--out', 'decay.csv'],
    ['figure2', '--out', 'rates_vs_motsize.csv'],
    ['figure3', '--out', 'decayrates_vs_density.csv'],
    ['figure4', '--out', 'temperatures_vs_lightshift.csv'],
    ['mc-transfer', '--out', 'transfer_check.csv'],
    ['fit', 'loading-curve', 'loading.csv', '--out', 'fit1.csv'],
    ['fit', 'two-body', 'decay.csv', '--out', 'fit2.csv'],
    ['fit', 'linear', 'decayrates_vs_density.csv', '--out', 'fit3.csv'],
    ['fit', 'density-image', 'image.csv', '--mode', 'projection',
     '--out', 'fit4.csv'],
]
for args in commands:
    code = cli.main(args + ['--scenario', sys.argv[1]])
    stage = ' '.join(args[:2]) if args[0] == 'fit' else args[0]
    report[stage] = heavy() if code == 0 else f'exit {code}'
print(json.dumps(report))
"""


def test_import_loads_no_scipy(tmp_path, small_scenario):
    # neither importing mtload nor any of the README's ten commands, nor
    # rendering or fitting an image, loads scipy or numpy.polynomial
    proc = subprocess.run(
        [sys.executable, "-c", _NO_HEAVY_IMPORTS, small_scenario],
        env=_fresh_env(), cwd=tmp_path, capture_output=True, text=True,
        check=True)
    report = json.loads(proc.stdout)
    assert len(report) == 13
    assert report == {stage: [] for stage in report}
