"""Fast checks of the benchmark's own machinery at tiny sizes. No test runs
a measured window or a whole workload."""

import contextlib
import io
import json
import os

import numpy as np
import pytest

import run
import spans
import workloads
from mtload import estimation, leastsq


class CountingWorkload:
    """A workload whose ops cost nothing; op 1 of every cycle fails."""

    cycle = 3

    def __init__(self):
        self.ran = []

    def prepare(self, i):
        return i

    def run(self, i):
        self.ran.append(i)
        if i % self.cycle == 1:
            raise ValueError("broken op")
        return []

    def finish(self):
        return []

    def peak_rss_mb(self):
        return 1.0


def test_window_ends_on_a_cycle_boundary_and_counts_failures():
    wl = CountingWorkload()
    wl.tail_percentile = 50
    with contextlib.redirect_stdout(io.StringIO()):
        attempted, failed, problems, metrics = run.measure(wl, seconds=0.0)
    assert wl.ran == [0, 1, 2]
    assert (attempted, failed) == (3, 1)
    assert "broken op" in problems[0]
    assert set(metrics) == {"ops_per_s", "op_p50_ms", "op_tail_ms",
                            "cpu_ms_per_op", "peak_rss_mb"}


def test_percentile_interpolates_between_ranks():
    values = [float(v) for v in range(41)]
    assert run.percentile(values, 75) == 30.0
    assert run.percentile([4.0, 0.0, 2.0], 75) == 3.0
    assert run.percentile([5.0], 90) == 5.0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tail_percentile_falls_inside_a_stratum(workload):
    # a percentile on the edge between two strata of a cycle would jump
    # between them from run to run
    cycle = workloads.WORKLOADS[workload].cycle
    edge = workloads.WORKLOADS[workload].tail_percentile / 100 * cycle
    assert abs(edge - round(edge)) >= 0.25


def test_self_time_is_span_minus_children():
    tracer = spans.Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0],
                    ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    times = tracer.self_times()
    assert times["a"] == (1, 10.0, 6.0)
    assert times["b"] == (2, 4.0, 3.0)
    assert times["c"] == (1, 1.0, 1.0)


def test_tracer_counts_solver_work_and_restores_functions():
    t = np.linspace(0.0, 5.0, 12)
    data = estimation.SampleSeries(t, 1e8 * -np.expm1(-t))
    original = leastsq.numeric_jacobian
    tracer = spans.Tracer()
    with tracer.installed():
        assert leastsq.numeric_jacobian is not original
        fit = estimation.fit_loading_curve(data)
    assert leastsq.numeric_jacobian is original
    assert estimation.least_squares is leastsq.least_squares
    metrics = spans.layer_metrics(tracer)
    assert metrics["leastsq.least_squares.calls"] == 1
    assert metrics["leastsq.least_squares.iterations"] == fit.iterations
    # every iteration: one Jacobian (two evaluations per parameter plus
    # the centre) and at least one trial step; one more Jacobian at the end
    jacobians = metrics["leastsq.numeric_jacobian.calls"]
    assert jacobians == fit.iterations + 1
    assert metrics["leastsq.residual_evals"] > 5 * jacobians
    assert 0.0 < metrics["leastsq.step_accept_ratio"] <= 1.0
    assert [s[0] for s in tracer.spans[:2]] == [
        "estimation.fit_loading_curve", "leastsq.least_squares"]


def test_overhead_is_spans_and_counted_calls_times_their_cost(monkeypatch):
    tracer = spans.Tracer()
    tracer.spans = [["a", 0.0, 1.0, -1]] * 3
    tracer.counts["dynamics.volume_law.calls"] = 20
    tracer.counts["leastsq.residual_evals"] = 100

    def empty(*_):
        return None

    assert spans._added_cost(empty, spans.Tracer().wrap("a", empty)) > 0.0
    costs = iter((1.0, 0.5))
    monkeypatch.setattr(spans, "_added_cost", lambda *_: next(costs))
    assert spans.overhead_s(tracer) == 3 * 1.0 + 120 * 0.5


def test_every_declared_per_layer_metric_is_produced():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    produced = set(spans.layer_metrics(spans.Tracer()))
    produced |= {"python.start_s", "import.mtload_s", "trace.overhead_s",
                 "cli.main_s"}
    produced |= {f"cli.main.{label}_s" for label, _ in workloads.CLI_COMMANDS}
    assert produced == declared


def test_without_sources_no_result_is_printed(tmp_path, monkeypatch,
                                              capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    code = run.main(["--workload", "transfer-scan", "--seed", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_transfer_scan_op_checks_temperature_and_overlap(monkeypatch):
    monkeypatch.setattr(workloads, "MC_PARTICLES", 20_000)
    wl = workloads.TransferScan(seed=4, workdir=None, env=None)
    assert wl.run(wl.prepare(0)) == []
    assert wl.run(wl.prepare(1)) == []
    (ratio, overlap), = list(wl.overlaps.items())[:1]
    wl.overlaps[ratio * 0.5] = overlap * 0.5  # smaller ratio, smaller f
    assert any("does not fall" in p for p in wl.run(wl.prepare(2)))


def test_cli_commands_are_checked_for_finite_rows_and_reruns(tmp_path):
    wl = workloads.CliSession(seed=4, workdir=str(tmp_path), env=None)
    assert wl.run_in_process(0) == []
    _, args = wl.argv(0)
    out = args[args.index("--out") + 1]
    with open(out, "a", encoding="utf-8") as fh:
        fh.write("5.0,nan\n")
    problems = wl.check_output(0)
    assert any("non-finite" in p for p in problems)
    assert any("differs" in p for p in problems)
