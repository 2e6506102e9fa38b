"""Span recorder for the traced benchmark run.

The recorder wraps mtload's public functions from outside the package:
every module attribute that is the original function object (the defining
module and every module that imported it by name) is replaced with a
wrapper, so calls between mtload modules are recorded too. Spans are kept
in memory as (name, start, end, parent) and written out when the run ends.
Nothing inside mtload is edited; spans inside the package are a later
change.
"""

import json
import math
import os
import sys
import time
import timeit
from collections import Counter
from contextlib import contextmanager

# span name -> (defining module, attribute); each becomes one span per call
SPAN_TARGETS = {
    "cli.main": ("mtload.cli", "main"),
    "scenario.load_scenario": ("mtload.scenario", "load_scenario"),
    "tables.read_csv": ("mtload.tables", "read_csv"),
    "pipelines.loading_context": ("mtload.pipelines", "loading_context"),
    "pipelines.simulate_loading": ("mtload.pipelines", "simulate_loading"),
    "pipelines.simulate_decay": ("mtload.pipelines", "simulate_decay"),
    "pipelines.figure2": ("mtload.pipelines", "figure2"),
    "pipelines.figure3": ("mtload.pipelines", "figure3"),
    "pipelines.figure4": ("mtload.pipelines", "figure4"),
    "pipelines.mc_transfer": ("mtload.pipelines", "mc_transfer"),
    "cloud.effective_volume": ("mtload.cloud", "effective_volume"),
    "dynamics.decay_density_at": ("mtload.dynamics", "decay_density_at"),
    "estimation.fit_loading_curve": ("mtload.estimation",
                                     "fit_loading_curve"),
    "estimation.fit_linear": ("mtload.estimation", "fit_linear"),
    "estimation.fit_density_image": ("mtload.estimation",
                                     "fit_density_image"),
    "estimation.fit_two_body_loss": ("mtload.estimation",
                                     "fit_two_body_loss"),
    "estimation.profile_model": ("mtload.estimation", "profile_model"),
    "leastsq.least_squares": ("mtload.leastsq", "least_squares"),
    "leastsq.numeric_jacobian": ("mtload.leastsq", "numeric_jacobian"),
    "mc.simulate_transfer": ("mtload.mc", "simulate_transfer"),
    "collisions.overlap_correction": ("mtload.collisions",
                                      "overlap_correction"),
}


class Tracer:
    """Spans and counters of one traced run. Single-threaded: the span
    stack is the call stack of the wrapped functions."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def current(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        """Per span name: (calls, inclusive seconds, self seconds), where
        self time is the span minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start,
                         own + end - start - covered)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans,
                       "counts": dict(self.counts)}, fh)

    # --- hooks that add counts at a layer boundary -------------------------

    def _least_squares(self, fn):
        def call(residual_fn, *args, **kwargs):
            def counted(x):
                self.counts["leastsq.residual_evals"] += 1
                if self.current() == "leastsq.least_squares":
                    self.counts["leastsq.trial_evals"] += 1
                return residual_fn(x)

            result = fn(counted, *args, **kwargs)
            # the start-point evaluation is not a trial step
            self.counts["leastsq.trial_evals"] -= 1
            self.counts["leastsq.least_squares.iterations"] += (
                result.iterations)
            return result

        return call

    def _read_csv(self, fn):
        def call(path):
            self.counts["tables.read_csv.bytes"] += os.path.getsize(path)
            return fn(path)

        return call

    def _to_csv(self, fn):
        def call(table):
            text = fn(table)
            self.counts["tables.to_csv.bytes"] += len(text.encode("utf-8"))
            return text

        return call

    def _simulate_transfer(self, fn):
        def call(*args, **kwargs):
            report = fn(*args, **kwargs)
            self.counts["mc.particles"] += report.particles
            self.counts["mc.trapped"] += report.trapped
            return report

        return call

    def _volume_law(self, fn):
        def volume_law(model):
            law = fn(model)

            def counted(t):
                self.counts["dynamics.volume_law.calls"] += 1
                return law(t)

            return counted

        return volume_law

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then put the
        original functions back."""
        from mtload import cli, dynamics, pipelines, tables  # noqa: F401

        hooks = {"leastsq.least_squares": self._least_squares,
                 "tables.read_csv": self._read_csv,
                 "mc.simulate_transfer": self._simulate_transfer}
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "mtload" or n.startswith("mtload.")]
        undo = []
        for name, (module_name, attr) in SPAN_TARGETS.items():
            original = getattr(sys.modules[module_name], attr)
            inner = hooks[name](original) if name in hooks else original
            wrapped = self.wrap(name, inner)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, value))
                        setattr(module, key, wrapped)
        for cls, attr, name, hook in (
                (tables.ResultTable, "to_csv", "tables.to_csv", self._to_csv),
                (dynamics.RateModel, "volume_law", None, self._volume_law)):
            original = getattr(cls, attr)
            undo.append((cls, attr, original))
            wrapped = hook(original)
            setattr(cls, attr, self.wrap(name, wrapped) if name else wrapped)
        try:
            yield self
        finally:
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)


PIPELINES = ("loading_context", "simulate_loading", "simulate_decay",
             "figure2", "figure3", "figure4", "mc_transfer")
FITTERS = ("loading_curve", "linear", "density_image", "two_body_loss")
TIMED_LAYERS = ("scenario.load_scenario", "tables.to_csv", "tables.read_csv",
                "cloud.effective_volume", "dynamics.decay_density_at",
                "estimation.profile_model", "leastsq.least_squares",
                "mc.simulate_transfer", "collisions.overlap_correction")
# bytes of the arrays simulate_transfer builds, by model rather than by
# measurement: positions, velocities and substate (7 x 8 B) per sampled
# particle; the trapped copies plus kinetic, potential, total and radius
# (11 x 8 B) per trapped particle
MC_BYTES_PER_PARTICLE = 56
MC_BYTES_PER_TRAPPED = 88


def layer_metrics(tracer):
    """Per-layer metrics of a traced run; a layer the run never entered
    reports 0."""
    times = tracer.self_times()
    counts = tracer.counts

    def calls(name):
        return times.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return times.get(name, (0, 0.0, 0.0))[2]

    out = {}
    for name in TIMED_LAYERS:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    for fn in PIPELINES:
        out[f"pipelines.{fn}.self_s"] = self_s(f"pipelines.{fn}")
    for fn in FITTERS:
        out[f"estimation.fit_{fn}.self_s"] = self_s(f"estimation.fit_{fn}")
    for key in ("tables.to_csv.bytes", "tables.read_csv.bytes",
                "leastsq.least_squares.iterations", "leastsq.residual_evals",
                "dynamics.volume_law.calls", "mc.particles"):
        out[key] = counts[key]
    out["leastsq.numeric_jacobian.calls"] = calls("leastsq.numeric_jacobian")
    trials = counts["leastsq.trial_evals"]
    out["leastsq.step_accept_ratio"] = (
        counts["leastsq.least_squares.iterations"] / trials if trials else 0.0)
    particles, trapped = counts["mc.particles"], counts["mc.trapped"]
    mc_s = self_s("mc.simulate_transfer")
    out["mc.particles_per_s"] = particles / mc_s if mc_s > 0 else 0.0
    out["mc.trapped_fraction"] = trapped / particles if particles else 0.0
    out["mc.bytes_computed"] = (MC_BYTES_PER_PARTICLE * particles
                                + MC_BYTES_PER_TRAPPED * trapped)
    return out


def _added_cost(bare, traced, calls=5_000, repeats=20):
    """Seconds one call of ``traced`` takes beyond one call of ``bare``:
    the best of timed loops of each, taken in turn so that both see the
    same moments of the host."""
    best = {bare: math.inf, traced: math.inf}
    for _ in range(repeats):
        for fn in best:
            loop = timeit.timeit(lambda: fn(0.0), number=calls)
            best[fn] = min(best[fn], loop / calls)
    return max(best[traced] - best[bare], 0.0)


def overhead_s(tracer):
    """Wall time the tracer added to a traced run: each recorded span and
    each counted call costs what a wrapper adds to an empty function,
    timed here, traced minus untraced."""
    def empty(*_):
        return None

    probe = Tracer()
    span_cost = _added_cost(empty, probe.wrap("probe", empty))
    count_cost = _added_cost(empty, probe._volume_law(lambda _: empty)(None))
    counted = (tracer.counts["dynamics.volume_law.calls"]
               + tracer.counts["leastsq.residual_evals"])
    return len(tracer.spans) * span_cost + counted * count_cost
