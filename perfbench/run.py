"""mtload benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; mtload is imported from ``src``
and the CLI runs as ``python -m mtload.cli`` with ``src`` on PYTHONPATH,
as a user without an install runs it. ``--trace 0`` measures the
end-to-end metrics for S seconds; ``--trace 1`` runs one fixed cycle of
ops with spans around mtload's public functions and prints the per-layer
metrics. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. See README.md in this
directory.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
# one BLAS thread here and in every child, so the load fits two cores
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
# fresh set-up processes per run, before and after the measured window;
# their median is setup_s, so the first one, which also compiles bytecode
# and fills the page cache in a fresh checkout, does not decide it
SETUP_REPEATS = (4, 3)
FRESH_REPEATS = 3
# a tail percentile is supported when at least this many ops lie beyond it
TAIL_BEYOND = 10
IMPORT_PROBE = ("import time; t = time.perf_counter(); import mtload; "
                "print(time.perf_counter() - t)")


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _child(args):
    """Run a child process to completion; return (seconds, stdout)."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable] + args, env=os.environ,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          cwd=ROOT, check=False)
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"child {args} exited {done.returncode}: "
                           f"{done.stderr.decode(errors='replace')}")
    return seconds, done.stdout.decode()


def setup_times(workload, seed, repeats):
    """Wall times of fresh processes that import mtload and build the
    workload's inputs."""
    args = [os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    return [_child(args)[0] for _ in range(repeats)]


def percentile(values, p):
    """The p-th percentile, interpolating linearly between ranks."""
    ordered = sorted(values)
    position = p / 100.0 * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _op(run, payload, problems):
    """Time one op; an exception is a failed op, recorded with its
    traceback."""
    start = time.perf_counter()
    try:
        found = run(payload)
    except Exception:  # noqa: BLE001 - the benchmark loop must keep going
        found = [traceback.format_exc(limit=3)]
    seconds = time.perf_counter() - start
    problems.extend(found)
    return seconds, bool(found)


def measure(wl, seconds):
    """Closed loop of whole cycles until ``seconds`` have passed."""
    problems = []
    latencies = []
    failed = 0
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    i = 0
    while True:
        payload = wl.prepare(i)
        took, bad = _op(wl.run, payload, problems)
        latencies.append(took)
        failed += bad
        i += 1
        if i % wl.cycle == 0 and time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu0
    problems += wl.finish()
    tail_s = percentile(latencies, wl.tail_percentile)
    beyond = sum(t > tail_s for t in latencies)
    print(f"op_tail_ms is p{wl.tail_percentile:g} of {i} ops, {beyond} "
          f"beyond it" + (" (too few: the tail is uncertain)"
                          if beyond < TAIL_BEYOND else ""))
    metrics = {
        "ops_per_s": i / elapsed,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_s,
        "cpu_ms_per_op": 1e3 * cpu / i,
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    return i, failed, problems, metrics


def fresh_process_metrics():
    """Interpreter start and the bare ``import mtload``, each the median
    of fresh processes; the import is timed inside its process so the
    interpreter start is not part of it."""
    start = statistics.median(_child(["-c", "pass"])[0]
                              for _ in range(FRESH_REPEATS))
    imports = statistics.median(float(_child(["-c", IMPORT_PROBE])[1])
                                for _ in range(FRESH_REPEATS))
    return {"python.start_s": start, "import.mtload_s": imports}


def trace(wl, spans_path):
    """One cycle untraced to warm up, then the same cycle traced;
    per-layer metrics from the spans."""
    import spans
    import workloads

    run = getattr(wl, "run_in_process", wl.run)
    problems = []
    failed = 0
    payloads = [wl.prepare(i) for i in range(wl.cycle)]
    for payload in payloads:
        failed += _op(run, payload, problems)[1]
    tracer = spans.Tracer()
    with tracer.installed():
        for payload in payloads:
            failed += _op(run, payload, problems)[1]
    tracer.write(spans_path)
    problems += wl.finish()
    metrics = spans.layer_metrics(tracer)
    metrics.update(fresh_process_metrics())
    metrics["trace.overhead_s"] = spans.overhead_s(tracer)
    # one traced cli.main span per command, in command order
    per_command = [end - begin for name, begin, end, _ in tracer.spans
                   if name == "cli.main"]
    per_command = per_command or [0.0] * len(workloads.CLI_COMMANDS)
    metrics["cli.main_s"] = statistics.mean(per_command)
    for (label, _), took in zip(workloads.CLI_COMMANDS, per_command):
        metrics[f"cli.main.{label}_s"] = took
    return 2 * wl.cycle, failed, problems, metrics


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mtload", "__init__.py")):
        print(f"run.py: no mtload sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    # before numpy loads in this process
    os.environ.update(BLAS_PIN, PYTHONPATH=SRC)
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if args.setup_only:
            workloads.WORKLOADS[args.workload](args.seed, workdir, os.environ)
            return 0
        before, after = SETUP_REPEATS
        setups = [] if args.trace else setup_times(args.workload, args.seed,
                                                   before)
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir,
                                                 os.environ)
        if args.trace:
            spans_path = os.path.join(
                WORK, f"spans-{args.workload}-{args.seed}.json")
            attempted, failed, problems, metrics = trace(wl, spans_path)
            expected = declared["per_layer"]
        else:
            attempted, failed, problems, metrics = measure(wl, args.seconds)
            setups += setup_times(args.workload, args.seed, after)
            metrics["setup_s"] = statistics.median(setups)
            expected = declared["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in expected}
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
