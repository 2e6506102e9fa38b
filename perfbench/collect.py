"""Repeat benchmark runs over seeds and summarise them.

    python3 perfbench/collect.py --workload transfer-scan --seeds 10
    python3 perfbench/collect.py --seeds 10 --out perfbench/baseline.json
    python3 perfbench/collect.py --seeds 10 --checkout ../parent --checkout .

Each run is ``python3 perfbench/run.py`` in a checkout's root with the
settings of that checkout's BENCHMARK.json, one seed per run. For every
workload and end-to-end metric the summary gives the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, which must stay
within the metric's bound. With two checkouts, each seed runs on both,
alternating which goes first, and the summary counts the seeds on which
the second checkout read better.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def environment():
    """What produced the numbers: versions, cores, L3 and the BLAS pin."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lscpu = subprocess.run(["lscpu"], capture_output=True, text=True,
                           check=False).stdout
    l3 = next((line.split(":", 1)[1].strip() for line in lscpu.splitlines()
               if line.startswith("L3 cache")), "unknown")
    sys.path.insert(0, HERE)
    from run import BLAS_PIN

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "nproc": len(os.sched_getaffinity(0)), "l3_cache": l3,
            "blas_threads": BLAS_PIN, "machine": platform.machine()}


def run_once(checkout, workload, seed, seconds, trace):
    args = ["python3", "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))]
    done = subprocess.run(args, cwd=checkout, capture_output=True, text=True,
                          timeout=900, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{args} in {checkout} exited {done.returncode}:"
                           f"\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            **{name: m["value"] for name, m in result["metrics"].items()}}


def summarise(runs, declared):
    out = {}
    for metric in declared:
        values = [r[metric["name"]] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {
            "unit": metric["unit"], "median": statistics.median(values),
            "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0,
            "bound": metric.get("bound"), "values": values}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (default: all)")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", action="store_true",
                        help="traced runs: per-layer metrics")
    parser.add_argument("--checkout", action="append",
                        help="checkout root to run in (default: this one); "
                             "give two for parent/change pairs")
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args(argv)
    checkouts = [os.path.abspath(c) for c in
                 (args.checkout or [os.path.dirname(HERE)])]
    if len(checkouts) > 2:
        parser.error("give at most two checkouts")
    with open(os.path.join(checkouts[0], "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = bench["per_layer" if args.trace else "end_to_end"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    section = {"seeds": args.seeds, "workloads": {}}
    for workload in workloads:
        runs = {c: [] for c in checkouts}
        for k in range(args.seeds):
            seed = 1 + k
            order = checkouts if k % 2 == 0 else checkouts[::-1]
            for checkout in order:
                runs[checkout].append(run_once(checkout, workload, seed,
                                               bench["run_seconds"],
                                               args.trace))
        section["workloads"][workload] = {
            c: {"failed": sum(r["failed"] for r in rs),
                "attempted": sum(r["attempted"] for r in rs),
                "correct": all(r["correct"] for r in rs),
                "metrics": summarise(rs, declared)}
            for c, rs in runs.items()}
        for checkout in checkouts:
            summary = section["workloads"][workload][checkout]
            print(f"{workload} @ {checkout}: failed {summary['failed']} of "
                  f"{summary['attempted']}")
            for name, m in summary["metrics"].items():
                bound = m["bound"]
                flag = ("" if bound is None else
                        " steady" if m["spread"] < bound / 3 else
                        " within bound" if m["spread"] <= bound else
                        " TOO WIDE")
                print(f"  {name:34s} median {m['median']:<12.6g} "
                      f"spread {m['spread']:.4f}{flag}")
        if len(checkouts) == 2:
            parent, change = (runs[c] for c in checkouts)
            for metric in declared:
                name = metric["name"]
                sign = -1 if metric["better"] == "lower" else 1
                wins = sum(sign * (b[name] - a[name]) > 0
                           for a, b in zip(parent, change))
                print(f"  {name:34s} change better on {wins} of "
                      f"{len(parent)} pairs")
    if len(checkouts) == 1:
        section["workloads"] = {w: v[checkouts[0]]
                                for w, v in section["workloads"].items()}
    if args.out:
        # traced and untraced summaries share one file, a section each
        report = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                report = json.load(fh)
        report.update(environment=environment(),
                      run_seconds=bench["run_seconds"])
        report["per_layer" if args.trace else "end_to_end"] = section
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
