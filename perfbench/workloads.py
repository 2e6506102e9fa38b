"""The benchmark workloads.

Each workload is one closed-loop client in one process. Its constructor is
the set-up: it builds every input from the seed into a work directory.
``prepare(i)`` makes the input of op ``i`` outside the timed region and
``run(payload)`` is the timed op; it returns a list of problems, empty when
every output check passed. Ops come in cycles of ``cycle`` ops that cover
the strata of the workload once (commands or pumping distributions), and
a measured window always ends on a cycle boundary, so every run sees the
same mix. ``finish()`` makes the checks that need more than one op.

``tail_percentile`` is the highest percentile that keeps at least ten ops
beyond it in a run of the seed commit and lies inside one op's share of
the cycle rather than on the edge between two. It is fixed, not derived
from each run's op count, so that every run and every commit report the
same percentile.
"""

import hashlib
import math
import os
import resource
import subprocess
import sys

import numpy as np

from mtload import cli, cloud, collisions, estimation, mc, pipelines
from mtload.constants import MU_B
from mtload.scenario import parse_scenario

# relative noise of every synthetic measurement
NOISE = 0.01
# the Monte Carlo temperature may sit this many of its own statistical
# errors from the analytic prediction
MC_SIGMAS = 5.0
MC_PARTICLES = 1_000_000


def _rng(seed, *stream):
    return np.random.default_rng([int(seed), *stream])


def _finite_rows(path, fit_table):
    """Problems with the data rows of an emitted CSV file. Fit tables carry
    a parameter name in the first column, and derived values without an
    uncertainty have a NaN standard error; every other field is finite."""
    rows = []
    header = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            if header is None:
                header = line
                continue
            rows.append(line.rstrip("\n").split(","))
    if not rows:
        return [f"{os.path.basename(path)}: no data rows"]
    for row in rows:
        if fit_table:
            value, stderr = float(row[1]), float(row[2])
            ok = math.isfinite(value) and not math.isinf(stderr)
        else:
            ok = all(math.isfinite(float(v)) for v in row)
        if not ok:
            return [f"{os.path.basename(path)}: non-finite row {row}"]
    return []


# half-width of the density image in cloud 1/e radii
IMAGE_HALF_WIDTH = 2.0


def clean_image(n0, shape_b, shape_g, size):
    """Noiseless size x size projection image along the coil axis that
    keeps every pixel at least five noise standard deviations above zero,
    so additive noise never needs clipping."""
    pitch = 2.0 * IMAGE_HALF_WIDTH / (shape_b * size)
    image = estimation.render_density_image(n0, shape_b, shape_g, pitch,
                                            (size, size), ("y", "x"))
    if image.values.min() < 5 * NOISE * image.values.max():
        raise ValueError("synthetic image reaches into the noise floor")
    return image


def noisy_image(image, rng):
    """The image with additive noise of NOISE times its peak: the same on
    every pixel, as the unweighted image fit assumes."""
    noise = NOISE * image.values.max() * rng.standard_normal(
        image.values.shape)
    return estimation.DensityImage(image.values + noise, image.pitch,
                                   image.axes)


# --------------------------------------------------------------------------
# cli-session


CLI_COMMANDS = (
    ("simulate-loading", ["simulate-loading", "--out", "loading.csv"]),
    ("simulate-decay", ["simulate-decay", "--out", "decay.csv"]),
    ("figure2", ["figure2", "--out", "rates_vs_motsize.csv"]),
    ("figure3", ["figure3", "--out", "decayrates_vs_density.csv"]),
    ("figure4", ["figure4", "--out", "temperatures_vs_lightshift.csv"]),
    ("mc-transfer", ["mc-transfer", "--out", "transfer_check.csv"]),
    ("fit-loading-curve", ["fit", "loading-curve", "loading.csv",
                           "--out", "fit_loading.csv"]),
    ("fit-two-body", ["fit", "two-body", "decay.csv",
                      "--out", "fit_two_body.csv"]),
    ("fit-linear", ["fit", "linear", "decayrates_vs_density.csv",
                    "--out", "fit_linear.csv"]),
    ("fit-density-image", ["fit", "density-image", "image.csv",
                           "--mode", "projection", "--out", "fit_image.csv"]),
)


class CliSession:
    """The README's ten commands, each a fresh ``python -m mtload.cli``
    process with ``src`` on PYTHONPATH, replayed in order; later fits read
    the files earlier commands wrote."""

    name = "cli-session"
    cycle = len(CLI_COMMANDS)
    # figure4 and fit two-body, the only commands that run RK or the
    # Monte Carlo for long, are the slowest 20% of a cycle: too few ops in
    # a run for a supported tail. So p75 lies among the light commands and
    # reports start-up and import, not those two.
    tail_percentile = 75

    def __init__(self, seed, workdir, env):
        self.seed = seed
        self.workdir = workdir
        self.env = env
        self.peak_rss_kb = 0
        self.digests = {}
        rng = _rng(seed, 1)
        scenario = (
            "# noisy scenario generated from the benchmark seed\n"
            f"seed = {int(rng.integers(0, 2**31))}\n"
            f"noise.sigma_rel = {NOISE}\n"
            f"trap.gradient_G_per_cm = {rng.uniform(12.0, 18.0)!r}\n"
            f"mot.temperature_uK = {rng.uniform(250.0, 350.0)!r}\n"
            f"mot.sigma_um = {rng.uniform(150.0, 250.0)!r}\n"
            f"mot.atom_number = {rng.uniform(0.5e7, 2e7)!r}\n"
        )
        self.scenario_path = os.path.join(workdir, "run.cfg")
        with open(self.scenario_path, "w", encoding="utf-8") as fh:
            fh.write(scenario)
        sc = parse_scenario(scenario)
        species = sc.species()
        temperature = rng.uniform(80e-6, 150e-6)
        mu_bar = species.lande_g_d * rng.uniform(3.0, 4.0) * MU_B
        shape_b, shape_g = cloud.shape_params(temperature, mu_bar, sc.field(),
                                              species)
        image = noisy_image(clean_image(1e16, shape_b, shape_g, 64), rng)
        table = estimation.image_to_table(image, "projection")
        with open(os.path.join(workdir, "image.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write(table.to_csv())

    def argv(self, index):
        label, args = CLI_COMMANDS[index % self.cycle]
        args = [a if not a.endswith(".csv") else os.path.join(self.workdir, a)
                for a in args]
        return label, args + ["--scenario", self.scenario_path]

    def prepare(self, i):
        return i % self.cycle

    def run(self, index):
        """One command as a child process."""
        label, args = self.argv(index)
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(err_path, "w+b") as err:
            child = subprocess.Popen([sys.executable, "-m", "mtload.cli"]
                                     + args, env=self.env,
                                     stdout=subprocess.DEVNULL, stderr=err,
                                     cwd=self.workdir)
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            if child.returncode != 0:
                err.seek(0)
                return [f"{label}: exit {child.returncode}: "
                        f"{err.read().decode(errors='replace').strip()}"]
        return self.check_output(index)

    def run_in_process(self, index):
        """One command through ``mtload.cli.main`` in this process."""
        label, args = self.argv(index)
        code = cli.main(args)
        if code != 0:
            return [f"{label}: exit {code}"]
        return self.check_output(index)

    def check_output(self, index):
        label, args = self.argv(index)
        out = args[args.index("--out") + 1]
        problems = _finite_rows(out, fit_table=label.startswith("fit-"))
        with open(out, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if self.digests.setdefault(index, digest) != digest:
            problems.append(f"{label}: output differs from the first run "
                            "with the same scenario and seed")
        return problems

    def finish(self):
        """Rerun one command chosen by the seed (its inputs are still in
        place) and require byte-identical output."""
        index = self.seed % self.cycle
        if index not in self.digests:
            return []
        return self.run(index)

    def peak_rss_mb(self):
        return self.peak_rss_kb / 1024.0


# --------------------------------------------------------------------------
# transfer-scan


def _pumping(kind):
    """Pumping distributions of the scan and the mean substate of the
    atoms they trap."""
    if kind == "uniform":
        dist = mc.PumpingDistribution.uniform()
    elif kind == "upper":
        dist = mc.PumpingDistribution((0, 0, 0, 0, 0, 0.1, 0.2, 0.3, 0.4))
    else:
        dist = mc.PumpingDistribution.point(int(kind))
    p = np.asarray(dist.probabilities[5:])
    return dist, float(p @ np.arange(1, 5) / p.sum())


PUMPING_KINDS = ("4", "uniform", "3", "upper", "2", "4", "upper", "3",
                 "uniform")


class TransferScan:
    """Per op, one configuration of a forward scan over MOT size, gradient,
    temperature and pumping distribution, library warm in this process."""

    name = "transfer-scan"
    cycle = len(PUMPING_KINDS)
    tail_percentile = 85

    def __init__(self, seed, workdir, env):
        self.seed = seed
        self.overlaps = {}  # size ratio -> overlap correction
        rng = _rng(seed, 3)
        self.configs = []
        for kind in PUMPING_KINDS:
            dist, mean_m = _pumping(kind)
            sc = parse_scenario(
                f"mot.sigma_um = {rng.uniform(100.0, 300.0)!r}\n"
                f"trap.gradient_G_per_cm = {rng.uniform(10.0, 20.0)!r}\n"
                f"mot.temperature_uK = {rng.uniform(200.0, 400.0)!r}\n"
                f"transfer.mean_zeeman_m = {round(mean_m)}\n"
                f"noise.sigma_rel = {NOISE}\n")
            self.configs.append((sc, dist, mean_m))

    def prepare(self, i):
        sc, dist, mean_m = self.configs[i % self.cycle]
        return sc.with_seed(int(_rng(self.seed, 3, i).integers(0, 2**31))), \
            dist, mean_m

    def run(self, payload):
        sc, dist, mean_m = payload
        problems = []
        ctx = pipelines.loading_context(sc)
        mot, field, species = sc.mot_cloud(), sc.field(), sc.species()
        report = mc.simulate_transfer(mot, dist, field, species,
                                      MC_PARTICLES,
                                      np.random.default_rng(sc.seed))
        mu_trapped = species.lande_g_d * mean_m * MU_B
        predicted = cloud.predict_mt_temperature(mot, field, mu_trapped)
        if (abs(report.temperature_mc - predicted)
                > MC_SIGMAS * report.temperature_stderr):
            problems.append(
                f"T_MT_mc {report.temperature_mc:.6g} K +- "
                f"{report.temperature_stderr:.3g} vs predicted "
                f"{predicted:.6g} K")
        ratio = mot.size_sigma * ctx.shape_b
        overlap = collisions.overlap_correction(ratio)
        if not 0.0 < overlap <= 1.0:
            problems.append(f"overlap_correction({ratio:.4g}) = {overlap}")
        for other_ratio, other in self.overlaps.items():
            if (other_ratio - ratio) * (other - overlap) > 0:
                problems.append(
                    f"overlap_correction does not fall with the size ratio: "
                    f"f({ratio:.4g}) = {overlap:.6g}, "
                    f"f({other_ratio:.4g}) = {other:.6g}")
                break
        self.overlaps[ratio] = overlap
        for table in (pipelines.simulate_loading(sc),
                      pipelines.simulate_decay(sc)):
            text = table.to_csv()
            if not table.rows or not np.all(np.isfinite(table.rows)):
                problems.append(f"{table.header()}: non-finite rows")
            if not text.endswith("\n"):
                problems.append(f"{table.header()}: truncated CSV")
        return problems


    def finish(self):
        return []

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (CliSession, TransferScan)}
