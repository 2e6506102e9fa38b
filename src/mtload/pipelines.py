"""Scenario-driven pipelines behind the CLI commands.

Each function is a pure function of (scenario, seed): it composes the
physics modules, optionally injects seeded multiplicative noise, and
returns a ResultTable (plus fit summaries where the measurement protocol
includes one). All derived intermediate quantities are recorded as notes
so an output file documents how it was produced.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import cloud, collisions, dynamics, excitation
from .errors import ConfigError
from .estimation import SampleSeries, fit_linear
from .leastsq import FitResult
from .mc import (PumpingDistribution, TransferReport, seed_stream,
                 simulate_transfer)
from .scenario import Scenario
from .tables import ResultTable, format_number, provenance_header


@dataclass(frozen=True)
class LoadingContext:
    """All intermediate quantities of one loading configuration."""

    p_e: float
    t_mt: float
    shape_b: float
    volume: float
    n_e: float
    v_bar: float
    gamma_total: float
    rate: float


def loading_context(sc: Scenario,
                    n_mot: float | None = None) -> LoadingContext:
    """Compose excitation, cloud geometry, and collision kinematics into
    the loading rate R and total decay rate Gamma for one configuration.
    Raises ValueError naming the first of n_e, Gamma and R that is not
    finite."""
    species = sc.species()
    mot = sc.mot_cloud()
    if n_mot is None:
        n_mot = mot.atom_number
    p_e = excitation.excitation_probability(sc.light_field(), species)
    t_mt = sc.mt_temperature()
    shape_b, shape_g = cloud.shape_params(t_mt, sc.mu_bar(), sc.field(),
                                          species)
    volume = cloud.effective_volume(shape_b, shape_g)

    def finite(name, value):
        if not math.isfinite(value):
            raise ValueError(f"non-finite {name} = {format_number(value)} "
                             "in the loading context")
        return value

    # n_e is checked before mot_on_decay_rate, which refuses an infinite one
    n_e = finite("n_e", collisions.excited_mot_density(n_mot, p_e, volume))
    v_bar = collisions.mean_collision_velocity(mot.temperature, t_mt, species)
    sigma_eff = sc["rates.sigma_ed_m2"] * sc["rates.overlap_factor"]
    gamma_total = finite("Gamma", dynamics.mot_on_decay_rate(
        n_e, sigma_eff, v_bar, sc["rates.mot_on_background_rate_per_s"]))
    rate = finite("R", excitation.transfer_rate(n_mot, p_e, species,
                                                sc["transfer.efficiency"]))
    return LoadingContext(
        p_e=p_e, t_mt=t_mt, shape_b=shape_b, volume=volume, n_e=n_e,
        v_bar=v_bar, gamma_total=gamma_total, rate=rate,
    )


def _context_notes(ctx: LoadingContext) -> list[str]:
    return [
        f"derived P_e = {format_number(ctx.p_e)}",
        f"derived R_per_s = {format_number(ctx.rate)}",
        f"derived Gamma_per_s = {format_number(ctx.gamma_total)}",
        f"derived T_MT_K = {format_number(ctx.t_mt)}",
        f"derived V_MT_m3 = {format_number(ctx.volume)}",
        f"derived n_e_per_m3 = {format_number(ctx.n_e)}",
        f"derived v_bar_m_per_s = {format_number(ctx.v_bar)}",
    ]


def _stream(sc: Scenario, label: str,
            notes: list[str]) -> np.random.Generator:
    """The scenario seed's generator for stream ``label``; the output's
    notes name the stream."""
    notes.append(f"seed-stream {label}")
    return seed_stream(sc.seed, label)


def _require_excitation(p_e: float, figure: str) -> None:
    """Refuse a light field that excites no atom: with P_e = 0 neither
    figure has a rate to fit."""
    if p_e == 0.0:
        raise ConfigError(
            "light.intensity_per_beam_sat, light.detuning_linewidths: no "
            f"atom is excited (P_e = 0), so {figure} has no rate to fit")


def _apply_noise(values: np.ndarray, sigma_rel: float,
                 rng: np.random.Generator) -> np.ndarray:
    if sigma_rel == 0.0:
        return values
    return values * (1.0 + sigma_rel * rng.standard_normal(values.shape))


def simulate_loading(sc: Scenario) -> ResultTable:
    """Loading curve of the magnetic trap with the reservoir on:
    columns (t, N_MT)."""
    ctx = loading_context(sc)
    times = np.linspace(0.0, sc["sim.t_end_s"], sc["sim.samples"])
    atoms = dynamics.loading_curve(ctx.rate, ctx.gamma_total, times)
    notes = []
    rng = _stream(sc, "noise/simulate-loading", notes)
    atoms = _apply_noise(atoms, sc["noise.sigma_rel"], rng)
    rows = [(t, n) for t, n in zip(times, atoms)]
    return ResultTable(
        columns=[("t", "s"), ("N_MT", "count")],
        rows=rows,
        provenance=provenance_header(sc),
        notes=notes + _context_notes(ctx),
    )


def simulate_decay(sc: Scenario) -> ResultTable:
    """Post-loading decay of the trapped cloud: columns (t, n0, N, V)."""
    ctx = loading_context(sc)
    model = dynamics.RateModel(
        background_lifetime=sc["rates.background_lifetime_s"],
        two_body_coeff=sc["rates.two_body_m3_per_s"],
        initial_volume=ctx.volume,
        volume_growth_rate=sc["rates.volume_growth_per_s"],
    )
    t_end = sc["decay.t_end_s"]
    dt = t_end / (sc["decay.samples"] - 1)
    traj = dynamics.integrate_mt_decay(sc["decay.initial_density_m3"],
                                       model, t_end, dt)
    notes = []
    rng = _stream(sc, "noise/simulate-decay", notes)
    density = _apply_noise(traj.peak_density.copy(), sc["noise.sigma_rel"],
                           rng)
    rows = [(t, n, n * v, v)
            for t, n, v in zip(traj.times, density, traj.volume)]
    notes += _context_notes(ctx)
    beta = sc["rates.two_body_m3_per_s"]
    if beta > 0:
        # the velocity entering sigma = beta/v is ambiguous between a
        # trap-trap and a reservoir-trap thermal average; report both
        species = sc.species()
        v_mtmt = collisions.mean_collision_velocity(ctx.t_mt, ctx.t_mt,
                                                    species)
        v_motmt = collisions.mean_collision_velocity(
            sc.mot_cloud().temperature, ctx.t_mt, species)
        notes.append("derived sigma_dd_mtmt_m2 = " + format_number(
            collisions.cross_section_from_beta(beta, v_mtmt)))
        notes.append("derived sigma_dd_motmt_m2 = " + format_number(
            collisions.cross_section_from_beta(beta, v_motmt)))
    return ResultTable(
        columns=[("t", "s"), ("n0", "1/m^3"), ("N", "count"), ("V", "m^3")],
        rows=rows,
        provenance=provenance_header(sc),
        notes=notes,
    )


@dataclass(frozen=True)
class DetuningFit:
    """The transfer efficiency implied by one detuning's fitted slope of
    R vs N_MOT."""

    detuning_linewidths: float
    efficiency: float


def figure2(sc: Scenario) -> tuple[ResultTable, list[DetuningFit]]:
    """Loading-rate sweep: R vs N_MOT for each configured detuning, with
    the companion linear fits and the transfer efficiencies they imply."""
    species = sc.species()
    detunings = sc["figure2.detunings_linewidths"]
    efficiencies = sc["figure2.efficiencies"]
    atom_numbers = np.asarray(sc["figure2.atom_numbers"])
    notes = []
    rng = _stream(sc, "noise/figure2", notes)
    rows = []
    fits = []
    for det, eta in zip(detunings, efficiencies):
        p_e = excitation.excitation_probability(sc.light_field(det), species)
        _require_excitation(p_e, "figure2")
        rates = np.array([
            excitation.transfer_rate(n, p_e, species, eta)
            for n in atom_numbers
        ])
        rates = _apply_noise(rates, sc["noise.sigma_rel"], rng)
        rows.extend((det, n, r) for n, r in zip(atom_numbers, rates))
        fit = fit_linear(SampleSeries(atom_numbers, rates))
        eta_hat = excitation.efficiency_from_rate(fit.params["slope"], 1.0,
                                                  p_e, species)
        fits.append(DetuningFit(detuning_linewidths=det, efficiency=eta_hat))
        notes.append(
            f"fit detuning_linewidths={format_number(det)} "
            f"slope_per_s={format_number(fit.params['slope'])} "
            f"eta={format_number(eta_hat)}"
        )
    table = ResultTable(
        columns=[("detuning", "Gamma_eg"), ("N_MOT", "count"), ("R", "1/s")],
        rows=rows,
        provenance=provenance_header(sc),
        notes=notes,
    )
    return table, fits


def figure3(sc: Scenario) -> tuple[ResultTable, FitResult]:
    """Decay-rate sweep: Gamma vs n_e*v, with the companion linear fit that
    extracts the inelastic cross section (slope) and the residual
    background rate (intercept)."""
    xs = []
    gammas = []
    for n_mot in sc["figure3.atom_numbers"]:
        ctx = loading_context(sc, n_mot=n_mot)
        _require_excitation(ctx.p_e, "figure3")
        xs.append(ctx.n_e * ctx.v_bar)
        gammas.append(ctx.gamma_total)
    xs = np.asarray(xs)
    gammas = np.asarray(gammas)
    notes = []
    rng = _stream(sc, "noise/figure3", notes)
    gammas = _apply_noise(gammas, sc["noise.sigma_rel"], rng)
    fit = fit_linear(SampleSeries(xs, gammas))
    rows = list(zip(xs, gammas))
    notes += [
        f"fit sigma_ed_m2 = {format_number(fit.params['slope'])}",
        f"fit sigma_ed_stderr_m2 = {format_number(fit.stderr['slope'])}",
        f"fit intercept_per_s = {format_number(fit.params['intercept'])}",
    ]
    table = ResultTable(
        columns=[("n_e_v", "1/(m^2 s)"), ("Gamma", "1/s")],
        rows=rows,
        provenance=provenance_header(sc),
        notes=notes,
    )
    return table, fit


def _transfer(sc: Scenario, mot: cloud.MotCloud, label: str,
              notes: list[str]) -> tuple[float, TransferReport]:
    """The analytic transfer temperature of reservoir ``mot`` and its Monte
    Carlo check, drawn from seed stream ``label``."""
    field = sc.field()
    t_th = cloud.predict_mt_temperature(mot, field, sc.mu_bar())
    dist = PumpingDistribution.point(sc["transfer.mean_zeeman_m"])
    report = simulate_transfer(mot, dist, field, sc.species(),
                               sc["mc.particles"],
                               rng=_stream(sc, label, notes))
    return t_th, report


def figure4(sc: Scenario) -> ResultTable:
    """Transfer-temperature sweep against the light-shift parameter: the
    configured linear reservoir-temperature law, the analytic prediction,
    and the Monte Carlo check with its statistical error."""
    offset = sc["figure4.tmot_offset_uK"]
    slope = sc["figure4.tmot_slope_uK"]
    rows = []
    notes = []
    for i, shift in enumerate(sc["figure4.lightshift"]):
        t_mot = (offset + slope * shift) * 1e-6
        mot = replace(sc.mot_cloud(), temperature=t_mot)
        t_th, report = _transfer(sc, mot, f"figure4-mc-{i}", notes)
        rows.append((shift, t_mot, t_th, report.temperature_mc,
                     report.temperature_stderr))
    return ResultTable(
        columns=[("lightshift", "I/Delta"), ("T_MOT", "K"),
                 ("T_MT_th", "K"), ("T_MT_mc", "K"),
                 ("T_MT_mc_stderr", "K")],
        rows=rows,
        provenance=provenance_header(sc),
        notes=notes,
    )


def mc_transfer(sc: Scenario) -> ResultTable:
    """One seeded transfer simulation compared against the analytic
    prediction; single-row table."""
    mot = sc.mot_cloud()
    notes = []
    t_th, report = _transfer(sc, mot, "mc-transfer", notes)
    rel = report.temperature_mc / t_th - 1.0
    rows = [(
        report.particles, report.trapped, mot.temperature, mot.size_sigma,
        sc.field().gradient, sc["transfer.mean_zeeman_m"],
        report.temperature_mc, report.temperature_stderr, t_th, rel,
        report.mean_radius, report.mean_radius_expected,
        report.mean_radius_stderr,
    )]
    return ResultTable(
        columns=[
            ("particles", "count"), ("trapped", "count"), ("T_MOT", "K"),
            ("sigma", "m"), ("gradient", "T/m"), ("mean_zeeman_m", "1"),
            ("T_MT_mc", "K"), ("T_MT_mc_stderr", "K"), ("T_MT_th", "K"),
            ("rel_diff", "1"), ("mean_radius", "m"),
            ("mean_radius_expected", "m"), ("mean_radius_stderr", "m"),
        ],
        rows=rows,
        provenance=provenance_header(sc),
        notes=notes,
    )
