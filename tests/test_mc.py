import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtload import (Ensemble, MotCloud, PumpingDistribution,
                    QuadrupoleField, predict_mt_temperature,
                    sample_mot_atoms, sample_zeeman_substates,
                    simulate_transfer)
from mtload import mc
from mtload.constants import K_B, MU_B
from mtload.mc import ZEEMAN_M_VALUES, ensemble_energies, seed_stream


def mot(sigma=200e-6, t=300e-6):
    return MotCloud(size_sigma=sigma, temperature=t, atom_number=1e7)


# -------------------------------------------------------------- sampling


def test_sampler_equipartition(cr):
    rng = seed_stream(11, "equi")
    ens = sample_mot_atoms(mot(), cr, 100_000, rng)
    speed_sq = np.sum(ens.velocities ** 2, axis=1)
    expected = 3 * K_B * 300e-6 / cr.mass
    stderr = speed_sq.std(ddof=1) / math.sqrt(len(speed_sq))
    assert abs(speed_sq.mean() - expected) < 3 * stderr


def test_sampler_mean_radius(cr):
    rng = seed_stream(12, "radius")
    ens = sample_mot_atoms(mot(), cr, 100_000, rng)
    radii = np.linalg.norm(ens.positions, axis=1)
    expected = math.sqrt(8 / math.pi) * 200e-6
    stderr = radii.std(ddof=1) / math.sqrt(len(radii))
    assert abs(radii.mean() - expected) < 3 * stderr


def test_sampler_point_reservoir(cr):
    rng = seed_stream(13, "point")
    ens = sample_mot_atoms(mot(sigma=0.0), cr, 1000, rng)
    assert np.all(ens.positions == 0.0)


def test_sampler_bit_reproducible(cr):
    a = sample_mot_atoms(mot(), cr, 500, seed_stream(14, "bits"))
    b = sample_mot_atoms(mot(), cr, 500, seed_stream(14, "bits"))
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.velocities, b.velocities)


# -------------------------------------------------------------- pumping


def test_point_distribution_always_hits():
    dist = PumpingDistribution.point(4)
    draws = sample_zeeman_substates(dist, 1000, seed_stream(16, "pt"))
    assert np.all(draws == 4)
    assert dist.trapped_fraction == 1.0
    assert dist.mean_m == 4.0


def test_uniform_distribution_trapped_fraction():
    dist = PumpingDistribution.uniform()
    assert dist.trapped_fraction == pytest.approx(4 / 9, rel=1e-12)
    draws = sample_zeeman_substates(dist, 90_000, seed_stream(17, "uni"))
    frac = np.mean(draws > 0)
    # multinomial error bound: 3 sigma of a Bernoulli(4/9) mean
    bound = 3 * math.sqrt((4 / 9) * (5 / 9) / 90_000)
    assert abs(frac - 4 / 9) < bound


def test_categorical_frequencies_match():
    probs = (0.05, 0.0, 0.1, 0.05, 0.2, 0.1, 0.1, 0.25, 0.15)
    dist = PumpingDistribution(probs)
    draws = sample_zeeman_substates(dist, 120_000, seed_stream(18, "cat"))
    for m, p in zip(range(-4, 5), probs):
        freq = np.mean(draws == m)
        bound = 3 * math.sqrt(max(p * (1 - p), 1e-9) / 120_000)
        assert abs(freq - p) <= bound + 1e-12


def test_distribution_validation():
    with pytest.raises(ValueError):
        PumpingDistribution((1.0,) * 9)
    with pytest.raises(ValueError):
        PumpingDistribution((-0.1, 0.1, 0.1, 0.1, 0.2, 0.2, 0.2, 0.1, 0.1))
    with pytest.raises(ValueError):
        PumpingDistribution.point(5)


def assert_matches_choice(dist, count, seed):
    # the uniforms-to-substates map against the generator's own
    # categorical sampler: same values, same generator state
    rng, choice_rng = seed_stream(seed, "cat"), seed_stream(seed, "cat")
    expected = choice_rng.choice(np.array(ZEEMAN_M_VALUES), size=count,
                                 p=np.asarray(dist.probabilities))
    got = mc._substates_from_uniforms(mc._substate_cdf(dist),
                                      rng.random(count),
                                      np.empty(count, dtype=np.int8))
    assert np.array_equal(got, expected)
    assert rng.bit_generator.state == choice_rng.bit_generator.state
    public = sample_zeeman_substates(dist, count, seed_stream(seed, "cat"))
    assert np.array_equal(public, expected)
    assert public.dtype == expected.dtype


UPPER = PumpingDistribution((0, 0, 0, 0, 0, 0.1, 0.2, 0.3, 0.4))


@pytest.mark.parametrize("dist", [
    *(PumpingDistribution.point(m) for m in ZEEMAN_M_VALUES),
    PumpingDistribution.uniform(), UPPER,
], ids=[*(f"m{m}" for m in ZEEMAN_M_VALUES), "uniform", "upper"])
def test_substates_match_generator_choice(dist):
    assert_matches_choice(dist, 50_000, 31)


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(st.integers(0, 5), min_size=9, max_size=9).filter(any),
    low_zeros=st.integers(0, 8),
    high_zeros=st.integers(0, 8),
    count=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
)
def test_substates_match_choice_property(weights, low_zeros, high_zeros,
                                         count, seed):
    # zero tails at either end make cdf entries exactly 0 or exactly 1
    w = np.array(weights, dtype=float)
    w[:low_zeros] = 0.0
    w[9 - high_zeros:] = 0.0
    if not w.any():
        w[low_zeros % 9] = 1.0
    assert_matches_choice(PumpingDistribution(tuple(w / w.sum())), count,
                          seed)


# ------------------------------------------------------------ energetics


def one_atom(position, velocity=(0.0, 0.0, 0.0), m=4):
    return Ensemble(np.array([position], dtype=float),
                    np.array([velocity], dtype=float), np.array([m]))


def test_audit_at_origin(cr, field):
    kinetic, potential = ensemble_energies(
        one_atom((0.0, 0.0, 0.0), (0.1, 0.0, 0.0)), field, cr)
    assert potential[0] == 0.0
    assert kinetic[0] == pytest.approx(0.5 * cr.mass * 0.01, rel=1e-12)


def test_audit_reference_value(cr):
    # g_d m_d = 6, b = 0.2 T/m, |r| = 100 um
    _, potential = ensemble_energies(one_atom((1e-4, 0.0, 0.0)),
                                     QuadrupoleField(0.2), cr)
    assert potential[0] == pytest.approx(6 * MU_B * 0.2 * 1e-4, rel=1e-12)
    assert potential[0] == pytest.approx(1.11e-27, rel=5e-3)


def test_audit_linearity(cr):
    def pot(r, m, grad):
        return ensemble_energies(one_atom((r, 0.0, 0.0), m=m),
                                 QuadrupoleField(grad), cr)[1][0]

    base = pot(1e-4, 2, 0.1)
    assert pot(2e-4, 2, 0.1) == pytest.approx(2 * base, rel=1e-12)
    assert pot(1e-4, 4, 0.1) == pytest.approx(2 * base, rel=1e-12)
    assert pot(1e-4, 2, 0.2) == pytest.approx(2 * base, rel=1e-12)
    # isotropic |r| convention: the coil axis is not weighted
    assert ensemble_energies(one_atom((0.0, 0.0, 1e-4), m=2),
                             QuadrupoleField(0.1), cr)[1][0] == \
        pytest.approx(base, rel=1e-12)


def test_audit_rejects_untrapped(cr, field):
    with pytest.raises(ValueError):
        ensemble_energies(one_atom((0.0, 0.0, 0.0), m=-1), field, cr)
    unset = Ensemble(np.zeros((1, 3)), np.zeros((1, 3)))
    with pytest.raises(ValueError):
        ensemble_energies(unset, field, cr)


# -------------------------------------------------- virial equilibrium


def test_point_transfer_recovers_third_of_reservoir_temperature(cr, field):
    report = simulate_transfer(mot(sigma=0.0), PumpingDistribution.point(4),
                               field, cr, 200_000, seed_stream(19, "third"))
    assert report.temperature_mc == pytest.approx(100e-6, rel=0.01)


def test_energy_scaling_linearity(cr, field):
    rng = seed_stream(20, "scale")
    ens = sample_mot_atoms(mot(), cr, 20_000, rng)
    ens.zeeman_m = np.full(len(ens), 4)
    total = sum(ensemble_energies(ens, field, cr))
    doubled = Ensemble(ens.positions * 2, ens.velocities * math.sqrt(2),
                       ens.zeeman_m)
    total2 = sum(ensemble_energies(doubled, field, cr))
    np.testing.assert_allclose(total2, 2 * total, rtol=1e-12)


def test_equilibrium_rejects_bad_ensembles(cr, field):
    ens = Ensemble(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0, int))
    with pytest.raises(ValueError):
        ensemble_energies(ens, field, cr)
    mixed = Ensemble(np.zeros((2, 3)), np.zeros((2, 3)),
                     np.array([4, -1]))
    with pytest.raises(ValueError):
        ensemble_energies(mixed, field, cr)
    with pytest.raises(ValueError):
        simulate_transfer(mot(), PumpingDistribution.point(-2), field, cr,
                          1_000, seed_stream(26, "none"))


@pytest.mark.parametrize("sigma", [0.0, 100e-6, 200e-6])
@pytest.mark.parametrize("gradient", [0.1, 0.2])
@pytest.mark.parametrize("mean_m", [3, 4])
def test_transfer_oracle_matches_prediction(cr, sigma, gradient, mean_m):
    fld = QuadrupoleField(gradient)
    cloud = mot(sigma=sigma)
    mu_bar = cr.lande_g_d * mean_m * MU_B
    expected = predict_mt_temperature(cloud, fld, mu_bar)
    report = simulate_transfer(cloud, PumpingDistribution.point(mean_m),
                               fld, cr, 100_000,
                               seed_stream(21, f"or-{sigma}-{gradient}-{mean_m}"))
    assert abs(report.temperature_mc / expected - 1.0) < 0.02
    if sigma == 0.0:
        # statistical consistency with the exact T/3 limit
        diff = abs(report.temperature_mc - expected)
        assert diff < 3 * report.temperature_stderr


def test_transfer_mean_radius_within_three_sigma(cr, field):
    report = simulate_transfer(mot(), PumpingDistribution.point(4), field,
                               cr, 100_000, seed_stream(22, "radius"))
    diff = abs(report.mean_radius - report.mean_radius_expected)
    assert diff < 3 * report.mean_radius_stderr


def test_transfer_uniform_pumping_trapped_fraction(cr, field):
    report = simulate_transfer(mot(), PumpingDistribution.uniform(), field,
                               cr, 90_000, seed_stream(23, "frac"))
    assert report.trapped_fraction == pytest.approx(4 / 9, abs=0.01)


def test_transfer_deterministic(cr, field):
    a = simulate_transfer(mot(), PumpingDistribution.point(4), field, cr,
                          10_000, seed_stream(24, "det"))
    b = simulate_transfer(mot(), PumpingDistribution.point(4), field, cr,
                          10_000, seed_stream(24, "det"))
    assert a == b


# ------------------------------------------- streamed path vs the oracle


@pytest.mark.parametrize("chunk", [7, mc._CHUNK])
@pytest.mark.parametrize("count", [1000, 2 * mc._CHUNK + 7])
@pytest.mark.parametrize("dist", [
    PumpingDistribution.uniform(), PumpingDistribution.point(4), UPPER,
], ids=["uniform", "m4", "upper"])
def test_transfer_is_bit_identical_to_ensemble_audit(cr, field, dist, count,
                                                      chunk):
    # the same arithmetic on the full ensemble, in the same order, gives
    # the same floats: ==, not a tolerance
    rng = seed_stream(29, "bits")
    ensemble = sample_mot_atoms(mot(), cr, count, rng)
    ensemble.zeeman_m = sample_zeeman_substates(dist, count, rng)
    trapped = ensemble.trapped()
    total = sum(ensemble_energies(trapped, field, cr))
    radius = np.sqrt(np.einsum("ij,ij->i", trapped.positions,
                               trapped.positions))
    n = len(trapped)
    with mock.patch.object(mc, "_CHUNK", chunk):
        streamed_rng = seed_stream(29, "bits")
        report = simulate_transfer(mot(), dist, field, cr, count,
                                   streamed_rng)
    assert report.trapped == n
    assert report.temperature_mc == 2.0 * float(total.mean()) / (9.0 * K_B)
    assert report.temperature_stderr == (
        2.0 * float(total.std(ddof=1)) / (9.0 * K_B * math.sqrt(n)))
    assert report.mean_radius == float(radius.mean())
    assert report.mean_radius_stderr == (float(radius.std(ddof=1))
                                         / math.sqrt(n))
    assert streamed_rng.bit_generator.state == rng.bit_generator.state


def oracle_transfer(cloud, dist, fld, species, count, rng):
    # the ensemble path written out: sample, pump, copy the trapped
    # sub-ensemble, audit its energies, take the radii again
    ensemble = sample_mot_atoms(cloud, species, count, rng)
    ensemble.zeeman_m = sample_zeeman_substates(dist, count, rng)
    trapped = ensemble.trapped()
    if len(trapped) == 0:
        raise ValueError("no trapped atoms")
    kinetic, potential = ensemble_energies(trapped, fld, species)
    total = kinetic + potential
    n = len(trapped)
    radii = np.linalg.norm(trapped.positions, axis=1)
    return {
        "particles": count,
        "trapped": n,
        "temperature_mc": 2.0 * total.mean() / (9.0 * K_B),
        "temperature_stderr": (2.0 * total.std(ddof=1)
                               / (9.0 * K_B * math.sqrt(n)) if n > 1
                               else 0.0),
        "mean_radius": radii.mean(),
        "mean_radius_expected": math.sqrt(8.0 / math.pi) * cloud.size_sigma,
        "mean_radius_stderr": (radii.std(ddof=1) / math.sqrt(n) if n > 1
                               else 0.0),
    }


def assert_matches_oracle(cloud, dist, fld, species, count, seed):
    rng, oracle_rng = seed_stream(seed, "oracle"), seed_stream(seed, "oracle")
    try:
        expected = oracle_transfer(cloud, dist, fld, species, count,
                                   oracle_rng)
    except ValueError:
        with pytest.raises(ValueError, match="no trapped atoms"):
            simulate_transfer(cloud, dist, fld, species, count, rng)
    else:
        report = simulate_transfer(cloud, dist, fld, species, count, rng)
        assert report.particles == expected.pop("particles")
        assert report.trapped == expected.pop("trapped")
        for name, value in expected.items():
            assert getattr(report, name) == pytest.approx(
                value, rel=1e-12, abs=0.0), name
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("dist", [
    PumpingDistribution.point(1), PumpingDistribution.point(2),
    PumpingDistribution.point(3), PumpingDistribution.point(4),
    PumpingDistribution.uniform(), UPPER,
], ids=["m1", "m2", "m3", "m4", "uniform", "upper"])
@pytest.mark.parametrize("sigma", [0.0, 200e-6])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_transfer_matches_ensemble_oracle(cr, field, dist, sigma, seed):
    assert_matches_oracle(mot(sigma=sigma), dist, field, cr, 20_000, seed)


@pytest.mark.parametrize("count", [
    mc._CHUNK - 1, mc._CHUNK, mc._CHUNK + 1, 2 * mc._CHUNK + 7])
@pytest.mark.parametrize("dist", [
    PumpingDistribution.uniform(), PumpingDistribution.point(4),
], ids=["uniform", "m4"])
def test_transfer_matches_oracle_across_chunks(cr, field, dist, count):
    assert_matches_oracle(mot(), dist, field, cr, count, 5)


@settings(max_examples=60, deadline=None)
@given(
    sigma=st.just(0.0) | st.floats(1e-6, 1e-3),
    temperature=st.floats(1e-6, 1e-3),
    gradient=st.floats(0.01, 1.0),
    probabilities=st.lists(st.integers(0, 4), min_size=9, max_size=9)
    .filter(any),
    count=st.integers(1, 5000),
    seed=st.integers(0, 2**32 - 1),
)
@example(sigma=0.0, temperature=1e-4, gradient=0.1,
         probabilities=[0, 1, 2, 3, 4, 0, 0, 0, 0], count=100, seed=0)
@example(sigma=0.0, temperature=1e-4, gradient=0.1,
         probabilities=[1, 0, 0, 0, 0, 0, 0, 0, 1], count=1, seed=0)
def test_transfer_matches_oracle_property(cr, sigma, temperature, gradient,
                                          probabilities, count, seed):
    weights = np.array(probabilities, dtype=float)
    dist = PumpingDistribution(tuple(weights / weights.sum()))
    assert_matches_oracle(mot(sigma=sigma, t=temperature), dist,
                          QuadrupoleField(gradient), cr, count, seed)


def test_transfer_matches_oracle_property_small_chunks(cr):
    # the same property in blocks of 7 rows: many blocks per run, and
    # blocks without a single trapped atom
    with mock.patch.object(mc, "_CHUNK", 7):
        test_transfer_matches_oracle_property(cr)


@pytest.mark.parametrize("dist", [
    PumpingDistribution.point(4), PumpingDistribution.uniform(),
], ids=["m4", "uniform"])
def test_transfer_peak_memory_per_particle(cr, field, dist):
    # no (n, 3) array and no full-length substate array: two per-atom
    # float arrays and the statistics' temporary, about 30 B per particle
    count = 200_000
    tracemalloc.start()
    try:
        simulate_transfer(mot(), dist, field, cr, count,
                          seed_stream(28, "memory"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / count < 48


@given(count=st.integers(-3, 0))
def test_transfer_rejects_count_below_one(cr, count):
    rng = seed_stream(27, "count")
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="count"):
        simulate_transfer(mot(), PumpingDistribution.point(4),
                          QuadrupoleField(0.1), cr, count, rng)
    assert rng.bit_generator.state == state


# ------------------------------------------------------- the worker thread


def run_on_threads(*calls, timeout=60.0):
    """Every call on its own daemon thread, all released at once: the
    results in call order, or the first exception raised, or a test
    failure instead of a hang if a call has not returned within
    ``timeout``."""
    results, errors = [None] * len(calls), []
    start = threading.Barrier(len(calls))

    def target(i):
        start.wait()
        try:
            results[i] = calls[i]()
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=target, args=(i,), daemon=True)
               for i in range(len(calls))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
        assert not thread.is_alive(), "simulate_transfer did not return"
    if errors:
        raise errors[0]
    return results


class FailingGenerator:
    """Draws from ``rng`` until the third ``standard_normal`` call, which
    raises ``error``."""

    def __init__(self, rng, error):
        self.rng, self.error, self.calls = rng, error, 0

    def standard_normal(self, out):
        self.calls += 1
        if self.calls == 3:
            raise self.error
        return self.rng.standard_normal(out=out)

    def random(self, out):
        return self.rng.random(out=out)


def test_transfer_leaves_no_thread_behind(cr, field):
    # called on this thread, so a worker still running at return shows
    before = threading.active_count()
    simulate_transfer(mot(), UPPER, field, cr, 3 * mc._CHUNK,
                      seed_stream(40, "threads"))
    assert threading.active_count() == before
    with pytest.raises(ValueError, match="no trapped atoms"):
        simulate_transfer(mot(), PumpingDistribution.point(-2), field, cr,
                          3 * mc._CHUNK, seed_stream(40, "threads"))
    assert threading.active_count() == before


def test_draw_failure_reaches_the_caller_unchanged(cr, field):
    error = RuntimeError("generator failed")
    rng = FailingGenerator(seed_stream(41, "fail"), error)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        run_on_threads(lambda: simulate_transfer(
            mot(), PumpingDistribution.uniform(), field, cr, 3 * mc._CHUNK,
            rng))
    assert raised.value is error
    assert rng.calls == 3
    assert threading.active_count() == before


@pytest.mark.parametrize("helper", ["_squared_norms", "_energies"])
def test_worker_failure_reaches_the_caller_unchanged(cr, field, helper,
                                                     monkeypatch):
    # _squared_norms fails on the first position block, _energies on the
    # first substate block, after every normal has been drawn
    error = ArithmeticError(f"{helper} failed")

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(mc, helper, fail)
    before = threading.active_count()
    with pytest.raises(ArithmeticError) as raised:
        run_on_threads(lambda: simulate_transfer(
            mot(), PumpingDistribution.uniform(), field, cr, 3 * mc._CHUNK,
            seed_stream(42, "fail")))
    assert raised.value is error
    assert threading.active_count() == before


def transfer_call(cr, fld, dist, count, seed):
    def call():
        rng = seed_stream(seed, "concurrent")
        report = simulate_transfer(mot(), dist, fld, cr, count, rng)
        return report, rng.bit_generator.state
    return call


def test_concurrent_transfers_match_serial_ones(cr, field):
    # two calls on two threads, each with its own generator, share no
    # buffer: the same reports and generator states as made one by one
    calls = [transfer_call(cr, field, PumpingDistribution.uniform(),
                           2 * mc._CHUNK + 7, 43),
             transfer_call(cr, field, UPPER, 2 * mc._CHUNK + 7, 44)]
    serial = [call() for call in calls]
    assert run_on_threads(*calls) == serial


def test_concurrent_transfers_under_stress(cr, field):
    # more callers than cores, blocks of 7 rows (hundreds of hand-overs
    # per call) and a short switch interval: a lost hand-over or a block
    # reduced twice changes a report
    calls = [transfer_call(cr, field, dist, 3000, 45 + i) for i, dist in
             enumerate([PumpingDistribution.uniform(), UPPER,
                        PumpingDistribution.point(4),
                        PumpingDistribution.point(1)])]
    interval = sys.getswitchinterval()
    with mock.patch.object(mc, "_CHUNK", 7):
        serial = [call() for call in calls]
        sys.setswitchinterval(1e-5)
        try:
            concurrent = run_on_threads(*calls)
        finally:
            sys.setswitchinterval(interval)
    assert concurrent == serial
