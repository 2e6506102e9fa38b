import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from mc_oracle import (Ensemble, ensemble_energies, oracle_transfer,
                       sample_mot_atoms, sample_zeeman_substates)
from mtload import (MotCloud, PumpingDistribution, QuadrupoleField,
                    predict_mt_temperature, simulate_transfer)
from mtload.constants import K_B, MU_B
from mtload.mc import ZEEMAN_M_VALUES, seed_stream

# the documented block of simulate_transfer: its draws come 2**14 trapped
# atoms at a time, in the order E'', U, E', E for the block
BLOCK = 2**14


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
    assert sum(dist.probabilities[5:]) == 1.0


def test_uniform_distribution_trapped_fraction():
    dist = PumpingDistribution.uniform()
    assert sum(dist.probabilities[5:]) == pytest.approx(4 / 9, rel=1e-12)
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_distribution_rejects_non_finite(bad):
    # nan fails no comparison, so it must be refused by name
    with pytest.raises(ValueError, match="must be finite"):
        PumpingDistribution((bad, 0, 0, 0, 0, 0, 0, 0, 1.0))


UPPER = PumpingDistribution((0, 0, 0, 0, 0, 0.1, 0.2, 0.3, 0.4))

# simulate_transfer's message for each trapped count below 2: a lone atom
# has no sample variance, so it has no statistical error either
TOO_FEW_TRAPPED = {0: "no trapped atoms", 1: "only 1 trapped atom"}


class RecordingGenerator:
    """Draws from ``rng`` and keeps the substate counts of the last
    ``multinomial`` call."""

    def __init__(self, rng):
        self.rng, self.counts = rng, None

    def multinomial(self, n, pvals):
        self.counts = self.rng.multinomial(n, pvals)
        return self.counts

    def random(self, size=None, out=None):
        return self.rng.random(size, out=out)


def assert_matches_choice(cr, field, dist, count, seed):
    # simulate_transfer's substate counts against the generator's own
    # categorical sampler: the same support and total exactly, and each
    # count within 5 sigma of the difference of two binomials where the
    # normal approximation holds
    rng = RecordingGenerator(seed_stream(seed, "cat"))
    try:
        report = simulate_transfer(mot(), dist, field, cr, count, rng)
    except ValueError as exc:
        assert TOO_FEW_TRAPPED[rng.counts[5:].sum()] in str(exc)
        report = None
    counts = rng.counts
    choice = sample_zeeman_substates(dist, count,
                                     seed_stream(seed, "choice"))
    expected = np.bincount(choice + 4, minlength=9)
    assert counts.shape == (9,)
    assert counts.sum() == count
    if report is None:
        assert counts[5:].sum() < 2
    else:
        assert report.trapped == counts[5:].sum()
    for p, got, want in zip(dist.probabilities, counts, expected):
        if p == 0.0:
            assert got == want == 0
        elif p == 1.0:
            assert got == want == count
        elif count * p * (1 - p) >= 25:
            assert abs(int(got) - int(want)) <= 5 * math.sqrt(
                2 * count * p * (1 - p))


@pytest.mark.parametrize("dist", [
    *(PumpingDistribution.point(m) for m in ZEEMAN_M_VALUES),
    PumpingDistribution.uniform(), UPPER,
], ids=[*(f"m{m}" for m in ZEEMAN_M_VALUES), "uniform", "upper"])
def test_substates_match_generator_choice(cr, field, dist):
    assert_matches_choice(cr, field, dist, 50_000, 31)


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(st.integers(0, 5), min_size=9, max_size=9).filter(any),
    low_zeros=st.integers(0, 8),
    high_zeros=st.integers(0, 8),
    count=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
)
def test_substates_match_choice_property(cr, weights, low_zeros, high_zeros,
                                         count, seed):
    # zero tails at either end give substates that neither sampler may
    # draw
    w = np.array(weights, dtype=float)
    w[:low_zeros] = 0.0
    w[9 - high_zeros:] = 0.0
    if not w.any():
        w[low_zeros % 9] = 1.0
    assert_matches_choice(cr, QuadrupoleField(0.1),
                          PumpingDistribution(tuple(w / w.sum())), count,
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
    # a lone atom has no sample variance: an error that names the count,
    # not statistical errors of an exact 0.0
    with pytest.raises(ValueError, match="only 1 trapped atom"):
        simulate_transfer(mot(), PumpingDistribution.point(4), field, cr, 1,
                          seed_stream(26, "one"))


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
    assert report.trapped / report.particles == pytest.approx(4 / 9,
                                                              abs=0.01)




def test_transfer_deterministic(cr, field):
    # an exact rerun: the same report and the same generator state
    runs = []
    for _ in range(2):
        rng = seed_stream(24, "det")
        report = simulate_transfer(mot(), UPPER, field, cr, 10_000, rng)
        runs.append((report, rng.bit_generator.state))
    assert runs[0] == runs[1]


# ------------------------------------ sufficient statistics vs the oracle


def assert_matches_oracle(cloud, dist, fld, species, count, seed):
    # other draws from the same distribution as the 3-D ensemble: each mean
    # within 5 combined standard errors of the oracle's and the trapped
    # count within 5 binomial sigma of its expectation
    report = simulate_transfer(cloud, dist, fld, species, count,
                               seed_stream(seed, "oracle"))
    expected = oracle_transfer(cloud, dist, fld, species, count,
                               seed_stream(seed, "oracle"))
    assert report.particles == count
    trapped = min(sum(dist.probabilities[5:]), 1.0)
    assert abs(report.trapped - count * trapped) <= 5 * math.sqrt(
        count * trapped * (1.0 - trapped))
    for mean, err in (("temperature_mc", "temperature_stderr"),
                      ("mean_radius", "mean_radius_stderr")):
        combined = math.hypot(getattr(report, err), expected[err])
        assert abs(getattr(report, mean) - expected[mean]) <= 5 * combined
    assert report.mean_radius_expected == expected["mean_radius_expected"]
    return report, expected


@pytest.mark.parametrize("dist", [
    PumpingDistribution.point(1), PumpingDistribution.point(2),
    PumpingDistribution.point(3), PumpingDistribution.point(4),
    PumpingDistribution.uniform(), UPPER,
], ids=["m1", "m2", "m3", "m4", "uniform", "upper"])
@pytest.mark.parametrize("sigma", [0.0, 200e-6])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_transfer_matches_ensemble_oracle(cr, field, dist, sigma, seed):
    # also each standard error within 2% of the oracle's: about 5 sigma of
    # the scatter of a standard error at this count
    report, expected = assert_matches_oracle(mot(sigma=sigma), dist, field,
                                             cr, 400_000, seed)
    for err in ("temperature_stderr", "mean_radius_stderr"):
        assert getattr(report, err) == pytest.approx(expected[err],
                                                     rel=0.02), err


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("sigma", [0.0, 200e-6])
@pytest.mark.parametrize("seed", range(1, 11))
def test_transfer_stderrs_match_exact_moments(cr, field, m, sigma, seed):
    # point(m) traps every atom, and its per-atom variances are exact:
    # Var(E) = 1.5 (k_B T)^2 + (g_d m mu_B b sigma)^2 (3 - 8/pi) and
    # Var(|r|) = sigma^2 (3 - 8/pi), with |r| independent of |v|; 1% is
    # about 5 sigma of a standard error's scatter at 4e5 atoms
    cloud = mot(sigma=sigma)
    report = simulate_transfer(cloud, PumpingDistribution.point(m), field,
                               cr, 400_000, seed_stream(seed, "moments"))
    n = report.trapped
    var_radius = (3.0 - 8.0 / math.pi) * sigma ** 2
    var_energy = (1.5 * (K_B * cloud.temperature) ** 2
                  + (cr.lande_g_d * m * MU_B * field.gradient) ** 2
                  * var_radius)
    assert report.temperature_stderr == pytest.approx(
        2.0 * math.sqrt(var_energy) / (9.0 * K_B * math.sqrt(n)), rel=0.01,
        abs=0.0)
    assert report.mean_radius_stderr == pytest.approx(
        math.sqrt(var_radius / n), rel=0.01, abs=0.0)


@pytest.mark.parametrize("dist, count", [
    pytest.param(dist, count, id=f"{name}-{count}")
    for name, dist, counts in (
        ("uniform", PumpingDistribution.uniform(),
         (65535, 65536, 65537, 131079)),
        ("m4", PumpingDistribution.point(4),
         (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7,
          65535, 65536, 65537, 131079,
          2**17 - 1, 2**17, 2**17 + 1, 2 * 2**17 + 7)))
    for count in counts])
def test_transfer_matches_oracle_across_chunks(cr, field, dist, count):
    # every atom of point(4) is trapped, so its counts sit at, beside and
    # past the 2**14-atom block edges, and 2 * BLOCK + 7 makes three
    # blocks; the 2**16 and 2**17 edges of earlier samplers stay covered
    assert_matches_oracle(mot(), dist, field, cr, count, 5)


@settings(max_examples=30, deadline=None)
@given(
    sigma=st.just(0.0) | st.floats(1e-6, 1e-3),
    temperature=st.floats(1e-6, 1e-3),
    gradient=st.floats(0.01, 1.0),
    weights=st.lists(st.integers(0, 4), min_size=9, max_size=9)
    .filter(lambda w: any(w[5:])),
    count=st.integers(20_000, 40_000),
    seed=st.integers(0, 2**32 - 1),
)
def test_transfer_matches_oracle_property(cr, sigma, temperature, gradient,
                                          weights, count, seed):
    # across the reservoir, the field and the pumping: at least 1/33 of the
    # atoms are trapped, so every run has hundreds of trapped atoms
    w = np.array(weights, dtype=float)
    assert_matches_oracle(mot(sigma=sigma, t=temperature),
                          PumpingDistribution(tuple(w / w.sum())),
                          QuadrupoleField(gradient), cr, count, seed)


def exponentials(rng, size):
    """simulate_transfer's standard exponentials: -log(1 - U) of one
    uniform draw."""
    return -np.log(1.0 - rng.random(size))


def draws_of_block(rng, size):
    """One block of simulate_transfer's draws, taken in the documented
    order E'', U, E', E, and what it makes of them, by name: c =
    1/(1 + tan^2(pi U/2)), Z^2/2 = E''/(1 + tan^2(pi U/2)) and
    Z'^2/2 = E'' - Z^2/2, then |r|^2/sigma^2 = 2 (E + Z^2/2) and
    G_v = E' + Z'^2/2."""
    e_pair = exponentials(rng, size)
    tan = np.tan(rng.random(size) * (0.5 * np.pi))
    secant_sq = tan * tan + 1.0
    e_v = exponentials(rng, size)
    e_r = exponentials(rng, size)
    half_z2 = e_pair / secant_sq
    half_z2_prime = e_pair - half_z2
    return {"e_pair": e_pair, "e_v": e_v, "e_r": e_r, "c": 1.0 / secant_sq,
            "half_z2": half_z2, "half_z2_prime": half_z2_prime,
            "chi_r": 2.0 * (e_r + half_z2), "g_v": e_v + half_z2_prime}


def audit_of_draws(cloud, dist, fld, species, count, rng):
    """simulate_transfer's draws audited the plain way: each block's draws
    taken by ``draws_of_block``, substate by substate and BLOCK atoms at a
    time, then each atom's radius and energy from its own substate over
    the whole ensemble at once. Also returns the number of blocks drawn."""
    p = np.asarray(dist.probabilities)
    per_m = rng.multinomial(count, p / p.sum())
    m = np.repeat(np.array(ZEEMAN_M_VALUES), per_m)
    m = m[m > 0]
    chi_r, g_v = [], []
    for atoms in per_m[5:]:
        for first in range(0, atoms, BLOCK):
            draws = draws_of_block(rng, min(BLOCK, atoms - first))
            chi_r.append(draws["chi_r"])
            g_v.append(draws["g_v"])
    radius = cloud.size_sigma * np.sqrt(np.concatenate(chi_r))
    kinetic = K_B * cloud.temperature * np.concatenate(g_v)
    potential = species.lande_g_d * m * MU_B * fld.gradient * radius
    return len(m), kinetic + potential, radius, len(chi_r)


# two trapped substates, the larger of which spans three blocks at the
# largest count
PAIR = PumpingDistribution((0, 0, 0, 0, 0, 0.25, 0, 0, 0.75))


def test_block_draws_have_the_chi_square_laws():
    # the law of each step: every exponential -log(1 - U) is Exp(1) and
    # c = 1/(1 + tan^2(pi U/2)) has the arcsine law Beta(1/2, 1/2), so
    # Z^2/2 and Z'^2/2 are each Gamma(1/2), |r|^2/sigma^2 is chi-square
    # with 3 degrees of freedom and G_v Gamma(3/2); Z^2 and Z'^2, which
    # share E'', are uncorrelated within 5 standard errors of a zero
    # Pearson r
    rng = seed_stream(51, "laws")
    blocks = [draws_of_block(rng, BLOCK) for _ in range(2**18 // BLOCK)]
    draws = {name: np.concatenate([block[name] for block in blocks])
             for name in blocks[0]}
    laws = {"e_pair": stats.expon(), "e_v": stats.expon(),
            "e_r": stats.expon(), "c": stats.beta(0.5, 0.5),
            "half_z2": stats.gamma(0.5), "half_z2_prime": stats.gamma(0.5),
            "chi_r": stats.chi2(3), "g_v": stats.gamma(1.5)}
    for name, law in laws.items():
        assert stats.kstest(draws[name], law.cdf).pvalue > 1e-3, name
    r = np.corrcoef(draws["half_z2"], draws["half_z2_prime"])[0, 1]
    assert abs(r) <= 5.0 / math.sqrt(len(draws["chi_r"]))


@pytest.mark.parametrize("seed", [7, 65536])
@pytest.mark.parametrize("count", [1000, BLOCK, 3 * BLOCK + 5, 2**17, 131079,
                                   3 * 2**17 + 5])
@pytest.mark.parametrize("dist", [
    PumpingDistribution.uniform(), PumpingDistribution.point(4), UPPER,
    PumpingDistribution.point(1), PAIR,
], ids=["uniform", "m4", "upper", "m1", "pair"])
def test_transfer_is_bit_identical_to_ensemble_audit(cr, field, dist, count,
                                                      seed):
    # the in-place, block-wise arithmetic gives the same floats as the
    # per-atom audit of the same draws: ==, not a tolerance, while one
    # block holds every trapped atom; with more blocks the merged block
    # moments sum in another order than numpy's two passes, so they agree
    # to 1e-15; the counts of 2**17 and beyond are the block edges of an
    # earlier sampler
    rng = seed_stream(seed, "bits")
    n, total, radius, blocks = audit_of_draws(mot(), dist, field, cr, count,
                                              rng)
    sampled_rng = seed_stream(seed, "bits")
    report = simulate_transfer(mot(), dist, field, cr, count, sampled_rng)
    assert report.trapped == n
    assert sampled_rng.bit_generator.state == rng.bit_generator.state
    expected = {
        "temperature_mc": 2.0 * float(total.mean()) / (9.0 * K_B),
        "temperature_stderr": (2.0 * float(total.std(ddof=1))
                               / (9.0 * K_B * math.sqrt(n))),
        "mean_radius": float(radius.mean()),
        "mean_radius_stderr": float(radius.std(ddof=1)) / math.sqrt(n),
    }
    for name, value in expected.items():
        if blocks == 1:
            assert getattr(report, name) == value, name
        else:
            assert getattr(report, name) == pytest.approx(value, rel=1e-15,
                                                          abs=0.0), name


@settings(max_examples=100, deadline=None)
@given(
    sigma=st.just(0.0) | st.floats(1e-6, 1e-3),
    temperature=st.floats(1e-6, 1e-3),
    gradient=st.floats(0.01, 1.0),
    weights=st.lists(st.integers(0, 4), min_size=9, max_size=9).filter(any),
    low_zeros=st.integers(0, 8),
    high_zeros=st.integers(0, 8),
    offset=st.floats(-0.999e-12, 0.999e-12),
    count=st.integers(1, 5000),
    seed=st.integers(0, 2**32 - 1),
)
@example(sigma=0.0, temperature=1e-4, gradient=0.1,
         weights=[0, 1, 2, 3, 4, 0, 0, 0, 0], low_zeros=0, high_zeros=0,
         offset=0.0, count=100, seed=0)
@example(sigma=0.0, temperature=1e-4, gradient=0.1,
         weights=[1, 0, 0, 0, 0, 0, 0, 0, 1], low_zeros=0, high_zeros=0,
         offset=0.0, count=1, seed=0)
@example(sigma=2e-4, temperature=3e-4, gradient=0.1,
         weights=[0, 0, 0, 0, 0, 1, 1, 1, 0], low_zeros=0, high_zeros=0,
         offset=0.999e-12, count=5000, seed=0)
def test_transfer_report_property(cr, sigma, temperature, gradient, weights,
                                  low_zeros, high_zeros, offset, count,
                                  seed):
    # zero tails at either end, and a sum off 1 by up to the 1e-12 that
    # validation allows
    w = np.array(weights, dtype=float)
    w[:low_zeros] = 0.0
    w[9 - high_zeros:] = 0.0
    if not w.any():
        w[low_zeros % 9] = 1.0
    p = w / w.sum()
    p[np.flatnonzero(p)[-1]] += offset
    dist = PumpingDistribution(tuple(p))
    cloud = mot(sigma=sigma, t=temperature)
    rng = seed_stream(seed, "property")
    try:
        report = simulate_transfer(cloud, dist, QuadrupoleField(gradient),
                                   cr, count, rng)
    except ValueError as exc:
        assert any(message in str(exc)
                   for message in TOO_FEW_TRAPPED.values())
        return
    assert sum(dist.probabilities[5:]) > 0.0
    assert report.particles == count
    assert 1 < report.trapped <= report.particles
    assert all(math.isfinite(value)
               for value in dataclasses.astuple(report))
    assert report.temperature_stderr >= 0.0
    assert report.mean_radius_stderr >= 0.0
    if sigma == 0.0:
        assert report.mean_radius == 0.0


@pytest.mark.parametrize("dist", [
    PumpingDistribution.point(4), PumpingDistribution.uniform(),
], ids=["m4", "uniform"])
def test_transfer_peak_memory_per_particle(cr, field, dist):
    # no (n, 3) array and no substate array: at most three buffers of
    # min(n, BLOCK) floats, 384 KiB in all, under 2 B per particle here
    count = 200_000
    tracemalloc.start()
    try:
        simulate_transfer(mot(), dist, field, cr, count,
                          seed_stream(28, "memory"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / count < 4


@pytest.mark.parametrize("dist, small", [
    (PumpingDistribution.point(4), BLOCK + 1), (UPPER, 3 * BLOCK),
], ids=["m4", "upper"])
def test_transfer_peak_memory_is_constant_in_the_count(cr, field, dist,
                                                       small):
    # at both counts the largest substate spans more than one block, so
    # both fill whole buffers: the three block buffers make the peak at 1e6
    # atoms that of the smaller count, and at most 512 KiB (3 * BLOCK * 8 B
    # and an allowance)
    peaks = {}
    for count in (small, 1_000_000):
        tracemalloc.start()
        try:
            simulate_transfer(mot(), dist, field, cr, count,
                              seed_stream(28, "constant"))
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1_000_000] <= 512 * 2**10
    assert peaks[1_000_000] <= 1.1 * peaks[small]


@given(count=st.integers(-3, 0))
def test_transfer_rejects_count_below_one(cr, count):
    rng = seed_stream(27, "count")
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="count"):
        simulate_transfer(mot(), PumpingDistribution.point(4),
                          QuadrupoleField(0.1), cr, count, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("count", [
    100000.7, 1e5, True, False, np.True_, np.float64(1000), "1000", None,
], ids=["100000.7", "1e5", "True", "False", "np.True_", "np.float64",
        "str", "None"])
def test_transfer_rejects_non_integral_count(cr, count):
    # a float would run its integer part of atoms and report the float; a
    # bool is an int to Python but not a count
    rng = seed_stream(27, "integral")
    state = rng.bit_generator.state
    with pytest.raises(TypeError, match="count"):
        simulate_transfer(mot(), PumpingDistribution.point(4),
                          QuadrupoleField(0.1), cr, count, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint16])
def test_transfer_accepts_numpy_integer_count(cr, field, integer):
    report = simulate_transfer(mot(), UPPER, field, cr, integer(1000),
                               seed_stream(27, "numpy"))
    assert report == simulate_transfer(mot(), UPPER, field, cr, 1000,
                                       seed_stream(27, "numpy"))
    assert type(report.particles) is int


# ---------------------------------------------- failures and concurrency


class FailingGenerator:
    """Draws from ``rng`` until the second draw of per-atom values, which
    raises ``error``."""

    def __init__(self, rng, error):
        self.rng, self.error, self.calls = rng, error, 0

    def multinomial(self, n, pvals):
        return self.rng.multinomial(n, pvals)

    def _draw(self, method, size, out):
        self.calls += 1
        if self.calls == 2:
            raise self.error
        return method(size, out=out)

    def random(self, size=None, out=None):
        return self._draw(self.rng.random, size, out)


def test_draw_failure_reaches_the_caller_unchanged(cr, field):
    error = RuntimeError("generator failed")
    rng = FailingGenerator(seed_stream(41, "fail"), error)
    with pytest.raises(RuntimeError) as raised:
        simulate_transfer(mot(), PumpingDistribution.uniform(), field, cr,
                          10_000, rng)
    assert raised.value is error
    assert rng.calls == 2


class EdgeGenerator:
    """Fills every uniform draw with the two ends of numpy's range, 0.0 and
    the largest float below 1: value j of the i-th fill is the end that bit
    i % 4 of j names, so 16 atoms of a block take every combination of
    ends across the block's four fills."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def multinomial(self, n, pvals):
        return self.rng.multinomial(n, pvals)

    def random(self, out):
        bit = self.calls % 4
        self.calls += 1
        upper = (np.arange(len(out)) >> bit) & 1
        out[:] = np.where(upper, np.nextafter(1.0, 0.0), 0.0)
        return out


@pytest.mark.parametrize("dist", [
    PumpingDistribution.point(4), UPPER,
], ids=["m4", "upper"])
def test_edge_draws_stay_finite(cr, field, dist):
    # U = 0 and U just below 1 in every draw: -log(1 - U) never sees 0 and
    # pi U/2 stays below pi/2, so the tangent is finite; no RuntimeWarning
    # and every figure finite
    rng = EdgeGenerator(seed_stream(42, "edges"))
    report = simulate_transfer(mot(), dist, field, cr, 1000, rng)
    assert rng.calls % 4 == 0 and rng.calls >= 4
    assert all(math.isfinite(value)
               for value in dataclasses.astuple(report))


def test_transfer_leaves_no_thread_behind(cr, field):
    # the whole call runs on this thread: none is left running after a
    # return or a raise
    before = threading.active_count()
    simulate_transfer(mot(), UPPER, field, cr, 200_000,
                      seed_stream(40, "threads"))
    assert threading.active_count() == before
    with pytest.raises(ValueError, match="no trapped atoms"):
        simulate_transfer(mot(), PumpingDistribution.point(-2), field, cr,
                          200_000, seed_stream(40, "threads"))
    assert threading.active_count() == before


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


def transfer_call(cr, fld, dist, count, seed):
    def call():
        rng = seed_stream(seed, "concurrent")
        report = simulate_transfer(mot(), dist, fld, cr, count, rng)
        return report, rng.bit_generator.state
    return call


def test_concurrent_transfers_match_serial_ones(cr, field):
    # two calls on two threads, each with its own generator, share no
    # state: the same reports and generator states as made one by one
    calls = [transfer_call(cr, field, PumpingDistribution.uniform(),
                           100_000, 43),
             transfer_call(cr, field, UPPER, 100_000, 44)]
    serial = [call() for call in calls]
    assert run_on_threads(*calls) == serial


def test_concurrent_transfers_under_stress(cr, field):
    # more callers than cores and a short switch interval, so the calls
    # interleave between numpy operations
    calls = [transfer_call(cr, field, dist, 3000, 45 + i) for i, dist in
             enumerate([PumpingDistribution.uniform(), UPPER,
                        PumpingDistribution.point(4),
                        PumpingDistribution.point(1)])]
    serial = [call() for call in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        concurrent = run_on_threads(*calls)
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == serial
