"""Seeded Monte Carlo model of the reservoir-to-trap transfer.

This is the independent check on the virial-theorem temperature
prediction: atoms are sampled from the reservoir, their kinetic and
potential energies audited at the moment of transfer, and the equilibrium
temperature follows from the linear-potential virial relation
<E_total> = (9/2) k_B T. No collisional dynamics is simulated; ergodic
redistribution is assumed, exactly as in the analytic estimate.

All randomness is drawn from named seed streams; identical seeds give
bit-identical reports.

The audit needs only each atom's substate, |r| and |v|^2, so
``simulate_transfer`` samples these sufficient statistics directly
instead of 3-D positions and velocities. For an isotropic Gaussian,
|r|^2/sigma^2 and |v|^2/v_th^2 are each chi-square with 3 degrees of
freedom, which is exactly 2 E + Z^2 for a standard exponential E
(chi-square with 2 degrees of freedom, halved) and an independent standard
normal Z. Each atom needs two such squared normals, Z^2 and Z'^2, and
the Box-Muller polar identity gives the pair from one exponential E'' and
one uniform U: Z^2 = 2 E'' c and Z'^2 = 2 E'' (1 - c) with
c = cos^2(pi U/2) = 1/(1 + tan^2(pi U/2)), which has the arcsine law of
cos^2 of any uniform angle. Every exponential is drawn by inversion,
E = -log(1 - U). Every uniform is U = u 2**-32 for a 32-bit word u, one
half of one of the generator's raw 64-bit outputs, so each atom's four
uniforms cost two generator outputs. Where the CPU allows, numpy
evaluates tan and log on vectorised kernels, several times faster per
value than its cosine and its ziggurat exponential sampler. Only the
trapped atoms are drawn. A call runs on the calling thread and streams
each substate's trapped atoms in blocks of at most ``_BLOCK`` = 2**14
through three float buffers, folding each block's moments into running
ones, so it holds at most 384 KiB, small enough for a core's L2 cache,
and one draw's 64 KiB of raw words at a time, whatever the count.
"""

import math
import numbers
import zlib
from dataclasses import dataclass

import numpy as np

from .cloud import MotCloud, QuadrupoleField
from .constants import K_B, MU_B
from .species import SpeciesData

ZEEMAN_M_VALUES = tuple(range(-4, 5))

# atoms of one substate per block of simulate_transfer: three float64
# buffers of this length, 128 KiB each, and one draw's 32-bit words, 64 KiB,
# are all that a call allocates per atom
_BLOCK = 2**14


def seed_stream(seed: int, label: str) -> np.random.Generator:
    """Deterministic generator for a named stream of a master seed."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), zlib.crc32(label.encode("utf-8"))])
    )


@dataclass(frozen=True)
class PumpingDistribution:
    """Probabilities of landing in each dark substate m = -4..4 after
    optical pumping. The true distribution is not predicted here, only its
    mean is experimentally constrained, so it is always an input."""

    probabilities: tuple[float, ...]

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.shape != (9,):
            raise ValueError("need 9 probabilities for m = -4..4")
        if not np.all(np.isfinite(p)):
            raise ValueError(
                f"probabilities must be finite, got {tuple(p.tolist())}")
        if np.any(p < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        object.__setattr__(self, "probabilities", tuple(p.tolist()))

    @classmethod
    def point(cls, m: int) -> "PumpingDistribution":
        if m not in ZEEMAN_M_VALUES:
            raise ValueError("m must lie in [-4, 4]")
        probs = [0.0] * 9
        probs[m + 4] = 1.0
        return cls(tuple(probs))

    @classmethod
    def uniform(cls) -> "PumpingDistribution":
        return cls(tuple([1.0 / 9.0] * 9))


@dataclass(frozen=True)
class TransferReport:
    """Summary of one seeded transfer simulation."""

    particles: int
    trapped: int
    temperature_mc: float        # K
    temperature_stderr: float    # K, statistical
    mean_radius: float           # m
    mean_radius_expected: float  # m, sqrt(8/pi) sigma
    mean_radius_stderr: float    # m


def _words(rng: np.random.Generator, out: np.ndarray) -> None:
    """Copy ``len(out)`` 32-bit words u of the generator into ``out``: the
    halves, low half first, of ceil(len(out)/2) raw 64-bit outputs; an odd
    length leaves the high half of the last output unused."""
    k = len(out)
    raw = rng.bit_generator.random_raw((k + 1) // 2)
    out[...] = raw.astype("<u8", copy=False).view("<u4")[:k]


def _negative_exponentials(rng: np.random.Generator,
                           out: np.ndarray) -> None:
    """Fill ``out`` with minus standard exponentials, log(1 - U) for
    U = u 2**-32 of one ``_words`` draw: 1 - U = (2**32 - u) 2**-32 is
    exact and at least 2**-32, so every value lies in [-32 log 2, 0]; the
    law's tail beyond 32 log 2 ~ 22.18 has probability 2**-32."""
    _words(rng, out)
    np.subtract(2.0**32, out, out=out)
    out *= 2.0**-32
    np.log(out, out=out)


def _fold(moments, x: np.ndarray, scratch: np.ndarray):
    """Fold the block ``x`` into the running ``(count, mean, M2)``, where
    M2 is the sum of squared deviations from the mean; ``None`` starts a
    new fold. The block's own figures are computed as numpy's ``mean`` and
    ``std`` compute them (pairwise sums of x, then of (x - mean)^2 in
    ``scratch``), and blocks are merged with the pairwise update of Chan,
    Golub & LeVeque (1979)."""
    k = len(x)
    mean = float(np.add.reduce(x)) / k
    deviation = np.subtract(x, mean, out=scratch[:k])
    np.multiply(deviation, deviation, out=deviation)
    m2 = float(np.add.reduce(deviation))
    if moments is None:
        return k, mean, m2
    count, running_mean, running_m2 = moments
    total = count + k
    delta = mean - running_mean
    return (total, running_mean + delta * k / total,
            running_m2 + m2 + delta * delta * count * k / total)


def _std(moments) -> float:
    """Sample standard deviation (ddof = 1) of a fold with count > 1."""
    count, _, m2 = moments
    return math.sqrt(m2 / (count - 1))


def simulate_transfer(mot: MotCloud, dist: PumpingDistribution,
                      field: QuadrupoleField, species: SpeciesData,
                      count: int, rng: np.random.Generator) -> TransferReport:
    """Run one transfer simulation with the supplied generator (derive it
    from a named seed stream for reproducibility).

    Reservoir atoms have isotropic Gaussian positions of width sigma per
    axis and Maxwell-Boltzmann velocities at the reservoir temperature, so
    |r|^2/sigma^2 and |v|^2/v_th^2 are chi-square with 3 degrees of
    freedom: 2 E + Z^2 for a standard exponential E and an independent
    standard normal Z. The draws are: the atom count per substate (one
    multinomial over the normalised distribution), then, for the trapped
    substates m = 1..4 in turn, that substate's atoms one block of at most
    ``_BLOCK`` = 2**14 at a time, each draw taking one 32-bit word u per
    atom of the block (``_words``) in the order E'', U, E' and E. Every
    uniform is U = u 2**-32 and every exponential is -log(1 - U) of its
    own words, at most 32 log 2. Box-Muller makes Z^2/2 = E'' c and
    Z'^2/2 = E'' (1 - c) of the first two, with c = 1/(1 + tan^2(pi U/2)),
    so Z^2/2 is computed as E''/(1 + tan^2(pi U/2)); the angle
    pi u 2**-33 stays below pi/2, so the tangent stays finite. Per atom
    |r| = sigma sqrt(2 (E + Z^2/2)), the kinetic energy is k_B T G_v with
    G_v = E' + Z'^2/2, a Gamma(3/2) variate, and the potential, in the
    isotropic mean-gradient convention of the analytic estimate, is
    (g_d m mu_B) b |r|, so every block holds one substate and is scaled by
    one coefficient. The block carries the exponentials with their sign
    flipped, log(1 - U), and the sign goes into the factors -2 and
    -k_B T. Each block's radius moments are taken before the radius
    becomes the potential in place, its energy moments after the potential
    is added to the kinetic term, and both are merged across blocks by
    ``_fold``. A call allocates three buffers of min(largest substate,
    2**14) floats, 384 KiB at most, and one draw's raw words, 64 KiB at
    most, at any count. When one block holds every trapped atom, every
    figure equals numpy's ``mean`` and ``std(ddof=1)`` over the per-atom
    values; otherwise the merged folds agree with them to 1e-15 relative.
    Fewer than 2 trapped atoms have no sample variance and raise
    ``ValueError``.
    """
    if isinstance(count, bool) or not isinstance(count, numbers.Integral):
        raise TypeError(f"count must be an integer, got {count!r}")
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    p = np.asarray(dist.probabilities)
    per_m = rng.multinomial(count, p / p.sum())[5:].tolist()  # m = 1..4
    n = sum(per_m)
    if n == 0:
        raise ValueError("no trapped atoms: pumping distribution has no "
                         "m > 0 weight or count too small")
    if n == 1:
        raise ValueError("only 1 trapped atom: the statistical errors need "
                         "at least 2")
    size = min(max(per_m), _BLOCK)
    radius_buf, total_buf, scratch = (np.empty(size), np.empty(size),
                                      np.empty(size))
    radius_moments = energy_moments = None
    for m, atoms in zip(ZEEMAN_M_VALUES[5:], per_m):
        coeff = species.lande_g_d * m * MU_B * field.gradient
        for first in range(0, atoms, _BLOCK):
            k = min(_BLOCK, atoms - first)
            radius, total, odd = radius_buf[:k], total_buf[:k], scratch[:k]
            # Box-Muller: Z^2/2 = E'' c and Z'^2/2 = E'' (1 - c), with
            # 1/c = 1 + tan^2(pi U/2); then G_v = E' + Z'^2/2 and
            # |r|^2/sigma^2 = 2 (E + Z^2/2), each held negated until the
            # factors -2 and -k_B T
            _negative_exponentials(rng, radius)
            _words(rng, odd)
            odd *= math.pi * 2.0**-33
            np.tan(odd, out=odd)
            np.square(odd, out=odd)
            odd += 1.0
            np.divide(radius, odd, out=odd)
            _negative_exponentials(rng, total)
            radius -= odd
            total += radius
            _negative_exponentials(rng, radius)
            radius += odd
            radius *= -2.0
            np.sqrt(radius, out=radius)
            radius *= mot.size_sigma
            radius_moments = _fold(radius_moments, radius, scratch)
            radius *= coeff
            total *= -K_B * mot.temperature
            total += radius
            energy_moments = _fold(energy_moments, total, scratch)
    mean_radius = radius_moments[1]
    radius_err = _std(radius_moments) / math.sqrt(n)
    t_mc = 2.0 * energy_moments[1] / (9.0 * K_B)
    t_err = 2.0 * _std(energy_moments) / (9.0 * K_B * math.sqrt(n))
    return TransferReport(
        particles=count,
        trapped=n,
        temperature_mc=t_mc,
        temperature_stderr=t_err,
        mean_radius=mean_radius,
        mean_radius_expected=math.sqrt(8.0 / math.pi) * mot.size_sigma,
        mean_radius_stderr=radius_err,
    )
