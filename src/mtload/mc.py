"""Seeded Monte Carlo model of the reservoir-to-trap transfer.

This is the independent check on the virial-theorem temperature
prediction: atoms are sampled from the reservoir, their kinetic and
potential energies audited at the moment of transfer, and the equilibrium
temperature follows from the linear-potential virial relation
<E_total> = (9/2) k_B T. No collisional dynamics is simulated; ergodic
redistribution is assumed, exactly as in the analytic estimate.

The draw recipe of ``simulate_transfer``. The audit needs only each
atom's substate, |r| and |v|^2, so these sufficient statistics are drawn
directly, for the trapped atoms only, instead of 3-D positions and
velocities. For an isotropic Gaussian of width sigma per axis and
Maxwell-Boltzmann velocities, |r|^2/sigma^2 and |v|^2/v_th^2 are each
chi-square with 3 degrees of freedom, which is exactly 2 E + Z^2 for a
standard exponential E (chi-square with 2 degrees of freedom, halved) and
an independent standard normal Z. Per atom |r| = sigma sqrt(2 E + Z^2),
the kinetic energy is k_B T (E' + Z'^2/2), a Gamma(3/2) variate, and the
potential, in the isotropic mean-gradient convention of the analytic
estimate, is g_d m mu_B b |r|.

* Box-Muller (Box & Muller, 1958): the polar identity gives both squared
  normals from one exponential E'' and one uniform U, Z^2 = 2 E'' c and
  Z'^2 = 2 E'' (1 - c) with c = cos^2(pi U/2) = 1/(1 + tan^2(pi U/2)),
  which has the arcsine law of cos^2 of any uniform angle. The angle
  pi U/2 = pi u 2**-33 stays below pi/2, so the tangent stays finite.
* 32-bit words: every uniform is U = u 2**-32 for a 32-bit word u, one
  half of one of the generator's raw 64-bit outputs (``random_raw``),
  low half first; a draw of odd length leaves the high half of its last
  output unused. An atom's four uniforms cost two generator outputs.
* Exponentials by inversion, E = -log(1 - U): 1 - U = (2**32 - u) 2**-32
  is exact and at least 2**-32, so E lies in [0, 32 log 2], about
  [0, 22.18]; the law's tail beyond it has probability 2**-32.
* tan and log rather than cos and numpy's ziggurat exponential sampler:
  where the CPU allows, numpy evaluates tan and log on vectorised kernels,
  several times faster per value.
* Blocks: a call runs on the calling thread and streams each trapped
  substate's atoms in turn, m = 1 to 4, in blocks of at most ``_BLOCK`` =
  2**14, so every block holds one substate and its potential has one
  coefficient. It allocates three float buffers of min(largest substate,
  2**14) values, 384 KiB at most, small enough for a core's L2 cache, and
  one draw's raw words, 64 KiB at most, whatever the count. Each block's
  moments are folded into running ones by ``_fold``.
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

# atoms of one substate per block of simulate_transfer (module docstring)
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
    """Fill ``out`` with the generator's next ``len(out)`` words, laid out
    as the module docstring says."""
    k = len(out)
    raw = rng.bit_generator.random_raw((k + 1) // 2)
    out[...] = raw.astype("<u8", copy=False).view("<u4")[:k]


def _negative_exponentials(rng: np.random.Generator,
                           out: np.ndarray) -> None:
    """Fill ``out`` with minus standard exponentials, log(1 - U), from one
    ``_words`` draw."""
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
    """Run one transfer simulation of ``count`` reservoir atoms with the
    supplied generator (derive it from a named seed stream for
    reproducibility) and report the trapped atoms' temperature and mean
    radius, each with its statistical error.

    ``mot`` gives the reservoir width sigma and temperature T, ``dist``
    the substate probabilities (normalised here), ``field`` the gradient b
    and ``species`` the dark-state g-factor g_d. The draws, in order: the
    atom count per substate, one multinomial; then, for the trapped
    substates m = 1..4 in turn, one block of that substate's atoms at a
    time, the words of E'', U, E' and E of the module docstring's recipe,
    one ``_words`` draw each.

    When one block holds every trapped atom, every figure equals numpy's
    ``mean`` and ``std(ddof=1)`` over the per-atom values; otherwise the
    merged folds agree with them to 1e-15 relative.

    Raises TypeError for a ``count`` that is not an integer, and
    ValueError for a ``count`` below 1 or for fewer than 2 trapped atoms,
    which have no sample variance.
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
            # every value stays negated, as log(1 - U) is, until the
            # factors -2 and -k_B T: odd holds -Z^2/2, radius -Z'^2/2 until
            # it takes -E; the radius is folded before it becomes the
            # potential in place, the energy once the potential is added
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
