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
normal Z; the pair costs less to draw than one Gamma(3/2) variate. Only
the trapped atoms are drawn. A call runs on the calling thread and
streams the trapped atoms through three float buffers of at most
``_BLOCK`` = 2**17 entries, folding each block's moments into running
ones, so it holds at most about 3 MiB whatever the count.
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

# trapped atoms per block of simulate_transfer: three float64 buffers of
# this length, 1 MiB each, are all that a call allocates per atom
_BLOCK = 2**17


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


def _fold(moments, x: np.ndarray, scratch: np.ndarray):
    """Fold the block ``x`` into the running ``(count, mean, M2)``, where
    M2 is the sum of squared deviations from the mean; ``None`` starts a
    new fold. The block's own figures are computed as numpy's ``mean`` and
    ``std`` compute them (pairwise sums of x, then of (x - mean)^2 in
    ``scratch``), and blocks are merged with the pairwise update of Chan,
    Golub & LeVeque (1979)."""
    k = len(x)
    mean = float(x.mean())
    deviation = np.subtract(x, mean, out=scratch[:k])
    np.multiply(deviation, deviation, out=deviation)
    m2 = float(deviation.sum())
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
    multinomial over the normalised distribution), then, for the n trapped
    (m > 0) atoms only, ordered by substate, one block of ``_BLOCK`` =
    2**17 atoms at a time, each draw filling one value per atom of the
    block: ``standard_exponential`` E, ``standard_normal`` Z, then
    ``standard_exponential`` E' and ``standard_normal`` Z'. Per atom
    |r| = sigma sqrt(2 E + Z^2), the kinetic energy is k_B T G_v with
    G_v = E' + Z'^2/2, a Gamma(3/2) variate, and the potential, in the
    isotropic mean-gradient convention of the analytic estimate, is
    (g_d m mu_B) b |r|; each m-segment's slice of a block is scaled by its
    own coefficient, and segments may cross block edges. Each block's
    radius moments are taken before the radius becomes the potential in
    place, its energy moments after the potential is added to the kinetic
    term, and both are merged across blocks by ``_fold``. A call allocates
    three buffers of min(n, 2**17) floats, about 3 MiB at most, at any
    count; with one block every figure equals numpy's ``mean`` and
    ``std(ddof=1)`` over the per-atom values.
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
    segments, stop = [], 0
    for m, atoms in zip(ZEEMAN_M_VALUES[5:], per_m):
        start, stop = stop, stop + atoms
        segments.append(
            (start, stop, species.lande_g_d * m * MU_B * field.gradient))
    size = min(n, _BLOCK)
    radius_buf, total_buf, scratch = (np.empty(size), np.empty(size),
                                      np.empty(size))
    radius_moments = energy_moments = None
    for first in range(0, n, _BLOCK):
        last = min(first + _BLOCK, n)
        k = last - first
        radius, total, odd = radius_buf[:k], total_buf[:k], scratch[:k]
        # |r|^2/sigma^2 = 2 E + Z^2 and G_v = E' + Z'^2/2
        rng.standard_exponential(out=radius)
        rng.standard_normal(out=odd)
        np.square(odd, out=odd)
        radius *= 2.0
        radius += odd
        rng.standard_exponential(out=total)
        rng.standard_normal(out=odd)
        np.square(odd, out=odd)
        odd *= 0.5
        total += odd
        np.sqrt(radius, out=radius)
        radius *= mot.size_sigma
        radius_moments = _fold(radius_moments, radius, scratch)
        for start, stop, coeff in segments:
            if start < last and stop > first:
                radius[max(start, first) - first:
                       min(stop, last) - first] *= coeff
        total *= K_B * mot.temperature
        total += radius
        energy_moments = _fold(energy_moments, total, scratch)
    mean_radius = radius_moments[1]
    radius_err = (_std(radius_moments) / math.sqrt(n) if n > 1 else 0.0)
    t_mc = 2.0 * energy_moments[1] / (9.0 * K_B)
    t_err = (2.0 * _std(energy_moments) / (9.0 * K_B * math.sqrt(n))
             if n > 1 else 0.0)
    return TransferReport(
        particles=count,
        trapped=n,
        temperature_mc=t_mc,
        temperature_stderr=t_err,
        mean_radius=mean_radius,
        mean_radius_expected=math.sqrt(8.0 / math.pi) * mot.size_sigma,
        mean_radius_stderr=radius_err,
    )
