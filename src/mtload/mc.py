"""Seeded Monte Carlo model of the reservoir-to-trap transfer.

This is the independent check on the virial-theorem temperature
prediction: atoms are sampled from the reservoir, their kinetic and
potential energies audited at the moment of transfer, and the equilibrium
temperature follows from the linear-potential virial relation
<E_total> = (9/2) k_B T. No collisional dynamics is simulated; ergodic
redistribution is assumed, exactly as in the analytic estimate.

All randomness is drawn from named seed streams; identical seeds give
bit-identical ensembles.
"""

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .cloud import MotCloud, QuadrupoleField
from .constants import K_B, MU_B
from .species import SpeciesData

ZEEMAN_M_VALUES = tuple(range(-4, 5))


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

    @property
    def trapped_fraction(self) -> float:
        """Probability of a low-field-seeking (m > 0) outcome."""
        return float(sum(self.probabilities[5:]))

    @property
    def mean_m(self) -> float:
        return float(sum(m * p for m, p in
                         zip(ZEEMAN_M_VALUES, self.probabilities)))


@dataclass
class Ensemble:
    """Vectorized particle ensemble."""

    positions: np.ndarray            # (n, 3) m
    velocities: np.ndarray           # (n, 3) m/s
    zeeman_m: np.ndarray | None = None  # (n,) int

    def __len__(self):
        return self.positions.shape[0]

    def trapped(self) -> "Ensemble":
        """Sub-ensemble of low-field seekers (m > 0)."""
        if self.zeeman_m is None:
            raise ValueError("ensemble has no substate assignment yet")
        keep = self.zeeman_m > 0
        return Ensemble(self.positions[keep], self.velocities[keep],
                        self.zeeman_m[keep])


def sample_mot_atoms(mot: MotCloud, species: SpeciesData, count: int,
                     rng: np.random.Generator) -> Ensemble:
    """Sample reservoir atoms: isotropic Gaussian positions of radius
    sigma per axis, Maxwell-Boltzmann velocities at the reservoir
    temperature."""
    if count < 1:
        raise ValueError("count must be >= 1")
    positions = rng.normal(0.0, 1.0, size=(count, 3))
    positions *= mot.size_sigma
    v_th = math.sqrt(K_B * mot.temperature / species.mass)
    velocities = rng.normal(0.0, v_th, size=(count, 3))
    return Ensemble(positions=positions, velocities=velocities)


def sample_zeeman_substates(dist: PumpingDistribution, count: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Categorical draw of dark substates for ``count`` atoms."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return rng.choice(np.array(ZEEMAN_M_VALUES), size=count,
                      p=np.asarray(dist.probabilities))


def _squared_norms(vectors: np.ndarray) -> np.ndarray:
    """Per-row |a|^2 of an (n, 3) array, without an (n, 3) temporary."""
    return np.einsum("ij,ij->i", vectors, vectors)


def _energies(speed_sq: np.ndarray, radius: np.ndarray, zeeman_m: np.ndarray,
              field: QuadrupoleField,
              species: SpeciesData) -> tuple[np.ndarray, np.ndarray]:
    """Per-atom (kinetic, potential) from |v|^2, |r| and the substate."""
    kinetic = 0.5 * species.mass * speed_sq
    mu = species.lande_g_d * zeeman_m * MU_B
    potential = mu * field.gradient * radius
    return kinetic, potential


def ensemble_energies(ensemble: Ensemble, field: QuadrupoleField,
                      species: SpeciesData) -> tuple[np.ndarray, np.ndarray]:
    """Per-particle (kinetic, potential) arrays for a trapped ensemble.

    The potential uses the isotropic mean-gradient convention,
    U = g_d m_d mu_B b |r|, which is what the analytic transfer-temperature
    estimate assumes.
    """
    if ensemble.zeeman_m is None:
        raise ValueError("ensemble has no substate assignment")
    if len(ensemble) == 0:
        raise ValueError("empty ensemble")
    if np.any(ensemble.zeeman_m <= 0):
        raise ValueError("ensemble contains untrapped (m <= 0) atoms")
    radius = np.sqrt(_squared_norms(ensemble.positions))
    return _energies(_squared_norms(ensemble.velocities), radius,
                     ensemble.zeeman_m, field, species)


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

    @property
    def trapped_fraction(self) -> float:
        return self.trapped / self.particles


def simulate_transfer(mot: MotCloud, dist: PumpingDistribution,
                      field: QuadrupoleField, species: SpeciesData,
                      count: int, rng: np.random.Generator) -> TransferReport:
    """Run one transfer simulation with the supplied generator (derive it
    from a named seed stream for reproducibility).

    The draws are those of ``sample_mot_atoms`` followed by
    ``sample_zeeman_substates``, in that order, so the generator ends in
    the same state as after calling the two directly. The energy audit is
    one pass over the draws: each (n, 3) array is reduced once to a
    per-atom |v|^2 or |r|, only those per-atom arrays are cut down to the
    low-field seekers (m > 0), and the one radius array serves both the
    potential energy and the mean-radius statistics.
    """
    ensemble = sample_mot_atoms(mot, species, count, rng)
    zeeman_m = sample_zeeman_substates(dist, count, rng)
    speed_sq = _squared_norms(ensemble.velocities)
    radius = _squared_norms(ensemble.positions)
    np.sqrt(radius, out=radius)
    keep = zeeman_m > 0
    if not keep.all():
        speed_sq, radius, zeeman_m = (speed_sq[keep], radius[keep],
                                      zeeman_m[keep])
    n = len(zeeman_m)
    if n == 0:
        raise ValueError("no trapped atoms: pumping distribution has no "
                         "m > 0 weight or count too small")
    kinetic, potential = _energies(speed_sq, radius, zeeman_m, field,
                                   species)
    total = kinetic + potential
    t_mc = 2.0 * float(total.mean()) / (9.0 * K_B)
    t_err = (2.0 * float(total.std(ddof=1)) / (9.0 * K_B * math.sqrt(n))
             if n > 1 else 0.0)
    return TransferReport(
        particles=count,
        trapped=n,
        temperature_mc=t_mc,
        temperature_stderr=t_err,
        mean_radius=float(radius.mean()),
        mean_radius_expected=math.sqrt(8.0 / math.pi) * mot.size_sigma,
        mean_radius_stderr=(float(radius.std(ddof=1)) / math.sqrt(n)
                            if n > 1 else 0.0),
    )
