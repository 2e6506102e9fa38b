"""The transfer Monte Carlo written out on full 3-D ensembles: sample
positions and velocities, pump each atom into a substate, keep the
low-field seekers and audit their energies atom by atom. It shares no
code with ``mtload.mc.simulate_transfer``, which samples the audit's
sufficient statistics instead, and serves the tests as its oracle."""

import math
from dataclasses import dataclass

import numpy as np

from mtload import MotCloud, PumpingDistribution, QuadrupoleField, SpeciesData
from mtload.constants import K_B, MU_B
from mtload.mc import ZEEMAN_M_VALUES


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
    """Isotropic Gaussian positions of radius sigma per axis and
    Maxwell-Boltzmann velocities at the reservoir temperature."""
    if count < 1:
        raise ValueError("count must be >= 1")
    positions = rng.normal(0.0, mot.size_sigma, size=(count, 3))
    v_th = math.sqrt(K_B * mot.temperature / species.mass)
    velocities = rng.normal(0.0, v_th, size=(count, 3))
    return Ensemble(positions=positions, velocities=velocities)


def sample_zeeman_substates(dist: PumpingDistribution, count: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Categorical draw of dark substates, one per atom."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return rng.choice(np.array(ZEEMAN_M_VALUES), size=count,
                      p=np.asarray(dist.probabilities))


def ensemble_energies(ensemble: Ensemble, field: QuadrupoleField,
                      species: SpeciesData) -> tuple[np.ndarray, np.ndarray]:
    """Per-particle (kinetic, potential) arrays of a trapped ensemble, with
    the isotropic mean-gradient potential U = g_d m_d mu_B b |r|."""
    if ensemble.zeeman_m is None:
        raise ValueError("ensemble has no substate assignment")
    if len(ensemble) == 0:
        raise ValueError("empty ensemble")
    if np.any(ensemble.zeeman_m <= 0):
        raise ValueError("ensemble contains untrapped (m <= 0) atoms")
    kinetic = 0.5 * species.mass * np.sum(ensemble.velocities ** 2, axis=1)
    radius = np.linalg.norm(ensemble.positions, axis=1)
    potential = (species.lande_g_d * ensemble.zeeman_m * MU_B
                 * field.gradient * radius)
    return kinetic, potential


def oracle_transfer(cloud: MotCloud, dist: PumpingDistribution,
                    fld: QuadrupoleField, species: SpeciesData, count: int,
                    rng: np.random.Generator) -> dict:
    """The fields of ``TransferReport`` from a full 3-D ensemble."""
    ensemble = sample_mot_atoms(cloud, species, count, rng)
    ensemble.zeeman_m = sample_zeeman_substates(dist, count, rng)
    trapped = ensemble.trapped()
    if len(trapped) < 2:
        raise ValueError(f"{len(trapped)} trapped atoms, need at least 2")
    total = sum(ensemble_energies(trapped, fld, species))
    n = len(trapped)
    radii = np.linalg.norm(trapped.positions, axis=1)
    return {
        "particles": count,
        "trapped": n,
        "temperature_mc": 2.0 * total.mean() / (9.0 * K_B),
        "temperature_stderr": (2.0 * total.std(ddof=1)
                               / (9.0 * K_B * math.sqrt(n))),
        "mean_radius": radii.mean(),
        "mean_radius_expected": math.sqrt(8.0 / math.pi) * cloud.size_sigma,
        "mean_radius_stderr": radii.std(ddof=1) / math.sqrt(n),
    }
