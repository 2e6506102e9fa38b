"""Seeded Monte Carlo model of the reservoir-to-trap transfer.

This is the independent check on the virial-theorem temperature
prediction: atoms are sampled from the reservoir, their kinetic and
potential energies audited at the moment of transfer, and the equilibrium
temperature follows from the linear-potential virial relation
<E_total> = (9/2) k_B T. No collisional dynamics is simulated; ergodic
redistribution is assumed, exactly as in the analytic estimate.

All randomness is drawn from named seed streams; identical seeds give
bit-identical ensembles.

``simulate_transfer`` streams its draws through two reused blocks of
``_CHUNK`` rows instead of holding (n, 3) position and velocity arrays.
The generator is used only on the calling thread, which draws the blocks
in the order ``sample_mot_atoms`` followed by ``sample_zeeman_substates``
consume it; one worker thread per call reduces each block while the next
is drawn, so a call uses up to two cores. The reported floats are bit for
bit those of the serial audit. At peak a call holds two per-atom float
arrays and either the two blocks or, once they are freed, the
statistics' temporary: 20-24 B per particle at 1e6 particles, up to 35 B
at 2e5.
"""

import math
import threading
import zlib
from dataclasses import dataclass

import numpy as np

from .cloud import MotCloud, QuadrupoleField
from .constants import K_B, MU_B
from .species import SpeciesData

ZEEMAN_M_VALUES = tuple(range(-4, 5))

# Rows per streamed block of draws: a (_CHUNK, 3) float64 block is 1.5 MB,
# so the block being drawn and the block being reduced each stay in their
# core's cache.
_CHUNK = 65536


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


def _substate_cdf(dist: PumpingDistribution) -> np.ndarray:
    """The normalised cumulative weights ``rng.choice(..., p=p)`` builds."""
    cdf = np.asarray(dist.probabilities).cumsum()
    cdf /= cdf[-1]
    return cdf


def _substates_from_uniforms(cdf: np.ndarray, uniforms: np.ndarray,
                             out: np.ndarray) -> np.ndarray:
    """Map uniforms in [0, 1) to substates m = -4..4, written into the
    integer array ``out``.

    m = -4 + #{k < 8 : cdf[k] <= u}, which is the index
    ``cdf.searchsorted(u, side="right")`` that ``rng.choice`` uses, shifted
    to m (cdf[8] is exactly 1 and never <= u). A threshold of 0 is always
    met and one of 1 never is, so neither costs a comparison.
    """
    thresholds = cdf[:-1]
    out.fill(-4 + int(np.count_nonzero(thresholds == 0.0)))
    hit = np.empty(uniforms.shape, dtype=bool)
    for threshold in thresholds[(thresholds > 0.0) & (thresholds < 1.0)]:
        np.greater_equal(uniforms, threshold, out=hit)
        out += hit
    return out


def sample_zeeman_substates(dist: PumpingDistribution, count: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Categorical draw of dark substates for ``count`` atoms: the values
    and the generator state of ``rng.choice(ZEEMAN_M_VALUES, size=count,
    p=dist.probabilities)``."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return _substates_from_uniforms(_substate_cdf(dist), rng.random(count),
                                    np.empty(count, dtype=int))


def _squared_norms(vectors: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Per-row |a|^2 of an (n, 3) array, without an (n, 3) temporary."""
    return np.einsum("ij,ij->i", vectors, vectors, out=out)


def _energies(speed_sq: np.ndarray, radius: np.ndarray, zeeman_m: np.ndarray,
              field: QuadrupoleField, species: SpeciesData,
              kinetic: np.ndarray,
              potential: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-atom (kinetic, potential) from |v|^2, |r| and the substate,
    written into ``kinetic`` and ``potential`` (``kinetic`` may be
    ``speed_sq`` itself): (0.5 m) |v|^2 and ((g m_d) mu_B) b |r|."""
    np.multiply(0.5 * species.mass, speed_sq, out=kinetic)
    np.multiply(species.lande_g_d, zeeman_m, out=potential, dtype=float)
    potential *= MU_B
    potential *= field.gradient
    potential *= radius
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
    speed_sq = _squared_norms(ensemble.velocities)
    radius = np.sqrt(_squared_norms(ensemble.positions))
    return _energies(speed_sq, radius, ensemble.zeeman_m, field, species,
                     kinetic=speed_sq, potential=np.empty_like(radius))


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


def _draw_and_reduce(steps, blocks) -> None:
    """Run ``draw(block, start, stop)`` of every step on the calling thread
    and ``reduce(block, start, stop)`` on one worker thread, both in step
    order, alternating between the two ``blocks``.

    Block k % 2 is drawn into again only after step k - 2 is reduced, so
    drawing step k overlaps reducing step k - 1. After a failure on either
    side no further step is drawn or reduced; the worker is always joined
    and the first exception is re-raised on the calling thread.
    """
    free = [threading.Semaphore(1), threading.Semaphore(1)]
    ready = [threading.Semaphore(0), threading.Semaphore(0)]
    failures = []
    drawn = 0  # steps handed to the worker, set before each hand-over

    def work():
        for k, (_, reduce, start, stop) in enumerate(steps):
            ready[k % 2].acquire()
            if k == drawn:  # woken by the caller stopping early
                return
            if not failures:
                try:
                    reduce(blocks[k % 2], start, stop)
                except BaseException as exc:
                    failures.append(exc)
            free[k % 2].release()

    worker = threading.Thread(target=work, name="mtload-mc-reduce")
    worker.start()
    try:
        for k, (draw, _, start, stop) in enumerate(steps):
            free[k % 2].acquire()
            if failures:
                break
            draw(blocks[k % 2], start, stop)
            drawn = k + 1
            ready[k % 2].release()
    finally:
        if drawn < len(steps):
            ready[drawn % 2].release()
        worker.join()
    if failures:
        raise failures[0]


def simulate_transfer(mot: MotCloud, dist: PumpingDistribution,
                      field: QuadrupoleField, species: SpeciesData,
                      count: int, rng: np.random.Generator) -> TransferReport:
    """Run one transfer simulation with the supplied generator (derive it
    from a named seed stream for reproducibility).

    The draws are those of ``sample_mot_atoms`` followed by
    ``sample_zeeman_substates``: all positions, then all velocities, then
    all substate uniforms, made on the calling thread, the only one that
    touches ``rng``. They alternate between two reused blocks of
    ``_CHUNK`` rows, so the generator ends in the same state as after
    calling the two directly and every reported float is bit-identical to
    auditing that ensemble with ``ensemble_energies``. One worker thread,
    started and joined within the call, reduces each block in order while
    the next is drawn: position and velocity blocks straight into per-atom
    |r| and |v|^2 arrays; substate blocks into substates, then the
    low-field seekers (m > 0) move to the front of both arrays and their
    |v|^2 becomes kinetic plus potential energy. A call thus uses up to two
    cores and never holds an (n, 3) array, a substate array or a mask of
    length n: 20-24 B per particle at peak for 1e6 particles. An exception
    on either thread is raised here once the worker is joined.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    size = min(count, _CHUNK)
    spans = [(start, min(count, start + _CHUNK))
             for start in range(0, count, _CHUNK)]
    v_th = math.sqrt(K_B * mot.temperature / species.mass)
    cdf = _substate_cdf(dist)
    radius = np.empty(count)
    speed_sq = np.empty(count)
    zeeman_m = np.empty(size, dtype=np.int8)
    n = 0

    def normals(block, start, stop):
        rng.standard_normal(out=block[:stop - start])

    def uniforms(block, start, stop):
        rng.random(out=block.reshape(-1)[:stop - start])

    def positions(block, start, stop):
        rows, out = block[:stop - start], radius[start:stop]
        rows *= mot.size_sigma
        np.sqrt(_squared_norms(rows, out=out), out=out)

    def velocities(block, start, stop):
        rows = block[:stop - start]
        rows *= v_th
        _squared_norms(rows, out=speed_sq[start:stop])

    def substates(block, start, stop):
        # the trapped atoms move to the front (the write index n never
        # passes the read index start) and their |v|^2 becomes kinetic +
        # potential in place; the spent uniforms hold the potential
        nonlocal n
        flat = block.reshape(-1)
        m = _substates_from_uniforms(cdf, flat[:stop - start],
                                     zeeman_m[:stop - start])
        keep = m > 0
        kept = int(np.count_nonzero(keep))
        if kept < len(m):
            # gather by index: on a random mask that is about 9x faster
            # than boolean indexing, which mispredicts a branch per atom
            index = np.flatnonzero(keep)
            m = m[index]
            radius[n:n + kept] = radius[start:stop][index]
            speed_sq[n:n + kept] = speed_sq[start:stop][index]
        elif n < start:
            radius[n:n + kept] = radius[start:stop]
            speed_sq[n:n + kept] = speed_sq[start:stop]
        total = speed_sq[n:n + kept]
        _, potential = _energies(total, radius[n:n + kept], m, field,
                                 species, kinetic=total,
                                 potential=flat[:kept])
        total += potential
        n += kept

    # the blocks are freed on return, before the statistics' temporary
    _draw_and_reduce([(draw, reduce, start, stop)
                      for draw, reduce in ((normals, positions),
                                           (normals, velocities),
                                           (uniforms, substates))
                      for start, stop in spans],
                     (np.empty((size, 3)), np.empty((size, 3))))
    if n == 0:
        raise ValueError("no trapped atoms: pumping distribution has no "
                         "m > 0 weight or count too small")
    total, radius = speed_sq[:n], radius[:n]
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
