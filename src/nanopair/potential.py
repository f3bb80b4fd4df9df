"""Pair force laws and the particle-neighbor force kernel.

Both laws are pure functions of the separation vector (and, for the contact
model, the two velocities). They are antisymmetric under exchanging the pair,
which is what lets half neighbor lists update both partners from one entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backend import Backend, SerialBackend
from .core import Vec3
from .errors import SingularityError
from .neighbor import NeighborLists
from .particles import ParticleStore

__all__ = [
    "LennardJones",
    "SpringDashpot",
    "lj_force",
    "spring_dashpot_force",
    "compute_forces",
    "law_from_config",
]


@dataclass(frozen=True)
class LennardJones:
    """Truncated 12-6 potential; force kernel uses the factored form
    48 * eps * sr6 * (sr6 - 0.5) * sr2 with sr2 = 1/rsq, sr6 = sigma^6 / rsq^3.
    """

    epsilon: float = 1.0
    sigma: float = 1.0
    cutoff: float = 2.5

    needs_velocities = False

    @property
    def cutoff_rsq(self) -> float:
        return self.cutoff * self.cutoff

    def pair_force(self, delta: np.ndarray, rsq: np.ndarray, v_i=None, v_j=None) -> np.ndarray:
        rsq = np.asarray(rsq, dtype=np.float64)
        sigma6 = self.sigma**6
        sr2 = 1.0 / rsq
        sr6 = sr2 * sr2 * sr2 * sigma6
        f = 48.0 * sr6 * (sr6 - 0.5) * sr2 * self.epsilon
        return f[..., None] * np.asarray(delta)

    def pair_energy(self, rsq: np.ndarray) -> np.ndarray:
        sigma6 = self.sigma**6
        sr6 = sigma6 / (rsq * rsq * rsq)
        return 4.0 * self.epsilon * (sr6 * sr6 - sr6)


@dataclass(frozen=True)
class SpringDashpot:
    """Linear contact model for spheres of equal diameter.

    The normal spring pushes overlapping spheres apart; the dashpot damps the
    relative normal velocity. Both terms vanish for non-overlapping spheres.
    Ghost copies carry zero velocity, so the dashpot term is only meaningful
    for local pairs; `SimConfig.validate()` therefore rejects damping > 0
    (and a cutoff below the diameter) for simulation runs.
    """

    stiffness: float = 100.0
    damping: float = 0.0
    diameter: float = 1.0

    needs_velocities = True

    @property
    def cutoff_rsq(self) -> float:
        return self.diameter * self.diameter

    def pair_force(self, delta: np.ndarray, rsq: np.ndarray, v_i=None, v_j=None) -> np.ndarray:
        delta = np.asarray(delta)
        dist = np.sqrt(np.asarray(rsq, dtype=np.float64))
        overlap = self.diameter - dist
        contact = overlap > 0.0
        unit = delta / dist[..., None]
        elast = self.stiffness * overlap[..., None] * unit
        if v_i is None or v_j is None:
            damp = 0.0
        else:
            vrel = v_i - v_j
            vn = np.einsum("...k,...k->...", unit, vrel)
            damp = -self.damping * vn[..., None] * unit
        return np.where(contact[..., None], elast + damp, 0.0)

    def pair_energy(self, rsq: np.ndarray) -> np.ndarray:
        overlap = np.maximum(self.diameter - np.sqrt(rsq), 0.0)
        return 0.5 * self.stiffness * overlap * overlap


def law_from_config(cfg):
    if cfg.potential_kind == "lj":
        return LennardJones(cfg.epsilon, cfg.sigma, cfg.cutoff)
    if cfg.potential_kind == "sd":
        return SpringDashpot(cfg.stiffness, cfg.damping, cfg.diameter)
    raise ValueError(f"unknown potential {cfg.potential_kind!r}")


def lj_force(delta: Vec3, rsq: float, epsilon: float, sigma: float) -> Vec3:
    """Force on particle i from one Lennard-Jones partner at separation delta."""
    if rsq == 0.0:
        raise SingularityError("coincident particles in Lennard-Jones force")
    law = LennardJones(epsilon, sigma)
    return Vec3.from_array(law.pair_force(delta.as_array(), np.float64(rsq)))


def spring_dashpot_force(
    delta: Vec3,
    rsq: float,
    v_i: Vec3,
    v_j: Vec3,
    stiffness: float,
    damping: float,
    diameter: float,
) -> Vec3:
    """Contact force on sphere i; zero unless the spheres overlap."""
    if rsq == 0.0:
        raise SingularityError("coincident particles in spring-dashpot force")
    law = SpringDashpot(stiffness, damping, diameter)
    return Vec3.from_array(
        law.pair_force(delta.as_array(), np.float64(rsq), v_i.as_array(), v_j.as_array())
    )


def compute_forces(
    store: ParticleStore,
    lists: NeighborLists,
    law,
    half: bool | None = None,
    backend: Backend | None = None,
    accumulate_energy: bool = False,
):
    """Evaluate pair forces into store.forces for every local particle.

    Each backend chunk of list rows is flattened to (i, j) entries, entries at
    or beyond the law's cutoff are dropped, and the law runs once per
    surviving entry. A particle's own force is the sum of its entries in list
    order (np.bincount accumulates sequentially). In half mode the reactions
    on local partners are then subtracted, all chunks' entries in one
    bincount in chunk order, so the result does not depend on the chunk size
    or on which backend ran the chunks, bit for bit.

    With accumulate_energy the total pair potential energy is returned;
    otherwise returns None. A half-list entry with a ghost partner carries
    half the pair energy, since the ghost's owner stores the same pair.
    """
    if half is None:
        half = lists.half
    if half and not lists.half:
        raise ValueError("half-mode accumulation needs half-built lists")
    if backend is None:
        backend = SerialBackend()
    n_local = store.n_local
    if n_local == 0:
        store.forces.fill_rows(0, store.n_ghost, 0.0)
        return 0.0 if accumulate_energy else None
    # coordinate-major copy: gathers and differences run on contiguous rows
    xyz = np.ascontiguousarray(store.all_positions().T)
    vel = store.all_velocities() if law.needs_velocities else None
    mat = lists.as_matrix()
    counts = lists.counts
    cutoff_rsq = law.cutoff_rsq
    slot = np.arange(mat.shape[1])[None, :]

    def do_chunk(start: int, stop: int):
        cnt = counts[start:stop]
        j = mat[start:stop][slot < cnt[:, None]]
        i = np.repeat(np.arange(start, stop), cnt)
        delta = np.repeat(xyz[:, start:stop], cnt, axis=1) - xyz[:, j]
        rsq = np.einsum("ij,ij->j", delta, delta)
        within = rsq < cutoff_rsq
        i, j, delta, rsq = i[within], j[within], delta[:, within].T, rsq[within]
        if np.any(rsq == 0.0):
            k = int(np.argmin(rsq))
            raise SingularityError(f"coincident pair: local {i[k]} and neighbor {j[k]}")
        if law.needs_velocities:
            f = law.pair_force(delta, rsq, vel[i], vel[j])
        else:
            f = law.pair_force(delta, rsq)
        m = stop - start
        own = np.column_stack([np.bincount(i - start, weights=f[:, c], minlength=m) for c in range(3)])
        reaction = None
        if half:
            back = j < n_local
            reaction = (j[back], f[back])
        energy = None
        if accumulate_energy:
            e = law.pair_energy(rsq)
            energy = np.where(j < n_local, e, 0.5 * e).sum() if half else 0.5 * e.sum()
        return own, reaction, energy

    chunk = backend.chunk_size
    results = backend.run([(s, min(s + chunk, n_local)) for s in range(0, n_local, chunk)], do_chunk)
    forces = np.concatenate([own for own, _, _ in results])
    if half:
        jj = np.concatenate([r[0] for _, r, _ in results])
        ff = np.concatenate([r[1] for _, r, _ in results])
        for c in range(3):
            forces[:, c] -= np.bincount(jj, weights=ff[:, c], minlength=n_local)
    store.forces.write_rows(0, forces)
    if store.n_ghost:
        store.forces.fill_rows(n_local, store.n_ghost, 0.0)
    return float(np.sum([e for _, _, e in results])) if accumulate_energy else None
