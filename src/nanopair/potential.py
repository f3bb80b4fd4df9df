"""Pair force laws and the particle-neighbor force kernel.

Both laws are central forces: the force on i is s * delta, where the scalar
s comes from `force_scalar` as a function of the squared separation (and, for
the contact model with damping, of delta . (v_i - v_j)). They are therefore
antisymmetric under exchanging the pair, which is what lets half neighbor
lists update both partners from one entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backend import Backend, SerialBackend
from .core import Vec3
from .errors import SingularityError
from .neighbor import NeighborLists
from .particles import ParticleStore

# list entries per row block of the force kernel. A block's (3, rows, width)
# temporaries are about 200 kB each and stay in a core's L2 cache. 32768 was
# as fast in back-to-back calls but slower on a call that follows unrelated
# work (cold cache); 4096 paid more per-block call overhead.
_BLOCK_ENTRIES = 8192
# coordinate of the column that list padding selects: far beyond any box and
# any cutoff, yet its squared distances stay finite
_FAR = 1e150

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

    def force_scalar(self, rsq: np.ndarray, vdot=None) -> np.ndarray:
        """s with force = s * delta for any rsq (the caller applies the cutoff);
        `vdot` is unused."""
        sr2 = 1.0 / rsq
        sr6 = sr2 * sr2 * sr2 * self.sigma**6
        return 48.0 * sr6 * (sr6 - 0.5) * sr2 * self.epsilon

    def pair_force(self, delta: np.ndarray, rsq: np.ndarray, v_i=None, v_j=None) -> np.ndarray:
        s = self.force_scalar(np.asarray(rsq, dtype=np.float64))
        return s[..., None] * np.asarray(delta)

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
    (and a cutoff below the diameter) for simulation runs. Velocities are
    only read when the dashpot term can be nonzero (`needs_velocities`).
    """

    stiffness: float = 100.0
    damping: float = 0.0
    diameter: float = 1.0

    @property
    def needs_velocities(self) -> bool:
        return self.damping > 0

    @property
    def cutoff_rsq(self) -> float:
        return self.diameter * self.diameter

    def force_scalar(self, rsq: np.ndarray, vdot=None) -> np.ndarray:
        """s with force = s * delta, zero outside contact.

        s = k (d - r) / r - gamma (delta . v_rel) / r^2, with `vdot` the
        projection delta . (v_i - v_j); without it the dashpot term is left out.
        """
        dist = np.sqrt(rsq)
        s = self.stiffness * (self.diameter - dist) / dist
        if vdot is not None:
            s = s - self.damping * vdot / rsq
        return np.where(dist < self.diameter, s, 0.0)

    def pair_force(self, delta: np.ndarray, rsq: np.ndarray, v_i=None, v_j=None) -> np.ndarray:
        delta = np.asarray(delta)
        vdot = None
        if v_i is not None and v_j is not None:
            vdot = np.einsum("...k,...k->...", delta, np.asarray(v_i) - np.asarray(v_j))
        s = self.force_scalar(np.asarray(rsq, dtype=np.float64), vdot)
        return s[..., None] * delta

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

    The kernel walks the (n_local, width) list in blocks of rows of about
    _BLOCK_ENTRIES entries and works on each block as a whole: gather the
    partners' coordinates, take the law's scalar s per entry, set s to 0 at
    or beyond the cutoff, and sum s * delta along each row. A padding slot
    (-1) selects a coordinate column placed _FAR away, so it is an entry
    beyond the cutoff whose force is exactly 0. A particle's own force is
    therefore its row sum. In half mode the reactions on local partners are
    subtracted afterwards, the in-cutoff entries of all chunks in one
    np.bincount in row order, so the result does not depend on the chunk
    size or on which backend ran the chunks, bit for bit.

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
    n_local, n_total = store.n_local, store.n_total
    if n_local == 0:
        store.forces.fill_rows(0, store.n_ghost, 0.0)
        return 0.0 if accumulate_energy else None
    # coordinate-major copies; the extra last column is what index -1 selects
    xyz = np.full((3, n_total + 1), _FAR)
    xyz[:, :n_total] = store.all_positions().T
    vel = None
    if law.needs_velocities:
        vel = np.zeros((3, n_total + 1))
        vel[:, :n_total] = store.all_velocities().T
    mat = lists.as_matrix()
    rows_per_block = max(1, _BLOCK_ENTRIES // mat.shape[1])
    cutoff_rsq = law.cutoff_rsq

    def do_chunk(start: int, stop: int):
        own = np.empty((stop - start, 3))
        back_j, back_f = [], []
        energy = 0.0
        for lo in range(start, stop, rows_per_block):
            hi = min(lo + rows_per_block, stop)
            m = mat[lo:hi]
            delta = xyz[:, lo:hi, None] - np.take(xyz, m, axis=1)
            rsq = np.einsum("cij,cij->ij", delta, delta)
            if not rsq.all():
                a, b = np.argwhere(rsq == 0.0)[0]
                raise SingularityError(f"coincident pair: local {lo + a} and neighbor {m[a, b]}")
            within = rsq < cutoff_rsq
            vdot = None
            if vel is not None:
                vrel = vel[:, lo:hi, None] - np.take(vel, m, axis=1)
                vdot = np.einsum("cij,cij->ij", delta, vrel)
            s = np.where(within, law.force_scalar(rsq, vdot), 0.0)
            own[lo - start : hi - start] = np.einsum("cij,ij->ic", delta, s)
            if half:
                # flat offsets of in-cutoff entries with a local partner;
                # padding is never within the cutoff, so these partners are >= 0
                k = np.flatnonzero(within & (m < n_local))
                back_j.append(np.take(m, k))
                back_f.append(np.take(delta.reshape(3, -1), k, axis=1) * np.take(s, k))
            if accumulate_energy:
                e = law.pair_energy(rsq[within])
                if half:
                    energy += np.where(m[within] < n_local, e, 0.5 * e).sum()
                else:
                    energy += 0.5 * e.sum()
        return own, back_j, back_f, energy

    chunk = backend.chunk_size
    results = backend.run([(s, min(s + chunk, n_local)) for s in range(0, n_local, chunk)], do_chunk)
    forces = np.concatenate([r[0] for r in results])
    if half:
        jj = np.concatenate([j for r in results for j in r[1]])
        ff = np.concatenate([f for r in results for f in r[2]], axis=1)
        for c in range(3):
            forces[:, c] -= np.bincount(jj, weights=ff[c], minlength=n_local)
    store.forces.write_rows(0, forces)
    if store.n_ghost:
        store.forces.fill_rows(n_local, store.n_ghost, 0.0)
    return float(np.sum([r[3] for r in results])) if accumulate_energy else None
