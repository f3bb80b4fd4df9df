"""Pair force laws and the particle-neighbor force kernel.

Both laws are central forces: the force on i is s * delta, where the scalar
s is a function of the squared separation (and, for the contact model with
damping, of delta . (v_i - v_j)). They are therefore antisymmetric under
exchanging the pair, which is what lets half neighbor lists update both
partners from one entry. A law here holds only its parameters: its formula
lives in the compiled row loops of pair_kernel.c (`pair_forces`), which
`compute_forces` runs, and tests/test_potential.py holds the Python
reference in the same operation order, which the loops match bit for bit.
The Lennard-Jones loop gathers the in-cutoff partners of a block of row
entries, evaluates the law on them two lanes at a time and sums in row
order, so it computes the same bits as one scalar pass; the spring-dashpot
loop, whose rows are short and mostly out of contact, stays scalar.
`nanopair.kernel` compiles pair_kernel.c once per process with the system C
compiler, for these loops and for the neighbor build alike, so a C compiler
is a run-time requirement of this package.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import ProtocolError, SingularityError
from .neighbor import NeighborLists
from .particles import ParticleStore

__all__ = [
    "LennardJones",
    "SpringDashpot",
    "compute_forces",
    "law_from_config",
]


def _params(*values: float) -> np.ndarray:
    """A law's parameters as the read-only float64 array the compiled loop reads;
    built once per law instance (`kernel_args` is cached)."""
    params = np.array(values, dtype=np.float64)
    params.flags.writeable = False
    return params


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

    @functools.cached_property
    def kernel_args(self) -> tuple[int, np.ndarray]:
        """Law code and parameter array of the compiled loop (see pair_kernel.c)."""
        return 0, _params(self.epsilon, self.sigma**6)


@dataclass(frozen=True)
class SpringDashpot:
    """Linear contact model for spheres of equal diameter.

    The normal spring pushes overlapping spheres apart; the dashpot damps the
    relative normal velocity: s = k (d - r) / r - gamma (delta . v_rel) / r^2
    inside contact (r < d), 0 outside, so both terms vanish for
    non-overlapping spheres.
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

    @functools.cached_property
    def kernel_args(self) -> tuple[int, np.ndarray]:
        """Law code and parameter array of the compiled loop (see pair_kernel.c)."""
        return 1, _params(self.stiffness, self.damping, self.diameter)


def law_from_config(cfg):
    if cfg.potential_kind == "lj":
        return LennardJones(cfg.epsilon, cfg.sigma, cfg.cutoff)
    if cfg.potential_kind == "sd":
        return SpringDashpot(cfg.stiffness, cfg.damping, cfg.diameter)
    raise ValueError(f"unknown potential {cfg.potential_kind!r}")


def compute_forces(
    store: ParticleStore,
    lists: NeighborLists,
    law,
    backend=None,
    accumulate_energy: bool = False,
):
    """Evaluate pair forces into store.forces for every local particle.

    The positions (and, for a law that needs them, the velocities) are
    copied coordinate-major once per call, and all local rows go to one call
    of the compiled loop, which releases the GIL. For local i it reads only
    the counts[i] real partners of row i, never the -1 padding; an entry at or
    beyond the cutoff adds nothing, and the force on i is the sum of
    s * delta over the rest, in row order. For half lists the loop also sums
    the reaction s * delta of each in-cutoff entry per local partner j, in
    row-major entry order, and subtracts these sums after the last row. Only
    the local rows of store.forces are written: ghost rows stay as
    `append_ghosts` zeroed them.

    With accumulate_energy the total pair potential energy is returned;
    otherwise returns None. A half-list entry with a ghost partner carries
    half the pair energy, since the ghost's owner stores the same pair.

    `backend` is ignored. It stays only because the benchmark harness still
    passes `nanopair.backend.SerialBackend()`; it goes once the harness drops
    it (see nanopair.backend).

    Raises SingularityError on a coincident pair and on a non-finite force,
    ProtocolError on lists that do not belong to the store as it is; a
    faulty list entry is reported for the first one in row-major order.
    TypeError on a list array of the wrong dtype or memory layout.
    """
    half = lists.half
    n_local, n_total = store.n_local, store.n_total
    if (n_local, n_total) != (lists.n_local, lists.n_total):
        raise ProtocolError(
            f"store has {n_local} locals and {n_total} particles but the lists were "
            f"built for {lists.n_local} locals and {lists.n_total} particles"
        )
    if n_local == 0:
        return 0.0 if accumulate_energy else None
    mat = lists.as_matrix()
    counts = lists.counts
    width = mat.shape[1]
    if counts.shape != (n_local,) or counts.max() > width:
        raise ProtocolError(f"list counts do not fit {n_local} rows of width {width}")
    code, params = law.kernel_args
    xyz = store.positions.read_transposed(0, n_total)
    # the loop reads velocities only for a law that needs them
    vel = store.velocities.read_transposed(0, n_total) if law.needs_velocities else xyz
    forces = np.empty((n_local, 3))
    # the loop zeroes the reaction sums before it adds to them
    reactions = np.empty((n_local, 3)) if half else None
    row_energy = np.empty(n_local) if accumulate_energy else None
    # every array goes to the loop as a bare address, checked once here (see
    # kernel.address): a wrong dtype, layout or shape raises TypeError
    f64, i32 = np.float64, np.int32
    bad = kernel.library().pair_forces(
        code, kernel.address(params, f64), law.cutoff_rsq, law.needs_velocities,
        kernel.address(xyz, f64, (3, n_total)), kernel.address(vel, f64, (3, n_total)), n_total,
        kernel.address(mat, i32, (n_local, width)), width, kernel.address(counts, i32, (n_local,)),
        n_local, half,
        kernel.address(forces, f64),
        None if reactions is None else kernel.address(reactions, f64),
        None if row_energy is None else kernel.address(row_energy, f64),
    )
    if bad >= 0:
        i, k = divmod(bad, width)
        j = int(mat[i, k])
        if 0 <= j < n_total:
            raise SingularityError(f"coincident pair: local {i} and neighbor {j}")
        raise ProtocolError(f"list row {i} names particle {j} of {n_total}")
    if not np.isfinite(forces).all():
        bad = int(np.argmin(np.isfinite(forces).all(axis=1)))
        raise SingularityError(f"non-finite force on local {bad}")
    store.forces.write_rows(0, forces)
    return None if row_energy is None else float(row_energy.sum())
