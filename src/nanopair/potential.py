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
loop, whose rows are short and mostly out of contact, stays scalar. Both
loops can also prune the rows they run into an inner list (see
`compute_forces` and nanopair.neighbor.InnerLists).
`nanopair.kernel` compiles pair_kernel.c once per process with the system C
compiler, for these loops and for the neighbor build alike, so a C compiler
is a run-time requirement of this package.
"""

from __future__ import annotations

import functools
import math
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


class _Law:
    """What the force loop takes from a law besides its formula."""

    @functools.cached_property
    def params_address(self) -> int:
        """Address of the `kernel_args` parameter array, taken once per law instance."""
        return kernel.address(self.kernel_args[1], np.float64)


@dataclass(frozen=True)
class LennardJones(_Law):
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
class SpringDashpot(_Law):
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


# `pair_forces` status codes below -1 (see pair_kernel.c)
_FAULT_STARTS, _FAULT_MEMORY, _FAULT_NON_FINITE = -2, -3, -4


def compute_forces(
    store: ParticleStore,
    lists: NeighborLists,
    law,
    backend=None,
    accumulate_energy: bool = False,
):
    """Evaluate pair forces into store.forces for every local particle.

    All local rows go to one call of the compiled loop, which releases the
    GIL. It copies the positions (and, for a law that needs them, the
    velocities) coordinate-major out of the layout buffers, and writes each
    local's force into the force buffer in place, through the layout's index
    map. For local i it reads row i of the CSR list,
    partners[start[i]:start[i + 1]]; an entry at or beyond the cutoff adds
    nothing, and the force on i is the sum of s * delta over the rest, in
    row order. For half lists the loop also sums the reaction s * delta of
    each in-cutoff entry per local partner j, in row-major entry order, and
    subtracts these sums after the last row. Only the local rows of
    store.forces are written: ghost rows stay as `append_ghosts` zeroed
    them. The addresses of the law's parameters and of the lists are taken
    once, not per call: the law's when it first runs, the lists' when they
    are made (see nanopair.kernel).

    Lists that carry an `InnerLists` (`lists.inner`, see nanopair.neighbor)
    are pruned by the same call: the kernel also writes every entry with
    rsq < (r_c + delta)^2 to the inner list, in row order, and copies the
    positions of all n_total rows as its reference, with r_c the law's
    cutoff and delta the inner list's. Only a call that returns holds the
    pruned rows (`InnerLists.lists`); the forces are those of a call
    without the prune, bit for bit.

    With accumulate_energy the total pair potential energy is returned;
    otherwise returns None. A half-list entry with a ghost partner carries
    half the pair energy, since the ghost's owner stores the same pair.

    `backend` is ignored. It stays only because the benchmark harness still
    passes `nanopair.backend.SerialBackend()`; it goes once the harness drops
    it (see nanopair.backend).

    Raises SingularityError on a coincident pair and on a non-finite force,
    ProtocolError on lists that do not belong to the store as it is, and on
    row starts that do not split the partners into the n_local rows (checked
    before any row is read); a faulty list entry is reported for the first
    one in row-major order. After an error the local force rows are
    incomplete.
    """
    n_local, n_total = store.n_local, store.n_total
    if (n_local, n_total) != (lists.n_local, lists.n_total):
        raise ProtocolError(
            f"store has {n_local} locals and {n_total} particles but the lists were "
            f"built for {lists.n_local} locals and {lists.n_total} particles"
        )
    if n_local == 0:
        return 0.0 if accumulate_energy else None
    row_energy = np.empty(n_local) if accumulate_energy else None
    inner = lists.inner
    prune = (0.0, None, None, None)
    if inner is not None:
        reach = math.sqrt(law.cutoff_rsq) + inner.delta
        prune = (reach * reach, *inner.buffers(lists))
    pos = store.positions
    status = kernel.library().pair_forces(
        law.kernel_args[0], law.params_address, law.cutoff_rsq, law.needs_velocities,
        pos.map_address, pos.address, store.velocities.address, store.forces.address, n_total,
        *lists.args, n_local, lists.half,
        None if row_energy is None else kernel.address(row_energy, np.float64),
        *prune,
    )
    if status != -1:
        _raise_fault(status, lists, n_local, n_total)
    if inner is not None:
        inner.take(lists, reach)
    return None if row_energy is None else float(row_energy.sum())


def _raise_fault(status: int, lists: NeighborLists, n_local: int, n_total: int):
    """The error of a `pair_forces` status other than -1."""
    if status >= 0:
        # the entry's row: the last one starting at or before it, past any empty rows
        i = int(np.searchsorted(lists.start, status, "right")) - 1
        j = int(lists.partners[status])
        if 0 <= j < n_total:
            raise SingularityError(f"coincident pair: local {i} and neighbor {j}")
        raise ProtocolError(f"list row {i} names particle {j} of {n_total}")
    if status == _FAULT_STARTS:
        raise ProtocolError(f"list starts do not split {lists.partners.size} entries into {n_local} rows")
    if status == _FAULT_MEMORY:
        raise MemoryError(f"no memory for the force loop's copies of {n_total} particles")
    raise SingularityError(f"non-finite force on local {_FAULT_NON_FINITE - status}")
