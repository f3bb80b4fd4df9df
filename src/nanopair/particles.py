"""Layout-parameterized particle state with a local and a ghost region.

Indices [0, n_local) are particles owned by this rank; [n_local, n_local +
n_ghost) are read-only copies of remote (or periodic-image) particles. The
ghost region always stays contiguous after the locals.
"""

from __future__ import annotations

import numpy as np

from . import kernel
from .core import AABB, ConfigError, SimConfig
from .layout import ArrayHandle, LayoutDescriptor

__all__ = ["ParticleStore", "lattice_positions"]

# Basis offsets (in unit-cell fractions) for the supported particles-per-cell
# counts: simple cubic, body-centered, face-centered.
_BASES = {
    1: [(0.0, 0.0, 0.0)],
    2: [(0.0, 0.0, 0.0), (0.5, 0.5, 0.5)],
    4: [(0.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.5, 0.0, 0.5), (0.0, 0.5, 0.5)],
}

_GROWTH = 1.5


class ParticleStore:
    """Positions, velocities, and forces stored through one layout."""

    def __init__(self, layout: LayoutDescriptor, capacity: int):
        self.layout = layout
        self.n_local = 0
        self.n_ghost = 0
        self.positions = ArrayHandle(layout, capacity, 3)
        self.velocities = ArrayHandle(layout, capacity, 3)
        self.forces = ArrayHandle(layout, capacity, 3)

    @property
    def capacity(self) -> int:
        return self.positions.size_x

    @property
    def n_total(self) -> int:
        return self.n_local + self.n_ghost

    def ensure_capacity(self, needed: int) -> None:
        if needed <= self.capacity:
            return
        new_cap = max(needed, int(self.capacity * _GROWTH) + 8)
        self.positions = self.positions.grown(new_cap)
        self.velocities = self.velocities.grown(new_cap)
        self.forces = self.forces.grown(new_cap)

    # -- bulk views ---------------------------------------------------------

    def local_positions(self) -> np.ndarray:
        return self.positions.read_rows(0, self.n_local)

    def all_positions(self) -> np.ndarray:
        return self.positions.read_rows(0, self.n_total)

    def local_velocities(self) -> np.ndarray:
        return self.velocities.read_rows(0, self.n_local)

    # -- local-region editing ----------------------------------------------

    def append_locals(self, pos: np.ndarray, vel: np.ndarray) -> None:
        """Append locals after the current ones.

        Requires an empty ghost region (exchange clears ghosts first).
        """
        if self.n_ghost != 0:
            raise RuntimeError("append_locals requires an empty ghost region")
        pos = np.atleast_2d(pos)
        vel = np.atleast_2d(vel)
        k = pos.shape[0]
        if k == 0:
            return
        self.ensure_capacity(self.n_local + k)
        self.positions.write_rows(self.n_local, pos)
        self.velocities.write_rows(self.n_local, vel)
        self.forces.fill_rows(self.n_local, k, 0.0)
        self.n_local += k

    def compact_locals(self, keep: np.ndarray) -> None:
        """Drop locals where `keep` is False, preserving the survivors' order.

        One compiled pass over the three arrays (`compact_rows`): rows
        before the first dropped one stay where they are; only the
        survivors behind it move up, in order. Requires an empty ghost region
        (exchange clears ghosts first).
        """
        if self.n_ghost != 0:
            raise RuntimeError("compact_locals requires an empty ghost region")
        keep = np.ascontiguousarray(keep, dtype=bool)
        if keep.shape != (self.n_local,):
            raise ValueError("keep mask must cover exactly the local region")
        x = self.positions
        self.n_local = kernel.library().compact_rows(
            x.map_address, x.address, self.velocities.address, self.forces.address, self.n_local,
            kernel.address(keep, np.bool_),
        )

    # -- ghost-region editing ------------------------------------------------

    def clear_ghosts(self) -> None:
        self.n_ghost = 0

    def append_ghosts(self, pos: np.ndarray, peer: int) -> int:
        """Append ghost copies; returns the starting ghost slot (absolute index).

        `peer`, the rank the copies came from, is not stored; the border plan
        keeps what synchronization needs. The parameter stays because the
        benchmark's tracer counts this method's rows through a hook with the
        signature (self, pos, peer).
        """
        pos = np.atleast_2d(pos)
        k = pos.shape[0]
        start = self.n_total
        self.ensure_capacity(start + k)
        self.positions.write_rows(start, pos)
        self.velocities.fill_rows(start, k, 0.0)
        self.forces.fill_rows(start, k, 0.0)
        self.n_ghost += k
        return start

    def set_ghost_positions(self, start: int, pos: np.ndarray) -> None:
        """Write the (k, 3) rows `pos` over the ghost rows [start, start + k),
        in place through the layout's index map (one compiled loop).

        IndexError if the rows reach outside the ghost region. Rows that
        are not C-contiguous and aligned are copied first: a wire payload
        starts 5 bytes into its record, and the compiled loop must not load
        misaligned doubles.
        """
        pos = np.asarray(pos, dtype=np.float64)
        k = pos.shape[0]
        if start < self.n_local or start + k > self.n_total:
            raise IndexError(
                f"rows [{start}, {start + k}) outside the ghost region [{self.n_local}, {self.n_total})"
            )
        if not (pos.flags.aligned and pos.flags.c_contiguous):
            pos = pos.copy()
        h = self.positions
        rows = kernel.address(pos, np.float64, (k, 3))
        kernel.library().put_rows(h.map_address, h.address, 3, None, start, k, rows, 3)


def lattice_positions(cfg: SimConfig, domain: AABB) -> np.ndarray:
    """Deterministic lattice sites for the configured unit cells and basis.

    Site order is fixed (x-major cells, basis sites innermost) so every rank
    can regenerate the identical global arrangement.
    """
    basis = _BASES.get(cfg.particles_per_cell)
    if basis is None:
        raise ConfigError(
            f"particles_per_cell must be one of {sorted(_BASES)}, got {cfg.particles_per_cell}"
        )
    a = cfg.lattice_constant()
    nx, ny, nz = cfg.unit_cells
    ix, iy, iz = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    cells = np.stack([ix.ravel(), iy.ravel(), iz.ravel()], axis=1).astype(np.float64)
    offsets = np.asarray(basis, dtype=np.float64)
    pos = (cells[:, None, :] + offsets[None, :, :]).reshape(-1, 3) * a
    pos += domain.lo
    if cfg.fill == "half-diagonal":
        ext = domain.extent()
        frac = (pos - domain.lo) / ext
        pos = pos[frac[:, 0] + frac[:, 1] < 1.0]
    return pos

