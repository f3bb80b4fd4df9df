"""Cell-list binning and half/full Verlet-list construction.

Cells have edge length equal to the interaction radius r (cutoff plus Verlet
buffer), never less, so candidate pairs for any particle come from the 27
surrounding cells. The grid covers the rank's bounding box plus exactly one
shell of ghost cells; particles farther out than that shell indicate a missed
exchange and raise ProtocolError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import AABB
from .errors import ProtocolError
from .layout import ArrayHandle, row_major_layout
from .particles import ParticleStore

__all__ = [
    "CellGrid",
    "NeighborLists",
    "build_cell_grid",
    "build_neighbor_lists",
    "max_displacement_since_rebuild",
]

# fixed 27-cell stencil order: x slowest, z fastest
_STENCIL = np.array(
    [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)],
    dtype=np.int64,
)

# locals per build pass; bounds the candidate temporaries (27 cells x padded
# occupancy per row)
_CHUNK = 1024


@dataclass
class CellGrid:
    """Spatial bins over the rank box plus a one-cell ghost shell."""

    origin: np.ndarray
    cell_size: float
    dims: np.ndarray  # interior cell counts per axis (excludes the shell)
    coords: np.ndarray  # (n_total, 3) shell-shifted integer cell coordinates
    occupants: np.ndarray  # (n_cells, max_occupancy) particle indices, -1 padded
    counts: np.ndarray  # (n_cells,) occupancy

    @property
    def shell_dims(self) -> np.ndarray:
        return self.dims + 2

    def cell_id(self, coords: np.ndarray) -> np.ndarray:
        gd = self.shell_dims
        return (coords[..., 0] * gd[1] + coords[..., 1]) * gd[2] + coords[..., 2]


def build_cell_grid(store: ParticleStore, rank_aabb: AABB, r: float) -> CellGrid:
    """Bin every local and ghost particle into cells of edge r."""
    if r <= 0:
        raise ValueError("interaction radius must be positive")
    n = store.n_total
    pos = store.all_positions()
    lo = rank_aabb.lo
    ext = rank_aabb.extent()
    dims = np.maximum(1, np.ceil(ext / r - 1e-12).astype(np.int64))
    coords = np.floor((pos - lo) / r).astype(np.int64)
    beyond = (coords < -1) | (coords > dims)
    if np.any(beyond):
        i = int(np.nonzero(beyond.any(axis=1))[0][0])
        kind = "local" if i < store.n_local else "ghost"
        raise ProtocolError(
            f"{kind} particle {i} at {pos[i]} lies more than one cell shell outside "
            f"the rank box {lo}..{rank_aabb.hi}; an exchange was probably missed"
        )
    shifted = coords + 1
    gd = dims + 2
    n_cells = int(np.prod(gd))
    cid = (shifted[:, 0] * gd[1] + shifted[:, 1]) * gd[2] + shifted[:, 2]
    counts = np.bincount(cid, minlength=n_cells)
    max_occ = int(counts.max()) if n else 1
    occupants = np.full((n_cells, max_occ), -1, dtype=np.int32)
    order = np.argsort(cid, kind="stable")
    sorted_cid = cid[order]
    starts = np.concatenate([[0], np.cumsum(counts)])[:-1]
    occupants[sorted_cid, np.arange(n) - starts[sorted_cid]] = order
    return CellGrid(
        origin=lo, cell_size=r, dims=dims, coords=shifted, occupants=occupants, counts=counts
    )


@dataclass
class NeighborLists:
    """Per-local-particle candidate lists valid until positions drift too far.

    Row i of the row-major (n_local, width) matrix holds the counts[i]
    partners of local i, in build order, then -1 padding to the width, which
    is the largest count (at least 1). Entries may lie beyond the force
    cutoff, inside the Verlet buffer.
    """

    half: bool
    radius: float
    indices: ArrayHandle  # row-major int32 matrix; size_x is max(n_local, 1)
    counts: np.ndarray  # (n_local,)
    ref_positions: np.ndarray  # local positions at build time
    n_local: int

    def as_matrix(self) -> np.ndarray:
        """The (n_local, width) list as a read-only zero-copy view."""
        mat = self.indices.view[: self.n_local]
        mat.flags.writeable = False
        return mat

    def pairs(self) -> np.ndarray:
        """(k, 2) array of (i, j) entries, in storage order."""
        mat = self.as_matrix()
        cap = mat.shape[1]
        valid = np.arange(cap)[None, :] < self.counts[:, None]
        ii, slot = np.nonzero(valid)
        return np.column_stack([ii, mat[ii, slot]])


def build_neighbor_lists(
    store: ParticleStore,
    grid: CellGrid,
    r: float,
    half: bool,
) -> NeighborLists:
    """Collect, for each local particle, every other particle within r.

    Half mode keeps one ordered copy per local pair (owned by the lower
    index); pairs with a ghost partner always live on the local particle.
    One pass per chunk of locals compresses the 27-cell occupants to real
    candidates, filters them by index and by distance, and the list width is
    the largest per-particle count, so no slot is padding beyond that row.
    """
    n_local = store.n_local
    xyz = np.ascontiguousarray(store.all_positions().T)
    rsq_max = r * r
    occ = grid.occupants
    counts = np.zeros(n_local, dtype=np.int32)
    nbr_parts = []
    for start in range(0, n_local, _CHUNK):
        stop = min(start + _CHUNK, n_local)
        cells27 = grid.cell_id(grid.coords[start:stop, None, :] + _STENCIL[None, :, :])
        cand = occ[cells27].reshape(stop - start, -1)
        real = cand >= 0
        j = cand[real]
        i = np.repeat(np.arange(start, stop), np.count_nonzero(real, axis=1))
        keep = ((j >= n_local) | (j > i)) if half else (j != i)
        i, j = i[keep], j[keep]
        delta = np.take(xyz, i, axis=1) - np.take(xyz, j, axis=1)
        keep = np.einsum("ij,ij->j", delta, delta) < rsq_max
        i, j = i[keep], j[keep]
        counts[start:stop] = np.bincount(i - start, minlength=stop - start)
        nbr_parts.append(j)
    # at least one column, so an empty list is still a valid handle
    width = max(int(counts.max()) if n_local else 0, 1)
    handle = ArrayHandle(row_major_layout(), max(n_local, 1), width, dtype=np.int32)
    mat = handle.view
    mat.fill(-1)
    if n_local:
        # a boolean mask assigns in row-major order: each row's partners in turn
        mat[:n_local][np.arange(width) < counts[:, None]] = np.concatenate(nbr_parts)
    return NeighborLists(
        half=half,
        radius=r,
        indices=handle,
        counts=counts,
        ref_positions=store.local_positions(),
        n_local=n_local,
    )


def max_displacement_since_rebuild(store: ParticleStore, lists: NeighborLists) -> float:
    """Largest local-particle move since the lists were built."""
    if lists.n_local == 0:
        return 0.0
    if store.n_local != lists.n_local:
        raise ProtocolError(
            f"store has {store.n_local} locals but lists were built for {lists.n_local}"
        )
    delta = store.local_positions() - lists.ref_positions
    return float(np.sqrt((delta * delta).sum(axis=1).max()))
