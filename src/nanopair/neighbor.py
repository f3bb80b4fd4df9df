"""Cell-list binning and half/full Verlet-list construction.

Cells have edge length equal to the interaction radius r (cutoff plus Verlet
buffer), never less, so candidate pairs for any particle come from the 27
surrounding cells. The grid covers the rank's bounding box plus exactly one
shell of ghost cells; particles farther out than that shell indicate a missed
exchange and raise ProtocolError.

Every local in a cell shares that cell's 27-cell candidates, so the list
build gathers them, and their coordinates, once per cell and tests the
cell's locals against them together (see `build_neighbor_lists`).
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
    "far_padded_positions",
    "max_displacement_since_rebuild",
]

# fixed 27-cell stencil order: x slowest, z fastest
_STENCIL = np.array(
    [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)],
    dtype=np.int64,
)

# entry budget of the list build: a block's padded 27-cell gather and a
# sub-block's (locals x candidates) distance arrays hold at most about this
# many entries, so the float64 temporaries (256 kB each) stay in a core's L2
# cache. 8192 paid more per-call overhead; 65536 was slower on the half-list
# workloads.
_BUILD_ENTRIES = 32768
# coordinate of the column that -1 padding selects: far beyond any box and
# any cutoff, yet its squared distances stay finite
FAR = 1e150


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
    cutoff, inside the Verlet buffer. The lists belong to a store with
    n_local locals and n_total particles; any other count means the store
    changed since the build.
    """

    half: bool
    radius: float
    indices: ArrayHandle  # row-major int32 matrix; size_x is max(n_local, 1)
    counts: np.ndarray  # (n_local,)
    ref_positions: np.ndarray  # local positions at build time
    n_local: int
    n_total: int  # locals plus ghosts at build time

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


def far_padded_positions(store: ParticleStore) -> np.ndarray:
    """Coordinate-major (3, n_total + 1) copy of all positions.

    The extra last column, the one a -1 index selects, lies FAR away, so a
    -1 padded partner or candidate is an entry beyond any cutoff.
    """
    xyz = np.full((3, store.n_total + 1), FAR)
    xyz[:, : store.n_total] = store.all_positions().T
    return xyz


def _cell_ordered_rows(store: ParticleStore, grid: CellGrid, rsq_max: float, half: bool):
    """The list rows of all locals, walked in cell order.

    Returns the stable cell order of the locals, the partner counts of the
    rows in that order, and the rows' partners concatenated in that order.
    """
    n_local = store.n_local
    if n_local == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int32)
    xyz = far_padded_positions(store)
    cid = grid.cell_id(grid.coords[:n_local])
    order = np.argsort(cid, kind="stable")
    cells, first, per_cell = np.unique(cid[order], return_index=True, return_counts=True)
    first = np.append(first, n_local)
    xs = np.take(xyz, order, axis=1)
    # the cell id is linear in the coordinates, so a stencil step is a flat offset
    soff = grid.cell_id(_STENCIL)
    occ = grid.occupants
    counts = np.empty(n_local, dtype=np.int32)
    partners = []
    # whole cells per block: its padded 27-cell gather holds at most _BUILD_ENTRIES
    cells_per_block = max(1, _BUILD_ENTRIES // (len(_STENCIL) * occ.shape[1]))
    for c0 in range(0, cells.size, cells_per_block):
        c1 = min(c0 + cells_per_block, cells.size)
        # each cell's 27-cell occupants, compressed to the left and -1 padded
        cand = occ[cells[c0:c1, None] + soff].reshape(c1 - c0, -1)
        real = cand >= 0
        n_cand = np.count_nonzero(real, axis=1)
        width = int(n_cand.max())
        packed = np.full((c1 - c0, width), -1, dtype=np.int32)
        packed[np.arange(width) < n_cand[:, None]] = cand[real]
        kc = np.take(xyz, packed, axis=1)
        row_cell = np.repeat(np.arange(c1 - c0), per_cell[c0:c1])
        lo, hi = first[c0], first[c1]
        step = max(1, _BUILD_ENTRIES // width)
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            u = row_cell[a - lo : b - lo]
            # squared distances of each row to its cell's candidates, axis by axis
            rsq = np.take(kc[0], u, axis=0)
            rsq -= xs[0, a:b, None]
            rsq *= rsq
            t = np.empty_like(rsq)
            for axis in (1, 2):
                np.take(kc[axis], u, axis=0, out=t)
                t -= xs[axis, a:b, None]
                t *= t
                rsq += t
            keep = rsq < rsq_max
            j = np.take(packed, u, axis=0)
            i = order[a:b, None]
            # the index rule drops the particle itself and, for half lists, the
            # copy of a local pair on its higher index (a ghost's index is above
            # every local's); a coincident partner stays for the force kernel
            keep &= (j > i) if half else (j != i)
            counts[a:b] = np.count_nonzero(keep, axis=1)
            partners.append(np.compress(keep.ravel(), j.ravel()))
    return order, counts, np.concatenate(partners)


def build_neighbor_lists(
    store: ParticleStore,
    grid: CellGrid,
    r: float,
    half: bool,
) -> NeighborLists:
    """Collect, for each local particle, every other particle within r.

    Half mode keeps one ordered copy per local pair (owned by the lower
    index); pairs with a ghost partner always live on the local particle.

    The locals are taken in cell order (stable by index within a cell). A
    block of whole cells gathers each cell's 27-cell occupants once,
    compressed to the left and -1 padded to the block's largest candidate
    count, and their coordinates once; the block's locals then meet their
    cell's candidates in sub-blocks of about _BUILD_ENTRIES entries, with the
    squared distance summed axis by axis in place. The entries within r that
    pass the index rule form the rows, which are filled at the exact width
    (the largest count) and moved back to local order. Each row lists its
    partners in stencil-cell order and, within a cell, in occupant order:
    the same list a per-local gather of the 27 cells gives.
    """
    n_local = store.n_local
    order, counts_by_cell, partners = _cell_ordered_rows(store, grid, r * r, half)
    # at least one column, so an empty list is still a valid handle
    width = max(int(counts_by_cell.max(initial=0)), 1)
    by_cell = np.full((n_local, width), -1, dtype=np.int32)
    # a boolean mask assigns in row-major order: each row's partners in turn
    by_cell[np.arange(width) < counts_by_cell[:, None]] = partners
    handle = ArrayHandle(row_major_layout(), max(n_local, 1), width, dtype=np.int32)
    mat = handle.view
    mat.fill(-1)
    mat[order] = by_cell
    counts = np.empty_like(counts_by_cell)
    counts[order] = counts_by_cell
    return NeighborLists(
        half=half,
        radius=r,
        indices=handle,
        counts=counts,
        ref_positions=store.local_positions(),
        n_local=n_local,
        n_total=store.n_total,
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
