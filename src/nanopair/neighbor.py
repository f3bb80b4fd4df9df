"""Cell-list binning and half/full Verlet-list construction.

Cells have edge length equal to the interaction radius r (cutoff plus Verlet
buffer), never less, so candidate pairs for any particle come from the 27
surrounding cells. The grid covers the rank's bounding box plus exactly one
shell of ghost cells; particles farther out than that shell indicate a missed
exchange and raise ProtocolError.

The Verlet lists are built by one compiled pass over the locals (see
`build_neighbor_lists`), which pair_kernel.c holds next to the force loop.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from . import kernel
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

# entries of the list build's buffer (1 MiB of int32): the compiled pass
# fills it row by row, so memory stays bounded however many candidates the
# rank has; a 6912-atom LJ rank has 3.3M (13 MB as int32)
_LIST_BUFFER = 1 << 18


@dataclass
class CellGrid:
    """Spatial bins over the rank box plus a one-cell ghost shell."""

    origin: np.ndarray
    cell_size: float
    dims: np.ndarray  # interior cell counts per axis (excludes the shell)
    coords: np.ndarray  # (n_total, 3) shell-shifted integer cell coordinates, a transposed (3, n_total) array
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
    xyz = store.positions.read_transposed(0, n)
    lo = rank_aabb.lo
    ext = rank_aabb.extent()
    dims = np.maximum(1, np.ceil(ext / r - 1e-12).astype(np.int64))
    # coordinate-major cell coordinates, so every pass below runs along
    # contiguous rows; the grid keeps their (n, 3) transpose
    coords = np.empty((3, n), dtype=np.int64)
    scaled = np.empty(n)
    for d in range(3):
        np.subtract(xyz[d], lo[d], out=scaled)
        scaled /= r
        coords[d] = np.floor(scaled, out=scaled)
    if n and any(coords[d].min() < -1 or coords[d].max() > dims[d] for d in range(3)):
        beyond = (coords < -1) | (coords > dims[:, None])
        i = int(np.nonzero(beyond.any(axis=0))[0][0])
        kind = "local" if i < store.n_local else "ghost"
        raise ProtocolError(
            f"{kind} particle {i} at {xyz[:, i]} lies more than one cell shell outside "
            f"the rank box {lo}..{rank_aabb.hi}; an exchange was probably missed"
        )
    coords += 1
    gd = dims + 2
    n_cells = int(np.prod(gd))
    cid = (coords[0] * gd[1] + coords[1]) * gd[2] + coords[2]
    counts = np.bincount(cid, minlength=n_cells)
    max_occ = int(counts.max()) if n else 1
    occupants = np.full((n_cells, max_occ), -1, dtype=np.int32)
    order = np.argsort(cid, kind="stable")
    sorted_cid = cid[order]
    starts = np.concatenate([[0], np.cumsum(counts)])[:-1]
    occupants[sorted_cid, np.arange(n) - starts[sorted_cid]] = order
    return CellGrid(
        origin=lo, cell_size=r, dims=dims, coords=coords.T, occupants=occupants, counts=counts
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
    indices: ArrayHandle  # row-major int32 matrix; size_x is max(n_local, 1)
    counts: np.ndarray  # (n_local,)
    ref_positions: np.ndarray  # (3, n_local) coordinate-major local positions at build time
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


def build_neighbor_lists(
    store: ParticleStore,
    grid: CellGrid,
    r: float,
    half: bool,
) -> NeighborLists:
    """Collect, for each local particle, every other particle within r.

    Half mode keeps one ordered copy per local pair (owned by the lower
    index); pairs with a ghost partner always live on the local particle.

    One compiled pass (`build_lists` in pair_kernel.c) takes the locals in
    index order. For each, it walks the 27 cells around the local's cell in
    `_STENCIL` order and each cell's occupants in occupant order, and keeps a
    candidate that passes the index rule and lies within r, by its squared
    distance summed x, y, z in that order. The pass writes the rows back to
    back into a buffer of _LIST_BUFFER entries and stops before a row whose
    candidates might not fit, so the next call resumes at that row; a row
    with more candidates than the buffer holds gets a buffer of its own size.
    Each chunk of rows is copied out of the buffer, and once all are built,
    `spread_rows` fills them into the exact-width matrix (the largest count),
    -1 padded.

    The grid must bin this store's particles, and every local must lie in an
    interior cell, not in the ghost shell, so that all 27 cells around it
    exist; ProtocolError otherwise.
    """
    n_local = store.n_local
    counts = np.zeros(n_local, dtype=np.int32)
    chunks = []
    ref_positions = np.empty((3, 0))
    if grid.coords.shape[0] != store.n_total:
        raise ProtocolError(
            f"the cell grid bins {grid.coords.shape[0]} particles, the store holds {store.n_total}"
        )
    if n_local:
        coords = grid.coords[:n_local]
        outside = np.any((coords < 1) | (coords > grid.dims), axis=1)
        if np.any(outside):
            i = int(np.nonzero(outside)[0][0])
            raise ProtocolError(
                f"local particle {i} lies in the ghost shell of the cell grid, "
                "outside the box the grid was built for"
            )
        lib = kernel.library()
        xyz = store.positions.read_transposed(0, store.n_total)
        ref_positions = xyz[:, :n_local].copy()
        cell_of = np.ascontiguousarray(grid.cell_id(coords))
        # the cell id is linear in the coordinates, so a stencil step is a flat offset
        soff = grid.cell_id(_STENCIL)
        occ = grid.occupants
        buf = np.empty(_LIST_BUFFER, dtype=np.int32)
        need = ctypes.c_int64()
        start = 0
        while start < n_local:
            stop = lib.build_lists(
                xyz, store.n_total, occ, occ.shape[1], grid.counts,
                cell_of, soff, r * r, half, start, n_local, buf, buf.size, counts, ctypes.byref(need),
            )
            if stop == start:
                buf = np.empty(need.value, dtype=np.int32)
                continue
            chunks.append((start, stop, buf[: int(counts[start:stop].sum())].copy()))
            start = stop
    # at least one column, so an empty list is still a valid handle
    width = max(int(counts.max(initial=0)), 1)
    handle = ArrayHandle(row_major_layout(), max(n_local, 1), width, dtype=np.int32)
    mat = handle.view
    mat[n_local:] = -1  # the one row of an empty list
    for a, b, entries in chunks:
        lib.spread_rows(b - a, entries, counts[a:b], mat[a:b], width)
    return NeighborLists(
        half=half,
        indices=handle,
        counts=counts,
        ref_positions=ref_positions,
        n_local=n_local,
        n_total=store.n_total,
    )


def max_displacement_since_rebuild(store: ParticleStore, lists: NeighborLists) -> float:
    """Largest local-particle move since the lists were built.

    Squared moves are summed x, y, z in that order, on one coordinate-major
    copy of the local positions.
    """
    if lists.n_local == 0:
        return 0.0
    if store.n_local != lists.n_local:
        raise ProtocolError(
            f"store has {store.n_local} locals but lists were built for {lists.n_local}"
        )
    delta = store.positions.read_transposed(0, lists.n_local)
    delta -= lists.ref_positions
    delta *= delta
    rsq = delta[0]
    rsq += delta[1]
    rsq += delta[2]
    return float(np.sqrt(rsq.max()))
