"""Cell-list binning and half/full Verlet-list construction.

Cells have edge length equal to the interaction radius r (cutoff plus Verlet
buffer), never less, so candidate pairs for any particle come from the 27
surrounding cells. The grid covers the rank's bounding box plus exactly one
shell of ghost cells; particles farther out than that shell indicate a missed
exchange and raise ProtocolError.

The grid is a CSR cell list (compressed rows: one flat member array plus each
cell's start offset), binned by one compiled counting sort (`bin_cells`).
The Verlet lists are built by one compiled pass over the locals (see
`build_neighbor_lists`), which reads each local's 27 stencil cells as 9
contiguous runs of that list. pair_kernel.c holds both next to the force loop.
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
    """Spatial bins over the rank box plus a one-cell ghost shell, as a CSR cell list.

    Cell ids run over the shell-inclusive grid, z fastest (see `cell_id`).
    Cell c holds members[start[c]:start[c + 1]], in ascending index order.
    """

    origin: np.ndarray
    cell_size: float
    dims: np.ndarray  # interior cell counts per axis (excludes the shell)
    coords: np.ndarray  # (n_total, 3) shell-shifted integer cell coordinates, a transposed (3, n_total) array
    cell_of: np.ndarray  # (n_total,) int64 cell id of each particle
    start: np.ndarray  # (n_cells + 1,) int64 offsets of each cell's members
    members: np.ndarray  # (n_total,) int32 particle indices, cell by cell
    positions: np.ndarray  # (3, n_total) coordinate-major positions that were binned

    @property
    def shell_dims(self) -> np.ndarray:
        return self.dims + 2

    @property
    def counts(self) -> np.ndarray:
        """(n_cells,) occupancy."""
        return np.diff(self.start)

    @property
    def occupants(self) -> np.ndarray:
        """(n_cells, max_occupancy) particle indices, -1 padded, built from the CSR on each access.

        Only the benchmark's tracer reads it (perfbench/tracing.py, for the
        width); nothing in the package does.
        """
        counts = self.counts
        table = np.full((counts.size, max(int(counts.max(initial=0)), 1)), -1, dtype=np.int32)
        cell = self.cell_of[self.members]
        table[cell, np.arange(self.members.size) - self.start[cell]] = self.members
        return table

    def cell_id(self, coords: np.ndarray) -> np.ndarray:
        gd = self.shell_dims
        return (coords[..., 0] * gd[1] + coords[..., 1]) * gd[2] + coords[..., 2]


def build_cell_grid(store: ParticleStore, rank_aabb: AABB, r: float) -> CellGrid:
    """Bin every local and ghost particle into cells of edge r.

    One compiled pass (`bin_cells` in pair_kernel.c) takes floor((x - lo) / r)
    per axis and sorts the particles by cell, keeping index order within a
    cell. ProtocolError names the first particle more than one cell shell
    outside the box, or with a NaN coordinate.
    """
    if r <= 0:
        raise ValueError("interaction radius must be positive")
    n = store.n_total
    xyz = store.positions.read_transposed(0, n)
    lo = rank_aabb.lo
    dims = np.maximum(1, np.ceil(rank_aabb.extent() / r - 1e-12).astype(np.int64))
    coords = np.empty((3, n), dtype=np.int64)
    cell_of = np.empty(n, dtype=np.int64)
    start = np.empty(int(np.prod(dims + 2)) + 1, dtype=np.int64)
    members = np.empty(n, dtype=np.int32)
    f64, i32, i64 = np.float64, np.int32, np.int64
    bad = kernel.library().bin_cells(
        kernel.address(xyz, f64, (3, n)), n, kernel.address(lo, f64, (3,)), r, kernel.address(dims, i64, (3,)),
        kernel.address(coords, i64), kernel.address(cell_of, i64), kernel.address(start, i64),
        kernel.address(members, i32),
    )
    if bad >= 0:
        kind = "local" if bad < store.n_local else "ghost"
        raise ProtocolError(
            f"{kind} particle {bad} at {xyz[:, bad]} lies more than one cell shell outside "
            f"the rank box {lo}..{rank_aabb.hi}; an exchange was probably missed"
        )
    return CellGrid(
        origin=lo, cell_size=r, dims=dims, coords=coords.T, cell_of=cell_of, start=start,
        members=members, positions=xyz,
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
    `_STENCIL` order as 9 contiguous runs of the CSR cell list, one per
    (dx, dy): the cells dz = -1, 0, 1 are consecutive ids, so their members
    are one slice of `grid.members`. Within a cell it takes the members in
    index order, and keeps a candidate that passes the index rule and lies
    within r, by its squared distance summed x, y, z in that order. The pass
    writes the rows back to back into a buffer of _LIST_BUFFER entries and
    stops before a row whose candidates (the 9 run lengths summed) might not
    fit, so the next call resumes at that row; a row with more candidates than
    the buffer holds gets a buffer of its own size. Each chunk of rows is
    copied out of the buffer, and once all are built, `spread_rows` fills them
    into the exact-width matrix (the largest count), -1 padded.

    Positions and cells come from the grid, as it binned them, so the lists
    match the grid by construction. The grid must bin as many particles as
    the store holds, and every local must lie in an interior cell, not in the
    ghost shell, so that all 27 cells around it exist; ProtocolError
    otherwise.
    """
    n_local = store.n_local
    counts = np.zeros(n_local, dtype=np.int32)
    chunks = []
    ref_positions = np.empty((3, 0))
    if grid.cell_of.shape[0] != store.n_total:
        raise ProtocolError(
            f"the cell grid bins {grid.cell_of.shape[0]} particles, the store holds {store.n_total}"
        )
    if n_local:
        # per axis, on the contiguous (3, n_total) rows the grid transposed
        outside = np.zeros(n_local, dtype=bool)
        for d, row in enumerate(grid.coords.T):
            outside |= row[:n_local] < 1
            outside |= row[:n_local] > grid.dims[d]
        if np.any(outside):
            i = int(np.argmax(outside))
            raise ProtocolError(
                f"local particle {i} lies in the ghost shell of the cell grid, "
                "outside the box the grid was built for"
            )
        lib = kernel.library()
        xyz = grid.positions
        ref_positions = xyz[:, :n_local].copy()
        # the cell id is linear in the coordinates, so a stencil step is a flat
        # offset; each run starts at its (dx, dy, -1) cell
        soff = grid.cell_id(_STENCIL[::3])
        # arrays by address, each checked once (see kernel.address)
        i32, i64 = np.int32, np.int64
        args = (
            kernel.address(xyz, np.float64, (3, store.n_total)), store.n_total,
            kernel.address(grid.members, i32, (store.n_total,)), kernel.address(grid.start, i64),
            kernel.address(grid.cell_of, i64), kernel.address(soff, i64, (_STENCIL.shape[0] // 3,)),
            r * r, half,
        )
        counts_p = kernel.address(counts, i32, (n_local,))
        buf = np.empty(_LIST_BUFFER, dtype=np.int32)
        need = ctypes.c_int64()
        row0 = 0
        while row0 < n_local:
            stop = lib.build_lists(
                *args, row0, n_local, kernel.address(buf, i32), buf.size, counts_p, ctypes.byref(need)
            )
            if stop == row0:
                buf = np.empty(need.value, dtype=np.int32)
                continue
            chunks.append((row0, stop, buf[: int(counts[row0:stop].sum())].copy()))
            row0 = stop
    # at least one column, so an empty list is still a valid handle
    width = max(int(counts.max(initial=0)), 1)
    handle = ArrayHandle(row_major_layout(), max(n_local, 1), width, dtype=np.int32)
    mat = handle.view
    mat[n_local:] = -1  # the one row of an empty list
    for a, b, entries in chunks:
        lib.spread_rows(
            b - a, kernel.address(entries, np.int32), kernel.address(counts[a:b], np.int32),
            kernel.address(mat[a:b], np.int32, (b - a, width)), width,
        )
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
    copy of the local positions. ProtocolError when the store's local count
    differs from the lists', also for lists built without locals.
    """
    if store.n_local != lists.n_local:
        raise ProtocolError(
            f"store has {store.n_local} locals but lists were built for {lists.n_local}"
        )
    if lists.n_local == 0:
        return 0.0
    delta = store.positions.read_transposed(0, lists.n_local)
    delta -= lists.ref_positions
    delta *= delta
    rsq = delta[0]
    rsq += delta[1]
    rsq += delta[2]
    return float(np.sqrt(rsq.max()))
