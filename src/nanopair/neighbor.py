"""Cell-list binning and half/full Verlet-list construction.

Cells have edge r (cutoff plus Verlet buffer) or, on a dense rank, r/2: k
cells span r, with k = 1 or 2 (see `_DENSE`). Every particle within r of a
local then lies in the (2k + 1)^3 cells around the local's cell: 27 cells
of edge r, or 125 of edge r/2, which scan fewer candidates per local when
cells are well filled (LAMMPS bins half the neighbor radius wide for the
same reason). The grid covers the rank's bounding box plus a shell of k
ghost cells, r wide, on each side; a particle farther out than that shell
indicates a missed exchange and raises ProtocolError.

The grid is a CSR cell list (compressed rows: one flat member array plus each
cell's start offset), binned by one compiled counting sort (`bin_cells`),
which also copies the positions into member order. The Verlet lists are CSR
in the same convention (one flat partner array plus each local's start
offset), built by one compiled pass over the locals (see
`build_neighbor_lists`), which reads each local's stencil as (2k + 1)^2
contiguous z-runs of the cell list and of the cell-ordered positions.
pair_kernel.c holds both next to the force loop, which reads the lists' rows
as they were built.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

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

# particles per r^3 of the grid box (rounded up to whole cells of edge r)
# from which cells are r/2 wide. A cell of edge r/2 then holds one particle
# on average; below that the 25 runs of a local's stencil hold about one or
# two candidates each, and their overhead outweighs the candidates saved
_DENSE = 8.0

# entries of a list build's buffer (1 MiB of int32): the compiled pass
# fills it row by row, so memory stays bounded however many candidates the
# rank has; a 6912-atom LJ rank has 1.9M at edge r/2 (7.5 MB as int32)
_LIST_BUFFER = 1 << 18


@dataclass
class CellGrid:
    """Spatial bins over the rank box plus a ghost shell r wide, as a CSR cell list.

    Cells have edge r / shell, so `shell` cells span r. Cell ids run over
    the shell-inclusive grid, z fastest (see `cell_id`). Cell c holds
    members[start[c]:start[c + 1]], in ascending index order, and
    sorted_positions[:, start[c]:start[c + 1]] are their coordinates.
    """

    origin: np.ndarray
    cell_size: float
    shell: int  # cells per interaction radius: 1 (edge r) or 2 (edge r/2)
    dims: np.ndarray  # interior cell counts per axis (excludes the shell)
    coords: np.ndarray  # (n_total, 3) shell-shifted integer cell coordinates, a transposed (3, n_total) array
    cell_of: np.ndarray  # (n_total,) int64 cell id of each particle
    start: np.ndarray  # (n_cells + 1,) int64 offsets of each cell's members
    members: np.ndarray  # (n_total,) int32 particle indices, cell by cell
    positions: np.ndarray  # (3, n_total) coordinate-major positions that were binned
    sorted_positions: np.ndarray  # (3, n_total) the same, in members order

    @property
    def shell_dims(self) -> np.ndarray:
        return self.dims + 2 * self.shell

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

    def runs(self) -> np.ndarray:
        """(n_runs, 2) int64 stencil runs of cells, as (offset, length).

        Run s covers the cells (dx, dy, -k) .. (dx, dy, k) around a cell,
        k = `shell`, for the (2k + 1)^2 pairs (dx, dy) in order, dx slowest:
        2k + 1 consecutive cell ids from the cell's id plus the offset. The
        runs together are the (2k + 1)^3 cells within r of the cell, x
        slowest, z fastest.
        """
        k = self.shell
        steps = np.array([(dx, dy, -k) for dx in range(-k, k + 1) for dy in range(-k, k + 1)], dtype=np.int64)
        return np.column_stack([self.cell_id(steps), np.full(len(steps), 2 * k + 1, dtype=np.int64)])


def build_cell_grid(store: ParticleStore, rank_aabb: AABB, r: float) -> CellGrid:
    """Bin every local and ghost particle into cells of edge r, or r/2 when dense.

    The edge is r/2 when the box, rounded up to whole cells of edge r, holds
    at least `_DENSE` particles (locals and ghosts) per cell of edge r, and r
    otherwise. One compiled pass (`bin_cells` in pair_kernel.c) takes
    floor((x - lo) / edge) per axis and sorts the particles by cell, keeping
    index order within a cell, and copies the positions into that order.
    ProtocolError names the first particle beyond the ghost shell (more
    than r outside the interior cells, which cover the box), or with a NaN
    coordinate.
    """
    if r <= 0:
        raise ValueError("interaction radius must be positive")
    n = store.n_total
    xyz = store.positions.read_transposed(0, n)
    lo = rank_aabb.lo
    dims = np.maximum(1, np.ceil(rank_aabb.extent() / r - 1e-12).astype(np.int64))
    shell = 2 if n >= _DENSE * np.prod(dims) else 1
    edge = r / shell
    if shell > 1:
        dims = np.maximum(1, np.ceil(rank_aabb.extent() / edge - 1e-12).astype(np.int64))
    coords = np.empty((3, n), dtype=np.int64)
    cell_of = np.empty(n, dtype=np.int64)
    start = np.empty(int(np.prod(dims + 2 * shell)) + 1, dtype=np.int64)
    members = np.empty(n, dtype=np.int32)
    xs = np.empty((3, n))
    f64, i32, i64 = np.float64, np.int32, np.int64
    bad = kernel.library().bin_cells(
        kernel.address(xyz, f64, (3, n)), n, kernel.address(lo, f64, (3,)), edge, shell,
        kernel.address(dims, i64, (3,)), kernel.address(coords, i64), kernel.address(cell_of, i64),
        kernel.address(start, i64), kernel.address(members, i32), kernel.address(xs, f64),
    )
    if bad >= 0:
        kind = "local" if bad < store.n_local else "ghost"
        raise ProtocolError(
            f"{kind} particle {bad} at {xyz[:, bad]} lies beyond the ghost shell (r = {r} wide) "
            f"of the cells over the rank box {lo}..{rank_aabb.hi}; an exchange was probably missed"
        )
    return CellGrid(
        origin=lo, cell_size=edge, shell=shell, dims=dims, coords=coords.T, cell_of=cell_of,
        start=start, members=members, positions=xyz, sorted_positions=xs,
    )


@dataclass(frozen=True)
class NeighborLists:
    """Per-local-particle candidate lists valid until positions drift too far.

    A CSR list, like the cell list: row i, the partners of local i in build
    order, is partners[start[i]:start[i + 1]], and the rows lie back to back.
    Entries may lie beyond the force cutoff, inside the Verlet buffer. The
    lists belong to a store with n_local locals and n_total particles; any
    other count means the store changed since the build.

    The compiled loops take partners, start and the reference positions by
    address: each is checked and its address taken once, when the lists are
    made (also by `dataclasses.replace`). TypeError (`kernel.address`) on an
    array of the wrong dtype, shape or memory layout, ProtocolError on
    starts of another shape than (n_local + 1,). Whether the starts split
    the partners into the rows is the compiled loop's check, since they may
    be edited in place.
    """

    half: bool
    partners: np.ndarray  # (n_entries,) int32 partner indices, row by row
    start: np.ndarray  # (n_local + 1,) int64 offsets of each row's partners
    ref_positions: np.ndarray  # (3, n_local) coordinate-major local positions at build time
    n_local: int
    n_total: int  # locals plus ghosts at build time
    args: tuple = field(init=False, repr=False, compare=False)  # pair_forces' (partners, n_entries, start)
    ref_positions_address: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if np.shape(self.start) != (self.n_local + 1,):
            raise ProtocolError(f"list starts of shape {np.shape(self.start)} do not fit {self.n_local} rows")
        n = np.size(self.partners)
        args = (kernel.address(self.partners, np.int32, (n,)), n, kernel.address(self.start, np.int64))
        object.__setattr__(self, "args", args)
        ref = kernel.address(self.ref_positions, np.float64, (3, self.n_local))
        object.__setattr__(self, "ref_positions_address", ref)

    @property
    def counts(self) -> np.ndarray:
        """(n_local,) row lengths."""
        return np.diff(self.start)

    @property
    def indices(self) -> ArrayHandle:
        """The rows as a (max(n_local, 1), width) int32 matrix, -1 padded to the
        width, the largest count (at least 1), built from the CSR on each access.

        Only the benchmark's tracer reads it (perfbench/tracing.py, for the
        width); nothing in the package does.
        """
        counts = self.counts
        handle = ArrayHandle(row_major_layout(), max(self.n_local, 1), max(int(counts.max(initial=0)), 1), np.int32)
        handle.view[...] = -1
        row = np.repeat(np.arange(self.n_local), counts)
        handle.view[row, np.arange(row.size) - self.start[row]] = self.partners
        return handle

    def pairs(self) -> np.ndarray:
        """(k, 2) array of (i, j) entries, in storage order."""
        return np.column_stack([np.repeat(np.arange(self.n_local), self.counts), self.partners])


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
    index order. For each, it walks the (2k + 1)^3 cells around the local's
    cell (k = `grid.shell`) as the (2k + 1)^2 runs of `grid.runs()`, in
    order: the cells dz = -k .. k of one (dx, dy) are consecutive ids, so
    their members are one slice of `grid.members`, and their coordinates
    the same slice of `grid.sorted_positions`. Within a cell it takes the
    members in index order, and keeps a candidate that passes the index rule
    and lies within r, by its squared distance summed x, y, z in that order.
    Each call writes the rows back to back into a fresh buffer of
    _LIST_BUFFER entries and stops before a row whose candidates (the run
    lengths summed) might not fit, so the next call resumes at that row; a
    row with more candidates than a buffer holds gets a buffer of its own
    size. Each call writes its rows' ends into `start`. The filled prefixes
    of the buffers, concatenated once, are `partners`; when one call built
    every row, its buffer itself is, cut to the prefix in place
    (`ndarray.resize`, a realloc that returns the tail to the heap).

    Positions and cells come from the grid, as it binned them, so the lists
    match the grid by construction. The grid must bin as many particles as
    the store holds, and every local must lie in an interior cell, not in the
    ghost shell, so that all the stencil's cells around it exist;
    ProtocolError otherwise.
    """
    n_local = store.n_local
    start = np.zeros(n_local + 1, dtype=np.int64)
    filled = []  # each call's buffer and the entries it filled
    ref_positions = np.empty((3, 0))
    if grid.cell_of.shape[0] != store.n_total:
        raise ProtocolError(
            f"the cell grid bins {grid.cell_of.shape[0]} particles, the store holds {store.n_total}"
        )
    if n_local:
        # per axis, on the contiguous (3, n_total) rows the grid transposed
        outside = np.zeros(n_local, dtype=bool)
        for d, row in enumerate(grid.coords.T):
            outside |= row[:n_local] < grid.shell
            outside |= row[:n_local] >= grid.dims[d] + grid.shell
        if np.any(outside):
            i = int(np.argmax(outside))
            raise ProtocolError(
                f"local particle {i} lies in the ghost shell of the cell grid, "
                "outside the box the grid was built for"
            )
        lib = kernel.library()
        xyz = grid.positions
        ref_positions = xyz[:, :n_local].copy()
        runs = grid.runs()
        # arrays by address, each checked once (see kernel.address)
        f64, i32, i64 = np.float64, np.int32, np.int64
        n = store.n_total
        args = (
            kernel.address(xyz, f64, (3, n)), kernel.address(grid.sorted_positions, f64, (3, n)), n,
            kernel.address(grid.members, i32, (n,)), kernel.address(grid.start, i64),
            kernel.address(grid.cell_of, i64), kernel.address(runs, i64), runs.shape[0], r * r, half,
        )
        start_p = kernel.address(start, i64)
        size = _LIST_BUFFER
        need = ctypes.c_int64()
        row0 = 0
        while row0 < n_local:
            buf = np.empty(size, dtype=np.int32)
            stop = lib.build_lists(*args, row0, n_local, kernel.address(buf, i32), size, start_p, ctypes.byref(need))
            if stop == row0:
                size = need.value
                continue
            filled.append((buf, start[stop] - start[row0]))
            row0, size = stop, _LIST_BUFFER
    if len(filled) == 1:
        # one call built every row: its buffer is the partners, cut in place
        # (a realloc that returns the unfilled tail to the heap), not copied
        partners, count = filled[0]
        partners.resize(count, refcheck=False)
    else:
        # the empty array gives a list without entries its dtype
        partners = np.concatenate([np.empty(0, dtype=np.int32), *(buf[:count] for buf, count in filled)])
    return NeighborLists(
        half=half,
        partners=partners,
        start=start,
        ref_positions=ref_positions,
        n_local=n_local,
        n_total=store.n_total,
    )


def max_displacement_since_rebuild(store: ParticleStore, lists: NeighborLists) -> float:
    """Largest local-particle move since the lists were built.

    One compiled loop (`max_displacement`) reads the local positions in
    place through the layout's index map and sums the squared moves x, y, z
    in that order; NaN when a move is NaN. ProtocolError when the store's
    local count differs from the lists', also for lists built without
    locals.
    """
    if store.n_local != lists.n_local:
        raise ProtocolError(
            f"store has {store.n_local} locals but lists were built for {lists.n_local}"
        )
    if lists.n_local == 0:
        return 0.0
    h = store.positions
    return kernel.library().max_displacement(h.map_address, h.address, lists.ref_positions_address, lists.n_local)
