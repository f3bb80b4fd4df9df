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
cell's start offset), binned by one compiled counting sort (`bin_cells`)
that reads the stored positions in place through the layout's index map
and copies them into member order. The Verlet lists are CSR
in the same convention (one flat partner array plus each local's start
offset), built by one compiled pass over the locals (see
`build_neighbor_lists`), which reads each local's stencil as (2k + 1)^2
contiguous z-runs of the cell list and of the cell-ordered positions.
pair_kernel.c holds both next to the force loop, which reads the lists' rows
as they were built.

Half lists find each local pair once, as miniMD and LAMMPS do
("half/bin/newton"): the grid bins the locals and the ghosts apart, as two
CSR ranges over the same cells, and a local reads the upper half of the
stencil over the locals (its own cell behind it, then the cells after its
own in (dx, dy, dz) order) and the whole stencil over the ghosts. A pair of
locals is thus owned by the one in the lower cell id (x slowest, z
fastest), or in one cell by the lower index: the one binned first; a pair with a ghost always lives on the local, since no
force is sent back to the ghost's owner. Full lists read one range over the
whole stencil, and a grid binned for one kind cannot serve the other.

The Verlet lists reach r = r_c + buffer, so that they serve until a
particle moves half the buffer. Between those rebuilds a rank holds an
inner list (`InnerLists`, after the dual pair list of Páll et al., J. Chem.
Phys. 153, 134110, 2020): the entries that lay within r_c + delta, delta a
third of the buffer, when the force kernel last ran the Verlet lists and
pruned them. Forces run from it until any of the rank's rows, locals or
ghosts, moves just below delta / 2, and give the Verlet lists' bits. On the
LJ workloads it holds about 72 % of the entries.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .core import AABB
from .errors import ProtocolError
from .layout import ArrayHandle, row_major_layout
from .particles import ParticleStore

__all__ = [
    "CellGrid",
    "InnerLists",
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

# the margin of an inner list's trigger below delta / 2, as a share of its
# reach r_c + delta (see InnerLists). The kernel's rsq and the measured moves
# are differences of stored doubles, squared and summed: each lies within a
# few units of 2^-53 of its exact value, relative to itself. So an entry the
# prune measured at r_c + delta, whose two rows then move toward each other
# by measured moves just below delta / 2, could come out a few 1e-16 (r_c +
# delta) inside r_c, and change the force. A margin of about 4e-16 (r_c +
# delta) rules that out; 1e-12 is thousands of times that, and far below a
# move that matters: 2.6e-12 at r_c + delta = 2.6, where LJ rows move at most
# about 0.005 per step
_ROUNDING = 1e-12


@dataclass
class CellGrid:
    """Spatial bins over the rank box plus a ghost shell r wide, as a CSR cell list.

    Cells have edge r / shell, so `shell` cells span r. Cell ids run over
    the shell-inclusive grid, z fastest (see `cell_id`). The list is read by
    key: key range c holds members[start[c]:start[c + 1]], in ascending
    index order, and sorted_positions[:, start[c]:start[c + 1]] are their
    coordinates. A grid for full lists has one key per cell. A grid for half
    lists (`half`) bins the locals and the ghosts apart: key c holds the
    locals of cell c and key n_cells + c its ghosts, and slot[i] is local
    i's offset in members. `counts` and `occupants` describe whole cells
    (locals and ghosts) for either kind. `shell_local` is the first local
    that was binned into the ghost shell, or -1: the lists cannot be built
    for it (see `build_neighbor_lists`).
    """

    origin: np.ndarray
    cell_size: float
    shell: int  # cells per interaction radius: 1 (edge r) or 2 (edge r/2)
    dims: np.ndarray  # interior cell counts per axis (excludes the shell)
    half: bool  # binned for half lists: locals and ghosts apart
    n_local: int  # locals binned; particles from n_local on are ghosts
    cell_of: np.ndarray  # (n_total,) int64 cell id of each particle
    start: np.ndarray  # (n_keys + 1,) int64 offsets of each key's members; n_keys = 2 n_cells if half else n_cells
    members: np.ndarray  # (n_total,) int32 particle indices, key by key
    slot: np.ndarray  # (n_local,) int64 members offset of each local if half, else empty
    sorted_positions: np.ndarray  # (3, n_total) coordinate-major positions that were binned, in members order
    shell_local: int  # the first local binned into the ghost shell, or -1

    @property
    def shell_dims(self) -> np.ndarray:
        return self.dims + 2 * self.shell

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shell_dims))

    @property
    def counts(self) -> np.ndarray:
        """(n_cells,) occupancy, locals and ghosts."""
        counts = np.diff(self.start)
        return counts[: self.n_cells] + counts[self.n_cells :] if self.half else counts

    @property
    def occupants(self) -> np.ndarray:
        """(n_cells, max_occupancy) particle indices of each cell, ascending,
        -1 padded, built from the CSR on each access.

        A half grid's cell lists its locals, then its ghosts (which have the
        higher indices). Only the benchmark's tracer reads it
        (perfbench/tracing.py, for the width); nothing in the package does.
        """
        counts = self.counts
        table = np.full((counts.size, max(int(counts.max(initial=0)), 1)), -1, dtype=np.int32)
        key = np.repeat(np.arange(self.start.size - 1), np.diff(self.start))
        column = np.arange(self.members.size) - self.start[key]
        cell = key
        if self.half:
            ghost = key >= self.n_cells
            cell = np.where(ghost, key - self.n_cells, key)
            # a ghost goes behind its cell's locals
            column += ghost * np.diff(self.start[: self.n_cells + 1])[cell]
        table[cell, column] = self.members
        return table

    def cell_id(self, coords: np.ndarray) -> np.ndarray:
        gd = self.shell_dims
        return (coords[..., 0] * gd[1] + coords[..., 1]) * gd[2] + coords[..., 2]

    def runs(self) -> np.ndarray:
        """(n_runs, 2) int64 stencil runs of key ranges, as (offset, length):
        the runs the list build reads around a local's cell, in order.

        Run (dx, dy) covers the cells (dx, dy, -k) .. (dx, dy, k) around a
        cell, k = `shell`: 2k + 1 consecutive cell ids from the cell's id
        plus the offset. A full grid's table is the (2k + 1)^2 runs, (dx, dy)
        in order, dx slowest: together the (2k + 1)^3 cells within r of the
        cell, x slowest, z fastest. A half grid's table is the upper half
        stencil over the locals, then the same (2k + 1)^2 runs over the
        ghosts (their offsets plus n_cells): first the own run, the cells
        (0, 0, 0) .. (0, 0, k), which the build starts behind the local
        (`slot`), then the (0, dy > 0) runs and the (dx > 0) runs, 2k^2 +
        2k + 1 in all (5 at edge r, 13 at edge r/2).

        The table depends only on the shell, the grid's shell-inclusive
        dimensions and the list kind, so it is built once per such triple
        (see `_stencil_runs`) and is read-only.
        """
        return _stencil_runs(self.shell, tuple(int(d) for d in self.shell_dims), self.half)


@functools.lru_cache(maxsize=64)
def _stencil_runs(k: int, shell_dims: tuple[int, int, int], half: bool) -> np.ndarray:
    """`CellGrid.runs` of a grid with shell k and these shell-inclusive
    dimensions, binned for half lists or not, as a read-only array. A rank's
    grid keeps its dimensions over most epochs, so the cache (a few per rank
    and list kind) spares the build this table's Python."""
    _, gy, gz = shell_dims

    def cell_id(dx, dy, dz):
        return (dx * gy + dy) * gz + dz

    plane = [(dx, dy) for dx in range(-k, k + 1) for dy in range(-k, k + 1)]
    table = [(cell_id(dx, dy, -k), 2 * k + 1) for dx, dy in plane]
    if half:
        n_cells = int(np.prod(shell_dims))
        upper = [run for run, step in zip(table, plane) if step > (0, 0)]
        table = [(cell_id(0, 0, 0), k + 1), *upper, *((off + n_cells, length) for off, length in table)]
    runs = np.array(table, dtype=np.int64)
    runs.flags.writeable = False
    return runs


def build_cell_grid(store: ParticleStore, rank_aabb: AABB, r: float, half: bool = False) -> CellGrid:
    """Bin every local and ghost particle into cells of edge r, or r/2 when dense.

    The edge is r/2 when the box, rounded up to whole cells of edge r, holds
    at least `_DENSE` particles (locals and ghosts) per cell of edge r, and r
    otherwise. One compiled pass (`bin_cells` in pair_kernel.c) reads the
    positions in place through the layout's index map, takes
    floor((x - lo) / edge) per axis, sorts the particles by cell, keeping
    index order within a cell, copies the positions into that order and
    notes the first local that lies in the ghost shell (`shell_local`).
    With `half` (a grid for half lists) it sorts the locals and the ghosts
    into two ranges of cells, locals first, and records each local's slot.
    Full lists keep one range: binned apart, they would read up to 25 more
    runs per local, of ghost cells that are mostly empty on one rank, and a
    grid and list build on a one-rank 12^3 LJ state took about 15 % longer.
    ProtocolError names the first particle beyond the ghost shell (more than
    r outside the interior cells, which cover the box), or with a NaN
    coordinate.
    """
    if r <= 0:
        raise ValueError("interaction radius must be positive")
    n = store.n_total
    lo = rank_aabb.lo
    dims = np.maximum(1, np.ceil(rank_aabb.extent() / r - 1e-12).astype(np.int64))
    shell = 2 if n >= _DENSE * np.prod(dims) else 1
    edge = r / shell
    if shell > 1:
        dims = np.maximum(1, np.ceil(rank_aabb.extent() / edge - 1e-12).astype(np.int64))
    n_local = store.n_local
    cell_of = np.empty(n, dtype=np.int64)
    start = np.empty((2 if half else 1) * int(np.prod(dims + 2 * shell)) + 1, dtype=np.int64)
    members = np.empty(n, dtype=np.int32)
    slot = np.empty(n_local if half else 0, dtype=np.int64)
    xs = np.empty((3, n))
    shell_local = ctypes.c_int64()
    f64, i32, i64 = np.float64, np.int32, np.int64
    h = store.positions
    bad = kernel.library().bin_cells(
        h.map_address, h.address, n, kernel.address(lo, f64, (3,)), edge, shell,
        kernel.address(dims, i64, (3,)), n_local, half, kernel.address(cell_of, i64),
        kernel.address(start, i64), kernel.address(members, i32), kernel.address(xs, f64),
        kernel.address(slot, i64), ctypes.byref(shell_local),
    )
    if bad >= 0:
        kind = "local" if bad < store.n_local else "ghost"
        raise ProtocolError(
            f"{kind} particle {bad} at {h.read_rows(bad, 1)[0]} lies beyond the ghost shell (r = {r} wide) "
            f"of the cells over the rank box {lo}..{rank_aabb.hi}; an exchange was probably missed"
        )
    return CellGrid(
        origin=lo, cell_size=edge, shell=shell, dims=dims, half=half, n_local=n_local, cell_of=cell_of,
        start=start, members=members, slot=slot, sorted_positions=xs, shell_local=shell_local.value,
    )


@dataclass(frozen=True)
class NeighborLists:
    """Per-local-particle candidate lists valid until positions drift too far.

    A CSR list, like the cell list: row i, the partners of local i in build
    order, is partners[start[i]:start[i + 1]], and the rows lie back to back.
    Entries may lie beyond the force cutoff, inside the Verlet buffer. Half
    lists hold each local pair once, on the row of the local in the lower
    cell id (see `build_neighbor_lists`), so a row may name local partners
    of lower index; a pair with a ghost always
    lives on the local's row. The lists belong to a store with n_local
    locals and n_total particles; any other count means the store changed
    since the build.

    The reference positions are those the rows were measured at: of the
    n_local locals for Verlet lists (from `build_neighbor_lists`), whose
    moves bound the rebuild; of all n_total rows for an inner list (see
    `InnerLists`), whose exactness needs the ghosts' moves too. Verlet lists
    may carry the rank's `InnerLists` (`inner`): a force call on them then
    also prunes them into it (see nanopair.potential.compute_forces).

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
    ref_positions: np.ndarray  # (3, n_local), or (3, n_total) for an inner list: coordinate-major positions
    n_local: int
    n_total: int  # locals plus ghosts at build time
    args: tuple = field(init=False, repr=False, compare=False)  # pair_forces' (partners, n_entries, start)
    ref_positions_address: int = field(init=False, repr=False, compare=False)
    inner: InnerLists | None = field(default=None, repr=False, compare=False)  # pruned into by a force call

    def __post_init__(self) -> None:
        if np.shape(self.start) != (self.n_local + 1,):
            raise ProtocolError(f"list starts of shape {np.shape(self.start)} do not fit {self.n_local} rows")
        n = np.size(self.partners)
        args = (kernel.address(self.partners, np.int32, (n,)), n, kernel.address(self.start, np.int64))
        object.__setattr__(self, "args", args)
        rows = self.n_total if np.shape(self.ref_positions)[1:] == (self.n_total,) else self.n_local
        ref = kernel.address(self.ref_positions, np.float64, (3, rows))
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
        table = handle.buf.reshape(handle.size_x, handle.size_y)
        table[...] = -1
        row = np.repeat(np.arange(self.n_local), counts)
        table[row, np.arange(row.size) - self.start[row]] = self.partners
        return handle

    def pairs(self) -> np.ndarray:
        """(k, 2) array of (i, j) entries, in storage order."""
        return np.column_stack([np.repeat(np.arange(self.n_local), self.counts), self.partners])


class InnerLists:
    """A rank's inner pair list: the entries of its Verlet lists that lay
    within r_c + `delta` at the last prune.

    Verlet lists that carry this object (`NeighborLists.inner`) prune into
    it whenever forces run from them (nanopair.potential.compute_forces):
    the force kernel writes the entries with rsq < (r_c + delta)^2, in row
    order, into buffers held here, and copies the positions of all n_total
    rows, locals and ghosts, as the reference. `lists` then holds those rows
    as NeighborLists over the buffers, and `trigger` the move that ends
    them. While no row has moved `trigger` from its reference, forces from
    `lists` equal forces from the Verlet lists bit for bit: an entry left
    out lay at least r_c + delta apart and each of its rows moved less than
    delta / 2, so it still lies beyond r_c, where the kernel skips it; the
    kept entries are an in-order subsequence of each row, so every sum,
    reactions and energies included, adds the same terms in the same order.
    `trigger` is delta / 2 less a rounding margin (see `_ROUNDING`).

    The buffers only grow (by an eighth more than a prune needs), and their
    addresses are taken when they do, so a rank's prunes reuse them. A prune
    rewrites them: the rows of `lists` hold until the next prune, or until
    `drop`.
    """

    def __init__(self, delta: float):
        if not delta >= 0.0:
            raise ValueError(f"the inner list's reach past the cutoff must be non-negative, got {delta}")
        self.delta = delta
        self.lists: NeighborLists | None = None
        self.trigger = 0.0
        # partners, row starts and reference positions, and their addresses
        self._buffers = (np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int64), np.empty(0))
        self._addresses = (0, 0, 0)

    def drop(self) -> None:
        """Forget the pruned rows: the next force call on the Verlet lists prunes anew."""
        self.lists = None

    def buffers(self, outer: NeighborLists) -> tuple[int, int, int]:
        """Addresses of the partners, row starts and reference positions that
        a prune of `outer` writes, each buffer grown to fit it."""
        needs = (outer.partners.size, outer.n_local + 1, 3 * outer.n_total)
        if any(buf.size < need for buf, need in zip(self._buffers, needs)):
            self._buffers = tuple(
                buf if buf.size >= need else np.empty(need + need // 8, dtype=buf.dtype)
                for buf, need in zip(self._buffers, needs)
            )
            self._addresses = tuple(kernel.address(buf, buf.dtype) for buf in self._buffers)
        return self._addresses

    def take(self, outer: NeighborLists, reach: float) -> None:
        """Hold the rows that a prune of `outer` at `reach` (r_c + delta) just wrote."""
        partners, start, ref = self._buffers
        n_local, n_total = outer.n_local, outer.n_total
        self.lists = NeighborLists(
            half=outer.half,
            partners=partners[: start[n_local]],
            start=start[: n_local + 1],
            ref_positions=ref[: 3 * n_total].reshape(3, n_total),
            n_local=n_local,
            n_total=n_total,
        )
        self.trigger = 0.5 * self.delta - _ROUNDING * reach


def build_neighbor_lists(
    store: ParticleStore,
    grid: CellGrid,
    r: float,
    half: bool,
    inner: InnerLists | None = None,
) -> NeighborLists:
    """Collect, for each local particle, every other particle within r.

    The lists carry `inner`, the rank's inner list, which a force call on
    them prunes them into (see `InnerLists`).

    Half mode keeps one copy per local pair, found once: from the local in
    the lower cell id or, when both share a cell, from the lower index. Pairs with a ghost partner always live on the
    local particle. The grid must be binned for the same kind
    (`build_cell_grid(..., half)`); ProtocolError otherwise, since a half
    build on a full grid would miss the ghosts of lower cells.

    One compiled pass (`build_lists` in pair_kernel.c) takes the locals in
    index order. For each, it reads the local's position in place through
    the layout's index map, copies it to the lists' `ref_positions`, and
    walks the runs of `grid.runs()` around the local's cell, in order
    (k = `grid.shell`): the cells dz = -k .. k of one
    (dx, dy) are consecutive ids, so their members are one slice of
    `grid.members`, and their coordinates the same slice of
    `grid.sorted_positions`. Full lists walk the (2k + 1)^3 cells of the
    stencil as (2k + 1)^2 runs and keep every candidate but the local
    itself. Half lists walk the upper half stencil over the locals, whose
    first run (the local's own cell and the cells above it in z) starts
    behind the local (`grid.slot`), then the whole stencil over the ghosts,
    with no index rule. Within a cell it takes the members in index order,
    and keeps a candidate that lies within r, by its squared distance summed
    x, y, z in that order. Each call writes the rows back to back into a
    fresh buffer of _LIST_BUFFER entries and stops before a row whose
    candidates (the run lengths summed) might not fit, so the next call
    resumes at that row; a row with more candidates than a buffer holds
    gets a buffer of its own size. Each call writes its rows' ends into `start`. The filled prefixes
    of the buffers, concatenated once, are `partners`; when one call built
    every row, its buffer itself is, cut to the prefix in place
    (`ndarray.resize`, a realloc that returns the tail to the heap).

    The candidates' positions and every cell come from the grid, as it
    binned them, so the lists match the grid by construction; the store must
    not move between the two builds. The grid must bin as many particles and
    locals as the store holds, and every local must lie in an interior cell,
    not in the ghost shell (`grid.shell_local`), so that all the stencil's
    cells around it exist; ProtocolError otherwise.
    """
    n_local = store.n_local
    start = np.zeros(n_local + 1, dtype=np.int64)
    filled = []  # each call's buffer and the entries it filled
    ref_positions = np.empty((3, 0))
    if grid.half != half:
        want, got = ("half", "full") if half else ("full", "half")
        raise ProtocolError(f"{want} lists need a cell grid binned for {want} lists, not for {got} lists")
    if grid.cell_of.shape[0] != store.n_total:
        raise ProtocolError(
            f"the cell grid bins {grid.cell_of.shape[0]} particles, the store holds {store.n_total}"
        )
    if grid.n_local != n_local:
        raise ProtocolError(f"the cell grid bins {grid.n_local} locals, the store holds {n_local}")
    if grid.shell_local >= 0:
        raise ProtocolError(
            f"local particle {grid.shell_local} lies in the ghost shell of the cell grid, "
            "outside the box the grid was built for"
        )
    if n_local:
        lib = kernel.library()
        ref_positions = np.empty((3, n_local))
        runs = grid.runs()
        # arrays by address, each checked once (see kernel.address)
        f64, i32, i64 = np.float64, np.int32, np.int64
        n = store.n_total
        h = store.positions
        args = (
            h.map_address, h.address, kernel.address(grid.sorted_positions, f64, (3, n)), n,
            kernel.address(grid.members, i32, (n,)), kernel.address(grid.start, i64),
            kernel.address(grid.cell_of, i64), kernel.address(grid.slot, i64), kernel.address(runs, i64),
            runs.shape[0], r * r, half,
        )
        start_p, ref_p = kernel.address(start, i64), kernel.address(ref_positions, f64)
        size = _LIST_BUFFER
        need = ctypes.c_int64()
        row0 = 0
        while row0 < n_local:
            buf = np.empty(size, dtype=np.int32)
            stop = lib.build_lists(
                *args, row0, n_local, kernel.address(buf, i32), size, start_p, ctypes.byref(need), ref_p
            )
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
        inner=inner,
    )


def max_displacement_since_rebuild(store: ParticleStore, lists: NeighborLists) -> float:
    """Largest move since the lists were built, or pruned, of the rows their
    reference positions cover: the locals of Verlet lists, every row of an
    inner list.

    One compiled loop (`max_displacement`) reads the positions in place
    through the layout's index map and sums the squared moves x, y, z in
    that order; NaN when a move is NaN. ProtocolError when the store's local
    count differs from the lists', also for lists built without locals, and
    for an inner list when its particle count does.
    """
    if store.n_local != lists.n_local:
        raise ProtocolError(
            f"store has {store.n_local} locals but lists were built for {lists.n_local}"
        )
    rows = lists.ref_positions.shape[1]
    if rows != lists.n_local and store.n_total != lists.n_total:
        raise ProtocolError(f"store has {store.n_total} particles but lists were pruned for {lists.n_total}")
    if lists.n_local == 0:
        return 0.0
    h = store.positions
    return kernel.library().max_displacement(h.map_address, h.address, lists.ref_positions_address, rows)
