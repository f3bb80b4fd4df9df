"""Three-phase halo protocol over simulated ranks.

The phases, run per communication epoch:

* load balance    (worlds with more than one rank) every rank sends
                  every other rank a histogram of its particles along each
                  axis (one compiled pass); all ranks move the slab cuts to
                  the same count-balanced positions and rebuild their pattern
* exchange        migrate ownership of particles that left their rank's
                  region (positions wrapped across periodic boundaries,
                  velocities travel along)
* border definition   pick the particles other ranks need as ghosts, ship
                  copies, and remember the plan
* synchronization replay the plan every step to refresh ghost positions

A pattern entry is data, not code: the face of this rank's slab it stands
for (axis, side and coordinate) and the periodic shift of what crosses it.
Exchange and border definition test every row against all of a round's
faces in one compiled pass over the layout buffer (`select_rows` in
pair_kernel.c, through the layout's index map), as the positions were when
the round started, and compiled loops emit the picked rows plus their shift
(exchange first moves its departures by the shift in place).

Exchange, border definition and synchronization send one record per remote
peer and stencil round: a peer's record holds the rows of every entry that
goes to it, in entry order, and the receiver appends them in that order
(as locals, or as ghosts in consecutive slots). The plan freezes, per
round, one gather index and one shift array over all of the round's rows,
so a refresh reads the source rows once per round and delivers each peer's
slice as one record (in place for this rank's own periodic images).

Rank programs are written as generators that ``yield`` at collective barrier
points; a runner advances all ranks one barrier at a time, so every send of a
sub-phase is posted before any matching receive runs.

Between epochs, every step, the ranks of a multi-rank world also all-gather
their largest displacement since the last rebuild (`gather_displacements`),
so that all of them can start an epoch early at the same step. The gather is
rooted at rank 0 and takes two barriers: every other rank sends rank 0 its
one-row record, and rank 0 sends every other rank one record of all P
displacements in rank order, 2 (P - 1) records in all.

There is one domain decomposition: each rank owns a slab of a near-cubic
rank grid and talks to its six face neighbours, one round per axis.

Wire records are little-endian: u8 kind (0 exchange, 1 border, 2 sync,
4 load, 5 displacement), u32 row count, then count x width f8 payload. Kind
3 is retired and never reused, and the other numbers are kept on purpose, so
that a kind byte means the same record in every version. A row is one
particle: 6 reals (position, velocity) for exchange, 3 (position) for border
and sync. A load record has 3 rows, one per axis, of LOAD_BINS particle
counts; a displacement record has one row of one real per rank it carries
(one on the way to rank 0, P on the way back).
"""

from __future__ import annotations

import struct
import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .core import AABB
from .errors import ProtocolError
from .particles import ParticleStore

__all__ = [
    "WIRE_EXCHANGE",
    "WIRE_BORDER",
    "WIRE_SYNC",
    "WIRE_LOAD",
    "WIRE_DISPLACEMENT",
    "LOAD_BINS",
    "pack_particles",
    "unpack_particles",
    "MailboxTransport",
    "RankDomain",
    "RankWorld",
    "CommPattern",
    "PatternEntry",
    "six_stencil_pattern",
    "factor_rank_grid",
    "rank_grid_coords",
    "rank_grid_index",
    "slab_bounds",
    "uniform_cuts",
    "balance_slabs",
    "gather_displacements",
    "exchange",
    "define_borders",
    "synchronize",
    "BorderPlan",
]

WIRE_EXCHANGE = 0
WIRE_BORDER = 1
WIRE_SYNC = 2
WIRE_LOAD = 4
WIRE_DISPLACEMENT = 5

# Histogram bins per axis in a load record; a balanced cut lands on one of
# their edges (or on a clamp bound).
LOAD_BINS = 256

_HEADER = struct.Struct("<BI")
_WIDTH = {
    WIRE_EXCHANGE: 6,
    WIRE_BORDER: 3,
    WIRE_SYNC: 3,
    WIRE_LOAD: LOAD_BINS,
    WIRE_DISPLACEMENT: 1,
}


def pack_particles(kind: int, payload: np.ndarray) -> bytes:
    payload = np.atleast_2d(np.asarray(payload, dtype="<f8"))
    if payload.size and payload.shape[1] != _WIDTH[kind]:
        raise ValueError(f"kind {kind} carries {_WIDTH[kind]} doubles per particle")
    return _HEADER.pack(kind, payload.shape[0] if payload.size else 0) + payload.tobytes()


def unpack_particles(blob: bytes) -> tuple[int, np.ndarray]:
    """(kind, count x width payload) of a record; ProtocolError on a record
    that is cut short, too long or of an unknown kind. The payload is a
    read-only view of `blob`."""
    if len(blob) < _HEADER.size:
        raise ProtocolError(f"wire record of {len(blob)} bytes is shorter than its header")
    kind, count = _HEADER.unpack_from(blob)
    if kind not in _WIDTH:
        raise ProtocolError(f"wire record of unknown kind {kind}")
    width = _WIDTH[kind]
    size = len(blob) - _HEADER.size
    if size != 8 * count * width:
        raise ProtocolError(
            f"wire record of kind {kind} announces {count} particles of {width} reals, "
            f"payload has {size} bytes"
        )
    # a read-only view of the record: receivers copy what they keep
    data = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    return kind, data.reshape(count, width)


class MailboxTransport:
    """In-process message passing with one FIFO queue per (src, dst) pair."""

    def __init__(self, size: int):
        self.size = size
        self._lock = threading.Lock()
        self._boxes: dict[tuple[int, int], deque[bytes]] = {}

    def send(self, src: int, dst: int, blob: bytes) -> None:
        with self._lock:
            self._boxes.setdefault((src, dst), deque()).append(blob)

    def recv(self, dst: int, src: int) -> bytes:
        with self._lock:
            box = self._boxes.get((src, dst))
            if not box:
                raise ProtocolError(f"rank {dst} expected a message from {src} but none arrived")
            return box.popleft()

    def pending(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._boxes.values())


@dataclass
class RankDomain:
    """Per-rank ownership region and ghost-layer width.

    `ownership` holds one box, the rank's slab between the current cuts;
    `balance_slabs` replaces it every epoch.
    """

    rank: int
    ownership: list[AABB]
    spacing: float

    def owns(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        mask = np.zeros(points.shape[0], dtype=bool)
        for box in self.ownership:
            mask |= box.contains(points)
        return mask

    def grid_box_for(self, store: ParticleStore) -> AABB:
        """Bounding box of the store's particles, or the slab when it is empty.

        One compiled pass over the rows (`bounding_box`); an axis that holds
        a NaN bounds as NaN, so the box is rejected as inverted.
        """
        if store.n_total == 0:
            return self.ownership[0]
        lo, hi = np.empty(3), np.empty(3)
        h = store.positions
        kernel.library().bounding_box(
            h.map_address, h.address, store.n_total, kernel.address(lo, np.float64), kernel.address(hi, np.float64)
        )
        return AABB.from_arrays(lo, hi + 1e-9)


@dataclass
class PatternEntry:
    """One peer relation: whom to send to, whom to receive from, and the
    slab face between them, as data.

    The face is the plane x[dim] = face on the `side` (+1 upper, -1 lower)
    of the slab. A local departs through it in exchange when strictly
    outside the slab there (x[dim] >= face, or x[dim] < face); a row is a
    border row when within the pattern's spacing of it (x[dim] > face -
    spacing, or x[dim] < face + spacing). Either is emitted as x + shift,
    the periodic shift (all zero unless the face is the domain boundary).
    """

    send_to: int
    recv_from: int
    dim: int
    side: int
    face: float
    shift: np.ndarray  # (3,) float64


@dataclass
class CommPattern:
    """The face stencil: barrier-separated rounds of peer entries, one per axis.

    One round per axis lets a particle or a ghost cross an edge or a corner
    by hopping over successive faces. Within a round the two entries' exchange
    tests are disjoint, so each particle leaves through at most one face.
    `rank_grid` and `cuts` (per-axis slab boundaries) are what the pattern was
    built on, and `spacing` is the border width; `balance_slabs` moves the
    cuts and builds the next pattern.
    """

    rounds: list[list[PatternEntry]]
    rank_grid: tuple[int, int, int]
    cuts: tuple[np.ndarray, np.ndarray, np.ndarray]
    spacing: float


@dataclass
class RankWorld:
    size: int
    rank: int
    transport: MailboxTransport
    global_box: AABB
    domain: RankDomain
    pattern: CommPattern


def factor_rank_grid(p: int) -> tuple[int, int, int]:
    """Near-cubic 3D factorization of the rank count."""
    if p <= 0:
        raise ValueError("rank count must be positive")
    dims = [1, 1, 1]
    n = p
    f = 2
    factors = []
    while n > 1:
        while n % f == 0:
            factors.append(f)
            n //= f
        f += 1
    for f in sorted(factors, reverse=True):
        dims[int(np.argmin(dims))] *= f
    return tuple(sorted(dims, reverse=True))


def rank_grid_index(coords, grid) -> int:
    cx, cy, cz = coords
    gx, gy, _ = grid
    return (cz * gy + cy) * gx + cx


def rank_grid_coords(rank: int, grid) -> tuple[int, int, int]:
    gx, gy, _ = grid
    return rank % gx, (rank // gx) % gy, rank // (gx * gy)


def uniform_cuts(global_box: AABB, grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equal-width slab boundaries of a rank grid: g + 1 reals per axis."""
    lo = global_box.lo
    ext = global_box.extent()
    return tuple(lo[d] + ext[d] * (np.arange(grid[d] + 1, dtype=np.float64) / grid[d]) for d in range(3))


def slab_bounds(global_box: AABB, grid, coords, cuts=None) -> AABB:
    """Ownership slab of a rank-grid cell between its cuts (uniform by default).

    Boundary reals are shared exactly by both sides because every rank reads
    the same cut values.
    """
    if cuts is None:
        cuts = uniform_cuts(global_box, grid)
    lo = [cuts[d][coords[d]] for d in range(3)]
    hi = [cuts[d][coords[d] + 1] for d in range(3)]
    return AABB.from_arrays(lo, hi)


def six_stencil_pattern(
    rank_grid: tuple[int, int, int],
    this_rank: int,
    global_box: AABB,
    spacing: float,
    cuts=None,
) -> CommPattern:
    """Face-neighbor pattern over a rank grid, one round per dimension.

    Slabs lie between `cuts` (per-axis boundaries, uniform by default).

    Each entry carries its face of this rank's slab (see PatternEntry): a
    local departs through it when strictly outside the slab there, and a row
    is a border row when within `spacing` of it. Both are emitted shifted by
    the domain length when the face is the periodic boundary.
    """
    gx, gy, gz = rank_grid
    if cuts is None:
        cuts = uniform_cuts(global_box, rank_grid)
    coords = rank_grid_coords(this_rank, rank_grid)
    slab = slab_bounds(global_box, rank_grid, coords, cuts)
    ext = global_box.extent()
    rounds = []
    for dim in range(3):
        entries = []
        for direction in (+1, -1):
            peer_coords = list(coords)
            peer_coords[dim] = (coords[dim] + direction) % rank_grid[dim]
            peer = rank_grid_index(peer_coords, rank_grid)
            at_edge = (
                coords[dim] == rank_grid[dim] - 1 if direction > 0 else coords[dim] == 0
            )
            shift = np.zeros(3)
            if at_edge:
                shift[dim] = -ext[dim] if direction > 0 else ext[dim]
            face = slab.hi[dim] if direction > 0 else slab.lo[dim]
            # the peer in the opposite direction feeds my receives for
            # this direction's traffic
            recv_coords = list(coords)
            recv_coords[dim] = (coords[dim] - direction) % rank_grid[dim]
            entries.append(
                PatternEntry(
                    send_to=peer,
                    recv_from=rank_grid_index(recv_coords, rank_grid),
                    dim=dim,
                    side=direction,
                    face=float(face),
                    shift=shift,
                )
            )
        rounds.append(entries)
    return CommPattern(rounds, rank_grid=tuple(rank_grid), cuts=cuts, spacing=spacing)


# ---------------------------------------------------------------------------
# the phases (rank-program generators; `yield` is a collective barrier)
# ---------------------------------------------------------------------------


def _balanced_cuts(old: np.ndarray, hist: np.ndarray, spacing: float) -> np.ndarray:
    """Cuts of one axis that split the histogram's count evenly, within clamps.

    Interior cut k moves to the first bin edge where the running count
    reaches k/g of the total, unless at its old position (rounded to a bin
    edge) the running count is already as close to k/g: on a lattice, whole
    planes share a bin, and a move that gains nothing only shifts which
    planes become ghosts. The cut is then clamped to stay at least `spacing`
    above both the old cut k - 1 and the new cut k - 1, and at least
    `spacing` below the old cut k + 1. Every slab therefore stays at least
    `spacing` wide (one border hop still reaches every ghost), and every
    particle, even one that drifted less than half the Verlet buffer past its
    old slab, lands in the old owner's slab or a face neighbour's (one
    exchange hop reaches it). If the old cuts already break those bounds the
    axis keeps them.
    """
    g = old.size - 1
    lo, ext = old[0], old[-1] - old[0]
    running = np.concatenate([[0.0], np.cumsum(hist)])
    target = running[-1] * np.arange(1, g) / g
    reach = np.searchsorted(running, target)
    at_old = np.rint((old[1:-1] - lo) / ext * hist.size).astype(np.int64)
    stay = np.abs(running[at_old] - target) <= np.abs(running[reach] - target)
    want = np.where(stay, old[1:-1], lo + ext * (reach / hist.size))
    new = old.copy()
    for k in range(1, g):
        floor = max(old[k - 1], new[k - 1]) + spacing
        ceiling = old[k + 1] - spacing
        if floor > ceiling:
            return old
        new[k] = min(max(want[k - 1], floor), ceiling)
    return new


def _load_histogram(store: ParticleStore, box: AABB) -> np.ndarray:
    """Per axis, a LOAD_BINS histogram of the store's locals wrapped into the
    periodic `box`, as a (3, LOAD_BINS) float64 array of counts.

    One compiled pass (`load_histogram`): each coordinate is wrapped into
    [lo, hi) by whole box lengths and falls into bin floor((w - lo) / (hi -
    lo) * LOAD_BINS), clamped to the bins; NaN counts in bin 0.
    """
    hist = np.empty((3, LOAD_BINS))
    h = store.positions
    kernel.library().load_histogram(
        h.map_address, h.address, store.n_local,
        kernel.address(np.array(box.min + box.max), np.float64, (6,)), LOAD_BINS, kernel.address(hist, np.float64),
    )
    return hist


def balance_slabs(world: RankWorld, store: ParticleStore):
    """Move the slab cuts so each slab holds about the same particle count.

    Runs at an epoch boundary, before exchange. A world of one rank returns
    without a barrier. Each rank sends every other rank a load record: per
    axis, a LOAD_BINS histogram of its local positions, wrapped into the
    domain. Every rank sums the histograms in rank order, so all ranks derive
    the same cuts, then rebuilds its ownership slab and its pattern from
    them; the exchange that follows moves the particles.
    """
    if world.size == 1:
        return
    pattern = world.pattern
    me = world.rank
    box = world.global_box
    hist = _load_histogram(store, box)
    blob = pack_particles(WIRE_LOAD, hist)
    for peer in range(world.size):
        if peer != me:
            world.transport.send(me, peer, blob)
    yield
    total = np.zeros_like(hist)
    for peer in range(world.size):
        if peer == me:
            total += hist
            continue
        kind, data = unpack_particles(world.transport.recv(me, peer))
        if kind != WIRE_LOAD:
            raise ProtocolError(f"rank {me} expected load record from {peer}, got kind {kind}")
        total += data
    spacing = world.domain.spacing
    cuts = tuple(_balanced_cuts(old, total[d], spacing) for d, old in enumerate(pattern.cuts))
    grid = pattern.rank_grid
    world.domain.ownership = [slab_bounds(box, grid, rank_grid_coords(me, grid), cuts)]
    world.pattern = six_stencil_pattern(grid, me, box, spacing, cuts)


def gather_displacements(world: RankWorld, displacement: float):
    """Every rank's displacement, in rank order, on every rank.

    Rooted at rank 0, over two barriers: every other rank sends rank 0 a
    one-row displacement record; rank 0 collects them in rank order and
    sends every other rank one record of all of them. A world of one rank
    returns at once, without a message or a barrier. ProtocolError, naming
    the receiving and the sending rank, on a record of another kind or
    shape.
    """
    if world.size == 1:
        return np.array([displacement])
    me, root = world.rank, 0
    if me != root:
        world.transport.send(me, root, pack_particles(WIRE_DISPLACEMENT, np.array([[displacement]])))
    yield
    if me == root:
        out = np.empty(world.size)
        out[root] = displacement
        for peer in range(world.size):
            if peer != root:
                out[peer] = _displacements(world, peer, 1)[0]
        blob = pack_particles(WIRE_DISPLACEMENT, out[:, None])
        for peer in range(world.size):
            if peer != root:
                world.transport.send(root, peer, blob)
    yield
    if me != root:
        out = _displacements(world, root, world.size).copy()
    return out


def _displacements(world: RankWorld, peer: int, rows: int) -> np.ndarray:
    """The `rows` displacements of the record from `peer`; ProtocolError if
    it is not a displacement record of that many rows."""
    kind, data = unpack_particles(world.transport.recv(world.rank, peer))
    if kind != WIRE_DISPLACEMENT or data.shape != (rows, 1):
        raise ProtocolError(
            f"rank {world.rank} expected a displacement record from rank {peer}, got kind {kind} "
            f"with {data.shape[0]} rows"
        )
    return data[:, 0]


def _picks(store: ParticleStore, n: int, entries: list[PatternEntry], bounds, ge: bool) -> list[np.ndarray]:
    """Per entry, in entry order, the rows of [0, n) that its face test picks,
    in increasing row order, from one compiled pass over the rows
    (`select_rows`): x[dim] against the entry's bound, from above on a +1
    side (>= with `ge`, else >) and from below (<) on a -1 side. A NaN
    coordinate passes no test."""
    k = len(entries)
    axes = np.array([(e.dim, e.side) for e in entries], dtype=np.int64)
    bounds = np.array(bounds, dtype=np.float64)
    idx = np.empty((k, n), dtype=np.int64)
    counts = np.empty(k, dtype=np.int64)
    h = store.positions
    kernel.library().select_rows(
        h.map_address, h.address, n, k, kernel.address(axes, np.int64), kernel.address(bounds, np.float64),
        ge, kernel.address(idx, np.int64), kernel.address(counts, np.int64),
    )
    return [idx[e, :c] for e, c in enumerate(counts.tolist())]


def _emit(store: ParticleStore, group: list[tuple[PatternEntry, np.ndarray]], exchange: bool):
    """The rows one peer gets from `group`'s (entry, picked rows) pairs: entry
    by entry, in entry order, each picked row's position, followed by its
    velocity in an exchange record, whose rows `exchange` has already moved
    through their face; a border row gets the entry's shift. Returns the
    (k, 6 or 3) rows and, for border rows, the (k, 3) shift each row got,
    emitted - position (`emit_rows`)."""
    k = sum(idx.size for _, idx in group)
    width = 6 if exchange else 3
    out = np.empty((k, width))
    diff = None if exchange else np.empty((k, 3))
    x, v = store.positions, store.velocities
    lib, a = kernel.library(), 0
    for entry, idx in group:
        b = a + idx.size
        lib.emit_rows(
            x.map_address, x.address, v.address if exchange else None, kernel.address(idx, np.int64),
            idx.size, None if exchange else kernel.address(entry.shift, np.float64, (3,)), width,
            kernel.address(out[a:b], np.float64), None if exchange else kernel.address(diff[a:b], np.float64),
        )
        a = b
    return out, diff


def _by_peer(items: list, peer_of) -> dict[int, list]:
    """The items grouped by peer, peers in order of first appearance and
    items in their order within each group."""
    groups: dict[int, list] = {}
    for item in items:
        groups.setdefault(peer_of(item), []).append(item)
    return groups


def exchange(world: RankWorld, store: ParticleStore):
    """Move particles that left this rank's region to their new owners.

    Runs on every rank at an epoch boundary, one stencil round per axis: a
    local strictly outside the slab through a face goes to that face's
    neighbour, so a particle past an edge or a corner reaches the diagonal
    owner over two or three rounds. A round tests every local against all of
    its entries' faces in one compiled pass (`_picks`), as the positions
    were when the round started; then it moves every departure through its
    face in place (position plus the entry's shift, `shift_rows`), which
    leaves this rank's own periodic images wrapped, sends every remote peer
    one exchange record with the departures of all of its entries (position,
    then velocity; entry by entry, in entry order, in row order), and
    compacts the survivors in order. Rounding can put a row moved across the
    periodic boundary on a face that no rank owns, and the move corrects
    both cases: a local so little below the global lower face that x + L
    rounds onto the upper face wraps to the lower face and stays, since its
    owner is this rank; a local that leaves through the upper face and
    lands below the lower face comes up to it. After the final round every
    local must lie in the slab, or ProtocolError: a particle more than one
    slab away is lost, and a NaN coordinate never departs.
    """
    store.clear_ghosts()
    me = world.rank
    lib = kernel.library()
    box = np.array(world.global_box.min + world.global_box.max)
    box_p = kernel.address(box, np.float64, (6,))
    for entries in world.pattern.rounds:
        n, h = store.n_local, store.positions
        picks = _picks(store, n, entries, [e.face for e in entries], ge=True)
        keep = np.ones(n, dtype=bool)
        remote = []
        for entry, idx in zip(entries, picks):
            moved = lib.shift_rows(
                h.map_address, h.address, kernel.address(idx, np.int64), idx.size,
                kernel.address(entry.shift, np.float64, (3,)), box_p,
            )
            if entry.send_to != me:
                keep[idx[:moved]] = False
                remote.append((entry, idx[:moved]))
        for peer, group in _by_peer(remote, lambda pick: pick[0].send_to).items():
            rows, _ = _emit(store, group, exchange=True)
            world.transport.send(me, peer, pack_particles(WIRE_EXCHANGE, rows))
        store.compact_locals(keep)
        yield
        for peer in _by_peer(entries, lambda e: e.recv_from):
            if peer == me:
                continue
            kind, data = unpack_particles(world.transport.recv(me, peer))
            if kind != WIRE_EXCHANGE:
                raise ProtocolError(f"rank {me} expected exchange record, got kind {kind}")
            if data.shape[0]:
                store.append_locals(data[:, :3], data[:, 3:])
    boxes = np.array([box.min + box.max for box in world.domain.ownership])
    h = store.positions
    i = lib.first_outside(
        h.map_address, h.address, store.n_local, len(boxes), kernel.address(boxes, np.float64, (len(boxes), 6))
    )
    if i >= 0:
        raise ProtocolError(
            f"rank {me}: after exchange, local particle at "
            f"{h.read_rows(i, 1)[0]} is outside the ownership region"
        )


@dataclass
class _PlanSend:
    peer: int
    rows: slice  # of the round's refreshed rows
    ghost_start: int = -1  # set for this rank's own images, which land in place


@dataclass
class _PlanRecv:
    peer: int
    ghost_start: int
    count: int


@dataclass
class _PlanRound:
    """One stencil round of the ghost refresh.

    Row k of the round's refresh is the position of store row src_idx[k]
    (a local or a ghost of an earlier round) plus shift[k], the periodic
    shift fixed at plan time. The rows are grouped by peer, in entry order
    within a peer, and each send is one peer's slice of them. `rows` holds
    the refresh of the latest step; the compiled gather takes src_idx,
    shift and rows by the addresses in `args`, taken once here.
    """

    src_idx: np.ndarray  # (k,) int64
    shift: np.ndarray  # (k, 3)
    sends: list[_PlanSend]
    recvs: list[_PlanRecv]
    rows: np.ndarray = field(init=False, repr=False)  # (k, 3)
    args: tuple = field(init=False, repr=False)  # gather_rows' (width, idx, start, shift, k, out)

    def __post_init__(self) -> None:
        k = self.src_idx.shape[0]
        self.rows = np.empty((k, 3))
        self.args = (
            3, kernel.address(self.src_idx, np.int64, (k,)), 0, kernel.address(self.shift, np.float64, (k, 3)),
            k, kernel.address(self.rows, np.float64),
        )


@dataclass
class BorderPlan:
    """Frozen border traffic: who gets which of my particles with what shift,
    and which ghost slots each peer's refresh lands in."""

    rounds: list[_PlanRound]
    n_local: int
    n_ghost: int


def define_borders(world: RankWorld, store: ParticleStore):
    """Pick border particles, materialize ghosts on the receivers, keep the plan.

    A round picks the rows [0, n) of the store as it starts, n its row
    count then, within the pattern's spacing of each entry's face, in one
    compiled pass (`_picks`). It sends every remote peer one border record
    with the rows of all of its entries (position plus shift, entry by
    entry, in entry order, in row order), and appends this rank's own
    periodic images in place. Later rounds scan ghosts created by earlier
    rounds, which is how edge and corner images propagate across dimensions
    under the face stencil. A NaN coordinate is never a border row.
    `synchronize` replays the plan only on a store of the same counts, so
    its gathers stay in range.
    """
    me = world.rank
    if store.n_ghost:
        raise ProtocolError(f"rank {me}: define_borders must start with an empty ghost region")
    spacing = world.pattern.spacing
    plan_rounds: list[_PlanRound] = []
    for entries in world.pattern.rounds:
        bounds = [e.face - spacing if e.side > 0 else e.face + spacing for e in entries]
        picks = _picks(store, store.n_total, entries, bounds, ge=False)
        src_idx, shift, sends = [], [], []
        n = 0
        for peer, group in _by_peer(list(zip(entries, picks)), lambda pick: pick[0].send_to).items():
            emitted, diff = _emit(store, group, exchange=False)
            src_idx.extend(idx for _, idx in group)
            shift.append(diff)
            rows = slice(n, n + emitted.shape[0])
            n += emitted.shape[0]
            if peer == me:
                sends.append(_PlanSend(me, rows, ghost_start=store.append_ghosts(emitted, peer=me)))
            else:
                world.transport.send(me, peer, pack_particles(WIRE_BORDER, emitted))
                sends.append(_PlanSend(peer, rows))
        yield
        recvs = []
        for peer in _by_peer(entries, lambda e: e.recv_from):
            if peer == me:
                continue
            kind, data = unpack_particles(world.transport.recv(me, peer))
            if kind != WIRE_BORDER:
                raise ProtocolError(f"rank {me} expected border record, got kind {kind}")
            recvs.append(_PlanRecv(peer, store.append_ghosts(data, peer=peer), data.shape[0]))
        plan_rounds.append(_PlanRound(np.concatenate(src_idx), np.concatenate(shift), sends, recvs))
    return BorderPlan(plan_rounds, n_local=store.n_local, n_ghost=store.n_ghost)


def synchronize(world: RankWorld, store: ParticleStore, plan: BorderPlan):
    """Refresh every ghost position from its source, replaying the plan.

    Per round: one compiled gather of the source rows plus their shifts
    (`gather_rows`, through the layout's index map, into the plan's `rows`),
    one sync record per remote peer, and one write per peer's consecutive
    ghost slots (`set_ghost_positions`). Each ghost ends up at source
    position plus the shift fixed at plan time; multi-hop images stay exact
    because rounds replay in plan order.
    """
    if store.n_local != plan.n_local or store.n_ghost != plan.n_ghost:
        raise ProtocolError(
            f"rank {world.rank}: store ({store.n_local} locals, {store.n_ghost} ghosts) "
            f"does not match the border plan ({plan.n_local}, {plan.n_ghost})"
        )
    me = world.rank
    gather, h = kernel.library().gather_rows, store.positions
    for rnd in plan.rounds:
        gather(h.map_address, h.address, *rnd.args)
        rows = rnd.rows
        for s in rnd.sends:
            if s.peer == me:
                store.set_ghost_positions(s.ghost_start, rows[s.rows])
            else:
                world.transport.send(me, s.peer, pack_particles(WIRE_SYNC, rows[s.rows]))
        yield
        for r in rnd.recvs:
            kind, data = unpack_particles(world.transport.recv(me, r.peer))
            if kind != WIRE_SYNC:
                raise ProtocolError(f"rank {me} expected sync record, got kind {kind}")
            if data.shape[0] != r.count:
                raise ProtocolError(
                    f"rank {me}: sync from {r.peer} carries {data.shape[0]} particles, "
                    f"plan expects {r.count}"
                )
            store.set_ghost_positions(r.ghost_start, data)
