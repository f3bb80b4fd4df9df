"""Three-phase halo protocol over simulated ranks.

The phases, run per communication epoch:

* load balance    (worlds with more than one rank) rank 0 sums every
                  rank's histogram of its particles along each axis (one
                  compiled pass) and sends the sum back; all ranks move the
                  slab cuts to the same count-balanced positions
* exchange        migrate ownership of particles that left their rank's
                  region (positions wrapped across periodic boundaries,
                  velocities travel along)
* border definition   pick the particles other ranks need as ghosts, ship
                  copies, and remember the plan
* synchronization replay the plan every step to refresh ghost positions

A pattern entry is data, not code: the face of this rank's slab it stands
for (axis and side) and the periodic shift of what crosses it. The pattern
is pure topology, built once per run: a cut move changes the slab, and the
compiled passes read each face's coordinate from the slab as they run.

Exchange, border definition and synchronization send one record per remote
peer and stencil round: a peer's record holds the rows of every entry that
goes to it, in entry order, and the receiver appends them in that order
(as locals, or as ghosts in consecutive slots). Per rank, a round of
exchange or of border definition is one compiled pass (`exchange_round`,
`border_round`) over the round's faces, one record sent and one received
per remote peer, and one compiled call per edit of the store
(`compact_locals`, `append_locals`, `append_ghosts`, the last also for this
rank's own periodic images). The plan freezes, per round, one gather index
and one shift array over all of the round's rows, so a refresh reads the
source rows once per round and delivers each peer's slice as one record
(in place for this rank's own periodic images).

Rank programs are written as generators that ``yield`` at collective barrier
points; a runner advances all ranks one barrier at a time, so every send of a
sub-phase is posted before any matching receive runs.

Between epochs, every step, the ranks of a multi-rank world also all-gather
their largest displacement since the last rebuild (`gather_displacements`),
so that all of them can start an epoch early at the same step. The load
balance and this gather are one collective, rooted at rank 0 over two
barriers: every other rank sends rank 0 one record, and rank 0 combines all
P in rank order (loads by summing, displacements by stacking) and sends
every other rank one record of the result, 2 (P - 1) records in all.

There is one domain decomposition: each rank owns a slab of a near-cubic
rank grid and talks to its six face neighbours, one round per axis.

Wire records are little-endian: an 8-byte header (u8 kind, three zero
bytes, u32 row count), so the count x width f8 payload starts 8-aligned in
its record and is read in place. Kinds: 0 exchange, 1 border, 2 sync, 4
load, 5 displacement; kind 3 is retired and never reused, and the other
numbers are kept on purpose, so that a kind byte means the same record in
every version. A row is one particle: 6 reals (position, velocity) for
exchange, 3 (position) for border and sync. A load record has 3 rows, one
per axis, of LOAD_BINS particle counts; a displacement record has one row
of one real per rank it carries (one on the way to rank 0, P on the way
back).
"""

from __future__ import annotations

import struct
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

_GROWTH = 1.5  # growth factor of the round passes' work arrays
_ROUND_ENTRIES = 2  # entries of a stencil round, ROUND_ENTRIES in pair_kernel.c

# kind, three pad bytes (zero), row count: the payload after it is 8-aligned
_HEADER = struct.Struct("<B3xI")
_WIDTH = {
    WIRE_EXCHANGE: 6,
    WIRE_BORDER: 3,
    WIRE_SYNC: 3,
    WIRE_LOAD: LOAD_BINS,
    WIRE_DISPLACEMENT: 1,
}
_NAMES = {WIRE_EXCHANGE: "an exchange", WIRE_BORDER: "a border", WIRE_SYNC: "a sync", WIRE_LOAD: "a load",
          WIRE_DISPLACEMENT: "a displacement"}


def pack_particles(kind: int, payload: np.ndarray) -> bytes:
    payload = np.atleast_2d(np.asarray(payload, dtype="<f8"))
    if payload.size and payload.shape[1] != _WIDTH[kind]:
        raise ValueError(f"kind {kind} carries {_WIDTH[kind]} doubles per particle")
    return _HEADER.pack(kind, payload.shape[0] if payload.size else 0) + payload.tobytes()


def unpack_particles(blob: bytes) -> tuple[int, np.ndarray]:
    """(kind, count x width payload) of a record; ProtocolError on a record
    that is cut short, too long, of an unknown kind or with a nonzero pad
    byte. The payload is a read-only view of `blob`."""
    if len(blob) < _HEADER.size:
        raise ProtocolError(f"wire record of {len(blob)} bytes is shorter than its header")
    kind, count = _HEADER.unpack_from(blob)
    if kind not in _WIDTH:
        raise ProtocolError(f"wire record of unknown kind {kind}")
    if any(blob[1:4]):
        raise ProtocolError(f"wire record of kind {kind} has a nonzero pad byte in its header")
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
    """In-process message passing with one FIFO queue per (src, dst) pair;
    the ranks run on one thread, so nothing locks."""

    def __init__(self, size: int):
        self.size = size
        self._boxes: dict[tuple[int, int], deque[bytes]] = {}

    def send(self, src: int, dst: int, blob: bytes) -> None:
        self._boxes.setdefault((src, dst), deque()).append(blob)

    def recv(self, dst: int, src: int) -> bytes:
        box = self._boxes.get((src, dst))
        if not box:
            raise ProtocolError(f"rank {dst} expected a message from {src} but none arrived")
        return box.popleft()

    def pending(self) -> int:
        return sum(len(b) for b in self._boxes.values())


@dataclass
class RankDomain:
    """Per-rank ownership region and ghost-layer width.

    `ownership` holds exactly one box, the rank's slab between the current
    cuts, which `balance_slabs` sets at every epoch; the compiled passes of
    the epoch read the faces of the pattern's entries from it, and the
    ownership check after exchange tests it alone. ValueError when it is set
    to any other number of boxes.
    """

    rank: int
    ownership: list[AABB]
    spacing: float

    def __setattr__(self, name, value) -> None:
        if name == "ownership" and len(value) != 1:
            raise ValueError(f"a rank owns exactly one box, got {len(value)}")
        super().__setattr__(name, value)

    def owns(self, points: np.ndarray) -> np.ndarray:
        return self.ownership[0].contains(points)

    def packed(self) -> np.ndarray:
        """The slab as six doubles, lo x, y, z then hi x, y, z, as the compiled passes read it."""
        slab = self.ownership[0]
        return np.array(slab.min + slab.max, dtype=np.float64)

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
    """One peer relation: whom to send to, whom to receive from, and which
    face of the slab lies between them, as data.

    The face is the plane x[dim] = face on the `side` (+1 upper, -1 lower)
    of the rank's slab, its coordinate read from the slab (`RankDomain
    .ownership[0]`) when a pass runs. A local departs through it in exchange
    when strictly outside the slab there (x[dim] >= face, or x[dim] < face);
    a row is a border row when within the pattern's spacing of it (x[dim] >
    face - spacing, or x[dim] < face + spacing). Either is emitted as x +
    shift, the periodic shift (all zero unless the face is the domain
    boundary).
    """

    send_to: int
    recv_from: int
    dim: int
    side: int
    shift: np.ndarray  # (3,) float64


@dataclass
class _Work:
    """Work arrays of the round passes, shared by a pattern's rounds, with
    their addresses: picks of n rows per entry (`idx`), exchange's keep mask,
    and `cap` emitted rows (`out`, 6 or 3 wide), their sources and shifts."""

    n: int = -1
    cap: int = -1

    def fit(self, n: int, k: int) -> None:
        if n > self.n:
            self.n = max(n, int(self.n * _GROWTH))
            self.idx = np.empty(_ROUND_ENTRIES * self.n, dtype=np.int64)
            self.keep = np.empty(self.n, dtype=bool)
            self.idx_address, self.keep_address = kernel.address(self.idx, np.int64), kernel.address(self.keep, bool)
        if k > self.cap:
            self.cap = max(k, int(self.cap * _GROWTH))
            self.out, self.src, self.diff = np.empty(6 * self.cap), np.empty(self.cap, np.int64), np.empty((self.cap, 3))
            self.out_address, self.diff_address = kernel.address(self.out, float), kernel.address(self.diff, float)
            self.src_address = kernel.address(self.src, np.int64)


class _RoundPass:
    """One stencil round's entries as the arguments of its compiled passes.

    The entries' peers form groups, `peers`, in order of first appearance
    (this rank among them when it sends itself periodic images); a pass
    writes each group's row count to `counts`. `recv_peers` are the remote
    peers that send to this rank, in order of first appearance. The faces
    are not here: a pass reads them from the slab it is given.
    """

    def __init__(self, entries: list[PatternEntry], me: int, spacing: float, box_address: int, work: _Work):
        self.peers = list(dict.fromkeys(e.send_to for e in entries))
        self.recv_peers = [p for p in dict.fromkeys(e.recv_from for e in entries) if p != me]
        self.work = work
        self.counts = np.empty(len(self.peers), dtype=np.int64)
        self._arrays = (
            np.array([(e.dim, e.side) for e in entries], dtype=np.int64),
            np.array([e.shift for e in entries]),
            np.array([self.peers.index(e.send_to) for e in entries], dtype=np.int64),
            np.empty(len(entries), dtype=np.int64),  # picks per entry
            self.counts,
        )
        axes, shifts, group, picked, counts = (kernel.address(a, a.dtype) for a in self._arrays)
        g, own = len(self.peers), self.peers.index(me) if me in self.peers else -1
        self._exchange = (axes, shifts, group, g, own, picked, counts, box_address)
        self._border = (spacing, axes, shifts, group, g, picked, counts)

    def run(self, store: ParticleStore, slab: int, exchange: bool) -> int:
        """`exchange_round` over the locals or `border_round` over every row
        (see pair_kernel.c), against the faces of `slab` (the address of
        six doubles, `RankDomain.packed`); returns the pass's row count. A
        pass whose rows do not fit the work arrays changes nothing: they
        grow, it runs again."""
        w, x, k = self.work, store.positions, 0
        n = store.n_local if exchange else store.n_total
        while True:
            w.fit(n, k)
            if exchange:
                k = kernel.library().exchange_round(
                    x.map_address, x.address, store.velocities.address, n, slab, *self._exchange,
                    w.idx_address, w.keep_address, w.cap, w.out_address,
                )
            else:
                k = kernel.library().border_round(
                    x.map_address, x.address, n, slab, *self._border,
                    w.idx_address, w.cap, w.src_address, w.out_address, w.diff_address,
                )
            if k <= w.cap:
                return k


@dataclass
class CommPattern:
    """The face stencil: barrier-separated rounds of peer entries, one per axis.

    One round per axis lets a particle or a ghost cross an edge or a corner
    by hopping over successive faces. A round holds exactly two entries, the
    upper and the lower face of its axis, as the compiled passes read them
    (ValueError otherwise); their exchange tests are disjoint, so each
    particle leaves through at most one face.
    `rank_grid` is the rank grid, `cuts` the current per-axis slab
    boundaries, `spacing` the border width, `rank` this rank and
    `global_box` the periodic domain. The pattern is topology only and is
    built once per run: `balance_slabs` moves `cuts` and the rank's slab,
    and the passes read the faces from the slab. `passes` holds each round's
    compiled passes, which keep their work arrays for the whole run.
    """

    rounds: list[list[PatternEntry]]
    rank_grid: tuple[int, int, int]
    cuts: tuple[np.ndarray, np.ndarray, np.ndarray]
    spacing: float
    rank: int
    global_box: AABB
    passes: list[_RoundPass] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for d, entries in enumerate(self.rounds):
            if len(entries) != _ROUND_ENTRIES:
                raise ValueError(f"round {d} of the stencil holds {len(entries)} entries, not {_ROUND_ENTRIES}")
        work = _Work()
        self._box = np.array(self.global_box.min + self.global_box.max)
        box = kernel.address(self._box, np.float64, (6,))
        self.passes = [_RoundPass(entries, self.rank, self.spacing, box, work) for entries in self.rounds]


@dataclass
class RankWorld:
    """One rank's view of the world. The domain and the pattern each hold
    the rank, the border spacing and (the pattern) the global box, read in
    different places, so ValueError unless they agree with each other and
    with `rank` and `global_box`: a mismatch would break the one-hop border
    guarantee without an error."""

    size: int
    rank: int
    transport: MailboxTransport
    global_box: AABB
    domain: RankDomain
    pattern: CommPattern

    def __post_init__(self) -> None:
        if not self.domain.rank == self.rank == self.pattern.rank:
            raise ValueError(
                f"rank {self.rank} got a domain of rank {self.domain.rank} and a pattern of rank {self.pattern.rank}"
            )
        if self.domain.spacing != self.pattern.spacing:
            raise ValueError(f"domain spacing {self.domain.spacing} != pattern spacing {self.pattern.spacing}")
        if self.pattern.global_box != self.global_box:
            raise ValueError(f"pattern box {self.pattern.global_box} != world box {self.global_box}")


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
) -> CommPattern:
    """Face-neighbor pattern over a rank grid, one round per dimension, at
    the uniform cuts (`balance_slabs` moves them).

    Each entry names a face of this rank's slab (see PatternEntry): a local
    departs through it when strictly outside the slab there, and a row is a
    border row when within `spacing` of it. Both are emitted shifted by the
    domain length when the face is the periodic boundary.
    """
    coords = rank_grid_coords(this_rank, rank_grid)
    ext = global_box.extent()

    def neighbour(dim, direction):
        c = list(coords)
        c[dim] = (coords[dim] + direction) % rank_grid[dim]
        return rank_grid_index(c, rank_grid)

    rounds = []
    for dim in range(3):
        entries = []
        for direction in (+1, -1):
            shift = np.zeros(3)
            if coords[dim] == (rank_grid[dim] - 1 if direction > 0 else 0):  # a face on the domain boundary
                shift[dim] = -direction * ext[dim]
            # the neighbour in the opposite direction feeds my receives for
            # this direction's traffic
            entries.append(PatternEntry(neighbour(dim, direction), neighbour(dim, -direction), dim, direction, shift))
        rounds.append(entries)
    return CommPattern(
        rounds, rank_grid=tuple(rank_grid), cuts=uniform_cuts(global_box, rank_grid), spacing=spacing,
        rank=this_rank, global_box=global_box,
    )


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


def _receive(world: RankWorld, peer: int, kind: int, rows: int | None = None) -> np.ndarray:
    """The payload of the next record from `peer`; ProtocolError, naming
    both ranks, unless it is of `kind` and, when `rows` is given, of that
    many rows."""
    got, data = unpack_particles(world.transport.recv(world.rank, peer))
    if got != kind or rows not in (None, data.shape[0]):
        size = "" if rows is None else f" of {rows} rows"
        raise ProtocolError(
            f"rank {world.rank} expected {_NAMES[kind]} record{size} from rank {peer}, "
            f"got kind {got} with {data.shape[0]} rows"
        )
    return data


def _rooted(world: RankWorld, kind: int, record: np.ndarray, combine, rows: int):
    """`combine` of every rank's `record`, in rank order, on every rank.

    Rooted at rank 0, over two barriers: every other rank sends rank 0 its
    record (as many rows as rank 0's own); rank 0 combines all P records in
    rank order and sends every other rank one record of the result, of
    `rows` rows: 2 (P - 1) records in all, and every rank holds the same
    bytes. A world of one rank returns at once, with no message and no
    barrier.
    """
    if world.size == 1:
        return combine([record])
    me, root = world.rank, 0
    if me != root:
        world.transport.send(me, root, pack_particles(kind, record))
    yield
    if me == root:
        out = combine([record if p == root else _receive(world, p, kind, len(record)) for p in range(world.size)])
        blob = pack_particles(kind, out)
        for peer in range(1, world.size):
            world.transport.send(root, peer, blob)
    yield
    if me != root:
        out = _receive(world, root, kind, rows).copy()
    return out


def balance_slabs(world: RankWorld, store: ParticleStore):
    """Move the slab cuts so each slab holds about the same particle count.

    Runs at an epoch boundary, before exchange. A world of one rank returns
    without a barrier. Each rank's load record is, per axis, a LOAD_BINS
    histogram of its local positions, wrapped into the domain; rank 0 sums
    them in rank order and sends every rank the sum (`_rooted`), so all
    ranks derive the same cuts from the same bytes. Each rank then sets the
    pattern's cuts and its ownership slab; the pattern itself, built once,
    stays, and the exchange that follows moves the particles.

    Each axis is balanced on its own marginal counts, which need not balance
    the slabs of a grid that splits more than one axis: on a 2 x 2 x 2 grid
    every axis can split the particles in half while the eight slabs do not
    (with first-edge cuts, `lj-p8-half` at seed 1 ended 80 steps at a local
    count max/mean of 1.127). The keep-if-no-better rule of `_balanced_cuts`
    hides this on a lattice, not for a fill whose density varies along two
    axes at once.
    """
    if world.size == 1:
        return
    pattern, grid = world.pattern, world.pattern.rank_grid
    hist = _load_histogram(store, world.global_box)
    total = yield from _rooted(world, WIRE_LOAD, hist, lambda parts: sum(parts, np.zeros_like(hist)), 3)
    spacing = world.domain.spacing
    pattern.cuts = tuple(_balanced_cuts(old, total[d], spacing) for d, old in enumerate(pattern.cuts))
    world.domain.ownership = [slab_bounds(world.global_box, grid, rank_grid_coords(world.rank, grid), pattern.cuts)]


def gather_displacements(world: RankWorld, displacement: float):
    """Every rank's displacement, in rank order, on every rank: one-row
    records stacked at rank 0 (`_rooted`). A world of one rank returns at
    once, without a message or a barrier."""
    out = yield from _rooted(world, WIRE_DISPLACEMENT, np.array([[displacement]]), np.concatenate, world.size)
    return out[:, 0]


def exchange(world: RankWorld, store: ParticleStore):
    """Move particles that left this rank's region to their new owners.

    Runs on every rank at an epoch boundary, one stencil round per axis: a
    local strictly outside the slab through a face goes to that face's
    neighbour, so a particle past an edge or a corner reaches the diagonal
    owner over two or three rounds. A round's compiled pass
    (`exchange_round`) picks the departures as the round starts and moves
    them through their face in place (wrapping this rank's own periodic
    images); every remote peer gets one record of its departures (position,
    then velocity), the survivors are compacted in order, and the records
    received after the barrier are appended. After the final round every
    local must lie in the slab, or ProtocolError: a particle more than one
    slab away is lost, and a NaN coordinate never departs.
    """
    store.clear_ghosts()
    me = world.rank
    faces = world.domain.packed()
    slab = kernel.address(faces, np.float64, (6,))
    for rnd in world.pattern.passes:
        rnd.run(store, slab, exchange=True)
        rows, a = rnd.work.out.reshape(-1, 6), 0
        for peer, k in zip(rnd.peers, rnd.counts.tolist()):
            if peer != me:
                world.transport.send(me, peer, pack_particles(WIRE_EXCHANGE, rows[a : a + k]))
                a += k
        store.compact_locals(rnd.work.keep[: store.n_local])
        yield
        for peer in rnd.recv_peers:
            data = _receive(world, peer, WIRE_EXCHANGE)
            store.append_locals(data[:, :3], data[:, 3:])
    h = store.positions
    i = kernel.library().first_outside(h.map_address, h.address, store.n_local, slab)
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

    A round's compiled pass (`border_round`) picks the rows [0, n) of the
    store as it starts, n its row count then, within the pattern's spacing
    of each entry's face, and writes the round's gather index and shifts.
    Every remote peer gets one border record with the rows of all of its
    entries (position plus shift), and this rank's own periodic images are
    appended in place. Later rounds scan ghosts of earlier rounds, so edge
    and corner images propagate across dimensions. A NaN coordinate is
    never a border row. `synchronize` replays the plan only on a store of
    the same counts, so its gathers stay in range.
    """
    me = world.rank
    if store.n_ghost:
        raise ProtocolError(f"rank {me}: define_borders must start with an empty ghost region")
    plan_rounds: list[_PlanRound] = []
    faces = world.domain.packed()
    slab = kernel.address(faces, np.float64, (6,))
    for rnd in world.pattern.passes:
        n, w = rnd.run(store, slab, exchange=False), rnd.work
        rows, sends, a = w.out.reshape(-1, 3), [], 0
        for peer, k in zip(rnd.peers, rnd.counts.tolist()):
            part, a = slice(a, a + k), a + k
            if peer == me:
                sends.append(_PlanSend(me, part, ghost_start=store.append_ghosts(rows[part], peer=me)))
            else:
                world.transport.send(me, peer, pack_particles(WIRE_BORDER, rows[part]))
                sends.append(_PlanSend(peer, part))
        src_idx, shift = w.src[:n].copy(), w.diff[:n].copy()
        yield
        recvs = []
        for peer in rnd.recv_peers:
            data = _receive(world, peer, WIRE_BORDER)
            recvs.append(_PlanRecv(peer, store.append_ghosts(data, peer=peer), data.shape[0]))
        plan_rounds.append(_PlanRound(src_idx, shift, sends, recvs))
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
            store.set_ghost_positions(r.ghost_start, _receive(world, r.peer, WIRE_SYNC, r.count))
