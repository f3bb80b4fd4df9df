"""Three-phase halo protocol over simulated ranks.

The phases, run per communication epoch:

* load balance    (worlds with more than one rank) every rank sends
                  every other rank a histogram of its particles along each
                  axis; all ranks move the slab cuts to the same
                  count-balanced positions and rebuild their pattern
* exchange        migrate ownership of particles that left their rank's
                  region (positions wrapped across periodic boundaries,
                  velocities travel along)
* border definition   pick the particles other ranks need as ghosts, ship
                  copies, and remember the plan
* synchronization replay the plan every step to refresh ghost positions

Rank programs are written as generators that ``yield`` at collective barrier
points; a runner advances all ranks one barrier at a time, so every send of a
sub-phase is posted before any matching receive runs. This holds whether the
runner drives ranks round-robin in one thread or through a pool.

Between epochs, every step, the ranks of a multi-rank world also all-gather
their largest displacement since the last rebuild (`gather_displacements`),
so that all of them can start an epoch early at the same step.

There is one domain decomposition: each rank owns a slab of a near-cubic
rank grid and talks to its six face neighbours, one round per axis.

Wire records are little-endian: u8 kind (0 exchange, 1 border, 2 sync,
4 load, 5 displacement), u32 row count, then count x width f8 payload. Kind
3 is retired and never reused, and the other numbers are kept on purpose, so
that a kind byte means the same record in every version. A row is one
particle: 6 reals (position, velocity) for exchange, 3 (position) for border
and sync. A load record has 3 rows, one per axis, of LOAD_BINS particle
counts; a displacement record has one row of one real.
"""

from __future__ import annotations

import struct
import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .core import AABB, pbc_correct
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
    that is cut short, too long or of an unknown kind."""
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
    data = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    return kind, data.reshape(count, width).astype(np.float64)


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
        """Bounding box of the store's particles, or the slab when it is empty."""
        if store.n_total == 0:
            return self.ownership[0]
        xyz = store.positions.read_transposed(0, store.n_total)
        return AABB.from_arrays(xyz.min(axis=1), xyz.max(axis=1) + 1e-9)


@dataclass
class PatternEntry:
    """One peer relation: whom to send to, whom to receive from, and the two
    position predicates. Conditions map an (n, 3) position block to
    (indices, emitted positions); emitted positions carry any periodic shift.
    """

    send_to: int
    recv_from: int
    border_cond: object
    exchange_cond: object


@dataclass
class CommPattern:
    """The face stencil: barrier-separated rounds of peer entries, one per axis.

    One round per axis lets a particle or a ghost cross an edge or a corner
    by hopping over successive faces. Within a round the two entries' exchange
    conditions are disjoint, so each particle leaves through at most one face.
    `rank_grid` and `cuts` (per-axis slab boundaries) are what the pattern was
    built on; `balance_slabs` moves the cuts and builds the next pattern.
    """

    rounds: list[list[PatternEntry]]
    rank_grid: tuple[int, int, int]
    cuts: tuple[np.ndarray, np.ndarray, np.ndarray]


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

    The exchange condition is "strictly outside my slab through this face";
    the border condition is "within spacing of this face". Both emit positions
    shifted by the domain length when the face is the periodic boundary.
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

            def make_conds(dim=dim, direction=direction, face=face, shift=shift.copy()):
                def exchange_cond(pos):
                    if direction > 0:
                        mask = pos[:, dim] >= face
                    else:
                        mask = pos[:, dim] < face
                    idx = np.nonzero(mask)[0]
                    return idx, pos[idx] + shift

                def border_cond(pos):
                    if direction > 0:
                        mask = pos[:, dim] > face - spacing
                    else:
                        mask = pos[:, dim] < face + spacing
                    idx = np.nonzero(mask)[0]
                    return idx, pos[idx] + shift

                return border_cond, exchange_cond

            border_cond, exchange_cond = make_conds()
            # the peer in the opposite direction feeds my receives for
            # this direction's traffic
            recv_coords = list(coords)
            recv_coords[dim] = (coords[dim] - direction) % rank_grid[dim]
            entries.append(
                PatternEntry(
                    send_to=peer,
                    recv_from=rank_grid_index(recv_coords, rank_grid),
                    border_cond=border_cond,
                    exchange_cond=exchange_cond,
                )
            )
        rounds.append(entries)
    return CommPattern(rounds, rank_grid=tuple(rank_grid), cuts=cuts)


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
    # wrapping the transposed view keeps each axis of the copy contiguous
    pos = pbc_correct(store.positions.read_transposed(0, store.n_local).T, box)
    lo, ext = box.lo, box.extent()
    hist = np.empty((3, LOAD_BINS))
    for d in range(3):
        bins = np.floor((pos[:, d] - lo[d]) / ext[d] * LOAD_BINS).astype(np.int64)
        hist[d] = np.bincount(np.clip(bins, 0, LOAD_BINS - 1), minlength=LOAD_BINS)
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

    Each rank sends every other rank a one-real displacement record, the way
    `balance_slabs` sends its load record, and reads theirs after one
    barrier. A world of one rank returns at once, without a message.
    """
    if world.size == 1:
        return np.array([displacement])
    me = world.rank
    blob = pack_particles(WIRE_DISPLACEMENT, np.array([[displacement]]))
    for peer in range(world.size):
        if peer != me:
            world.transport.send(me, peer, blob)
    yield
    out = np.empty(world.size)
    out[me] = displacement
    for peer in range(world.size):
        if peer == me:
            continue
        kind, data = unpack_particles(world.transport.recv(me, peer))
        if kind != WIRE_DISPLACEMENT or data.shape != (1, 1):
            raise ProtocolError(
                f"rank {me} expected a displacement record from rank {peer}, got kind {kind} "
                f"with {data.shape[0]} rows"
            )
        out[peer] = data[0, 0]
    return out


def exchange(world: RankWorld, store: ParticleStore):
    """Move particles that left this rank's region to their new owners.

    Runs on every rank at an epoch boundary, one stencil round per axis: a
    local strictly outside the slab through a face goes to that face's
    neighbour, so a particle past an edge or a corner reaches the diagonal
    owner over two or three rounds. Positions are wrapped across the periodic
    boundary in transit (in place when the neighbour is this rank itself);
    velocities travel with them. After the final round every local must lie
    in the slab, or ProtocolError: a particle more than one slab away is lost.
    """
    store.clear_ghosts()
    me = world.rank
    for entries in world.pattern.rounds:
        pos = store.local_positions()
        departing = np.zeros(store.n_local, dtype=bool)
        for entry in entries:
            idx, emitted = entry.exchange_cond(pos)
            if entry.send_to == me:
                # periodic self-image: wrap in place, nothing travels
                store.positions.write_rows_at(idx, emitted)
                continue
            vel = store.velocities.read_rows_at(idx)
            world.transport.send(
                me, entry.send_to, pack_particles(WIRE_EXCHANGE, np.hstack([emitted, vel]))
            )
            departing[idx] = True
        store.compact_locals(~departing)
        yield
        for entry in entries:
            if entry.recv_from == me:
                continue
            kind, data = unpack_particles(world.transport.recv(me, entry.recv_from))
            if kind != WIRE_EXCHANGE:
                raise ProtocolError(f"rank {me} expected exchange record, got kind {kind}")
            if data.shape[0]:
                store.append_locals(data[:, :3], data[:, 3:])
    bad = ~world.domain.owns(store.local_positions())
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        raise ProtocolError(
            f"rank {me}: after exchange, local particle at "
            f"{store.local_positions()[i]} is outside the ownership region"
        )


@dataclass
class _PlanSend:
    peer: int
    src_idx: np.ndarray  # absolute store indices (locals or earlier ghosts)
    shift: np.ndarray  # (k, 3) fixed periodic shift per entry
    ghost_start: int = -1  # set for self-entries, which deliver in place


@dataclass
class _PlanRecv:
    peer: int
    ghost_start: int
    count: int


@dataclass
class _PlanRound:
    sends: list[_PlanSend] = field(default_factory=list)
    recvs: list[_PlanRecv] = field(default_factory=list)


@dataclass
class BorderPlan:
    """Frozen border traffic: who gets which of my particles with what shift,
    and which ghost slots each peer's refresh lands in."""

    rounds: list[_PlanRound]
    n_local: int
    n_ghost: int


def define_borders(world: RankWorld, store: ParticleStore):
    """Pick border particles, materialize ghosts on the receivers, keep the plan.

    Later rounds scan ghosts created by earlier rounds, which is how edge and
    corner images propagate across dimensions under the face stencil.
    """
    me = world.rank
    if store.n_ghost:
        raise ProtocolError(f"rank {me}: define_borders must start with an empty ghost region")
    plan_rounds: list[_PlanRound] = []
    for entries in world.pattern.rounds:
        rnd = _PlanRound()
        pos = store.all_positions()
        for entry in entries:
            idx, emitted = entry.border_cond(pos)
            shift = emitted - pos[idx] if len(idx) else np.empty((0, 3))
            if entry.send_to == me:
                start = store.append_ghosts(emitted, peer=me)
                rnd.sends.append(_PlanSend(me, idx, shift, ghost_start=start))
            else:
                world.transport.send(me, entry.send_to, pack_particles(WIRE_BORDER, emitted))
                rnd.sends.append(_PlanSend(entry.send_to, idx, shift))
        yield
        for entry in entries:
            if entry.recv_from == me:
                continue
            kind, data = unpack_particles(world.transport.recv(me, entry.recv_from))
            if kind != WIRE_BORDER:
                raise ProtocolError(f"rank {me} expected border record, got kind {kind}")
            start = store.append_ghosts(data, peer=entry.recv_from)
            rnd.recvs.append(_PlanRecv(entry.recv_from, start, data.shape[0]))
        plan_rounds.append(rnd)
    return BorderPlan(plan_rounds, n_local=store.n_local, n_ghost=store.n_ghost)


def synchronize(world: RankWorld, store: ParticleStore, plan: BorderPlan):
    """Refresh every ghost position from its source, replaying the plan.

    Each ghost ends up at source position plus the shift fixed at plan time;
    multi-hop images stay exact because rounds replay in plan order.
    """
    if store.n_local != plan.n_local or store.n_ghost != plan.n_ghost:
        raise ProtocolError(
            f"rank {world.rank}: store ({store.n_local} locals, {store.n_ghost} ghosts) "
            f"does not match the border plan ({plan.n_local}, {plan.n_ghost})"
        )
    me = world.rank
    for rnd in plan.rounds:
        for s in rnd.sends:
            data = store.positions.read_rows_at(s.src_idx) + s.shift
            if s.peer == me:
                store.set_ghost_positions(s.ghost_start, data)
            else:
                world.transport.send(me, s.peer, pack_particles(WIRE_SYNC, data))
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
