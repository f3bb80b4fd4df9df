"""The layout's index map and the compiled particle loops that address the
layout buffers through it: the displacement check, the ghost gather and the
ghost write, the force write-back of `compute_forces`, and the epoch's loops
(the exchange and border selections with their emitted rows, the ownership
check, the bounding box). Each must give the bits of the numpy formula on
`read_rows` copies and leave every other byte of the buffers (ghost rows,
unused rows, the padding lanes of the last cluster) as it was. The row
methods (`read_rows`, `write_rows` and the rest) are themselves compiled
loops; tests/test_layout.py checks them against `index_2d`, the index
formula in pure numpy, which makes them the reference here. The
integrators are covered in tests/test_driver.py, the compaction of the
locals in tests/test_particles.py and the load histogram in
tests/test_core.py."""

import ctypes

import numpy as np
import pytest

from nanopair import kernel
from nanopair.comm import (
    WIRE_BORDER,
    WIRE_EXCHANGE,
    WIRE_SYNC,
    MailboxTransport,
    RankDomain,
    RankWorld,
    define_borders,
    exchange,
    factor_rank_grid,
    pack_particles,
    rank_grid_coords,
    six_stencil_pattern,
    slab_bounds,
    unpack_particles,
)
from nanopair.core import AABB
from nanopair.errors import ProtocolError
from nanopair.driver import final_integrate, initial_integrate
from nanopair.layout import ArrayHandle, clustered_layout, column_major_layout, row_major_layout
from nanopair.neighbor import InnerLists, build_cell_grid, build_neighbor_lists, max_displacement_since_rebuild
from nanopair.particles import ParticleStore
from nanopair.potential import LennardJones, SpringDashpot, compute_forces

LAYOUTS = [row_major_layout(), column_major_layout(), clustered_layout(1), clustered_layout(4), clustered_layout(8)]
LAYOUT_IDS = ["aos", "soa", "aosoa1", "aosoa4", "aosoa8"]
# none a multiple of 4 or 8; the 5 ghosts after them share the last local's cluster
N_LOCAL = [3, 13, 29]
N_GHOST = 5


def random_store(layout, n_local, seed=0):
    """Locals then ghosts with random positions, velocities and forces, in a
    store with spare capacity, so unused rows and padding follow the ghosts."""
    rng = np.random.default_rng(seed)
    store = ParticleStore(layout, n_local + N_GHOST + 7)
    store.append_locals(rng.uniform(0, 10, (n_local, 3)), rng.normal(size=(n_local, 3)))
    store.append_ghosts(rng.uniform(0, 10, (N_GHOST, 3)), peer=1)
    store.forces.write_rows(0, rng.normal(size=(store.n_total, 3)))
    return store


def buffers(store):
    return [h.buf.tobytes() for h in (store.positions, store.velocities, store.forces)]


def with_rows(handle, start, rows):
    """The handle's buffer bytes with `rows` written from row `start` on, by `write_rows`."""
    want = ArrayHandle(handle.layout, handle.size_x, handle.size_y)
    want.buf[:] = handle.buf
    want.write_rows(start, rows)
    return want.buf.tobytes()


class TestIndexMap:
    @pytest.mark.parametrize(
        "layout,want",
        [
            (row_major_layout(), (0, 3, 1, 0)),
            (column_major_layout(), (62, 0, 11, 2**62 - 1)),
            (clustered_layout(1), (0, 3, 1, 0)),
            (clustered_layout(4), (2, 12, 4, 3)),
            (clustered_layout(8), (3, 24, 8, 7)),
        ],
        ids=LAYOUT_IDS,
    )
    def test_tuples(self, layout, want):
        assert ArrayHandle(layout, 11, 3).index_map == want

    @pytest.mark.parametrize("layout", LAYOUTS, ids=LAYOUT_IDS)
    @pytest.mark.parametrize("size_x,size_y", [(1, 3), (13, 3), (29, 3), (17, 4), (5, 1)])
    def test_offsets_address_the_view(self, layout, size_x, size_y):
        h = ArrayHandle(layout, size_x, size_y)
        h.buf[:] = np.arange(h.buf.size)
        shift, a, b, mask = h.index_map
        x, y = np.meshgrid(np.arange(size_x), np.arange(size_y), indexing="ij")
        offsets = (x >> shift) * a + y * b + (x & mask)
        # read_rows goes through the compiled row loop, so the buffer element
        # at each offset of the formula must be the row loop's element (x, y)
        np.testing.assert_array_equal(h.buf[offsets], h.read_rows())

    @pytest.mark.parametrize("layout", LAYOUTS, ids=LAYOUT_IDS)
    def test_addresses_taken_at_build(self, layout):
        h = ArrayHandle(layout, 13, 3)
        assert h.address == h.buf.ctypes.data
        assert ctypes.cast(h.map_address, ctypes.POINTER(ctypes.c_int64))[:4] == list(h.index_map)
        grown = h.grown(40)
        assert grown.address == grown.buf.ctypes.data != h.address


@pytest.mark.parametrize("layout", LAYOUTS, ids=LAYOUT_IDS)
@pytest.mark.parametrize("n_local", N_LOCAL)
class TestCompiledLoopsMatchNumpy:
    def test_displacement(self, layout, n_local):
        store = random_store(layout, n_local)
        rng = np.random.default_rng(1)
        ref = store.local_positions() + rng.normal(size=(n_local, 3)) * np.exp(rng.normal(size=(n_local, 3)) * 4)
        ref_t = np.ascontiguousarray(ref.T)
        d = store.local_positions() - ref
        want = np.sqrt((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]).max())
        before = buffers(store)
        h = store.positions
        got = kernel.library().max_displacement(h.map_address, h.address, kernel.address(ref_t, np.float64), n_local)
        assert got == want
        assert buffers(store) == before

    def test_nan_displacement_is_nan(self, layout, n_local):
        store = random_store(layout, n_local)
        lists = build_neighbor_lists(
            store, build_cell_grid(store, AABB((-1.0,) * 3, (11.0,) * 3), 2.8, half=True), 2.8, half=True
        )
        moved = store.local_positions()
        moved[n_local - 1, 2] = np.nan  # the last local row: a partial cluster
        store.positions.write_rows(0, moved)
        assert np.isnan(max_displacement_since_rebuild(store, lists))

    def test_ghost_gather(self, layout, n_local):
        store = random_store(layout, n_local)
        rng = np.random.default_rng(2)
        idx = rng.integers(0, store.n_total, size=2 * store.n_total)
        shift = rng.choice([-10.0, 0.0, 10.0], size=(idx.size, 3))
        want = store.positions.read_rows_at(idx)
        want += shift
        got = np.empty(want.shape)
        before = buffers(store)
        h = store.positions
        kernel.library().gather_rows(
            h.map_address, h.address, 3, kernel.address(idx, np.int64), 0, kernel.address(shift, np.float64),
            idx.size, kernel.address(got, np.float64),
        )
        np.testing.assert_array_equal(got, want)
        assert buffers(store) == before

    @pytest.mark.parametrize("wire", [False, True], ids=["aligned", "wire-payload"])
    @pytest.mark.parametrize("first,count", [(0, N_GHOST), (1, 3), (N_GHOST - 1, 1)])
    def test_ghost_write(self, layout, n_local, first, count, wire):
        store = random_store(layout, n_local)
        rows = np.random.default_rng(3).uniform(0, 10, (count, 3))
        if wire:
            # the payload after the 8-byte header is read in place
            _, rows = unpack_particles(pack_particles(WIRE_SYNC, rows))
            assert rows.flags.aligned and rows.flags.c_contiguous and not rows.flags.writeable
        start = n_local + first
        want = buffers(store)
        want[0] = with_rows(store.positions, start, rows)
        store.set_ghost_positions(start, rows)
        assert buffers(store) == want

    def test_misaligned_ghost_write_rejected(self, layout, n_local):
        # the compiled write takes rows in place and would load misaligned
        # doubles: such rows are refused, not copied
        store = random_store(layout, n_local)
        rows = np.frombuffer(bytes(5) + np.ones((2, 3)).tobytes(), offset=5).reshape(2, 3)
        before = buffers(store)
        with pytest.raises(TypeError, match="not aligned"):
            store.set_ghost_positions(n_local, rows)
        assert buffers(store) == before

    def test_ghost_write_outside_ghosts_rejected(self, layout, n_local):
        store = random_store(layout, n_local)
        before = buffers(store)
        for start, count in [(n_local - 1, 1), (n_local + 1, N_GHOST), (store.n_total, 1)]:
            with pytest.raises(IndexError, match="outside the ghost region"):
                store.set_ghost_positions(start, np.zeros((count, 3)))
        assert buffers(store) == before

    @pytest.mark.parametrize(
        "law", [LennardJones(1.0, 1.0, 2.5), SpringDashpot(stiffness=100.0, damping=3.0, diameter=6.0)],
        ids=["lj", "sd-damped"],
    )
    @pytest.mark.parametrize("half", [False, True])
    def test_force_write_back(self, layout, n_local, law, half):
        # the same particles in a row-major store give the reference bits;
        # ghosts carry forces from random_store, which must survive
        store = random_store(layout, n_local)
        aos = ParticleStore(row_major_layout(), store.capacity)
        aos.append_locals(store.local_positions(), store.local_velocities())
        aos.append_ghosts(store.positions.read_rows(n_local, N_GHOST), peer=1)
        aos.velocities.write_rows(0, store.velocities.read_rows(0, store.n_total))
        r = 2.8 if isinstance(law, LennardJones) else 6.3
        box = AABB((-1.0,) * 3, (11.0,) * 3)
        energies, forces = [], []
        for s in (aos, store):
            lists = build_neighbor_lists(s, build_cell_grid(s, box, r, half=half), r, half=half)
            assert np.any(lists.partners >= n_local)
            before = s.forces.buf.copy()
            energies.append(compute_forces(s, lists, law, accumulate_energy=True))
            forces.append(s.forces.read_rows(0, n_local))
            assert with_rows(s.forces, 0, forces[-1]) == s.forces.buf.tobytes()
            # only the local rows changed: ghosts, unused rows and padding did not
            after = s.forces.buf.copy()
            written = ArrayHandle(s.layout, s.capacity, 3)
            written.write_rows(0, np.ones((n_local, 3)))
            np.testing.assert_array_equal(after[written.buf == 0], before[written.buf == 0])
        np.testing.assert_array_equal(forces[1], forces[0])
        assert energies[1] == energies[0]


def test_no_address_taken_per_step(monkeypatch):
    """After the first force call, a step's integrators, displacement check
    and force call take no address: handles, lists and laws hold theirs."""
    store = random_store(clustered_layout(4), 13)
    lists = build_neighbor_lists(store, build_cell_grid(store, AABB((-1.0,) * 3, (11.0,) * 3), 2.8, half=True), 2.8, half=True)
    law = LennardJones()
    compute_forces(store, lists, law)
    max_displacement_since_rebuild(store, lists)

    def refuse(*args, **kwargs):
        raise AssertionError("kernel.address called during a step")

    monkeypatch.setattr(kernel, "address", refuse)
    initial_integrate(store, 0.001, 1.0)
    max_displacement_since_rebuild(store, lists)
    compute_forces(store, lists, law)
    final_integrate(store, 0.001, 1.0)


def test_no_address_taken_per_inner_step(monkeypatch):
    """A step from an inner list takes no address either: its displacement
    check over every row and its force call use the addresses the prune's
    lists hold, and the prune itself reuses its buffers' addresses."""
    store = random_store(clustered_layout(4), 13)
    inner = InnerLists(0.1)
    grid = build_cell_grid(store, AABB((-1.0,) * 3, (11.0,) * 3), 2.8, half=True)
    lists = build_neighbor_lists(store, grid, 2.8, True, inner)
    law = LennardJones()
    compute_forces(store, lists, law)
    addresses = inner.buffers(lists)

    def refuse(*args, **kwargs):
        raise AssertionError("kernel.address called during a step")

    monkeypatch.setattr(kernel, "address", refuse)
    initial_integrate(store, 0.001, 1.0)
    max_displacement_since_rebuild(store, inner.lists)
    compute_forces(store, inner.lists, law)
    final_integrate(store, 0.001, 1.0)
    assert inner.buffers(lists) is addresses


# ---------------------------------------------------------------------------
# the epoch's loops against numpy references of the formulas they replaced
# ---------------------------------------------------------------------------

EPOCH_BOX = AABB((0.0,) * 3, (12.0,) * 3)
SPACING = 2.8


def face_rows(slab, spacing):
    """Rows at the slab's centre but on one axis, where they lie exactly on a
    face, on face - spacing or on face + spacing, or one ulp to either side
    of each of those."""
    mid = (slab.lo + slab.hi) / 2
    rows = []
    for d in range(3):
        for face in (slab.lo[d], slab.hi[d]):
            for v in (face, face - spacing, face + spacing):
                for u in (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)):
                    row = mid.copy()
                    row[d] = u
                    rows.append(row)
    return np.array(rows)


class BlobTransport(MailboxTransport):
    """A mailbox that also keeps (src, dst, record bytes) of every send."""

    def __init__(self, size):
        super().__init__(size)
        self.sent = []

    def send(self, src, dst, blob):
        self.sent.append((src, dst, bytes(blob)))
        super().send(src, dst, blob)


def epoch_worlds(layout, ranks, nan_at=None, faces=True, box=EPOCH_BOX):
    """Slab worlds over `box` whose stores hold 25 random locals in the
    slab and then, with `faces`, every face row (79 in all, a multiple of no
    cluster size), with random velocities and forces, and stale rows of 5
    cleared ghosts behind them, in the last local's cluster. `nan_at` =
    (row, axis) of every store is set to NaN."""
    grid = factor_rank_grid(ranks)
    transport = BlobTransport(ranks)
    rng = np.random.default_rng(41)
    worlds, stores = [], []
    for r in range(ranks):
        slab = slab_bounds(box, grid, rank_grid_coords(r, grid))
        pos = slab.lo + rng.random((25, 3)) * slab.extent()
        if faces:
            pos = np.concatenate([pos, face_rows(slab, SPACING)])
        if nan_at is not None:
            pos[nan_at] = np.nan
        store = ParticleStore(layout, pos.shape[0] + N_GHOST + 3)
        store.append_locals(pos, rng.normal(size=pos.shape))
        store.forces.write_rows(0, rng.normal(size=pos.shape))
        store.append_ghosts(rng.uniform(0.0, 12.0, (N_GHOST, 3)), peer=r)
        store.clear_ghosts()
        stores.append(store)
        pattern = six_stencil_pattern(grid, r, box, SPACING)
        worlds.append(RankWorld(ranks, r, transport, box, RankDomain(r, [slab], SPACING), pattern))
    return worlds, stores, transport


def lockstep(gens):
    """Every phase generator to its end, one barrier at a time; their results."""
    results = [None] * len(gens)
    live = set(range(len(gens)))
    while live:
        for r in sorted(live):
            try:
                next(gens[r])
            except StopIteration as stop:
                results[r] = stop.value
                live.discard(r)
    return results


def numpy_compact(store, keep):
    """The survivors of `keep` moved up behind the first hole by a
    boolean-mask copy of each array's tail."""
    holes = np.flatnonzero(~keep)
    if holes.size:
        first = int(holes[0])
        tail = keep[first:]
        for h in (store.positions, store.velocities, store.forces):
            h.write_rows(first, h.read_rows(first, tail.size)[tail])
        store.n_local = first + int(tail.sum())


def face_of(world, entry):
    """The coordinate of an entry's face: the upper or lower bound of the
    rank's slab on the entry's axis."""
    slab = world.domain.ownership[0]
    return slab.max[entry.dim] if entry.side > 0 else slab.min[entry.dim]


def exchange_reference(world, store):
    """Numpy reference of `exchange`: per round, every entry's test on a copy
    of the locals as the round starts (x[dim] >= face upward, < face
    downward), emitted as x + shift, except across the periodic boundary
    where that leaves the global box [lo, hi): a row out through the lower
    face whose x[dim] + L reaches hi is set to lo by a row scatter and stays,
    and one out through the upper face whose x[dim] - L falls below lo comes
    up to lo. Then this rank's own images wrapped by a row scatter, one
    record per remote peer with its entries' departures in entry order, a
    boolean-mask compaction; finally the ownership check by `owns`."""
    store.clear_ghosts()
    me = world.rank
    for entries in world.pattern.rounds:
        pos, vel = store.local_positions(), store.local_velocities()
        departing = np.zeros(store.n_local, dtype=bool)
        records = {}
        for e in entries:
            c = pos[:, e.dim]
            face = face_of(world, e)
            idx = np.nonzero(c >= face if e.side > 0 else c < face)[0]
            emitted = pos[idx] + e.shift
            lo, hi = world.global_box.min[e.dim], world.global_box.max[e.dim]
            w = emitted[:, e.dim]
            if e.shift[e.dim] > 0:
                stays = w >= hi
                home = pos[idx[stays]]
                home[:, e.dim] = lo
                store.positions.write_rows_at(idx[stays], home)
                idx, emitted = idx[~stays], emitted[~stays]
            elif e.shift[e.dim] < 0:
                emitted[:, e.dim] = np.where(w < lo, lo, w)
            if e.send_to == me:
                store.positions.write_rows_at(idx, emitted)
                continue
            records.setdefault(e.send_to, []).append(np.hstack([emitted, vel[idx]]))
            departing[idx] = True
        for peer, rows in records.items():
            world.transport.send(me, peer, pack_particles(WIRE_EXCHANGE, np.concatenate(rows)))
        numpy_compact(store, ~departing)
        yield
        for peer in dict.fromkeys(e.recv_from for e in entries):
            if peer != me:
                kind, data = unpack_particles(world.transport.recv(me, peer))
                assert kind == WIRE_EXCHANGE
                if data.shape[0]:
                    store.append_locals(data[:, :3], data[:, 3:])
    bad = ~world.domain.owns(store.local_positions())
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        raise ProtocolError(
            f"rank {me}: after exchange, local particle at "
            f"{store.local_positions()[i]} is outside the ownership region"
        )


def borders_reference(world, store):
    """Numpy reference of `define_borders`: per round, every entry's test on
    a copy of all rows as the round starts (x[dim] > face - spacing upward,
    < face + spacing downward), one record per remote peer and this rank's
    own images appended, entries in entry order. Returns per round the
    gather index, the shifts (emitted - position), the sends and the
    receives of the plan."""
    me, spacing = world.rank, world.pattern.spacing
    plan = []
    for entries in world.pattern.rounds:
        pos = store.all_positions()
        groups = {}
        for e in entries:
            c = pos[:, e.dim]
            face = face_of(world, e)
            idx = np.nonzero(c > face - spacing if e.side > 0 else c < face + spacing)[0]
            groups.setdefault(e.send_to, []).append((idx, pos[idx] + e.shift))
        src, shift, sends, n = [], [], [], 0
        for peer, picked in groups.items():
            idx = np.concatenate([i for i, _ in picked])
            emitted = np.concatenate([x for _, x in picked])
            src.append(idx)
            shift.append(emitted - pos[idx])
            rows = slice(n, n + idx.size)
            n += idx.size
            if peer == me:
                sends.append((me, rows, store.append_ghosts(emitted, peer=me)))
            else:
                world.transport.send(me, peer, pack_particles(WIRE_BORDER, emitted))
                sends.append((peer, rows, -1))
        yield
        recvs = []
        for peer in dict.fromkeys(e.recv_from for e in entries):
            if peer != me:
                kind, data = unpack_particles(world.transport.recv(me, peer))
                assert kind == WIRE_BORDER
                recvs.append((peer, store.append_ghosts(data, peer=peer), data.shape[0]))
        plan.append((np.concatenate(src), np.concatenate(shift), sends, recvs))
    return plan


def same_stores(got, want):
    for g, w in zip(got, want):
        assert (g.n_local, g.n_ghost) == (w.n_local, w.n_ghost)
        assert buffers(g) == buffers(w)


def exchange_matches_reference(layout, ranks, box):
    """Exchange and its reference over `box` leave the same records and
    stores, lose no row, and on each rank holding a lower face of `box`, own
    three rows at the centre of that face: the row that was there, the row
    one ulp below it and the row from the upper face."""
    got_w, got_s, got_t = epoch_worlds(layout, ranks, box=box)
    want_w, want_s, want_t = epoch_worlds(layout, ranks, box=box)
    before = sum(s.n_local for s in got_s)
    lockstep([exchange(w, s) for w, s in zip(got_w, got_s)])
    lockstep([exchange_reference(w, s) for w, s in zip(want_w, want_s)])
    assert got_t.sent == want_t.sent
    same_stores(got_s, want_s)
    assert sum(s.n_local for s in got_s) == before
    if ranks > 1:
        assert sum(unpack_particles(b)[1].shape[0] for _, _, b in got_t.sent) > 0
    for world, store in zip(got_w, got_s):
        slab = world.domain.ownership[0]
        pos = store.local_positions()
        for d in range(3):
            if slab.min[d] == box.min[d]:
                at_face = (slab.lo + slab.hi) / 2
                at_face[d] = box.min[d]
                assert np.count_nonzero(np.all(pos == at_face, axis=1)) == 3


@pytest.mark.parametrize("layout", LAYOUTS, ids=LAYOUT_IDS)
# P = 3 (grid 3 x 1 x 1) is the one grid here whose rounds send their two entries
# to two different remote peers; P = 8 is the 2 x 2 x 2 grid
@pytest.mark.parametrize("ranks", [1, 2, 3, 4, 8])
class TestEpochLoopsMatchNumpy:
    def test_exchange(self, layout, ranks):
        # the records (selection, emitted rows, velocities, order), the
        # wrapped self-images, the compaction, every other buffer byte and
        # the ownership check. A row one ulp below a lower periodic face
        # would emerge at x + L = the upper face by rounding: it wraps to
        # the lower face and stays with its sender, which owns it there
        below = np.nextafter(EPOCH_BOX.min[0], -np.inf)
        assert below + EPOCH_BOX.extent()[0] == EPOCH_BOX.max[0]
        exchange_matches_reference(layout, ranks, EPOCH_BOX)

    def test_exchange_off_origin(self, layout, ranks):
        # off the origin, the row on an upper periodic face would also
        # emerge at x - L below the lower face: it comes up to the lower face
        box = AABB((0.1,) * 3, (12.1,) * 3)
        assert box.max[0] - box.extent()[0] < box.min[0]
        assert np.nextafter(box.min[0], -np.inf) + box.extent()[0] == box.max[0]
        exchange_matches_reference(layout, ranks, box)

    def test_define_borders(self, layout, ranks):
        # the records, the appended ghosts, and the plan's gather index,
        # shifts, sends and receives
        got_w, got_s, got_t = epoch_worlds(layout, ranks)
        want_w, want_s, want_t = epoch_worlds(layout, ranks)
        plans = lockstep([define_borders(w, s) for w, s in zip(got_w, got_s)])
        wants = lockstep([borders_reference(w, s) for w, s in zip(want_w, want_s)])
        assert got_t.sent == want_t.sent
        same_stores(got_s, want_s)
        for plan, want in zip(plans, wants):
            assert len(plan.rounds) == len(want)
            for rnd, (src, shift, sends, recvs) in zip(plan.rounds, want):
                assert rnd.src_idx.dtype == np.int64 and rnd.src_idx.tobytes() == src.tobytes()
                assert rnd.shift.shape == shift.shape and rnd.shift.tobytes() == shift.tobytes()
                assert [(s.peer, s.rows, s.ghost_start) for s in rnd.sends] == sends
                assert [(r.peer, r.ghost_start, r.count) for r in rnd.recvs] == recvs

    @pytest.mark.parametrize("axis", [0, 2])
    def test_nan_never_departs_nor_borders(self, layout, ranks, axis):
        # a NaN coordinate passes no face test: it stays, fails the
        # ownership check with the reference's message, and is never a
        # border row
        got_w, got_s, _ = epoch_worlds(layout, ranks, nan_at=(11, axis), faces=False)
        want_w, want_s, _ = epoch_worlds(layout, ranks, nan_at=(11, axis), faces=False)
        with pytest.raises(ProtocolError) as got:
            lockstep([exchange(w, s) for w, s in zip(got_w, got_s)])
        with pytest.raises(ProtocolError) as want:
            lockstep([exchange_reference(w, s) for w, s in zip(want_w, want_s)])
        assert str(got.value) == str(want.value)
        assert "nan" in str(got.value) and "outside the ownership region" in str(got.value)
        row = (30, axis)  # a face row, on the lower x face
        got_w, got_s, got_t = epoch_worlds(layout, ranks, nan_at=row)
        want_w, want_s, want_t = epoch_worlds(layout, ranks, nan_at=row)
        plans = lockstep([define_borders(w, s) for w, s in zip(got_w, got_s)])
        wants = lockstep([borders_reference(w, s) for w, s in zip(want_w, want_s)])
        assert got_t.sent == want_t.sent
        same_stores(got_s, want_s)
        for plan, want, store in zip(plans, wants, got_s):
            for rnd, (src, shift, _, _) in zip(plan.rounds, want):
                assert rnd.src_idx.tobytes() == src.tobytes() and rnd.shift.tobytes() == shift.tobytes()
            # the round of the NaN's axis picks no row with a NaN there
            pos = store.all_positions()
            assert np.isnan(pos[row]) and not np.isnan(pos[plan.rounds[axis].src_idx, axis]).any()


@pytest.mark.parametrize("layout", LAYOUTS, ids=LAYOUT_IDS)
@pytest.mark.parametrize("n_local", N_LOCAL)
class TestEpochBoxesMatchNumpy:
    def test_grid_box(self, layout, n_local):
        # locals and ghosts, the ghosts in the last local's cluster: min and
        # max per axis, as numpy's over a read_rows copy
        store = random_store(layout, n_local)
        domain = RankDomain(0, [EPOCH_BOX], SPACING)
        pos = store.all_positions()
        before = buffers(store)
        got = domain.grid_box_for(store)
        assert got == AABB.from_arrays(pos.min(axis=0), pos.max(axis=0) + 1e-9)
        assert buffers(store) == before

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_grid_box_of_nan_rejected(self, layout, n_local, axis):
        # numpy's min and max of an axis with a NaN are NaN, so the box is inverted
        store = random_store(layout, n_local)
        moved = store.all_positions()
        moved[n_local, axis] = np.nan  # the first ghost, in the last local's cluster
        store.positions.write_rows(0, moved)
        with pytest.raises(ValueError, match="inverted AABB") as got:
            RankDomain(0, [EPOCH_BOX], SPACING).grid_box_for(store)
        with pytest.raises(ValueError, match="inverted AABB") as want:
            AABB.from_arrays(moved.min(axis=0), moved.max(axis=0) + 1e-9)
        assert str(got.value) == str(want.value)

    def test_ownership_check(self, layout, n_local):
        # the first local outside the slab, as `owns` finds it; a ghost
        # outside does not count
        slab = slab_bounds(EPOCH_BOX, (2, 1, 1), (1, 0, 0))
        world = RankWorld(2, 1, MailboxTransport(2), EPOCH_BOX, RankDomain(1, [slab], SPACING),
                          six_stencil_pattern((2, 1, 1), 1, EPOCH_BOX, SPACING))
        rows = np.concatenate([face_rows(slab, SPACING), [[np.nan, 6.0, 6.0]]])
        # each candidate alone after n_local - 1 rows inside the slab
        inside = slab.lo + np.random.default_rng(8).random((n_local - 1, 3)) * slab.extent()
        for row in rows:
            store = ParticleStore(layout, n_local + N_GHOST)
            store.append_locals(np.concatenate([inside, [row]]), np.zeros((n_local, 3)))
            store.append_ghosts(np.full((N_GHOST, 3), -50.0), peer=0)
            owned = bool(world.domain.owns(row)[0])
            gen = exchange(world, store)
            world.pattern.passes = []  # the ownership check alone: no round runs
            if owned:
                assert list(gen) == []
            else:
                with pytest.raises(ProtocolError, match="outside the ownership region"):
                    next(gen)
