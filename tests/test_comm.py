import functools
import hashlib
import inspect
import time

import numpy as np
import pytest

from nanopair import kernel
from nanopair.comm import (
    LOAD_BINS,
    WIRE_BORDER,
    WIRE_DISPLACEMENT,
    WIRE_EXCHANGE,
    WIRE_LOAD,
    WIRE_SYNC,
    MailboxTransport,
    RankDomain,
    RankWorld,
    _balanced_cuts,
    balance_slabs,
    define_borders,
    exchange,
    factor_rank_grid,
    gather_displacements,
    pack_particles,
    rank_grid_coords,
    rank_grid_index,
    six_stencil_pattern,
    slab_bounds,
    synchronize,
    uniform_cuts,
    unpack_particles,
)
from nanopair.core import AABB, SimConfig
from nanopair.driver import RankReport, rank_program
from nanopair.errors import GuardViolation, ProtocolError
from nanopair.layout import clustered_layout, column_major_layout, layout_from_config, row_major_layout
from nanopair.neighbor import build_cell_grid, build_neighbor_lists
from nanopair.particles import ParticleStore, lattice_positions
from nanopair.potential import compute_forces, law_from_config
from test_core import pbc_correct

# half-diagonal spring-dashpot packing: its particles crowd one side of x
SD = SimConfig(
    unit_cells=(6, 6, 6),
    lattice_density=1.5,
    potential_kind="sd",
    cutoff=1.0,
    fill="half-diagonal",
    half_neighbor=True,
    reneigh_interval=10,
    velocity_scale=0.5,
    steps=40,
).validate()

# miniMD's LJ setup on a small lattice (864 atoms)
LJ = SimConfig(unit_cells=(6, 6, 6), steps=40).validate()


def make_worlds(cfg, ranks, pos, vel, transport_cls=MailboxTransport, layout=None):
    box = cfg.domain()
    grid = factor_rank_grid(ranks)
    spacing = cfg.interaction_radius()
    transport = transport_cls(ranks)
    worlds, stores = [], []
    for r in range(ranks):
        slab = slab_bounds(box, grid, rank_grid_coords(r, grid))
        domain = RankDomain(rank=r, ownership=[slab], spacing=spacing)
        mine = domain.owns(pos)
        store = ParticleStore(layout or row_major_layout(), max(int(mine.sum()), 1))
        store.append_locals(pos[mine], vel[mine])
        stores.append(store)
        pattern = six_stencil_pattern(grid, r, box, spacing)
        worlds.append(RankWorld(ranks, r, transport, box, domain, pattern))
    return worlds, stores, transport


def advance(gens):
    """One barrier round; returns every rank's token (its report once finished)."""
    tokens = []
    for gen in gens:
        try:
            tokens.append(next(gen))
        except StopIteration as stop:
            tokens.append(stop.value)
    return tokens


def run_lockstep(cfg, ranks, pos, vel, after_setup=None, layout=None):
    """Every rank's program to the end; returns worlds, stores, transport and reports."""
    worlds, stores, transport = make_worlds(cfg, ranks, pos, vel, layout=layout)
    gens = [rank_program(cfg, w, s) for w, s in zip(worlds, stores)]
    while True:
        tokens = advance(gens)
        if isinstance(tokens[0], RankReport):
            assert all(isinstance(t, RankReport) for t in tokens)
            return worlds, stores, transport, tokens
        assert all(t == tokens[0] for t in tokens), tokens
        if tokens[0] == ("step", 0) and after_setup is not None:
            after_setup(worlds, stores)


def initial_state(cfg, seed=3):
    pos = lattice_positions(cfg, cfg.domain())
    vel = (np.random.default_rng(seed).random(pos.shape) - 0.5) * cfg.velocity_scale
    return pos, vel - vel.mean(axis=0)


def slab_widths(worlds):
    return np.array([w.domain.ownership[0].extent() for w in worlds])


def matched_deviation(ext, ref, got):
    """Largest |dx| (minimum image) or |dv| after pairing each particle with its nearest reference."""
    (rx, rv), (x, v) = ref, got
    d = x[:, None, :] - rx[None, :, :]
    d -= ext * np.round(d / ext)
    match = np.argmin(np.einsum("ijk,ijk->ij", d, d), axis=1)
    assert np.unique(match).size == match.size
    dx = x - rx[match]
    dx -= ext * np.round(dx / ext)
    return max(np.abs(dx).max(), np.abs(v - rv[match]).max())


def gather(stores):
    return (
        np.vstack([s.local_positions() for s in stores]),
        np.vstack([s.local_velocities() for s in stores]),
    )


def run_phase(gens):
    """Advance every rank's phase generator to its end, in lockstep; returns their results."""
    results = advance(gens)
    while not all(inspect.getgeneratorstate(g) == inspect.GEN_CLOSED for g in gens):
        results = advance(gens)
    return results


def border_plans(worlds, stores):
    """Every rank's border plan, with the transport drained."""
    return run_phase([define_borders(w, s) for w, s in zip(worlds, stores)])


INVARIANCE_CONFIGS = {
    "sd-halfdiag": SD,
    "lj-half": LJ.with_overrides(half_neighbor=True),
    "lj-full": LJ,
}


@functools.cache
def one_rank_reference(name):
    """Final (positions, velocities) and list rebuild count of the P = 1 run."""
    cfg = INVARIANCE_CONFIGS[name]
    _, stores, _, reports = run_lockstep(cfg, 1, *initial_state(cfg))
    return gather(stores), reports[0].rebuilds


class TestRankCountInvariance:
    @pytest.mark.parametrize("ranks", [3, 4, 8])
    @pytest.mark.parametrize("name", list(INVARIANCE_CONFIGS))
    def test_matches_one_rank(self, name, ranks):
        cfg = INVARIANCE_CONFIGS[name]
        ref, ref_rebuilds = one_rank_reference(name)
        _, stores, transport, reports = run_lockstep(cfg, ranks, *initial_state(cfg))
        assert transport.pending() == 0
        assert [rep.rebuilds for rep in reports] == [ref_rebuilds] * ranks
        assert matched_deviation(cfg.domain().extent(), ref, gather(stores)) <= 1e-12


@functools.cache
def aos_run(name, ranks):
    """Final (positions, velocities) of a row-major (AoS) run."""
    cfg = INVARIANCE_CONFIGS[name]
    return gather(run_lockstep(cfg, ranks, *initial_state(cfg))[1])


class TestLayoutBitIdentity:
    """A whole run gives the same bits under every layout: the layouts
    differ only in where the row views point, never in the arithmetic."""

    @pytest.mark.parametrize(
        "layout",
        [column_major_layout(), clustered_layout(4), clustered_layout(8)],
        ids=["soa", "aosoa4", "aosoa8"],
    )
    @pytest.mark.parametrize("ranks", [1, 2])
    @pytest.mark.parametrize("name", list(INVARIANCE_CONFIGS))
    def test_matches_aos(self, name, ranks, layout):
        cfg = INVARIANCE_CONFIGS[name]
        _, stores, transport, _ = run_lockstep(cfg, ranks, *initial_state(cfg), layout=layout)
        assert transport.pending() == 0
        want_x, want_v = aos_run(name, ranks)
        got_x, got_v = gather(stores)
        np.testing.assert_array_equal(got_x, want_x)
        np.testing.assert_array_equal(got_v, want_v)


class TestCountBalancedSlabs:
    def test_half_diagonal_two_ranks(self):
        pos, vel = initial_state(SD)
        spacing = SD.interaction_radius()
        counts_at_setup = []

        def after_setup(worlds, stores):
            counts_at_setup.extend(s.n_local for s in stores)
            assert np.all(slab_widths(worlds) >= spacing)

        # the uniform x cut splits the fill about 3 : 1
        uniform = make_worlds(SD, 2, pos, vel)[0]
        split = [int(w.domain.owns(pos).sum()) for w in uniform]
        assert max(split) > 2 * min(split)

        worlds, stores, transport, _ = run_lockstep(SD, 2, pos, vel, after_setup)
        # lattice planes make the split granular: every rank within 5 % of the mean
        assert sum(counts_at_setup) == pos.shape[0]
        mean = pos.shape[0] / 2
        assert all(abs(n - mean) <= 0.05 * mean for n in counts_at_setup)
        assert np.all(slab_widths(worlds) >= spacing)
        assert transport.pending() == 0

        ref_stores = run_lockstep(SD, 1, pos, vel)[1]
        dev = matched_deviation(SD.domain().extent(), gather(ref_stores), gather(stores))
        assert dev <= 1e-12

    def test_single_rank_keeps_uniform_cuts(self):
        pos, vel = initial_state(SD)
        box = SD.domain()
        worlds, _, transport, _ = run_lockstep(SD.with_overrides(steps=10), 1, pos, vel)
        assert worlds[0].domain.ownership == [slab_bounds(box, (1, 1, 1), (0, 0, 0))]
        for got, want in zip(worlds[0].pattern.cuts, uniform_cuts(box, (1, 1, 1))):
            np.testing.assert_array_equal(got, want)
        assert transport.pending() == 0

    def test_cuts_clamped_to_spacing_and_old_neighbours(self):
        old = np.array([0.0, 5.0, 10.0, 15.0, 20.0])
        hist = np.zeros(LOAD_BINS)
        hist[:8] = 125.0  # every particle crowds the low end
        new = _balanced_cuts(old, hist, 2.8)
        np.testing.assert_allclose(new, [0.0, 2.8, 7.8, 12.8, 20.0])
        assert np.all(np.diff(new) >= 2.8 - 1e-12)
        assert np.all(new[1:-1] >= old[:-2] + 2.8 - 1e-12)
        assert np.all(new[1:-1] <= old[2:] - 2.8 + 1e-12)

    def test_balanced_lattice_keeps_uniform_cuts(self):
        cfg = SimConfig(unit_cells=(6, 6, 6), steps=0).validate()
        pos, vel = initial_state(cfg)
        worlds, stores, transport, _ = run_lockstep(cfg, 8, pos, vel)
        for got, want in zip(worlds[0].pattern.cuts, uniform_cuts(cfg.domain(), (2, 2, 2))):
            np.testing.assert_array_equal(got, want)
        assert [s.n_local for s in stores] == [pos.shape[0] // 8] * 8
        assert transport.pending() == 0


class TestPerAxisOracles:
    """`owns` and `grid_box_for` test and bound boxes one axis at a time; they
    must give exactly what the (n, 3) formulas gave."""

    LAYOUTS = [row_major_layout(), column_major_layout(), clustered_layout(4), clustered_layout(8)]

    def domain(self):
        box = SD.domain()
        slab = slab_bounds(box, (2, 1, 1), (1, 0, 0))
        return RankDomain(rank=1, ownership=[slab], spacing=SD.interaction_radius())

    def test_owns_matches_broadcast(self):
        domain = self.domain()
        (slab,) = domain.ownership
        lo, hi, ext = slab.lo, slab.hi, slab.extent()
        rng = np.random.default_rng(12)
        pts = np.concatenate([
            lo + rng.uniform(-3.0, 4.0, size=(500, 3)) * ext,
            [lo, hi, np.nextafter(hi, -np.inf), np.nextafter(lo, -np.inf), [np.nan, lo[1], lo[2]]],
            lo + np.eye(3) * ext,  # on hi along one axis, on lo along the others
        ])
        before = pts.copy()
        want = np.all((pts >= lo) & (pts < hi), axis=1)
        assert 0 < want.sum() < len(pts)
        np.testing.assert_array_equal(domain.owns(pts), want)
        np.testing.assert_array_equal(domain.owns(lo), [True])
        np.testing.assert_array_equal(domain.owns(hi), [False])
        assert pts.tobytes() == before.tobytes()

    @pytest.mark.parametrize("layout", LAYOUTS, ids=["aos", "soa", "aosoa4", "aosoa8"])
    def test_grid_box_matches_broadcast(self, layout):
        domain = self.domain()
        rng = np.random.default_rng(13)
        store = ParticleStore(layout, 64)
        assert domain.grid_box_for(store) == domain.ownership[0]
        store.append_locals(rng.uniform(-5.0, 20.0, size=(29, 3)), np.zeros((29, 3)))
        store.append_ghosts(rng.uniform(-9.0, 25.0, size=(6, 3)), peer=0)
        pos = store.all_positions()
        got = domain.grid_box_for(store)
        assert got == AABB.from_arrays(pos.min(axis=0), pos.max(axis=0) + 1e-9)
        np.testing.assert_array_equal(store.all_positions(), pos)


    def test_load_histogram_matches_broadcast(self):
        pos, vel = initial_state(SD)
        worlds, stores, transport = make_worlds(SD, 2, pos, vel, layout=clustered_layout(8))
        box = SD.domain()
        lo, ext = box.lo, box.extent()
        # locals jittered (some out of the domain), then one on every bin
        # edge of every axis, and some on the faces and lengths out
        moved = stores[0].local_positions()
        moved += np.random.default_rng(14).normal(scale=0.3, size=moved.shape)
        edges = lo + ext * (np.arange(LOAD_BINS) / LOAD_BINS)[:, None]
        far = [lo - 0.1 * ext, box.hi, np.nextafter(box.hi, -np.inf), box.hi + 2.0 * ext]
        moved = np.concatenate([moved, edges, far])
        stores[0].positions.write_rows(0, moved[: stores[0].n_local])
        extra = moved[stores[0].n_local :]
        stores[0].append_locals(extra, np.zeros_like(extra))
        gen = balance_slabs(worlds[0], stores[0])
        next(gen)
        wrapped = pbc_correct(moved, box)
        bins = np.clip(np.floor((wrapped - lo) / ext * LOAD_BINS).astype(np.int64), 0, LOAD_BINS - 1)
        want = np.stack([np.bincount(bins[:, d], minlength=LOAD_BINS) for d in range(3)]).astype(np.float64)
        kind, got = unpack_particles(transport.recv(1, 0))
        assert kind == WIRE_LOAD
        np.testing.assert_array_equal(got, want)


def with_fast_particle(cfg, speed):
    """Initial state in which the sphere nearest the fill's diagonal edge
    moves at `speed` into the empty half, where it meets no other sphere."""
    pos, vel = initial_state(cfg)
    frac = (pos - cfg.domain().lo) / cfg.domain().extent()
    k = int(np.argmax(frac[:, 0] + frac[:, 1]))
    vel[k] = [speed / np.sqrt(2.0), speed / np.sqrt(2.0), 0.0]
    return pos, vel


class TestEarlyEpoch:
    """Lists that a particle outlives between scheduled epochs are rebuilt at
    once on every rank; only a one-step move of half the buffer is an error."""

    # 7 x dt = 0.035 per step, so half the buffer (0.15) is reached 5 steps
    # after a rebuild, well before the next scheduled epoch 10 steps on
    SPEED = 7.0

    @pytest.mark.parametrize("ranks", [1, 2])
    def test_fast_particle_rebuilds_early(self, ranks):
        pos, vel = with_fast_particle(SD, self.SPEED)
        _, stores, transport, reports = run_lockstep(SD, ranks, pos, vel)
        scheduled = SD.steps // SD.reneigh_interval
        assert [rep.rebuilds for rep in reports] == [reports[0].rebuilds] * ranks
        assert reports[0].rebuilds > scheduled
        # the bound was reached, and the lists never outlived the whole buffer
        assert 0.5 * SD.verlet_buffer <= max(rep.max_displacement_seen for rep in reports) < SD.verlet_buffer
        assert transport.pending() == 0
        if ranks > 1:
            ref_stores = run_lockstep(SD, 1, pos, vel)[1]
            assert matched_deviation(SD.domain().extent(), gather(ref_stores), gather(stores)) <= 1e-12

    @pytest.mark.parametrize("ranks", [1, 2])
    def test_half_buffer_in_one_step_raises(self, ranks):
        # at dt = 0.03 the fast sphere moves about 0.21 in its first step
        cfg = SD.with_overrides(dt=0.03)
        pos, vel = with_fast_particle(cfg, self.SPEED)
        with pytest.raises(GuardViolation, match=r"rank \d+, step 1: a particle of rank \d+ moved 0\.2"):
            run_lockstep(cfg, ranks, pos, vel)

    def test_zero_buffer_runs_with_a_rebuild_every_step(self):
        # the configuration SimConfig.validate() accepts without a buffer
        cfg = LJ.with_overrides(verlet_buffer=0.0, reneigh_interval=1, steps=5).validate()
        reports = run_lockstep(cfg, 1, *initial_state(cfg))[3]
        assert reports[0].rebuilds == cfg.steps


def border_mask(entry, pos, spacing):
    """Numpy reference of an entry's border test: the rows of the (n, 3)
    positions within `spacing` of its face."""
    c = pos[:, entry.dim]
    return c > entry.face - spacing if entry.side > 0 else c < entry.face + spacing


class TestWireFaults:
    def test_truncated_record_rejected(self):
        blob = pack_particles(WIRE_SYNC, np.ones((4, 3)))
        assert unpack_particles(blob)[1].shape == (4, 3)
        for cut in (blob[:-8], blob[:-3], blob[:3]):
            with pytest.raises(ProtocolError):
                unpack_particles(cut)

    def test_unknown_kind_rejected(self):
        # kind 3 is retired, and no kind above 5 exists
        for kind in (3, 6, 255):
            blob = bytes([kind]) + pack_particles(WIRE_SYNC, np.ones((1, 3)))[1:]
            with pytest.raises(ProtocolError, match=f"^wire record of unknown kind {kind}$"):
                unpack_particles(blob)

    def test_displacement_gather_rejects_other_kind(self):
        pos, vel = initial_state(SD)
        worlds, _, transport = make_worlds(SD, 2, pos, vel)
        # rank 1 sends a sync record where rank 0, the root, expects its
        # displacement; rank 0 reads it after the first barrier
        transport.send(1, 0, pack_particles(WIRE_SYNC, np.zeros((1, 3))))
        gen = gather_displacements(worlds[0], 0.01)
        assert next(gen) is None
        with pytest.raises(
            ProtocolError, match="^rank 0 expected a displacement record from rank 1, got kind 2 with 1 rows$"
        ):
            next(gen)
        # rank 0 sends a sync record where rank 1 expects the gathered
        # displacements; rank 1 reads it after the second barrier
        transport.send(0, 1, pack_particles(WIRE_SYNC, np.zeros((2, 3))))
        gen = gather_displacements(worlds[1], 0.01)
        assert next(gen) is None
        assert next(gen) is None
        with pytest.raises(
            ProtocolError, match="^rank 1 expected a displacement record from rank 0, got kind 2 with 2 rows$"
        ):
            next(gen)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_displacement_gather_rejects_wrong_length(self, rows):
        # at P = 2 rank 0 must send back a record of 2 displacements
        pos, vel = initial_state(SD)
        worlds, _, transport = make_worlds(SD, 2, pos, vel)
        transport.send(0, 1, pack_particles(WIRE_DISPLACEMENT, np.zeros((rows, 1))))
        gen = gather_displacements(worlds[1], 0.01)
        assert next(gen) is None
        assert next(gen) is None
        with pytest.raises(
            ProtocolError,
            match=f"^rank 1 expected a displacement record from rank 0, got kind 5 with {rows} rows$",
        ):
            next(gen)

    def test_displacement_gather(self):
        # P = 1 returns at once; otherwise two barriers and 2 (P - 1)
        # records, and every rank holds every displacement in rank order
        for ranks in (1, 2, 3, 8):
            pos, vel = initial_state(LJ)
            worlds, _, transport = make_worlds(LJ, ranks, pos, vel, RecordingTransport)
            disps = 0.25 + np.arange(ranks) / 7.0
            gens = [gather_displacements(w, d) for w, d in zip(worlds, disps)]
            for _ in range(0 if ranks == 1 else 2):
                assert advance(gens) == [None] * ranks
            for got in advance(gens):
                np.testing.assert_array_equal(got, disps)
            up = [(r, 0, WIRE_DISPLACEMENT, 1) for r in range(1, ranks)]
            down = [(0, r, WIRE_DISPLACEMENT, ranks) for r in range(1, ranks)]
            assert transport.records == up + down
            assert transport.pending() == 0


class RecordingTransport(MailboxTransport):
    """A mailbox that also keeps (src, dst, kind, row count) of every record
    sent and (src, dst, row) of every exchanged particle."""

    def __init__(self, size):
        super().__init__(size)
        self.records = []
        self.exchanged = []

    def send(self, src, dst, blob):
        kind, data = unpack_particles(blob)
        self.records.append((src, dst, kind, data.shape[0]))
        if kind == WIRE_EXCHANGE:
            self.exchanged.extend((src, dst, row) for row in data)
        super().send(src, dst, blob)


class TestExchangeRouting:
    """A local just below rank 0's lower x and y faces lies, across the
    periodic boundary, in the slab diagonally opposite in x and y."""

    def run_corner_exchange(self, ranks):
        pos, vel = initial_state(LJ)
        worlds, stores, transport = make_worlds(LJ, ranks, pos, vel, RecordingTransport)
        ext = LJ.domain().extent()
        p = np.array([-1e-3, -1e-3, 0.25 * ext[2]])
        stores[0].positions.write_rows(0, p[None, :])
        v = stores[0].velocities.read_rows(0, 1)[0]
        assert not np.any(worlds[0].domain.owns(p))
        run_phase([exchange(w, s) for w, s in zip(worlds, stores)])
        assert sum(s.n_local for s in stores) == pos.shape[0]
        assert transport.pending() == 0
        return worlds, stores, transport, p, v, ext

    @staticmethod
    def holders(stores, v):
        """(rank, position) of every local that carries velocity v."""
        return [
            (r, s.local_positions()[i])
            for r, s in enumerate(stores)
            for i in np.nonzero(np.all(s.local_velocities() == v, axis=1))[0]
        ]

    def test_corner_crossing_reaches_diagonal_owner(self):
        worlds, stores, transport, p, v, ext = self.run_corner_exchange(8)
        grid = (2, 2, 2)
        x_peer = rank_grid_index((1, 0, 0), grid)
        diagonal = rank_grid_index((1, 1, 0), grid)
        # the x round sends it to the x neighbour, the y round on to the diagonal owner
        hops = [(src, dst, row) for src, dst, row in transport.exchanged if np.array_equal(row[3:], v)]
        assert [(src, dst) for src, dst, _ in hops] == [(0, x_peer), (x_peer, diagonal)]
        np.testing.assert_array_equal(hops[0][2][:3], p + [ext[0], 0.0, 0.0])
        [(rank, x)] = self.holders(stores, v)
        assert rank == diagonal
        np.testing.assert_array_equal(x, p + [ext[0], ext[1], 0.0])
        assert worlds[diagonal].domain.owns(x).all()

    def test_single_rank_wraps_in_place(self):
        _, stores, transport, p, v, ext = self.run_corner_exchange(1)
        assert transport.exchanged == []
        [(rank, x)] = self.holders(stores, v)
        assert rank == 0
        np.testing.assert_array_equal(x, p + [ext[0], ext[1], 0.0])
        np.testing.assert_array_equal(stores[0].local_positions()[0], x)


class TestProtocolFaults:
    @pytest.mark.parametrize(
        "start, wrong, message",
        [
            (lambda w, s: balance_slabs(w[0], s[0]), WIRE_SYNC, "rank 0 expected load record from 1, got kind 2"),
            (lambda w, s: exchange(w[0], s[0]), WIRE_BORDER, "rank 0 expected exchange record, got kind 1"),
            (lambda w, s: define_borders(w[0], s[0]), WIRE_EXCHANGE, "rank 0 expected border record, got kind 0"),
            (
                lambda w, s: synchronize(w[0], s[0], border_plans(w, s)[0]),
                WIRE_BORDER,
                "rank 0 expected sync record, got kind 1",
            ),
        ],
        ids=["balance_slabs", "exchange", "define_borders", "synchronize"],
    )
    def test_record_of_wrong_kind_rejected(self, start, wrong, message):
        worlds, stores, transport = make_worlds(SD, 2, *initial_state(SD))
        gen = start(worlds, stores)
        # rank 0 runs the phase alone, and rank 1's first record to it is of the wrong kind
        transport.send(1, 0, pack_particles(wrong, np.empty((0, 3))))
        assert next(gen) is None
        with pytest.raises(ProtocolError, match=f"^{message}$"):
            next(gen)

    def test_sync_record_of_wrong_length_rejected(self):
        # at P = 2 both x faces of rank 1 face rank 0, so rank 0 expects one
        # sync record holding the rows of both of rank 1's x entries
        pos, vel = initial_state(SD)
        for wrong in (+1, -1):
            worlds, stores, transport = make_worlds(SD, 2, pos, vel)
            x_round = worlds[1].pattern.rounds[0]
            assert [e.send_to for e in x_round] == [0, 0]
            border = stores[1].all_positions()
            count = sum(int(border_mask(e, border, worlds[1].pattern.spacing).sum()) for e in x_round)
            plan = border_plans(worlds, stores)[0]
            assert [(r.peer, r.count) for r in plan.rounds[0].recvs] == [(1, count)]
            transport.send(1, 0, pack_particles(WIRE_SYNC, np.zeros((count + wrong, 3))))
            gen = synchronize(worlds[0], stores[0], plan)
            assert next(gen) is None
            with pytest.raises(
                ProtocolError,
                match=rf"^rank 0: sync from 1 carries {count + wrong} particles, plan expects {count}$",
            ):
                next(gen)

    def test_define_borders_rejects_existing_ghosts(self):
        worlds, stores, transport = make_worlds(SD, 2, *initial_state(SD))
        border_plans(worlds, stores)
        assert stores[1].n_ghost > 0
        with pytest.raises(ProtocolError, match="^rank 1: define_borders must start with an empty ghost region$"):
            next(define_borders(worlds[1], stores[1]))

    def test_recv_without_message_rejected(self):
        transport = MailboxTransport(2)
        message = "^rank 1 expected a message from 0 but none arrived$"
        with pytest.raises(ProtocolError, match=message):
            transport.recv(1, 0)
        # a mailbox emptied by an earlier receive is still empty
        transport.send(0, 1, pack_particles(WIRE_SYNC, np.zeros((1, 3))))
        transport.recv(1, 0)
        with pytest.raises(ProtocolError, match=message):
            transport.recv(1, 0)

    def test_synchronize_rejects_stale_plan(self):
        pos, vel = initial_state(SD)
        worlds, stores, transport = make_worlds(SD, 2, pos, vel)
        plans = border_plans(worlds, stores)
        assert transport.pending() == 0
        # a ghost that the plan does not know of
        n_local, n_ghost = stores[1].n_local, stores[1].n_ghost
        stores[1].append_ghosts(np.zeros((1, 3)), peer=0)
        with pytest.raises(
            ProtocolError,
            match=rf"rank 1: store \({n_local} locals, {n_ghost + 1} ghosts\) does not match "
            rf"the border plan \({n_local}, {n_ghost}\)",
        ):
            next(synchronize(worlds[1], stores[1], plans[1]))

    def test_exchange_rejects_particle_two_slabs_away(self):
        # at P = 3 the slabs lie along x; rank 0 sends a particle past its
        # upper face to rank 1, one slab on, though it belongs to rank 2
        pos, vel = initial_state(SD)
        worlds, stores, transport = make_worlds(SD, 3, pos, vel)
        assert factor_rank_grid(3) == (3, 1, 1)
        target = worlds[2].domain.ownership[0]
        stores[0].positions.write_rows(0, ((target.lo + target.hi) / 2)[None, :])
        gens = [exchange(w, s) for w, s in zip(worlds, stores)]
        with pytest.raises(
            ProtocolError,
            match=r"^rank 1: after exchange, local particle at .* is outside the ownership region$",
        ):
            for _ in range(10):
                advance(gens)


class TestExchangeRecords:
    """Exchange sends one record per remote peer and stencil round, holding
    the departures of all of that peer's entries."""

    @pytest.mark.parametrize("ranks", [2, 4, 8])
    def test_one_record_per_peer_and_round(self, ranks):
        pos, vel = initial_state(LJ)
        worlds, stores, transport = make_worlds(LJ, ranks, pos, vel, RecordingTransport)
        # a move of up to a third of the spacing takes locals across faces
        rng = np.random.default_rng(5)
        for s in stores:
            moved = s.local_positions() + rng.uniform(-1.0, 1.0, (s.n_local, 3)) * LJ.interaction_radius() / 3
            s.positions.write_rows(0, moved)
        gens = [exchange(w, s) for w, s in zip(worlds, stores)]
        sent = 0
        for d in range(3):
            transport.records.clear()
            advance(gens)
            want = sorted(
                (w.rank, peer)
                for w in worlds
                for peer in {e.send_to for e in w.pattern.rounds[d]} - {w.rank}
            )
            assert sorted((src, dst) for src, dst, _, _ in transport.records) == want
            assert {kind for _, _, kind, _ in transport.records} <= {WIRE_EXCHANGE}
            sent += len(want)
        advance(gens)
        # one peer per axis of width 2, two per wider axis: 24 records at P = 8
        assert sent == {2: 2, 4: 8, 8: 24}[ranks]
        assert transport.pending() == 0
        assert len(transport.exchanged) > 0
        assert sum(s.n_local for s in stores) == pos.shape[0]
        for w, s in zip(worlds, stores):
            assert w.domain.owns(s.local_positions()).all()


class TestSyncRecords:
    """Ghost sync sends one record per remote peer and stencil round, and
    leaves unmoved ghosts exactly where border definition put them."""

    @pytest.mark.parametrize("ranks", [2, 4, 8])
    def test_one_record_per_peer_and_round(self, ranks):
        pos, vel = initial_state(LJ)
        worlds, stores, transport = make_worlds(LJ, ranks, pos, vel, RecordingTransport)
        plans = border_plans(worlds, stores)
        ghosts = [s.positions.read_rows(s.n_local, s.n_ghost) for s in stores]
        gens = [synchronize(w, s, p) for w, s, p in zip(worlds, stores, plans)]
        sent = 0
        for d in range(3):
            transport.records.clear()
            advance(gens)
            want = sorted(
                (w.rank, peer)
                for w in worlds
                for peer in {e.send_to for e in w.pattern.rounds[d]} - {w.rank}
            )
            assert sorted((src, dst) for src, dst, _, _ in transport.records) == want
            assert {kind for _, _, kind, _ in transport.records} <= {WIRE_SYNC}
            sent += len(want)
        advance(gens)
        # one peer per axis of width 2, two per wider axis: 24 records at P = 8
        assert sent == {2: 2, 4: 8, 8: 24}[ranks]
        assert transport.pending() == 0
        for s, before in zip(stores, ghosts):
            np.testing.assert_array_equal(s.positions.read_rows(s.n_local, s.n_ghost), before)


class TestPhaseTimers:
    """A rank's phase timers count only its own slices: their sum never
    exceeds the time the runner spent inside that rank's program."""

    @pytest.mark.parametrize("ranks", [1, 4])
    def test_phase_sum_within_busy_time(self, ranks):
        cfg = SD.with_overrides(steps=20)
        worlds, stores, _ = make_worlds(cfg, ranks, *initial_state(cfg))
        gens = [rank_program(cfg, w, s) for w, s in zip(worlds, stores)]
        busy = np.zeros(ranks)
        reports = [None] * ranks
        while reports[0] is None:
            for r, gen in enumerate(gens):
                t0 = time.perf_counter()
                try:
                    next(gen)
                except StopIteration as stop:
                    reports[r] = stop.value
                busy[r] += time.perf_counter() - t0
        for rep, spent in zip(reports, busy):
            assert rep.timers.comm > 0
            assert rep.timers.total() <= spent


# NVE drift of the total energy per particle over 200 steps of 6^3 LJ:
# 1.378e-4 measured at every rank count and list kind before the CSR cell
# list landed (seed 3), bound set 45 % above that
ENERGY_DRIFT_PER_PARTICLE = 2e-4


def total_energy(cfg, pos, vel):
    """Kinetic plus pair potential energy of a state, from one rank's full lists."""
    worlds, stores, _ = make_worlds(cfg, 1, pos, vel)
    world, store = worlds[0], stores[0]
    run_phase([exchange(world, store)])
    run_phase([define_borders(world, store)])
    r = cfg.interaction_radius()
    grid = build_cell_grid(store, world.domain.grid_box_for(store), r)
    lists = build_neighbor_lists(store, grid, r, half=False)
    pe = compute_forces(store, lists, law_from_config(cfg), accumulate_energy=True)
    return pe + 0.5 * cfg.mass * float((vel * vel).sum())


class TestDrift:
    """Velocity Verlet on 864 LJ atoms for 200 steps, lists rebuilt every 20:
    total momentum stays put to rounding, and the total energy stays
    within the recorded NVE bound, at every rank count and list kind."""

    @pytest.mark.parametrize("half", [False, True], ids=["full", "half"])
    @pytest.mark.parametrize("ranks", [1, 2, 8])
    def test_momentum_and_energy(self, ranks, half):
        cfg = LJ.with_overrides(steps=200, half_neighbor=half)
        pos, vel = initial_state(cfg)
        n = pos.shape[0]
        _, stores, transport, reports = run_lockstep(cfg, ranks, pos, vel)
        assert transport.pending() == 0
        p0 = sum(rep.momentum_initial for rep in reports)
        p1 = sum(rep.momentum_final for rep in reports)
        assert np.abs(p1 - p0).max() / n <= 1e-12
        drift = abs(total_energy(cfg, *gather(stores)) - total_energy(cfg, pos, vel)) / n
        assert drift < ENERGY_DRIFT_PER_PARTICLE


# 6^3 versions of the three benchmark workloads: law, list kind, layout, ranks
GOLDEN_WORKLOADS = {
    "lj-p1-full": (LJ.with_overrides(half_neighbor=False, layout_kind="aos"), 1),
    "lj-p8-half": (LJ.with_overrides(half_neighbor=True, layout_kind="soa"), 8),
    "sd-halfdiag-p2": (SD.with_overrides(layout_kind="aosoa", aosoa_cluster=8), 2),
}
# The half-list hashes were re-recorded when half lists moved to the upper
# half stencil: each local pair is found once, from the local whose cell
# comes first, so half rows list their partners in a new order and the
# forces sum in that order. The pairs are the same; the full-list hash is
# unchanged.
GOLDEN_HASHES = {
    "lj-p1-full": "4de234d79d1400de",
    "lj-p8-half": "5751abd354e0c7c0",
    "sd-halfdiag-p2": "0eaa05a264d47ecf",
}


def final_state_hash(name, seed=411):
    """First 16 hex digits of sha256 over the gathered final positions and velocities."""
    cfg, ranks = GOLDEN_WORKLOADS[name]
    layout = layout_from_config(cfg.layout_kind, cfg.aosoa_cluster)
    _, stores, transport, _ = run_lockstep(cfg, ranks, *initial_state(cfg, seed), layout=layout)
    assert transport.pending() == 0
    x, v = gather(stores)
    return hashlib.sha256(x.tobytes() + v.tobytes()).hexdigest()[:16]


class TestGoldenBits:
    """A 40-step run of each benchmark workload, shrunk to 6^3, ends in the
    recorded bits. Performance changes keep these hashes; a change that alters
    the arithmetic on purpose (summation order, a new law) updates them and
    says so, with the reason, in CHANGES.md."""

    @pytest.mark.parametrize("name", list(GOLDEN_WORKLOADS))
    def test_final_state_hash(self, name):
        assert final_state_hash(name) == GOLDEN_HASHES[name]


def test_undefined_behaviour_sanitizer_keeps_bits(monkeypatch, capfd):
    """The compiled loops, built at -O1 under UBSan with every report fatal,
    run the three 6^3 golden workloads to the final states of the normal
    build, bit for bit. UBSan ends the test process with exit status 1 at a
    misaligned load (such as a double read 5 bytes into a wire record), a
    signed overflow or an out-of-range shift in any loop; output capture is
    off while the sanitized loops run, so its report reaches the terminal."""
    want = {name: final_state_hash(name) for name in GOLDEN_WORKLOADS}
    flags = [flag for flag in kernel._CC if not flag.startswith("-O")]
    sanitized = (*flags, "-O1", "-fsanitize=undefined", "-fno-sanitize-recover=all")
    kernel.library.cache_clear()
    monkeypatch.setattr(kernel, "_CC", sanitized)
    try:
        with capfd.disabled():
            got = {name: final_state_hash(name) for name in GOLDEN_WORKLOADS}
    finally:
        monkeypatch.undo()
        kernel.library.cache_clear()
    assert got == want
