import numpy as np
import pytest

from nanopair.backend import SerialBackend
from nanopair.comm import (
    LOAD_BINS,
    WIRE_SYNC,
    MailboxTransport,
    RankDomain,
    RankWorld,
    _balanced_cuts,
    define_borders,
    exchange,
    factor_rank_grid,
    gather_displacements,
    pack_particles,
    rank_grid_coords,
    six_stencil_pattern,
    slab_bounds,
    synchronize,
    uniform_cuts,
    unpack_particles,
)
from nanopair.core import SimConfig
from nanopair.driver import RankReport, rank_program
from nanopair.errors import GuardViolation, ProtocolError
from nanopair.layout import row_major_layout
from nanopair.particles import ParticleStore, lattice_positions

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


def make_worlds(cfg, ranks, pos, vel):
    box = cfg.domain()
    grid = factor_rank_grid(ranks)
    spacing = cfg.interaction_radius()
    transport = MailboxTransport(ranks)
    worlds, stores = [], []
    for r in range(ranks):
        slab = slab_bounds(box, grid, rank_grid_coords(r, grid))
        domain = RankDomain(rank=r, ownership=[slab], spacing=spacing)
        mine = domain.owns(pos)
        store = ParticleStore(row_major_layout(), max(int(mine.sum()), 1))
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


def run_lockstep(cfg, ranks, pos, vel, after_setup=None):
    """Every rank's program to the end; returns worlds, stores, transport and reports."""
    worlds, stores, transport = make_worlds(cfg, ranks, pos, vel)
    gens = [rank_program(cfg, w, s, backend=SerialBackend()) for w, s in zip(worlds, stores)]
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


class TestWireFaults:
    def test_truncated_record_rejected(self):
        blob = pack_particles(WIRE_SYNC, np.ones((4, 3)))
        assert unpack_particles(blob)[1].shape == (4, 3)
        for cut in (blob[:-8], blob[:-3], blob[:3]):
            with pytest.raises(ProtocolError):
                unpack_particles(cut)

    def test_displacement_gather_rejects_other_kind(self):
        pos, vel = initial_state(SD)
        worlds, _, transport = make_worlds(SD, 2, pos, vel)
        # rank 1 sends a sync record where rank 0 expects its displacement
        transport.send(1, 0, pack_particles(WIRE_SYNC, np.zeros((1, 3))))
        gen = gather_displacements(worlds[0], 0.01)
        assert next(gen) is None
        with pytest.raises(ProtocolError, match="rank 0 expected a displacement record from rank 1, got kind 2"):
            next(gen)

    def test_displacement_gather(self):
        pos, vel = initial_state(SD)
        worlds, _, transport = make_worlds(SD, 2, pos, vel)
        gens = [gather_displacements(w, d) for w, d in zip(worlds, (0.25, 0.5))]
        assert advance(gens) == [None, None]
        for got in advance(gens):
            np.testing.assert_array_equal(got, [0.25, 0.5])
        assert transport.pending() == 0


class TestProtocolFaults:
    def test_synchronize_rejects_stale_plan(self):
        pos, vel = initial_state(SD)
        worlds, stores, transport = make_worlds(SD, 2, pos, vel)
        gens = [define_borders(w, s) for w, s in zip(worlds, stores)]
        plans = advance(gens)
        while any(p is None for p in plans):
            plans = advance(gens)
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
