import numpy as np
import pytest

from nanopair.core import SimConfig
from nanopair.layout import ArrayHandle, clustered_layout, column_major_layout, row_major_layout
from nanopair.comm import WIRE_EXCHANGE, pack_particles, unpack_particles
from nanopair.particles import ParticleStore, _rows, lattice_positions

LAYOUTS = [row_major_layout(), column_major_layout(), clustered_layout(8)]


def lattice_store(cfg, seed=42):
    """A store holding the full lattice of cfg, with velocities uniform in
    [-0.5, 0.5) times cfg.velocity_scale drawn from `seed`, then shifted
    to zero net momentum."""
    pos = lattice_positions(cfg, cfg.domain())
    vel = (np.random.default_rng(seed).random(pos.shape) - 0.5) * cfg.velocity_scale
    store = ParticleStore(row_major_layout(), len(pos))
    store.append_locals(pos, vel - vel.mean(axis=0))
    return store


def local_state(store):
    """(n_local, 6): position columns, then velocity columns."""
    return np.hstack([store.local_positions(), store.local_velocities()])


class TestCreateLattice:
    def test_32cubed_count(self):
        cfg = SimConfig(unit_cells=(32, 32, 32)).validate()
        pos = lattice_positions(cfg, cfg.domain())
        assert pos.shape[0] == 131_072

    def test_96cubed_count(self):
        cfg = SimConfig(unit_cells=(96, 96, 96)).validate()
        # count without materializing velocities
        assert lattice_positions(cfg, cfg.domain()).shape[0] == 3_538_944

    def test_single_cell(self):
        cfg = SimConfig(unit_cells=(2, 2, 2)).validate()
        cfg1 = SimConfig(unit_cells=(1, 1, 1))  # skips extent validation on purpose
        store = lattice_store(cfg1)
        assert store.n_local == 4
        assert np.all(cfg1.domain().contains(store.local_positions()))

    def test_zero_net_momentum(self):
        cfg = SimConfig(unit_cells=(4, 4, 4)).validate()
        store = lattice_store(cfg)
        np.testing.assert_allclose(store.local_velocities().sum(axis=0), 0.0, atol=1e-10)

    def test_forces_zeroed(self):
        cfg = SimConfig(unit_cells=(2, 2, 2), verlet_buffer=0.0, cutoff=1.0)
        store = lattice_store(cfg)
        assert np.all(store.forces.read_rows(0, store.n_local) == 0.0)

    def test_half_diagonal_fill(self):
        cfg = SimConfig(unit_cells=(8, 8, 8), fill="half-diagonal").validate()
        pos = lattice_positions(cfg, cfg.domain())
        full = 8 * 8 * 8 * 4
        assert 0 < pos.shape[0] < full
        ext = cfg.domain().extent()
        assert np.all(pos[:, 0] / ext[0] + pos[:, 1] / ext[1] < 1.0)

    def test_seed_reproducible(self):
        cfg = SimConfig(unit_cells=(3, 3, 3))
        a = lattice_store(cfg, seed=9)
        b = lattice_store(cfg, seed=9)
        np.testing.assert_array_equal(a.local_velocities(), b.local_velocities())


class TestRegionEditing:
    def test_append_then_remove_restores_count(self):
        store = ParticleStore(row_major_layout(), 8)
        store.append_locals(np.zeros((3, 3)), np.zeros((3, 3)))
        store.append_locals([[1.0, 2.0, 3.0]], [[0.0, 0.0, 0.0]])
        assert store.n_local == 4
        store.compact_locals(np.arange(4) != 3)
        assert store.n_local == 3

    def test_remove_last_touches_nothing_else(self):
        store = ParticleStore(row_major_layout(), 4)
        pos = np.arange(12.0).reshape(4, 3)
        store.append_locals(pos, np.zeros((4, 3)))
        store.compact_locals(np.arange(4) != 3)
        np.testing.assert_array_equal(store.local_positions(), pos[:3])

    def test_capacity_grows_geometrically(self):
        store = ParticleStore(row_major_layout(), 2)
        for i in range(40):
            store.append_locals([[float(i), 0.0, 0.0]], [[0.0, 0.0, 0.0]])
        assert store.n_local == 40
        assert store.capacity >= 40

    @pytest.mark.parametrize("lay", LAYOUTS, ids=lambda l: l.kind.value)
    def test_random_edit_sequence_matches_shadow_list(self, lay):
        # shadow oracle: plain python list of rows under the same operations
        rng = np.random.default_rng(17)
        store = ParticleStore(lay, 4)
        shadow = []
        for step in range(300):
            if shadow and rng.random() < 0.4:
                keep = rng.random(len(shadow)) < 0.8
                store.compact_locals(keep)
                shadow = [row for row, k in zip(shadow, keep) if k]
            else:
                rows = rng.normal(size=(int(rng.integers(1, 4)), 6))
                store.append_locals(rows[:, :3], rows[:, 3:])
                shadow.extend(map(tuple, rows))
            assert store.n_local == len(shadow)
        np.testing.assert_array_equal(local_state(store), np.array(shadow).reshape(-1, 6))

    @pytest.mark.parametrize("lay", LAYOUTS, ids=lambda l: l.kind.value)
    def test_append_exchange_payload_in_place(self, lay):
        # the two halves of a (k, 6) exchange payload are read by row
        # stride, not copied, and give what appending copies gives
        rows = np.random.default_rng(5).normal(size=(7, 6))
        _, data = unpack_particles(pack_particles(WIRE_EXCHANGE, rows))
        for half in (data[:, :3], data[:, 3:]):
            got, step = _rows(half)
            assert np.shares_memory(got, data) and step == 6
        got, want = ParticleStore(lay, 4), ParticleStore(lay, 4)
        got.append_locals(data[:, :3], data[:, 3:])
        want.append_locals(rows[:, :3].copy(), rows[:, 3:].copy())
        for g, w in zip((got.positions, got.velocities, got.forces), (want.positions, want.velocities, want.forces)):
            assert g.buf.tobytes() == w.buf.tobytes()
        np.testing.assert_array_equal(local_state(got), rows)

    @pytest.mark.parametrize("lay", LAYOUTS, ids=lambda l: l.kind.value)
    def test_appends_zero_forces_and_ghost_velocities(self, lay):
        # over stale rows: locals get their velocities and zero forces,
        # ghosts zero velocities and forces, and the rows behind are not written
        store = ParticleStore(lay, 8)
        for h in (store.velocities, store.forces):
            h.fill_rows(0, 8, 7.0)
        store.append_locals(np.ones((3, 3)), np.full((3, 3), 2.0))
        store.append_ghosts(np.ones((2, 3)), peer=1)
        np.testing.assert_array_equal(store.velocities.read_rows(0, 5), [[2.0] * 3] * 3 + [[0.0] * 3] * 2)
        np.testing.assert_array_equal(store.forces.read_rows(0, 5), np.zeros((5, 3)))
        for h in (store.velocities, store.forces):
            np.testing.assert_array_equal(h.read_rows(5, 3), np.full((3, 3), 7.0))

    def test_append_rejects_mismatched_rows(self):
        store = ParticleStore(row_major_layout(), 4)
        with pytest.raises(ValueError, match="2 positions but 3 velocities"):
            store.append_locals(np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError, match=r"rows of shape \(2, 4\), expected \(k, 3\)"):
            store.append_ghosts(np.zeros((2, 4)), peer=0)
        assert store.n_total == 0

    def test_ghosts_stay_contiguous_after_local_edits(self):
        # local edits need an empty ghost region, so they cannot split it
        store = ParticleStore(row_major_layout(), 4)
        store.append_locals(np.arange(9.0).reshape(3, 3), np.zeros((3, 3)))
        store.append_ghosts(np.array([[100.0, 0, 0], [200.0, 0, 0]]), peer=1)
        assert store.n_ghost == 2
        before = store.all_positions()
        with pytest.raises(RuntimeError, match="append_locals requires an empty ghost region"):
            store.append_locals([[5.0, 5.0, 5.0]], [[0.0, 0.0, 0.0]])
        with pytest.raises(RuntimeError, match="compact_locals requires an empty ghost region"):
            store.compact_locals(np.array([False, True, True]))
        assert store.n_local == 3 and store.n_ghost == 2
        np.testing.assert_array_equal(store.all_positions(), before)
        store.clear_ghosts()
        store.append_locals([[5.0, 5.0, 5.0]], [[0.0, 0.0, 0.0]])
        store.append_ghosts(np.array([[300.0, 0, 0]]), peer=1)
        ghosts = store.positions.read_rows(store.n_local, store.n_ghost)
        assert store.n_local == 4 and ghosts[:, 0].tolist() == [300.0]

    def test_compact_locals(self):
        store = ParticleStore(row_major_layout(), 6)
        pos = np.arange(18.0).reshape(6, 3)
        store.append_locals(pos, np.zeros((6, 3)))
        store.compact_locals(np.array([True, False, True, True, False, True]))
        np.testing.assert_array_equal(store.local_positions(), pos[[0, 2, 3, 5]])


@pytest.mark.parametrize(
    "lay", LAYOUTS + [clustered_layout(4), clustered_layout(1)], ids=["aos", "soa", "aosoa8", "aosoa4", "aosoa1"]
)
@pytest.mark.parametrize("holes", ["start", "middle", "end", "none", "scattered", "all"])
def test_compact_locals_matches_full_copy(lay, holes):
    """Moving only the survivors behind the first hole leaves every buffer
    byte as the full copy of all survivors would: the stale rows of cleared
    ghosts in the last local's cluster, and the padding lanes, included."""
    rng = np.random.default_rng(31)
    n = 29
    keep = np.ones(n, dtype=bool)
    keep[{"start": [0, 1], "middle": [13], "end": [27, 28], "none": [], "scattered": [3, 9, 10, 22],
          "all": slice(None)}[holes]] = False

    def filled():
        store = ParticleStore(lay, n + 3)
        store.append_locals(rng.normal(size=(n, 3)), rng.normal(size=(n, 3)))
        store.forces.write_rows(0, rng.normal(size=(n, 3)))
        store.append_ghosts(rng.normal(size=(2, 3)), peer=1)
        store.clear_ghosts()
        return store

    store = filled()
    want = [h.buf.copy() for h in (store.positions, store.velocities, store.forces)]
    for h, buf in zip((store.positions, store.velocities, store.forces), want):
        # the full-copy formula, on a handle over a copy of the buffer
        ref = ArrayHandle(h.layout, h.size_x, h.size_y)
        ref.buf[:] = buf
        ref.write_rows(0, ref.read_rows(0, n)[keep])
        buf[:] = ref.buf
    store.compact_locals(keep)
    assert store.n_local == keep.sum()
    for h, buf in zip((store.positions, store.velocities, store.forces), want):
        assert h.buf.tobytes() == buf.tobytes()


class TestLayoutInvariance:
    def test_multiset_identical_across_layouts(self):
        rng = np.random.default_rng(23)
        pos = rng.normal(size=(40, 3))
        vel = rng.normal(size=(40, 3))
        keep_first = rng.random(30) < 0.7
        keep_second = rng.random(int(keep_first.sum()) + 10) < 0.7
        want = np.hstack([pos, vel])[np.append(keep_first, np.ones(10, dtype=bool))][keep_second]
        for lay in LAYOUTS:
            store = ParticleStore(lay, 8)
            store.append_locals(pos[:30], vel[:30])
            store.compact_locals(keep_first)
            store.append_locals(pos[30:], vel[30:])
            store.compact_locals(keep_second)
            np.testing.assert_array_equal(local_state(store), want)
