import numpy as np
import pytest

from nanopair.core import AABB, minimum_image
from nanopair.errors import ProtocolError
from nanopair.layout import column_major_layout, row_major_layout
from nanopair.neighbor import build_cell_grid, build_neighbor_lists, max_displacement_since_rebuild
from nanopair.particles import ParticleStore


def make_store(pos, n_ghost=0):
    pos = np.asarray(pos, dtype=np.float64)
    store = ParticleStore(row_major_layout(), max(len(pos), 1))
    n_local = len(pos) - n_ghost
    store.append_locals(pos[:n_local], np.zeros((n_local, 3)))
    if n_ghost:
        store.append_ghosts(pos[n_local:], peer=0)
    return store


def brute_force_pairs(pos, r, box=None):
    """O(N^2) oracle: unordered index pairs closer than r (min-image if box given)."""
    pairs = set()
    n = len(pos)
    for i in range(n):
        delta = pos[i] - pos
        if box is not None:
            delta = minimum_image(delta, box)
        rsq = (delta * delta).sum(axis=1)
        for j in range(i + 1, n):
            if rsq[j] < r * r:
                pairs.add((i, j))
    return pairs


class TestCellGrid:
    def test_floor_binning_example(self):
        box = AABB.cube(0.0, 8.4)
        store = make_store([[5.7, 0.1, 0.2]])
        grid = build_cell_grid(store, box, 2.8)
        np.testing.assert_array_equal(grid.coords[0] - 1, [2, 0, 0])

    def test_boundary_goes_to_higher_cell(self):
        box = AABB.cube(0.0, 8.4)
        store = make_store([[2.8, 0.0, 0.0]])
        grid = build_cell_grid(store, box, 2.8)
        assert grid.coords[0][0] - 1 == 1

    def test_every_particle_binned_once(self):
        rng = np.random.default_rng(8)
        box = AABB.cube(0.0, 10.0)
        pos = rng.uniform(0, 10, size=(400, 3))
        store = make_store(pos, n_ghost=50)
        grid = build_cell_grid(store, box, 2.5)
        assert int(grid.counts.sum()) == 400
        binned = grid.occupants[grid.occupants >= 0]
        assert sorted(binned.tolist()) == list(range(400))

    def test_ghost_shell_accepted_beyond_rejected(self):
        box = AABB.cube(0.0, 10.0)
        store = make_store([[5.0, 5.0, 5.0], [-2.4, 5.0, 5.0]], n_ghost=1)
        build_cell_grid(store, box, 2.5)  # ghost within one shell: fine
        bad = make_store([[5.0, 5.0, 5.0], [-2.6, 5.0, 5.0]], n_ghost=1)
        with pytest.raises(ProtocolError):
            build_cell_grid(bad, box, 2.5)


class TestNeighborLists:
    def test_pair_within_radius(self):
        box = AABB.cube(0.0, 12.0)
        r = 2.0
        store = make_store([[5.0, 5.0, 5.0], [5.0 + 0.9 * r, 5.0, 5.0]])
        grid = build_cell_grid(store, box, r)
        full = build_neighbor_lists(store, grid, r, half=False)
        assert full.counts.tolist() == [1, 1]
        half = build_neighbor_lists(store, grid, r, half=True)
        assert sorted(half.counts.tolist()) == [0, 1]

    def test_pair_beyond_radius(self):
        box = AABB.cube(0.0, 12.0)
        r = 2.0
        store = make_store([[5.0, 5.0, 5.0], [5.0 + 1.1 * r, 5.0, 5.0]])
        grid = build_cell_grid(store, box, r)
        lists = build_neighbor_lists(store, grid, r, half=False)
        assert lists.counts.tolist() == [0, 0]

    @pytest.mark.parametrize("half", [False, True])
    def test_random_cloud_matches_brute_force(self, half):
        rng = np.random.default_rng(21)
        box = AABB.cube(0.0, 9.0)
        r = 2.1
        pos = rng.uniform(0, 9, size=(300, 3))
        store = make_store(pos)
        grid = build_cell_grid(store, box, r)
        lists = build_neighbor_lists(store, grid, r, half=half)
        got = lists.pairs()
        got_unordered = {(min(i, j), max(i, j)) for i, j in got}
        want = brute_force_pairs(pos, r)
        assert got_unordered == want
        if half:
            assert len(got) == len(want)  # exactly one ordered copy per pair
            assert np.all(got[:, 0] < got[:, 1])
        else:
            assert len(got) == 2 * len(want)

    def test_half_symmetry_partition(self):
        rng = np.random.default_rng(13)
        box = AABB.cube(0.0, 8.0)
        pos = rng.uniform(0, 8, size=(256, 3))
        store = make_store(pos)
        grid = build_cell_grid(store, box, 2.8)
        half = build_neighbor_lists(store, grid, 2.8, half=True)
        seen = {}
        for i, j in half.pairs():
            key = (min(i, j), max(i, j))
            assert key not in seen, "pair stored twice in half mode"
            seen[key] = True

    def test_full_mode_symmetric(self):
        rng = np.random.default_rng(14)
        box = AABB.cube(0.0, 8.0)
        pos = rng.uniform(0, 8, size=(200, 3))
        store = make_store(pos)
        grid = build_cell_grid(store, box, 2.8)
        full = build_neighbor_lists(store, grid, 2.8, half=False)
        pairs = {(i, j) for i, j in full.pairs()}
        assert all((j, i) in pairs for i, j in pairs)

    def test_ghost_pairs_stored_on_local(self):
        box = AABB.cube(0.0, 10.0)
        r = 2.0
        store = make_store([[9.5, 5.0, 5.0], [10.5, 5.0, 5.0]], n_ghost=1)
        grid = build_cell_grid(store, box, r)
        half = build_neighbor_lists(store, grid, r, half=True)
        assert half.counts.tolist() == [1]
        assert half.as_matrix()[0, 0] == 1

    def test_deterministic_rebuild(self):
        rng = np.random.default_rng(3)
        box = AABB.cube(0.0, 8.0)
        pos = rng.uniform(0, 8, size=(150, 3))
        store = make_store(pos)
        grid = build_cell_grid(store, box, 2.8)
        a = build_neighbor_lists(store, grid, 2.8, half=True)
        b = build_neighbor_lists(store, grid, 2.8, half=True)
        np.testing.assert_array_equal(a.as_matrix(), b.as_matrix())
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_capacity_regrow(self):
        # a dense clump sizes the list to its largest count in one pass
        rng = np.random.default_rng(5)
        pos = 5.0 + rng.uniform(-0.1, 0.1, size=(60, 3))
        box = AABB.cube(0.0, 10.0)
        store = make_store(pos)
        grid = build_cell_grid(store, box, 2.5)
        lists = build_neighbor_lists(store, grid, 2.5, half=False)
        assert lists.counts.tolist() == [59] * 60
        assert lists.indices.size_y == 59

    def test_neighbor_major_layout_round_trips(self):
        rng = np.random.default_rng(6)
        pos = rng.uniform(0, 8, size=(100, 3))
        box = AABB.cube(0.0, 8.0)
        store = make_store(pos)
        grid = build_cell_grid(store, box, 2.8)
        a = build_neighbor_lists(store, grid, 2.8, half=True)
        b = build_neighbor_lists(store, grid, 2.8, half=True, list_layout=column_major_layout())
        np.testing.assert_array_equal(a.as_matrix(), b.as_matrix())


class TestDisplacement:
    def test_zero_after_build(self):
        store = make_store(np.random.default_rng(0).uniform(0, 8, size=(50, 3)))
        grid = build_cell_grid(store, AABB.cube(0, 8), 2.8)
        lists = build_neighbor_lists(store, grid, 2.8, half=False)
        assert max_displacement_since_rebuild(store, lists) == 0.0

    def test_single_mover(self):
        pos = np.random.default_rng(1).uniform(1, 7, size=(50, 3))
        store = make_store(pos)
        grid = build_cell_grid(store, AABB.cube(0, 8), 2.8)
        lists = build_neighbor_lists(store, grid, 2.8, half=False)
        p = store.positions.get_vec3(7)
        p[0] += 0.125
        store.positions.set_vec3(7, p)
        assert max_displacement_since_rebuild(store, lists) == pytest.approx(0.125)

    def test_random_walk_triangle_inequality(self):
        rng = np.random.default_rng(2)
        pos = rng.uniform(1, 7, size=(30, 3))
        store = make_store(pos)
        grid = build_cell_grid(store, AABB.cube(0, 8), 2.8)
        lists = build_neighbor_lists(store, grid, 2.8, half=False)
        k, s = 12, 0.05
        for _ in range(k):
            step = rng.normal(size=(30, 3))
            step *= s / np.linalg.norm(step, axis=1)[:, None]
            store.positions.write_rows(0, store.local_positions() + step)
        assert max_displacement_since_rebuild(store, lists) <= k * s + 1e-12
