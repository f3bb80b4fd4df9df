import numpy as np
import pytest

from nanopair import neighbor
from nanopair.core import AABB
from nanopair.errors import ProtocolError
from nanopair.layout import row_major_layout
from nanopair.neighbor import (
    _STENCIL,
    build_cell_grid,
    build_neighbor_lists,
    max_displacement_since_rebuild,
)
from nanopair.particles import ParticleStore


def make_store(pos, n_ghost=0):
    pos = np.asarray(pos, dtype=np.float64)
    store = ParticleStore(row_major_layout(), max(len(pos), 1))
    n_local = len(pos) - n_ghost
    store.append_locals(pos[:n_local], np.zeros((n_local, 3)))
    if n_ghost:
        store.append_ghosts(pos[n_local:], peer=0)
    return store


def brute_force_pairs(pos, r):
    """O(N^2) oracle: unordered index pairs closer than r."""
    pairs = set()
    n = len(pos)
    for i in range(n):
        delta = pos[i] - pos
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
    def test_local_in_ghost_shell_rejected(self):
        # the 27 cells around a local outside the grid's box are not all in the grid
        store = make_store([[5.0, 5.0, 5.0], [-2.4, 5.0, 5.0]])
        grid = build_cell_grid(store, AABB.cube(0.0, 10.0), 2.5)
        with pytest.raises(ProtocolError, match="local particle 1 lies in the ghost shell"):
            build_neighbor_lists(store, grid, 2.5, half=False)

    def test_grid_of_other_store_rejected(self):
        store = make_store([[5.0, 5.0, 5.0], [6.0, 5.0, 5.0]])
        grid = build_cell_grid(store, AABB.cube(0.0, 10.0), 2.5)
        store.append_ghosts(np.array([[-1.0, 5.0, 5.0]]), peer=0)
        with pytest.raises(ProtocolError, match="bins 2 particles, the store holds 3"):
            build_neighbor_lists(store, grid, 2.5, half=False)

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


def reference_lists(store, grid, r, half):
    """Per-local reference: for each local, the stencil cells in order and
    each cell's occupants in order, the index rule, then the r^2 filter.
    Returns the -1 padded (n_local, width) matrix and the counts."""
    pos = store.all_positions()
    rows = []
    for i in range(store.n_local):
        row = []
        for step in _STENCIL:
            for j in grid.occupants[grid.cell_id(grid.coords[i] + step)]:
                j = int(j)
                if j < 0 or (j <= i if half else j == i):
                    continue
                d = pos[i] - pos[j]
                if d[0] * d[0] + d[1] * d[1] + d[2] * d[2] < r * r:
                    row.append(j)
        rows.append(row)
    width = max([len(row) for row in rows] + [1])
    mat = np.full((len(rows), width), -1, dtype=np.int32)
    for i, row in enumerate(rows):
        mat[i, : len(row)] = row
    return mat, np.array([len(row) for row in rows], dtype=np.int32)


def ghost_shell(rng, n, box_len, r):
    """n points within one cell shell of the cube [0, box_len)^3, outside it."""
    pts = []
    while len(pts) < n:
        p = rng.uniform(-0.95 * r, box_len + 0.95 * r, size=3)
        if np.any((p < 0.0) | (p >= box_len)):
            pts.append(p)
    return np.array(pts)


def oracle_case(name):
    """(locals and ghosts stacked, n_ghost, box length, r) for one store shape."""
    rng = np.random.default_rng(17)
    r, box_len = 2.0, 9.0
    if name == "cloud":
        locs = rng.uniform(0.0, box_len, size=(250, 3))
        ghosts = ghost_shell(rng, 150, box_len, r)
    elif name == "clump":
        # one cell holds far more than the mean occupancy
        locs = np.vstack(
            [rng.uniform(0.0, box_len, size=(150, 3)), 4.1 + rng.uniform(0.0, 1.8, size=(120, 3))]
        )
        ghosts = ghost_shell(rng, 60, box_len, r)
    elif name == "ghost_only_cells":
        # few locals in a corner: most cells around them hold only ghosts
        locs = rng.uniform(0.0, 3.0, size=(12, 3))
        ghosts = np.vstack([rng.uniform(3.0, box_len, size=(200, 3)), ghost_shell(rng, 100, box_len, r)])
    else:  # no locals
        locs = np.zeros((0, 3))
        ghosts = ghost_shell(rng, 80, box_len, r)
    return np.vstack([locs, ghosts]), len(ghosts), box_len, r


class TestExactLists:
    """The build must give exactly the per-local reference list, partner
    order included: forces sum the row in that order."""

    @pytest.mark.parametrize("buffer", [None, 64, "largest-row"], ids=["default-blocks", "tiny-blocks", "one-row"])
    @pytest.mark.parametrize("half", [False, True])
    @pytest.mark.parametrize("name", ["cloud", "clump", "ghost_only_cells", "no_locals"])
    def test_equals_reference(self, name, half, buffer, monkeypatch):
        pos, n_ghost, box_len, r = oracle_case(name)
        store = make_store(pos, n_ghost=n_ghost)
        grid = build_cell_grid(store, AABB.cube(0.0, box_len), r)
        if buffer == "largest-row":
            # the row with the most candidates fills the buffer exactly
            cells = grid.cell_id(grid.coords[: store.n_local, None, :] + _STENCIL)
            buffer = int(grid.counts[cells].sum(axis=1).max(initial=0))
        if buffer is not None:
            # 64 holds one or two rows per call; a row with more candidates
            # gets a buffer of its own size
            monkeypatch.setattr(neighbor, "_LIST_BUFFER", buffer)
        lists = build_neighbor_lists(store, grid, r, half=half)
        want_mat, want_counts = reference_lists(store, grid, r, half)
        np.testing.assert_array_equal(lists.as_matrix(), want_mat)
        np.testing.assert_array_equal(lists.counts, want_counts)
        assert lists.indices.size_y == want_mat.shape[1]
        if name == "clump":
            occupied = grid.counts[grid.counts > 0]
            assert grid.counts.max() > 4 * occupied.mean()


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
        p = store.positions.read_rows(7, 1)
        p[0, 0] += 0.125
        store.positions.write_rows(7, p)
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
