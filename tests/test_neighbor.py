import warnings

import numpy as np
import pytest

from nanopair import neighbor
from nanopair.core import AABB
from nanopair.errors import ProtocolError
from nanopair.layout import clustered_layout, column_major_layout, row_major_layout
from nanopair.neighbor import (
    _STENCIL,
    build_cell_grid,
    build_neighbor_lists,
    max_displacement_since_rebuild,
)
from nanopair.particles import ParticleStore


LAYOUTS = [row_major_layout(), column_major_layout(), clustered_layout(4), clustered_layout(8)]
LAYOUT_IDS = ["aos", "soa", "aosoa4", "aosoa8"]


def make_store(pos, n_ghost=0, layout=None):
    pos = np.asarray(pos, dtype=np.float64)
    store = ParticleStore(layout or row_major_layout(), max(len(pos), 1))
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


def floor_cells(pos, lo, r):
    """(n, 3) shell-shifted cell coordinates, floor((x - lo) / r) + 1."""
    return np.floor((np.asarray(pos) - lo) / r).astype(np.int64) + 1


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
        assert sorted(grid.members.tolist()) == list(range(400))
        want = grid.cell_id(floor_cells(pos, box.lo, 2.5))
        np.testing.assert_array_equal(grid.cell_of, want)
        counts = np.bincount(want, minlength=grid.start.size - 1)
        np.testing.assert_array_equal(grid.start, np.concatenate([[0], np.cumsum(counts)]))
        for c in range(counts.size):
            cell = grid.members[grid.start[c] : grid.start[c + 1]]
            assert np.all(np.diff(cell) > 0), "a cell's members must ascend"
            assert np.all(want[cell] == c)

    def test_nan_position_named(self):
        for row, kind in [(3, "local"), (370, "ghost")]:
            pos = np.random.default_rng(9).uniform(0, 10, size=(400, 3))
            pos[row, 1] = np.nan
            store = make_store(pos, n_ghost=50)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ProtocolError, match=rf"^{kind} particle {row} at \[.*nan"):
                    build_cell_grid(store, AABB.cube(0.0, 10.0), 2.5)

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
    """Per-local reference, from the positions alone: bin every particle by
    the floor formula, then for each local walk the stencil cells in order
    and each cell's particles in index order, apply the index rule, then the
    r^2 filter. Returns the -1 padded (n_local, width) matrix and the counts."""
    pos = store.all_positions()
    cells = {}
    for j, c in enumerate(floor_cells(pos, grid.origin, grid.cell_size)):
        cells.setdefault(tuple(c), []).append(j)
    rows = []
    for i in range(store.n_local):
        row = []
        here = floor_cells(pos[i], grid.origin, grid.cell_size)
        for step in _STENCIL:
            for j in cells.get(tuple(here + step), []):
                if j <= i if half else j == i:
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

    @pytest.mark.parametrize("n_before", [0, 5])
    def test_stale_lists_rejected(self, n_before):
        # lists built on an empty rank are stale too once the rank gains locals
        store = make_store(np.random.default_rng(3).uniform(1, 7, size=(n_before, 3)))
        grid = build_cell_grid(store, AABB.cube(0, 8), 2.8)
        lists = build_neighbor_lists(store, grid, 2.8, half=False)
        store.append_locals([[4.0, 4.0, 4.0]], [[0.0, 0.0, 0.0]])
        with pytest.raises(ProtocolError, match=f"^store has {n_before + 1} locals but lists were built for {n_before}$"):
            max_displacement_since_rebuild(store, lists)


def edge_cloud(box, r, n=301, seed=5):
    """Points of a grid box and its ghost shell, a third of them exactly on
    cell faces (lo plus multiples of r), and points on lo, on hi and near
    the outer face of the shell."""
    rng = np.random.default_rng(seed)
    lo, hi, shell = box.lo, box.hi, 0.999 * r
    pts = rng.uniform(lo - shell, hi + shell, size=(n, 3))
    faces = lo + r * rng.integers(0, int(box.extent().max() / r) + 1, size=(n // 3, 3))
    pts[: n // 3] = np.minimum(faces, hi + shell)
    pts[n // 3] = lo
    pts[n // 3 + 1] = hi
    pts[n // 3 + 2] = lo - shell
    return pts


class TestPerAxisOracles:
    """build_cell_grid and max_displacement_since_rebuild read the positions
    coordinate-major and work one axis at a time; they must give exactly
    what the (n, 3) formulas gave, on every layout."""

    BOX = AABB((-0.7, 0.2, 1.0), (9.3, 7.9, 11.6))
    R = 2.8

    @pytest.mark.parametrize("layout", LAYOUTS, ids=LAYOUT_IDS)
    def test_cell_coords_match_broadcast(self, layout):
        pos = edge_cloud(self.BOX, self.R)
        store = make_store(pos, n_ghost=37, layout=layout)
        before = store.positions.buf.copy()
        grid = build_cell_grid(store, self.BOX, self.R)
        want = np.floor((pos - self.BOX.lo) / self.R).astype(np.int64) + 1
        assert grid.coords.shape == (pos.shape[0], 3) and grid.coords.dtype == np.int64
        np.testing.assert_array_equal(grid.coords, want)
        np.testing.assert_array_equal(grid.counts, np.bincount(grid.cell_id(want), minlength=grid.counts.size))
        assert store.positions.buf.tobytes() == before.tobytes()

    @pytest.mark.parametrize("kind, row", [("local", 4), ("ghost", 300)])
    def test_far_particle_named(self, kind, row):
        pos = edge_cloud(self.BOX, self.R)
        pos[row, 1] = self.BOX.hi[1] + 2 * self.R
        store = make_store(pos, n_ghost=37)
        with pytest.raises(ProtocolError, match=rf"^{kind} particle {row} at \[.*\] lies more than one cell shell"):
            build_cell_grid(store, self.BOX, self.R)

    def test_nan_particle_rejected(self):
        pos = edge_cloud(self.BOX, self.R)
        pos[9, 2] = np.nan
        store = make_store(pos, n_ghost=37)
        with np.errstate(invalid="ignore"), pytest.raises(ProtocolError, match=r"^local particle 9 at \[.*nan\]"):
            build_cell_grid(store, self.BOX, self.R)

    @pytest.mark.parametrize("layout", LAYOUTS, ids=LAYOUT_IDS)
    def test_displacement_matches_broadcast(self, layout):
        rng = np.random.default_rng(4)
        pos = rng.uniform(1, 7, size=(45, 3))  # not a multiple of either cluster size
        store = make_store(pos, n_ghost=6, layout=layout)
        grid = build_cell_grid(store, AABB.cube(0, 8), 2.8)
        lists = build_neighbor_lists(store, grid, 2.8, half=True)
        ref = store.local_positions()
        assert lists.ref_positions.shape == (3, 39)
        np.testing.assert_array_equal(lists.ref_positions, ref.T)
        # moves of very different sizes per axis, so the order of the sum shows
        moved = ref + rng.normal(size=ref.shape) * np.exp(rng.normal(size=ref.shape) * 6)
        moved[0] = ref[0]
        moved[38] = ref[38] + [1e-300, 0.0, -1e-300]
        # y^2 and z^2 near 1.5e-16 each: added to x^2 = 1 one at a time they
        # each round up a unit, added together first they round up only one
        moved[37] = ref[37] + [1.0, 1.2247e-8, 1.2247e-8]
        store.positions.write_rows(0, moved)
        kept = (store.positions.buf.copy(), lists.ref_positions.copy())
        delta = store.local_positions() - ref
        want = float(np.sqrt((delta * delta).sum(axis=1).max()))
        assert max_displacement_since_rebuild(store, lists) == want
        assert store.positions.buf.tobytes() == kept[0].tobytes()
        assert lists.ref_positions.tobytes() == kept[1].tobytes()
        # the sum runs x, y, z in that order: (x^2 + y^2) + z^2
        dx, dy, dz = delta[37]
        assert np.sqrt((dx * dx + dy * dy) + dz * dz) != np.sqrt(dx * dx + (dy * dy + dz * dz))
        for row in [37, *rng.integers(0, 39, size=10)]:
            dx, dy, dz = delta[row]
            store.positions.write_rows(0, ref)
            store.positions.write_rows(int(row), moved[row][None, :])
            assert max_displacement_since_rebuild(store, lists) == float(np.sqrt((dx * dx + dy * dy) + dz * dz))

    def test_nan_displacement_is_nan(self):
        pos = np.random.default_rng(6).uniform(1, 7, size=(20, 3))
        store = make_store(pos)
        lists = build_neighbor_lists(store, build_cell_grid(store, AABB.cube(0, 8), 2.8), 2.8, half=False)
        moved = pos.copy()
        moved[3, 1] = np.nan
        store.positions.write_rows(0, moved)
        assert np.isnan(max_displacement_since_rebuild(store, lists))
