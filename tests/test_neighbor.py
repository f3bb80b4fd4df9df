import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanopair import neighbor
from nanopair.core import AABB, SimConfig
from nanopair.errors import ProtocolError
from nanopair.layout import clustered_layout, column_major_layout, row_major_layout
from nanopair.neighbor import (
    build_cell_grid,
    build_neighbor_lists,
    max_displacement_since_rebuild,
)
from nanopair.particles import ParticleStore, lattice_positions


LAYOUTS = [row_major_layout(), column_major_layout(), clustered_layout(4), clustered_layout(8)]
LAYOUT_IDS = ["aos", "soa", "aosoa4", "aosoa8"]

# cells per interaction radius: 1 (edge r) and 2 (edge r/2)
SHELLS = [1, 2]


def force_shell(monkeypatch, shell):
    """Make build_cell_grid pick `shell` cells per r whatever the density."""
    monkeypatch.setattr(neighbor, "_DENSE", 0.0 if shell == 2 else np.inf)


def make_store(pos, n_ghost=0, layout=None):
    pos = np.asarray(pos, dtype=np.float64)
    store = ParticleStore(layout or row_major_layout(), max(len(pos), 1))
    n_local = len(pos) - n_ghost
    store.append_locals(pos[:n_local], np.zeros((n_local, 3)))
    if n_ghost:
        store.append_ghosts(pos[n_local:], peer=0)
    return store


def cell_coords(grid):
    """(n_total, 3) shell-shifted cell coordinates, decoded from grid.cell_of."""
    return np.column_stack(np.unravel_index(grid.cell_of, grid.shell_dims))


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


def floor_cells(pos, lo, edge, shell=1):
    """(n, 3) shell-shifted cell coordinates, floor((x - lo) / edge) + shell."""
    return np.floor((np.asarray(pos) - lo) / edge).astype(np.int64) + shell


class TestCellGrid:
    """Binning at both cell edges: r (one shell cell per r) and r/2 (two)."""

    def test_floor_binning_example(self, monkeypatch):
        box = AABB.cube(0.0, 8.4)
        store = make_store([[5.7, 0.1, 0.2]])
        for shell, want in [(1, [2, 0, 0]), (2, [4, 0, 0])]:
            force_shell(monkeypatch, shell)
            grid = build_cell_grid(store, box, 2.8)
            assert grid.shell == shell and grid.cell_size == 2.8 / shell
            np.testing.assert_array_equal(cell_coords(grid)[0] - shell, want)

    def test_boundary_goes_to_higher_cell(self, monkeypatch):
        box = AABB.cube(0.0, 8.4)
        store = make_store([[2.8, 1.4, 0.0]])
        for shell, want in [(1, [1, 0, 0]), (2, [2, 1, 0])]:
            force_shell(monkeypatch, shell)
            grid = build_cell_grid(store, box, 2.8)
            np.testing.assert_array_equal(cell_coords(grid)[0] - shell, want)

    def test_every_particle_binned_once(self, monkeypatch):
        rng = np.random.default_rng(8)
        box = AABB.cube(0.0, 10.0)
        pos = rng.uniform(0, 10, size=(400, 3))
        store = make_store(pos, n_ghost=50)
        for shell in SHELLS:
            force_shell(monkeypatch, shell)
            grid = build_cell_grid(store, box, 2.5)
            assert sorted(grid.members.tolist()) == list(range(400))
            want = grid.cell_id(floor_cells(pos, box.lo, 2.5 / shell, shell))
            np.testing.assert_array_equal(grid.cell_of, want)
            counts = np.bincount(want, minlength=grid.start.size - 1)
            np.testing.assert_array_equal(grid.start, np.concatenate([[0], np.cumsum(counts)]))
            for c in range(counts.size):
                cell = grid.members[grid.start[c] : grid.start[c + 1]]
                assert np.all(np.diff(cell) > 0), "a cell's members must ascend"
                assert np.all(want[cell] == c)
            # the cell-ordered copy is the positions gathered in member order, bit for bit
            assert grid.sorted_positions.tobytes() == pos[grid.members].T.copy().tobytes()

    def test_half_grid_bins_locals_and_ghosts_apart(self, monkeypatch):
        # key c holds the locals of cell c, key n_cells + c its ghosts, each
        # in index order, and slot[i] is local i's offset in members
        rng = np.random.default_rng(8)
        box = AABB.cube(0.0, 10.0)
        pos = rng.uniform(0, 10, size=(400, 3))
        store = make_store(pos, n_ghost=50)
        for shell in SHELLS:
            force_shell(monkeypatch, shell)
            grid = build_cell_grid(store, box, 2.5, half=True)
            assert grid.half and grid.n_local == 350
            n_cells = grid.n_cells
            cell = grid.cell_id(floor_cells(pos, box.lo, 2.5 / shell, shell))
            np.testing.assert_array_equal(grid.cell_of, cell)
            key = cell + np.where(np.arange(400) < 350, 0, n_cells)
            counts = np.bincount(key, minlength=2 * n_cells)
            np.testing.assert_array_equal(grid.start, np.concatenate([[0], np.cumsum(counts)]))
            np.testing.assert_array_equal(grid.members, np.argsort(key, kind="stable"))
            assert grid.slot.dtype == np.int64
            np.testing.assert_array_equal(grid.members[grid.slot], np.arange(350))
            assert grid.sorted_positions.tobytes() == pos[grid.members].T.copy().tobytes()
            full = build_cell_grid(store, box, 2.5)
            assert not full.half and full.start.size == n_cells + 1 and full.slot.size == 0

    @pytest.mark.parametrize("n_ghost", [0, 50, 400])
    def test_half_grid_describes_whole_cells(self, n_ghost, monkeypatch):
        # counts and occupants count locals and ghosts together, whichever
        # kind the grid was binned for (the tracer reads both)
        rng = np.random.default_rng(10)
        pos = rng.uniform(0, 10, size=(400, 3))
        store = make_store(pos, n_ghost=n_ghost)
        for shell in SHELLS:
            force_shell(monkeypatch, shell)
            half = build_cell_grid(store, AABB.cube(0.0, 10.0), 2.5, half=True)
            full = build_cell_grid(store, AABB.cube(0.0, 10.0), 2.5)
            np.testing.assert_array_equal(half.counts, full.counts)
            assert half.counts.size == full.n_cells
            occupants = half.occupants
            np.testing.assert_array_equal(occupants, full.occupants)
            for c in range(full.n_cells):
                cell = full.members[full.start[c] : full.start[c + 1]]
                assert occupants[c][occupants[c] >= 0].tolist() == cell.tolist()

    def test_nan_position_named(self):
        for row, kind in [(3, "local"), (370, "ghost")]:
            pos = np.random.default_rng(9).uniform(0, 10, size=(400, 3))
            pos[row, 1] = np.nan
            store = make_store(pos, n_ghost=50)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ProtocolError, match=rf"^{kind} particle {row} at \[.*nan"):
                    build_cell_grid(store, AABB.cube(0.0, 10.0), 2.5)

    def test_ghost_shell_accepted_beyond_rejected(self, monkeypatch):
        # the shell is r wide at either edge: a ghost just inside r of the
        # box is binned, one just beyond r is not, on both sides of each axis
        box = AABB.cube(0.0, 10.0)
        for shell in SHELLS:
            force_shell(monkeypatch, shell)
            for axis, side in itertools.product(range(3), (-1, 1)):
                face = 0.0 if side < 0 else 10.0
                for offset, ok in [(2.4, True), (2.6, False)]:
                    ghost = [5.0, 5.0, 5.0]
                    ghost[axis] = face + side * offset
                    store = make_store([[5.0, 5.0, 5.0], ghost], n_ghost=1)
                    if ok:
                        grid = build_cell_grid(store, box, 2.5)
                        assert cell_coords(grid)[1][axis] in (0, grid.shell_dims[axis] - 1)
                    else:
                        with pytest.raises(ProtocolError, match=r"^ghost particle 1 at .* beyond the ghost shell \(r = 2.5 wide\)"):
                            build_cell_grid(store, box, 2.5)

    def test_edge_follows_density(self):
        # miniMD's FCC lattice at rho = 0.8442 and r = 2.8 holds about 18
        # particles per r^3: cells of edge r/2. The half-diagonal SD fill
        # (rho = 1.5 on half the box, r = 1.3) holds about 2: cells of edge r
        lj = SimConfig(unit_cells=(6, 6, 6)).validate()
        sd = SimConfig(
            unit_cells=(6, 6, 6), lattice_density=1.5, potential_kind="sd", cutoff=1.0, fill="half-diagonal"
        ).validate()
        for cfg, shell in [(lj, 2), (sd, 1)]:
            pos = lattice_positions(cfg, cfg.domain())
            r = cfg.interaction_radius()
            grid = build_cell_grid(make_store(pos), AABB.from_arrays(pos.min(axis=0), pos.max(axis=0) + 1e-9), r)
            assert grid.shell == shell and grid.cell_size == r / shell


class TestNeighborLists:
    def test_local_in_ghost_shell_rejected(self, monkeypatch):
        # the stencil's cells around a local outside the grid's box are not all in the grid
        for shell, x in itertools.product(SHELLS, (-2.4, -0.1, 10.0, 12.4)):
            force_shell(monkeypatch, shell)
            store = make_store([[5.0, 5.0, 5.0], [x, 5.0, 5.0]])
            grid = build_cell_grid(store, AABB.cube(0.0, 10.0), 2.5)
            with pytest.raises(ProtocolError, match="local particle 1 lies in the ghost shell"):
                build_neighbor_lists(store, grid, 2.5, half=False)

    @pytest.mark.parametrize("half", [False, True])
    def test_shell_local_is_first_local_in_shell(self, half, monkeypatch):
        # the grid names the first local outside its interior cells (of two,
        # on different axes and sides), and never a ghost: ghosts belong there
        for shell in SHELLS:
            force_shell(monkeypatch, shell)
            box = AABB.cube(0.0, 10.0)
            locals_ = [[5.0, 5.0, 5.0], [5.0, 5.0, 7.0], [5.0, -0.1, 5.0], [5.0, 5.0, 10.2]]
            ghost = [[-1.0, 5.0, 5.0]]
            assert build_cell_grid(make_store(locals_ + ghost, n_ghost=1), box, 2.5, half).shell_local == 2
            assert build_cell_grid(make_store(locals_[:2] + ghost, n_ghost=1), box, 2.5, half).shell_local == -1

    def test_grid_of_other_store_rejected(self):
        store = make_store([[5.0, 5.0, 5.0], [6.0, 5.0, 5.0]])
        grid = build_cell_grid(store, AABB.cube(0.0, 10.0), 2.5)
        store.append_ghosts(np.array([[-1.0, 5.0, 5.0]]), peer=0)
        with pytest.raises(ProtocolError, match="bins 2 particles, the store holds 3"):
            build_neighbor_lists(store, grid, 2.5, half=False)

    @pytest.mark.parametrize("half", [False, True])
    def test_grid_of_other_local_count_rejected(self, half):
        pos = [[5.0, 5.0, 5.0], [6.0, 5.0, 5.0], [-1.0, 5.0, 5.0]]
        grid = build_cell_grid(make_store(pos, n_ghost=1), AABB.cube(0.0, 10.0), 2.5, half=half)
        with pytest.raises(ProtocolError, match="^the cell grid bins 2 locals, the store holds 3$"):
            build_neighbor_lists(make_store(pos), grid, 2.5, half=half)

    @pytest.mark.parametrize("half", [False, True])
    def test_grid_of_other_kind_rejected(self, half):
        # half lists on a full grid would miss the ghosts of lower cells;
        # full lists on a half grid would miss every local of lower cells
        store = make_store([[5.0, 5.0, 5.0], [6.0, 5.0, 5.0], [-1.0, 5.0, 5.0]], n_ghost=1)
        grid = build_cell_grid(store, AABB.cube(0.0, 10.0), 2.5, half=not half)
        want, got = ("half", "full") if half else ("full", "half")
        with pytest.raises(ProtocolError, match=f"^{want} lists need a cell grid binned for {want} lists, not for {got} lists$"):
            build_neighbor_lists(store, grid, 2.5, half=half)

    def test_pair_within_radius(self):
        box = AABB.cube(0.0, 12.0)
        r = 2.0
        store = make_store([[5.0, 5.0, 5.0], [5.0 + 0.9 * r, 5.0, 5.0]])
        full = build_neighbor_lists(store, build_cell_grid(store, box, r), r, half=False)
        assert full.counts.tolist() == [1, 1]
        half = build_neighbor_lists(store, build_cell_grid(store, box, r, half=True), r, half=True)
        assert sorted(half.counts.tolist()) == [0, 1]

    @pytest.mark.parametrize("shell", SHELLS)
    def test_half_pair_on_row_of_lower_cell(self, shell, monkeypatch):
        # local 1 lies one cell below local 0 in x (x = 4 is a cell face at
        # both edges): the pair is found once, from local 1's cell, so row 1
        # names the lower index 0
        force_shell(monkeypatch, shell)
        r = 2.0
        store = make_store([[4.1, 5.0, 5.0], [3.9, 5.0, 5.0], [4.0, 5.0, 6.0]])
        lists = build_neighbor_lists(store, build_cell_grid(store, AABB.cube(0.0, 12.0), r, half=True), r, half=True)
        rows = [lists.partners[lists.start[i] : lists.start[i + 1]].tolist() for i in range(3)]
        assert sorted(rows[1]) == [0, 2] and rows[0] == [2] and rows[2] == []

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
        grid = build_cell_grid(store, box, r, half=half)
        lists = build_neighbor_lists(store, grid, r, half=half)
        got = lists.pairs()
        got_unordered = {(min(i, j), max(i, j)) for i, j in got}
        want = brute_force_pairs(pos, r)
        assert got_unordered == want
        if half:
            assert len(got) == len(want)  # exactly one ordered copy per pair
            # owned by the lower cell, not the lower index: many rows name lower locals
            assert 0.25 < np.mean(got[:, 1] < got[:, 0]) < 0.75
        else:
            assert len(got) == 2 * len(want)

    def test_half_symmetry_partition(self):
        rng = np.random.default_rng(13)
        box = AABB.cube(0.0, 8.0)
        pos = rng.uniform(0, 8, size=(256, 3))
        store = make_store(pos)
        grid = build_cell_grid(store, box, 2.8, half=True)
        half = build_neighbor_lists(store, grid, 2.8, half=True)
        seen = {}
        for i, j in half.pairs():
            key = (min(i, j), max(i, j))
            assert key not in seen, "pair stored twice in half mode"
            seen[key] = True
        assert set(seen) == brute_force_pairs(pos, 2.8), "pair missing in half mode"

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
        grid = build_cell_grid(store, box, r, half=True)
        half = build_neighbor_lists(store, grid, r, half=True)
        assert half.counts.tolist() == [1]
        assert half.partners[half.start[0] : half.start[1]].tolist() == [1]

    def test_deterministic_rebuild(self):
        rng = np.random.default_rng(3)
        box = AABB.cube(0.0, 8.0)
        pos = rng.uniform(0, 8, size=(150, 3))
        store = make_store(pos)
        grid = build_cell_grid(store, box, 2.8, half=True)
        a = build_neighbor_lists(store, grid, 2.8, half=True)
        b = build_neighbor_lists(store, grid, 2.8, half=True)
        np.testing.assert_array_equal(a.partners, b.partners)
        np.testing.assert_array_equal(a.start, b.start)

    def test_capacity_regrow(self, monkeypatch):
        # a dense clump: every row lists every other local, and with a build
        # buffer smaller than one row each row gets a buffer of its own size
        monkeypatch.setattr(neighbor, "_LIST_BUFFER", 16)
        rng = np.random.default_rng(5)
        pos = 5.0 + rng.uniform(-0.1, 0.1, size=(60, 3))
        box = AABB.cube(0.0, 10.0)
        store = make_store(pos)
        grid = build_cell_grid(store, box, 2.5)
        lists = build_neighbor_lists(store, grid, 2.5, half=False)
        assert lists.counts.tolist() == [59] * 60
        np.testing.assert_array_equal(lists.start, 59 * np.arange(61))
        assert lists.partners.dtype == np.int32 and lists.start.dtype == np.int64


def stencil(shell):
    """The (2k + 1)^3 cell steps within r of a cell, k = shell, x slowest, z fastest."""
    return list(itertools.product(range(-shell, shell + 1), repeat=3))


def reference_lists(store, grid, r, half):
    """Per-local reference, from the positions alone: bin every particle by
    the floor formula at the grid's edge, then for each local walk its
    candidates in build order and keep those within r. Full lists walk the
    stencil cells in order and each cell's particles in index order, but
    the local itself. Half lists walk the upper half stencil (the steps from
    (0, 0, 0) on, in the same order) over the locals, only those behind the
    local in its own cell, then the whole stencil over the ghosts. Returns
    the rows, as lists of partner indices."""
    pos = store.all_positions()
    n_local = store.n_local
    cells = {}
    for j, c in enumerate(floor_cells(pos, grid.origin, grid.cell_size, grid.shell)):
        cells.setdefault(tuple(c), []).append(j)
    rows = []
    for i in range(n_local):
        here = floor_cells(pos[i], grid.origin, grid.cell_size, grid.shell)
        members = [(step, cells.get(tuple(here + step), [])) for step in stencil(grid.shell)]
        if half:
            zero = (0, 0, 0)
            walk = [j for step, js in members if step >= zero for j in js if j < n_local and (step > zero or j > i)]
            walk += [j for step, js in members for j in js if j >= n_local]
        else:
            walk = [j for step, js in members for j in js if j != i]
        row = []
        for j in walk:
            d = pos[i] - pos[j]
            if d[0] * d[0] + d[1] * d[1] + d[2] * d[2] < r * r:
                row.append(j)
        rows.append(row)
    return rows


def ghost_shell(rng, n, box_len, r):
    """n points within r of the cube [0, box_len)^3, outside it: in the ghost shell at either cell edge."""
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
    order included, at both cell edges and for both list kinds: forces sum
    the row in that order."""

    @pytest.mark.parametrize("buffer", [None, 64, "largest-row"], ids=["default-blocks", "tiny-blocks", "one-row"])
    @pytest.mark.parametrize("half", [False, True])
    @pytest.mark.parametrize("name", ["cloud", "clump", "ghost_only_cells", "no_locals"])
    def test_equals_reference(self, name, half, buffer, monkeypatch):
        pos, n_ghost, box_len, r = oracle_case(name)
        store = make_store(pos, n_ghost=n_ghost)
        for shell in SHELLS:
            force_shell(monkeypatch, shell)
            grid = build_cell_grid(store, AABB.cube(0.0, box_len), r, half=half)
            steps = np.array(stencil(shell))
            # the run table walks the stencil in the reference's order: for
            # half lists the upper half over the locals, then all over the ghosts
            want_keys = grid.cell_id(steps)
            if half:
                upper = np.array([step >= (0, 0, 0) for step in stencil(shell)])
                want_keys = np.concatenate([want_keys[upper], grid.n_cells + want_keys])
            runs = grid.runs()
            assert runs.shape[0] == ((2 * shell**2 + 2 * shell + 1) + (2 * shell + 1) ** 2 if half else (2 * shell + 1) ** 2)
            np.testing.assert_array_equal([off + t for off, length in runs for t in range(length)], want_keys)
            size = buffer
            if buffer == "largest-row":
                # the row with the most candidates, counted as the build
                # counts them (run lengths summed), fills the buffer exactly
                first = grid.cell_of[: store.n_local, None] + runs[:, 0]
                count = grid.start[first + runs[:, 1]] - grid.start[first]
                size = int(count.sum(axis=1).max(initial=0))
            # 64 holds one or two rows per call; a row with more candidates
            # gets a buffer of its own size
            monkeypatch.setattr(neighbor, "_LIST_BUFFER", size or 1 << 18)
            lists = build_neighbor_lists(store, grid, r, half=half)
            want = reference_lists(store, grid, r, half)
            assert lists.partners.dtype == np.int32 and lists.start.dtype == np.int64
            assert lists.start[0] == 0 and lists.start[-1] == lists.partners.size
            assert lists.counts.tolist() == [len(row) for row in want]
            for i, row in enumerate(want):
                assert lists.partners[lists.start[i] : lists.start[i + 1]].tolist() == row
            if name == "clump":
                occupied = grid.counts[grid.counts > 0]
                assert grid.counts.max() > 4 * occupied.mean()


@st.composite
def face_clouds(draw):
    """(locals and ghosts stacked, n_ghost, box length, r): locals in the cube
    [0, L)^3 with L a whole number of r, ghosts within r outside it. Each
    coordinate is a free float, a multiple of r/2 (a face of the half-width
    cells, and every other one a face of the cells of edge r), or one ulp
    below such a face."""
    r = draw(st.sampled_from([2.0, 2.5, 2.8]))
    box_len = draw(st.integers(2, 3)) * r
    half_cells = int(round(box_len / r)) * 2

    def coord(lo_face, hi_face):
        kind = draw(st.sampled_from(["face", "below", "free"]))
        if kind == "free":
            return draw(st.floats(lo_face * r / 2, hi_face * r / 2, exclude_max=True))
        v = draw(st.integers(lo_face, hi_face - 1)) * (r / 2)
        return np.nextafter(v, -np.inf) if kind == "below" and v > lo_face * r / 2 else v

    n_local = draw(st.integers(0, 40))
    locs = [[coord(0, half_cells) for _ in range(3)] for _ in range(n_local)]
    ghosts = []
    for _ in range(draw(st.integers(0, 30))):
        p = [coord(-2, half_cells + 2) for _ in range(3)]
        if any(c < 0.0 or c >= box_len for c in p):
            ghosts.append(p)
    pos = np.array(locs + ghosts, dtype=np.float64).reshape(-1, 3)
    return pos, len(ghosts), box_len, r


class TestListsAgainstAllPairs:
    """The lists hold exactly the pairs within r, by the O(N^2) oracle over
    locals and ghosts, at both cell edges, on coordinates on cell faces and
    one ulp below them: a full row holds every particle within r of its
    local; half rows hold every pair with a ghost on the local's row and
    every local pair once, on either row."""

    @given(face_clouds())
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_brute_force(self, case):
        pos, n_ghost, box_len, r = case
        store = make_store(pos, n_ghost=n_ghost)
        n_local = store.n_local
        want = []
        for i in range(n_local):
            d = pos - pos[i]
            rsq = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]
            want.append({j for j in np.flatnonzero(rsq < r * r).tolist() if j != i})
        for shell, half in itertools.product(SHELLS, (False, True)):
            with pytest.MonkeyPatch.context() as mp:
                force_shell(mp, shell)
                grid = build_cell_grid(store, AABB.cube(0.0, box_len), r, half=half)
            assert grid.shell == shell
            lists = build_neighbor_lists(store, grid, r, half=half)
            for i in range(n_local):
                row = lists.partners[lists.start[i] : lists.start[i + 1]].tolist()
                assert len(row) == len(set(row))
                if half:
                    # a subset of the oracle's set, every ghost pair on its local
                    assert set(row) <= want[i]
                    assert {j for j in row if j >= n_local} == {j for j in want[i] if j >= n_local}
                else:
                    assert set(row) == want[i]
            if half:
                # every local-local pair exactly once, on either row
                local_pairs = [(min(i, j), max(i, j)) for i, j in lists.pairs().tolist() if j < n_local]
                assert len(local_pairs) == len(set(local_pairs))
                assert set(local_pairs) == {(i, j) for i in range(n_local) for j in want[i] if i < j < n_local}


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


def edge_cloud(box, r, edge, n=301, seed=5):
    """Points of a grid box and its ghost shell (r wide), a third of them
    exactly on cell faces (lo plus multiples of the cell edge), and points
    on lo, on hi and near the outer face of the shell."""
    rng = np.random.default_rng(seed)
    lo, hi, shell = box.lo, box.hi, 0.999 * r
    pts = rng.uniform(lo - shell, hi + shell, size=(n, 3))
    faces = lo + edge * rng.integers(0, int(box.extent().max() / edge) + 1, size=(n // 3, 3))
    pts[: n // 3] = np.minimum(faces, hi + shell)
    pts[n // 3] = lo
    pts[n // 3 + 1] = hi
    pts[n // 3 + 2] = lo - shell
    return pts


class TestPerAxisOracles:
    """build_cell_grid and max_displacement_since_rebuild read the positions
    in place through the layout's index map and work one axis at a time;
    they must give exactly what the (n, 3) formulas gave, on every layout."""

    BOX = AABB((-0.7, 0.2, 1.0), (9.3, 7.9, 11.6))
    R = 2.8

    @pytest.mark.parametrize("layout", LAYOUTS, ids=LAYOUT_IDS)
    def test_cell_coords_match_broadcast(self, layout, monkeypatch):
        for shell in SHELLS:
            force_shell(monkeypatch, shell)
            edge = self.R / shell
            pos = edge_cloud(self.BOX, self.R, edge)
            store = make_store(pos, n_ghost=37, layout=layout)
            before = store.positions.buf.copy()
            grid = build_cell_grid(store, self.BOX, self.R)
            want = np.floor((pos - self.BOX.lo) / edge).astype(np.int64) + shell
            assert grid.cell_of.shape == (pos.shape[0],) and grid.cell_of.dtype == np.int64
            np.testing.assert_array_equal(cell_coords(grid), want)
            np.testing.assert_array_equal(grid.counts, np.bincount(grid.cell_id(want), minlength=grid.counts.size))
            assert grid.sorted_positions.tobytes() == pos[grid.members].T.copy().tobytes()
            assert store.positions.buf.tobytes() == before.tobytes()

    @pytest.mark.parametrize("kind, row", [("local", 4), ("ghost", 300)])
    def test_far_particle_named(self, kind, row, monkeypatch):
        for shell in SHELLS:
            force_shell(monkeypatch, shell)
            pos = edge_cloud(self.BOX, self.R, self.R / shell)
            pos[row, 1] = self.BOX.hi[1] + 2 * self.R
            store = make_store(pos, n_ghost=37)
            with pytest.raises(
                ProtocolError, match=rf"^{kind} particle {row} at \[.*\] lies beyond the ghost shell \(r = 2.8 wide\)"
            ):
                build_cell_grid(store, self.BOX, self.R)

    def test_nan_particle_rejected(self):
        pos = edge_cloud(self.BOX, self.R, self.R)
        pos[9, 2] = np.nan
        store = make_store(pos, n_ghost=37)
        with np.errstate(invalid="ignore"), pytest.raises(ProtocolError, match=r"^local particle 9 at \[.*nan\]"):
            build_cell_grid(store, self.BOX, self.R)

    @pytest.mark.parametrize("layout", LAYOUTS, ids=LAYOUT_IDS)
    def test_displacement_matches_broadcast(self, layout):
        rng = np.random.default_rng(4)
        pos = rng.uniform(1, 7, size=(45, 3))  # not a multiple of either cluster size
        store = make_store(pos, n_ghost=6, layout=layout)
        grid = build_cell_grid(store, AABB.cube(0, 8), 2.8, half=True)
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
