from dataclasses import replace

import numpy as np
import pytest

from nanopair import kernel
from nanopair.driver import final_integrate, initial_integrate
from nanopair.errors import ProtocolError, SingularityError
from nanopair.layout import ArrayHandle, clustered_layout, column_major_layout, row_major_layout
from nanopair.neighbor import build_cell_grid, build_neighbor_lists
from nanopair.particles import ParticleStore
from nanopair.potential import _INNER_SHARE, LennardJones, compute_forces
from test_potential import jittered_store

LAYOUTS = [row_major_layout(), column_major_layout(), clustered_layout(4), clustered_layout(8), clustered_layout(1)]
LAYOUT_IDS = ["aos", "soa", "aosoa4", "aosoa8", "aosoa1"]
DT, MASS = 0.005, 1.7


def random_store(layout, n_local, n_ghost=5, seed=0):
    """Locals and ghosts with random positions, velocities and forces, in a
    store with spare capacity, so ghost rows and padding follow the locals."""
    rng = np.random.default_rng(seed)
    store = ParticleStore(layout, n_local + n_ghost + 7)
    if n_local:
        store.append_locals(rng.uniform(0, 10, (n_local, 3)), rng.normal(size=(n_local, 3)))
    store.append_ghosts(rng.uniform(0, 10, (n_ghost, 3)), peer=1)
    n = store.n_total
    # ghosts get nonzero velocities and forces too, so a stray write would show
    store.velocities.write_rows(0, rng.normal(size=(n, 3)))
    store.forces.write_rows(0, rng.normal(size=(n, 3)) * 50.0)
    return store


def handles(store):
    return store.positions, store.velocities, store.forces


def expected_buffers(store, rows):
    """Each handle's buffer bytes with rows[i] written over its locals (None:
    no change) and every other byte (ghost rows, unused rows, padding) as now."""
    out = []
    for h, new in zip(handles(store), rows):
        want = ArrayHandle(h.layout, h.size_x, h.size_y)
        want.buf[:] = h.buf
        if new is not None:
            want.write_rows(0, new)
        out.append(want.buf.tobytes())
    return out


def buffers(store):
    return [h.buf.tobytes() for h in handles(store)]


@pytest.mark.parametrize("layout", LAYOUTS, ids=LAYOUT_IDS)
@pytest.mark.parametrize("n_local", [3, 13, 29])
class TestIntegratorsMatchRowCopies:
    """The integrators update the layout buffers in place through the index
    map; they must give the bits of the row-copy formula and leave every
    other byte alone: ghost rows (13 and 29 locals leave ghosts in the last
    local's cluster of AoSoA), unused rows and padding."""

    def test_initial_integrate(self, layout, n_local):
        store = random_store(layout, n_local)
        x = store.positions.read_rows(0, n_local)
        v = store.velocities.read_rows(0, n_local)
        v += (0.5 * DT / MASS) * store.forces.read_rows(0, n_local)
        want = expected_buffers(store, (x + DT * v, v, None))
        initial_integrate(store, DT, MASS)
        assert buffers(store) == want

    def test_final_integrate(self, layout, n_local):
        store = random_store(layout, n_local)
        v = store.velocities.read_rows(0, n_local)
        v += (0.5 * DT / MASS) * store.forces.read_rows(0, n_local)
        want = expected_buffers(store, (None, v, None))
        final_integrate(store, DT, MASS)
        assert buffers(store) == want


@pytest.mark.parametrize("layout", LAYOUTS, ids=LAYOUT_IDS)
@pytest.mark.parametrize("integrate", [initial_integrate, final_integrate])
class TestIntegratorsNoOp:
    def test_zero_dt_changes_nothing(self, layout, integrate):
        store = random_store(layout, 13)
        before = buffers(store)
        integrate(store, 0.0, MASS)
        assert buffers(store) == before

    def test_no_locals_changes_nothing(self, layout, integrate):
        store = random_store(layout, 0)
        assert store.n_local == 0 and store.n_ghost > 0
        before = buffers(store)
        integrate(store, DT, MASS)
        assert buffers(store) == before


class TestInnerListTrigger:
    """A force call runs the held inner rows while every row, ghosts
    included, moved less than the trigger since the prune: delta / 2 less
    1e-12 (r_c + delta), the margin for the rounding of the distances (see
    nanopair.potential._ROUNDING), with delta a third of the lists' reach
    past the cutoff. Otherwise it prunes."""

    LAW = LennardJones(1.0, 1.0, 2.5)
    DELTA = _INNER_SHARE * (2.8 - 2.5)

    def pruned(self):
        store, box = jittered_store(3, 2.8)
        lists = build_neighbor_lists(store, build_cell_grid(store, box, 2.8, half=True), 2.8, True)
        compute_forces(store, lists, self.LAW)
        assert lists.inner.held and lists.inner.prunes == 1
        return store, lists

    def move_row(self, store, i, dx):
        pos = store.positions.read_rows(i, 1)
        pos[0, 0] += dx
        store.positions.write_rows(i, pos)

    def ghost_partner(self, store, lists):
        """A ghost that some local's row names, in the Verlet and the inner rows."""
        inner = lists.inner.partners[: lists.inner.args[1]]
        return int(inner[inner >= store.n_local][0])

    def pruning_calls(self, monkeypatch):
        """Whether each force call from here on pruned, as the kernel was asked."""
        lib, calls = kernel.library(), []
        pair_forces = lib.pair_forces

        def spy(*args):
            calls.append(args[-3] is not None)  # the inner rows to write
            return pair_forces(*args)

        monkeypatch.setattr(lib, "pair_forces", spy)
        return calls

    def test_trigger_margin(self):
        _, lists = self.pruned()
        assert lists.inner.trigger == 0.5 * self.DELTA - 1e-12 * (2.5 + self.DELTA)

    def test_moves_below_trigger_keep_inner_list(self, monkeypatch):
        store, lists = self.pruned()
        g = self.ghost_partner(store, lists)
        self.move_row(store, g, 0.9 * lists.inner.trigger)
        self.move_row(store, 0, -0.9 * lists.inner.trigger)
        calls = self.pruning_calls(monkeypatch)
        compute_forces(store, replace(lists), self.LAW)
        want = store.forces.read_rows(0, store.n_local)
        compute_forces(store, lists, self.LAW)
        assert calls == [True, False]
        assert lists.inner.held and lists.inner.prunes == 1
        assert store.forces.read_rows(0, store.n_local).tobytes() == want.tobytes()

    @pytest.mark.parametrize("moved", ["ghost", "local"])
    def test_half_delta_move_of_one_row_prunes(self, moved, monkeypatch):
        store, lists = self.pruned()
        i = self.ghost_partner(store, lists) if moved == "ghost" else 0
        self.move_row(store, i, 0.5 * self.DELTA)
        calls = self.pruning_calls(monkeypatch)
        compute_forces(store, lists, self.LAW)
        compute_forces(store, lists, self.LAW)
        assert calls == [True, False]
        assert lists.inner.held and lists.inner.prunes == 2

    @pytest.mark.parametrize("moved", ["ghost", "local"])
    def test_nan_position_prunes_and_raises(self, moved, monkeypatch):
        store, lists = self.pruned()
        i = self.ghost_partner(store, lists) if moved == "ghost" else 0
        self.move_row(store, i, np.nan)
        calls = self.pruning_calls(monkeypatch)
        with pytest.raises(SingularityError, match="non-finite force"):
            compute_forces(store, lists, self.LAW)
        assert calls == [True]
        assert not lists.inner.held and lists.inner.prunes == 1

    def test_out_of_range_verlet_entry_raises_at_prune(self):
        # an entry edited into the Verlet rows is not seen while the inner
        # rows serve, and raises at the next prune
        store, lists = self.pruned()
        n_total = store.n_total
        lists.partners[-1] = n_total
        compute_forces(store, lists, self.LAW)
        assert lists.inner.held and lists.inner.prunes == 1
        self.move_row(store, 0, 0.5 * self.DELTA)
        with pytest.raises(ProtocolError, match=f"names particle {n_total} of {n_total}"):
            compute_forces(store, lists, self.LAW)
        assert not lists.inner.held
