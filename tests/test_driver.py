import numpy as np
import pytest

from nanopair.driver import final_integrate, initial_integrate
from nanopair.layout import ArrayHandle, clustered_layout, column_major_layout, row_major_layout
from nanopair.particles import ParticleStore

LAYOUTS = [row_major_layout(), column_major_layout(), clustered_layout(4), clustered_layout(8)]
LAYOUT_IDS = ["aos", "soa", "aosoa4", "aosoa8"]
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
    """The integrators update the layout's row blocks in place; they must give
    the bits of the row-copy formula and leave every other byte alone."""

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
