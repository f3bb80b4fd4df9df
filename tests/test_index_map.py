"""The layout's index map and the compiled particle loops that address the
layout buffers through it: the displacement check, the ghost gather and the
ghost write, and the force write-back of `compute_forces`. Each must give the
bits of the numpy formula on `read_rows` copies and leave every other byte
of the buffers (ghost rows, unused rows, the padding lanes of the last
cluster) as it was. The integrators are covered in tests/test_driver.py."""

import ctypes

import numpy as np
import pytest

from nanopair import kernel
from nanopair.comm import WIRE_SYNC, pack_particles, unpack_particles
from nanopair.core import AABB
from nanopair.driver import final_integrate, initial_integrate
from nanopair.layout import ArrayHandle, clustered_layout, column_major_layout, row_major_layout
from nanopair.neighbor import build_cell_grid, build_neighbor_lists, max_displacement_since_rebuild
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
    """The handle's buffer bytes with `rows` written from row `start` on, by the numpy row path."""
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
        # read_rows goes through `view`, so the buffer element at each offset
        # must be the view's element (x, y)
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
            store, build_cell_grid(store, AABB.cube(-1.0, 11.0), 2.8), 2.8, half=True
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
            h.map_address, h.address, kernel.address(idx, np.int64), kernel.address(shift, np.float64),
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
            _, rows = unpack_particles(pack_particles(WIRE_SYNC, rows))
            assert not rows.flags.aligned
        start = n_local + first
        want = buffers(store)
        want[0] = with_rows(store.positions, start, rows)
        store.set_ghost_positions(start, rows)
        assert buffers(store) == want

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
        box = AABB.cube(-1.0, 11.0)
        energies, forces = [], []
        for s in (aos, store):
            lists = build_neighbor_lists(s, build_cell_grid(s, box, r), r, half=half)
            assert np.any(lists.as_matrix() >= n_local)
            before = s.forces.buf.copy()
            energies.append(compute_forces(s, lists, law, accumulate_energy=True))
            forces.append(s.forces.read_rows(0, n_local))
            assert with_rows(s.forces, 0, forces[-1]) == s.forces.buf.tobytes()
            # only the local rows changed: ghosts, unused rows and padding did not
            after = s.forces.buf.copy()
            written = ArrayHandle(s.layout, s.capacity, 3, dtype=np.int8)
            written.write_rows(0, np.ones((n_local, 3), dtype=np.int8))
            np.testing.assert_array_equal(after[written.buf == 0], before[written.buf == 0])
        np.testing.assert_array_equal(forces[1], forces[0])
        assert energies[1] == energies[0]


def test_no_address_taken_per_step(monkeypatch):
    """After the first force call, a step's integrators, displacement check
    and force call take no address: handles, lists and laws hold theirs."""
    store = random_store(clustered_layout(4), 13)
    lists = build_neighbor_lists(store, build_cell_grid(store, AABB.cube(-1.0, 11.0), 2.8), 2.8, half=True)
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
