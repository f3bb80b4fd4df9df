import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanopair.backend import SerialBackend, ThreadBackend
from nanopair.core import AABB, SimConfig, Vec3
from nanopair.errors import SingularityError
from nanopair.layout import row_major_layout
from nanopair.neighbor import build_cell_grid, build_neighbor_lists
from nanopair.particles import ParticleStore, create_lattice
from nanopair.potential import (
    LennardJones,
    SpringDashpot,
    compute_forces,
    law_from_config,
    lj_force,
    spring_dashpot_force,
)


def lj_reference(delta, rsq, epsilon, sigma):
    """Independent form: 24 eps (s/r)^6 [2 (s/r)^6 - 1] * delta / r^2."""
    s6 = (sigma * sigma / rsq) ** 3
    return 24.0 * epsilon * s6 * (2.0 * s6 - 1.0) / rsq * delta


class TestLennardJones:
    def test_unit_separation(self):
        f = lj_force(Vec3(1.0, 0.0, 0.0), 1.0, epsilon=1.0, sigma=1.0)
        assert (f.x, f.y, f.z) == (24.0, 0.0, 0.0)

    def test_zero_at_potential_minimum(self):
        # the well bottom sits at r = 2^(1/6) sigma; no representable rsq makes
        # the computed bracket vanish bitwise, so assert the cancellation floor
        # (a few ulps of 0.5 in the bracket, ~5e-15 in the force) plus a sign
        # change across the minimum
        law = LennardJones(1.0, 1.0)
        rsq = np.float64(2.0 ** (1.0 / 3.0))
        r = np.sqrt(rsq)
        f_at = law.pair_force(np.array([r, 0.0, 0.0]), rsq)[0]
        assert abs(f_at) <= 1e-14
        below = np.nextafter(rsq, 0.0)
        above = np.nextafter(rsq, 3.0)
        f_below = law.pair_force(np.array([np.sqrt(below), 0.0, 0.0]), below)[0]
        f_above = law.pair_force(np.array([np.sqrt(above), 0.0, 0.0]), above)[0]
        assert f_below > 0.0 > f_above or f_below == 0.0 or f_above == 0.0 or f_at == 0.0

    def test_matches_reference_within_4_ulp(self):
        # ulps are measured on the dominant magnitude of the expression (the
        # sum form of the 12-6 bracket); near the potential minimum the bracket
        # cancels, so component-relative ulps would be meaningless there
        rng = np.random.default_rng(42)
        n = 10_000
        r = rng.uniform(0.8, 2.5, size=n)
        direction = rng.normal(size=(n, 3))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        delta = direction * r[:, None]
        rsq = (delta * delta).sum(axis=1)
        law = LennardJones(1.0, 1.0)
        got = law.pair_force(delta, rsq)
        want = lj_reference(delta, rsq[:, None], 1.0, 1.0)
        sr2 = 1.0 / rsq
        sr6 = sr2**3
        mag = (48.0 * sr6 * (sr6 + 0.5) * sr2)[:, None] * np.abs(delta)
        scale = np.maximum(np.maximum(np.abs(got), np.abs(want)), mag)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(scale))

    def test_singularity(self):
        with pytest.raises(SingularityError):
            lj_force(Vec3(0.0, 0.0, 0.0), 0.0, 1.0, 1.0)

    @given(st.floats(0.81, 2.49), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    @settings(max_examples=300)
    def test_antisymmetry(self, r, uy, uz):
        d = np.array([1.0, uy, uz])
        d *= r / np.linalg.norm(d)
        rsq = float((d * d).sum())
        law = LennardJones(1.3, 0.9)
        np.testing.assert_array_equal(law.pair_force(-d, rsq), -law.pair_force(d, rsq))


class TestSpringDashpot:
    def test_worked_overlap(self):
        f = spring_dashpot_force(
            Vec3(0.8, 0.0, 0.0), 0.64, Vec3(0, 0, 0), Vec3(0, 0, 0),
            stiffness=100.0, damping=0.0, diameter=1.0,
        )
        assert f.x == pytest.approx(20.0, abs=1e-12)
        assert (f.y, f.z) == (0.0, 0.0)

    def test_no_contact_no_force(self):
        f = spring_dashpot_force(
            Vec3(1.2, 0.0, 0.0), 1.44, Vec3(1, 0, 0), Vec3(-1, 0, 0),
            stiffness=100.0, damping=5.0, diameter=1.0,
        )
        assert (f.x, f.y, f.z) == (0.0, 0.0, 0.0)

    def test_zero_constants_zero_force(self):
        f = spring_dashpot_force(
            Vec3(0.3, 0.1, 0.0), 0.1, Vec3(1, 2, 3), Vec3(-1, 0, 1),
            stiffness=0.0, damping=0.0, diameter=1.0,
        )
        assert (f.x, f.y, f.z) == (0.0, 0.0, 0.0)

    def test_dashpot_term(self):
        # head-on approach at speed 2: damping force opposes the spring push
        f = spring_dashpot_force(
            Vec3(0.8, 0.0, 0.0), 0.64, Vec3(-1, 0, 0), Vec3(1, 0, 0),
            stiffness=0.0, damping=3.0, diameter=1.0,
        )
        assert f.x == pytest.approx(6.0, abs=1e-12)
        g = spring_dashpot_force(
            Vec3(-0.8, 0.0, 0.0), 0.64, Vec3(1, 0, 0), Vec3(-1, 0, 0),
            stiffness=0.0, damping=3.0, diameter=1.0,
        )
        assert g.x == pytest.approx(-6.0, abs=1e-12)

    def test_velocities_read_only_with_damping(self):
        assert not SpringDashpot(damping=0.0).needs_velocities
        assert SpringDashpot(damping=3.0).needs_velocities
        assert not LennardJones().needs_velocities

    def test_continuity_at_contact(self):
        law = SpringDashpot(stiffness=250.0, damping=0.0, diameter=1.0)
        for eps in (1e-3, 1e-6, 1e-9, 1e-12):
            d = np.array([1.0 - eps, 0.0, 0.0])
            f = law.pair_force(d, float((d * d).sum()))
            assert abs(f[0]) <= 250.0 * eps + 1e-12

    def test_antisymmetry_random(self):
        rng = np.random.default_rng(7)
        n = 10_000
        d = rng.normal(size=(n, 3))
        d *= rng.uniform(0.3, 1.2, size=n)[:, None] / np.linalg.norm(d, axis=1)[:, None]
        rsq = (d * d).sum(axis=1)
        vi = rng.normal(size=(n, 3))
        vj = rng.normal(size=(n, 3))
        law = SpringDashpot(stiffness=80.0, damping=2.5, diameter=1.0)
        fwd = law.pair_force(d, rsq, vi, vj)
        rev = law.pair_force(-d, rsq, vj, vi)
        np.testing.assert_array_equal(fwd, -rev)

    def test_singularity(self):
        with pytest.raises(SingularityError):
            spring_dashpot_force(Vec3(0, 0, 0), 0.0, Vec3(0, 0, 0), Vec3(0, 0, 0), 1.0, 1.0, 1.0)


def periodic_store(cfg):
    """Single-box store with a full periodic ghost shell built by brute force."""
    from nanopair.particles import lattice_positions

    box = cfg.domain()
    pos = lattice_positions(cfg, box)
    rng = np.random.default_rng(cfg.rng_seed)
    vel = (rng.random((len(pos), 3)) - 0.5) * cfg.velocity_scale
    r = cfg.interaction_radius()
    return with_periodic_ghosts(pos, vel, box, r), box, r


def with_periodic_ghosts(pos, vel, box, r):
    """Store of the given locals plus every periodic image within r of the box."""
    store = ParticleStore(row_major_layout(), len(pos) * 2)
    store.append_locals(pos, vel)
    ext = box.extent()
    ghosts = []
    for ox in (-1, 0, 1):
        for oy in (-1, 0, 1):
            for oz in (-1, 0, 1):
                if (ox, oy, oz) == (0, 0, 0):
                    continue
                shifted = pos + np.array([ox, oy, oz]) * ext
                near = np.all(
                    (shifted > box.lo - r) & (shifted < box.hi + r), axis=1
                )
                ghosts.append(shifted[near])
    store.append_ghosts(np.vstack(ghosts), peer=0)
    return store


def jittered_store(seed, r):
    """5^3 simple-cubic sites at spacing 1.1 jittered by up to 0.25 per axis,
    with random velocities: unequal list rows, overlapping spheres of
    diameter 1, and ghost partners across every face."""
    rng = np.random.default_rng(seed)
    n_side, spacing = 5, 1.1
    box = AABB.cube(0.0, n_side * spacing)
    sites = np.stack(np.meshgrid(*[np.arange(n_side)] * 3, indexing="ij"), -1).reshape(-1, 3)
    pos = (sites + 0.5) * spacing + rng.uniform(-0.25, 0.25, size=sites.shape)
    vel = rng.normal(size=pos.shape)
    return with_periodic_ghosts(pos, vel, box, r), box


class TestComputeForces:
    def test_isolated_pair_at_minimum(self):
        r0 = 2.0 ** (1.0 / 6.0)
        store = ParticleStore(row_major_layout(), 2)
        store.append_locals(
            np.array([[4.0, 4.0, 4.0], [4.0 + r0, 4.0, 4.0]]), np.zeros((2, 3))
        )
        box = AABB.cube(0.0, 9.0)
        grid = build_cell_grid(store, box, 2.8)
        lists = build_neighbor_lists(store, grid, 2.8, half=False)
        compute_forces(store, lists, LennardJones(1.0, 1.0, 2.5))
        assert np.all(np.abs(store.local_forces()) < 1e-12)

    def test_half_equals_full(self):
        cfg = SimConfig(unit_cells=(4, 4, 4)).validate()
        law = law_from_config(cfg)
        results = {}
        for half in (False, True):
            store, box, r = periodic_store(cfg)
            grid = build_cell_grid(store, box, r)
            lists = build_neighbor_lists(store, grid, r, half=half)
            compute_forces(store, lists, law, half=half)
            results[half] = store.local_forces()
        assert np.max(np.abs(results[True] - results[False])) < 1e-10

    def test_forces_sum_to_zero_periodic(self):
        cfg = SimConfig(unit_cells=(4, 4, 4)).validate()
        store, box, r = periodic_store(cfg)
        grid = build_cell_grid(store, box, r)
        lists = build_neighbor_lists(store, grid, r, half=True)
        compute_forces(store, lists, law_from_config(cfg))
        total = store.local_forces().sum(axis=0)
        assert np.all(np.abs(total) < 1e-9)

    def test_translation_invariance_exact(self):
        # quantized coordinates keep every shifted sum exact, so the kernel's
        # dependence on differences alone is observable bitwise
        rng = np.random.default_rng(11)
        quantum = 2.0**-20
        pos = (rng.integers(0, 2**22, size=(64, 3)) * quantum) + 1.0
        shift = np.array([1.0, 2.0, 0.5])
        law = LennardJones(1.0, 1.0, 2.5)
        outs = []
        for delta in (np.zeros(3), shift):
            store = ParticleStore(row_major_layout(), 64)
            store.append_locals(pos + delta, np.zeros((64, 3)))
            box = AABB.from_arrays(delta - 16.0, delta + 16.0)
            grid = build_cell_grid(store, box, 2.8)
            lists = build_neighbor_lists(store, grid, 2.8, half=False)
            compute_forces(store, lists, law)
            outs.append(store.local_forces())
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_energy_flag(self):
        store = ParticleStore(row_major_layout(), 2)
        store.append_locals(np.array([[4.0, 4.0, 4.0], [5.0, 4.0, 4.0]]), np.zeros((2, 3)))
        box = AABB.cube(0.0, 9.0)
        grid = build_cell_grid(store, box, 2.8)
        law = LennardJones(1.0, 1.0, 2.5)
        e_half = compute_forces(
            store, build_neighbor_lists(store, grid, 2.8, half=True), law, accumulate_energy=True
        )
        e_full = compute_forces(
            store, build_neighbor_lists(store, grid, 2.8, half=False), law,
            half=False, accumulate_energy=True,
        )
        assert e_half == pytest.approx(0.0, abs=1e-12)  # r = 1: the 12-6 terms cancel
        assert e_full == pytest.approx(e_half, abs=1e-12)

    def test_singular_pair_identified(self):
        store = ParticleStore(row_major_layout(), 2)
        store.append_locals(np.array([[4.0, 4.0, 4.0], [4.0, 4.0, 4.0]]), np.zeros((2, 3)))
        grid = build_cell_grid(store, AABB.cube(0, 9), 2.8)
        lists = build_neighbor_lists(store, grid, 2.8, half=True)
        with pytest.raises(SingularityError):
            compute_forces(store, lists, LennardJones())

    def test_half_list_energy_counts_ghost_pairs_once(self):
        cfg = SimConfig(unit_cells=(4, 4, 4)).validate()
        law = law_from_config(cfg)
        energy = {}
        for half in (False, True):
            store, box, r = periodic_store(cfg)
            grid = build_cell_grid(store, box, r)
            lists = build_neighbor_lists(store, grid, r, half=half)
            energy[half] = compute_forces(store, lists, law, accumulate_energy=True)
        assert abs(energy[True] - energy[False]) < 1e-10

    @pytest.mark.parametrize("n_ghost", [0, 2])
    def test_rank_without_locals(self, n_ghost):
        store = ParticleStore(row_major_layout(), 4)
        ghosts = np.array([[4.0, 4.0, 4.0], [5.0, 4.0, 4.0]])[:n_ghost]
        if n_ghost:
            store.append_ghosts(ghosts, peer=1)
        grid = build_cell_grid(store, AABB.cube(0.0, 9.0), 2.8)
        for half in (False, True):
            lists = build_neighbor_lists(store, grid, 2.8, half=half)
            assert lists.n_local == 0 and lists.pairs().shape == (0, 2)
            energy = compute_forces(store, lists, LennardJones(), accumulate_energy=True)
            assert energy == 0.0
            assert np.all(store.forces.read_rows(0, store.n_total) == 0.0)

    @pytest.mark.parametrize(
        "half,kind",
        [(False, "lj"), (True, "lj"), (False, "sd"), (True, "sd")],
        ids=["False", "True", "sd-False", "sd-True"],
    )
    def test_chunking_and_threads_bitwise_equal(self, half, kind):
        if kind == "lj":
            cfg = SimConfig(unit_cells=(4, 4, 4)).validate()
            law = law_from_config(cfg)
            store, box, r = periodic_store(cfg)
        else:
            law = SpringDashpot(stiffness=100.0, damping=2.0, diameter=1.0)
            r = 1.3
            store, box = jittered_store(3, r)
        grid = build_cell_grid(store, box, r)
        lists = build_neighbor_lists(store, grid, r, half=half)
        small = SerialBackend()
        small.chunk_size = 37
        threaded = ThreadBackend(2)
        threaded.chunk_size = 50
        out = []
        for backend in (SerialBackend(), small, ThreadBackend(2), threaded):
            compute_forces(store, lists, law, backend=backend)
            out.append(store.local_forces())
        for got in out[1:]:
            np.testing.assert_array_equal(got, out[0])


def pair_loop_forces(store, lists, law, half):
    """Oracle: forces and energy from one `pair_force` call per list entry."""
    n_local = store.n_local
    pos, vel = store.all_positions(), store.all_velocities()
    mat = lists.as_matrix()
    forces = np.zeros((n_local, 3))
    energy = 0.0
    for i in range(n_local):
        for j in mat[i, : lists.counts[i]]:
            delta = pos[i] - pos[j]
            rsq = float(delta @ delta)
            if rsq >= law.cutoff_rsq:
                continue
            f = law.pair_force(delta, rsq, vel[i], vel[j])
            forces[i] += f
            e = float(law.pair_energy(rsq))
            if half and j < n_local:
                forces[j] -= f
                energy += e
            else:
                energy += 0.5 * e
    return forces, energy


class TestKernelOracle:
    # fixed before the first run: 1e-12 relative to the largest force component
    RTOL = 1e-12

    @pytest.mark.parametrize(
        "law,r",
        [
            (LennardJones(1.0, 1.0, 2.5), 2.8),
            (SpringDashpot(stiffness=100.0, damping=0.0, diameter=1.0), 1.3),
            (SpringDashpot(stiffness=100.0, damping=3.0, diameter=1.0), 1.3),
        ],
        ids=["lj", "sd", "sd-damped"],
    )
    @pytest.mark.parametrize("half", [False, True])
    def test_matches_pair_loop(self, law, r, half):
        store, box = jittered_store(21, r)
        lists = build_neighbor_lists(store, build_cell_grid(store, box, r), r, half=half)
        # the build puts the farthest cells last in each row; shuffling the
        # partners puts in-cutoff entries in every column, the last included
        rng = np.random.default_rng(5)
        for i, k in enumerate(lists.counts):
            lists.indices.view[i, :k] = rng.permutation(lists.indices.view[i, :k])
        mat = lists.as_matrix()
        # rows of unequal length (padding) and ghost partners both occur
        assert lists.counts.min() < lists.counts.max() == mat.shape[1]
        assert np.any(mat >= store.n_local)
        want, want_energy = pair_loop_forces(store, lists, law, half)
        got_energy = compute_forces(store, lists, law, half=half, accumulate_energy=True)
        got = store.local_forces()
        scale = np.abs(want).max()
        assert scale > 0.0
        np.testing.assert_allclose(got, want, rtol=0.0, atol=self.RTOL * scale)
        assert abs(got_energy - want_energy) <= self.RTOL * abs(want_energy)
