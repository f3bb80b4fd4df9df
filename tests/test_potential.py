from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanopair import kernel
from nanopair.core import AABB, SimConfig
from nanopair.errors import ProtocolError, SingularityError
from nanopair.layout import clustered_layout, column_major_layout, row_major_layout
from nanopair.neighbor import build_cell_grid, build_neighbor_lists
from nanopair.particles import ParticleStore
from nanopair.potential import (
    LennardJones,
    SpringDashpot,
    compute_forces,
    law_from_config,
)


def force_scalar(law, rsq, vdot=None):
    """Reference law: s with force = s * delta, in the compiled loop's order.

    Lennard-Jones: 48 eps sr6 (sr6 - 0.5) sr2, with sr2 = 1/rsq and sr6 =
    sr2^3 sigma^6, for any rsq (the caller applies the cutoff). Spring-dashpot:
    k (d - r) / r - gamma vdot / r^2 inside contact, zero outside, with vdot
    the projection delta . (v_i - v_j); without it the dashpot term is left out.
    """
    if isinstance(law, LennardJones):
        sr2 = 1.0 / rsq
        sr6 = sr2 * sr2 * sr2 * law.sigma**6
        return 48.0 * sr6 * (sr6 - 0.5) * sr2 * law.epsilon
    dist = np.sqrt(rsq)
    s = law.stiffness * (law.diameter - dist) / dist
    if vdot is not None:
        s = s - law.damping * vdot / rsq
    return np.where(dist < law.diameter, s, 0.0)


def pair_force(law, delta, rsq, v_i=None, v_j=None):
    """Reference force on i from j, s * delta; velocities feed only the dashpot."""
    delta = np.asarray(delta)
    vdot = None
    if isinstance(law, SpringDashpot) and v_i is not None and v_j is not None:
        vdot = np.einsum("...k,...k->...", delta, np.asarray(v_i) - np.asarray(v_j))
    s = force_scalar(law, np.asarray(rsq, dtype=np.float64), vdot)
    return s[..., None] * delta


def pair_energy(law, rsq):
    """Reference pair potential energy at squared separation rsq."""
    if isinstance(law, LennardJones):
        sr6 = law.sigma**6 / (rsq * rsq * rsq)
        return 4.0 * law.epsilon * (sr6 * sr6 - sr6)
    overlap = np.maximum(law.diameter - np.sqrt(rsq), 0.0)
    return 0.5 * law.stiffness * overlap * overlap


def local_forces(store):
    return store.forces.read_rows(0, store.n_local)


def lj_reference(delta, rsq, epsilon, sigma):
    """Independent form: 24 eps (s/r)^6 [2 (s/r)^6 - 1] * delta / r^2."""
    s6 = (sigma * sigma / rsq) ** 3
    return 24.0 * epsilon * s6 * (2.0 * s6 - 1.0) / rsq * delta


def row(lists, i):
    """Row i of the CSR lists, a writable view of its partners."""
    return lists.partners[lists.start[i] : lists.start[i + 1]]


def csr(rows):
    """(partners, start) of the CSR list whose rows are `rows`."""
    partners = np.array([j for r in rows for j in r], dtype=np.int32)
    return partners, np.concatenate([[0], np.cumsum([len(r) for r in rows])]).astype(np.int64)


def forces_of_pair(law, pos, half):
    """Local forces of a two-particle store in a box of edge 9, without ghosts."""
    store = ParticleStore(row_major_layout(), 2)
    store.append_locals(pos, np.zeros((2, 3)))
    grid = build_cell_grid(store, AABB((0.0,) * 3, (9.0,) * 3), 2.8, half=half)
    compute_forces(store, build_neighbor_lists(store, grid, 2.8, half=half), law)
    return local_forces(store)


class TestLennardJones:
    def test_unit_separation(self):
        f = pair_force(LennardJones(1.0, 1.0), np.array([1.0, 0.0, 0.0]), 1.0)
        assert tuple(f) == (24.0, 0.0, 0.0)

    def test_zero_at_potential_minimum(self):
        # the well bottom sits at r = 2^(1/6) sigma; no representable rsq makes
        # the computed bracket vanish bitwise, so assert the cancellation floor
        # (a few ulps of 0.5 in the bracket, ~5e-15 in the force) plus a sign
        # change across the minimum
        law = LennardJones(1.0, 1.0)
        rsq = np.float64(2.0 ** (1.0 / 3.0))
        r = np.sqrt(rsq)
        f_at = pair_force(law, np.array([r, 0.0, 0.0]), rsq)[0]
        assert abs(f_at) <= 1e-14
        below = np.nextafter(rsq, 0.0)
        above = np.nextafter(rsq, 3.0)
        f_below = pair_force(law, np.array([np.sqrt(below), 0.0, 0.0]), below)[0]
        f_above = pair_force(law, np.array([np.sqrt(above), 0.0, 0.0]), above)[0]
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
        got = pair_force(law, delta, rsq)
        want = lj_reference(delta, rsq[:, None], 1.0, 1.0)
        sr2 = 1.0 / rsq
        sr6 = sr2**3
        mag = (48.0 * sr6 * (sr6 + 0.5) * sr2)[:, None] * np.abs(delta)
        scale = np.maximum(np.maximum(np.abs(got), np.abs(want)), mag)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(scale))

    def test_singularity(self):
        # full lists; test_singular_pair_identified covers half lists
        with pytest.raises(SingularityError, match="local 0 and neighbor 1"):
            forces_of_pair(LennardJones(), np.array([[4.0, 4.0, 4.0], [4.0, 4.0, 4.0]]), half=False)

    @given(st.floats(0.81, 2.49), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    @settings(max_examples=300)
    def test_antisymmetry(self, r, uy, uz):
        d = np.array([1.0, uy, uz])
        d *= r / np.linalg.norm(d)
        rsq = float((d * d).sum())
        law = LennardJones(1.3, 0.9)
        np.testing.assert_array_equal(pair_force(law, -d, rsq), -pair_force(law, d, rsq))


class TestSpringDashpot:
    def test_worked_overlap(self):
        law = SpringDashpot(stiffness=100.0, damping=0.0, diameter=1.0)
        f = pair_force(law, np.array([0.8, 0.0, 0.0]), 0.64, np.zeros(3), np.zeros(3))
        assert f[0] == pytest.approx(20.0, abs=1e-12)
        assert (f[1], f[2]) == (0.0, 0.0)

    def test_no_contact_no_force(self):
        law = SpringDashpot(stiffness=100.0, damping=5.0, diameter=1.0)
        f = pair_force(law, np.array([1.2, 0.0, 0.0]), 1.44, np.array([1.0, 0, 0]), np.array([-1.0, 0, 0]))
        assert tuple(f) == (0.0, 0.0, 0.0)

    def test_zero_constants_zero_force(self):
        law = SpringDashpot(stiffness=0.0, damping=0.0, diameter=1.0)
        f = pair_force(law, np.array([0.3, 0.1, 0.0]), 0.1, np.array([1.0, 2, 3]), np.array([-1.0, 0, 1]))
        assert tuple(f) == (0.0, 0.0, 0.0)

    def test_dashpot_term(self):
        # head-on approach at speed 2: damping force opposes the spring push
        law = SpringDashpot(stiffness=0.0, damping=3.0, diameter=1.0)
        left, right = np.array([-1.0, 0, 0]), np.array([1.0, 0, 0])
        f = pair_force(law, np.array([0.8, 0.0, 0.0]), 0.64, left, right)
        assert f[0] == pytest.approx(6.0, abs=1e-12)
        g = pair_force(law, np.array([-0.8, 0.0, 0.0]), 0.64, right, left)
        assert g[0] == pytest.approx(-6.0, abs=1e-12)

    def test_velocities_read_only_with_damping(self):
        assert not SpringDashpot(damping=0.0).needs_velocities
        assert SpringDashpot(damping=3.0).needs_velocities
        assert not LennardJones().needs_velocities

    def test_continuity_at_contact(self):
        law = SpringDashpot(stiffness=250.0, damping=0.0, diameter=1.0)
        for eps in (1e-3, 1e-6, 1e-9, 1e-12):
            d = np.array([1.0 - eps, 0.0, 0.0])
            f = pair_force(law, d, float((d * d).sum()))
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
        fwd = pair_force(law, d, rsq, vi, vj)
        rev = pair_force(law, -d, rsq, vj, vi)
        np.testing.assert_array_equal(fwd, -rev)

    def test_singularity(self):
        law = SpringDashpot(stiffness=1.0, damping=1.0, diameter=1.0)
        with pytest.raises(SingularityError, match="local 0 and neighbor 1"):
            forces_of_pair(law, np.array([[4.0, 4.0, 4.0], [4.0, 4.0, 4.0]]), half=True)


def periodic_store(cfg):
    """Single-box store with a full periodic ghost shell built by brute force."""
    from nanopair.particles import lattice_positions

    box = cfg.domain()
    pos = lattice_positions(cfg, box)
    rng = np.random.default_rng(42)
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
    box = AABB((0.0,) * 3, (n_side * spacing,) * 3)
    sites = np.stack(np.meshgrid(*[np.arange(n_side)] * 3, indexing="ij"), -1).reshape(-1, 3)
    pos = (sites + 0.5) * spacing + rng.uniform(-0.25, 0.25, size=sites.shape)
    vel = rng.normal(size=pos.shape)
    return with_periodic_ghosts(pos, vel, box, r), box


# entries of a list row that the Lennard-Jones loop of pair_kernel.c stages at a time
KERNEL_BLOCK = 256


def clumped_store(clump_radius, r, twin=False):
    """jittered_store's lattice in a box of edge 12, plus a clump of 300
    particles in a ball of `clump_radius` (rows longer than KERNEL_BLOCK) and
    one particle with no partner (a row of length zero). The clump's first
    particle is local 125; with `twin`, the clump's last particle (local 424)
    sits exactly on it."""
    rng = np.random.default_rng(17)
    sites = np.stack(np.meshgrid(*[np.arange(5)] * 3, indexing="ij"), -1).reshape(-1, 3)
    lattice = (sites + 0.5) * 1.1 + rng.uniform(-0.25, 0.25, size=sites.shape)
    u = rng.normal(size=(300, 3))
    u *= clump_radius * rng.uniform(0.0, 1.0, size=(300, 1)) ** (1 / 3) / np.linalg.norm(u, axis=1)[:, None]
    clump = np.array([9.0, 9.0, 3.0]) + u
    if twin:
        clump[-1] = clump[0]
    pos = np.vstack([lattice, clump, [[9.0, 3.0, 9.0]]])
    vel = rng.normal(size=pos.shape)
    box = AABB((0.0,) * 3, (12.0,) * 3)
    return with_periodic_ghosts(pos, vel, box, r), box


class TestComputeForces:
    def test_isolated_pair_at_minimum(self):
        r0 = 2.0 ** (1.0 / 6.0)
        store = ParticleStore(row_major_layout(), 2)
        store.append_locals(
            np.array([[4.0, 4.0, 4.0], [4.0 + r0, 4.0, 4.0]]), np.zeros((2, 3))
        )
        box = AABB((0.0,) * 3, (9.0,) * 3)
        grid = build_cell_grid(store, box, 2.8)
        lists = build_neighbor_lists(store, grid, 2.8, half=False)
        compute_forces(store, lists, LennardJones(1.0, 1.0, 2.5))
        assert np.all(np.abs(local_forces(store)) < 1e-12)

    def test_half_equals_full(self):
        cfg = SimConfig(unit_cells=(4, 4, 4)).validate()
        law = law_from_config(cfg)
        results = {}
        for half in (False, True):
            store, box, r = periodic_store(cfg)
            grid = build_cell_grid(store, box, r, half=half)
            lists = build_neighbor_lists(store, grid, r, half=half)
            compute_forces(store, lists, law)
            results[half] = local_forces(store)
        assert np.max(np.abs(results[True] - results[False])) < 1e-10

    def test_forces_sum_to_zero_periodic(self):
        cfg = SimConfig(unit_cells=(4, 4, 4)).validate()
        store, box, r = periodic_store(cfg)
        grid = build_cell_grid(store, box, r, half=True)
        lists = build_neighbor_lists(store, grid, r, half=True)
        compute_forces(store, lists, law_from_config(cfg))
        total = local_forces(store).sum(axis=0)
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
            outs.append(local_forces(store))
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_energy_flag(self):
        store = ParticleStore(row_major_layout(), 2)
        store.append_locals(np.array([[4.0, 4.0, 4.0], [5.0, 4.0, 4.0]]), np.zeros((2, 3)))
        box = AABB((0.0,) * 3, (9.0,) * 3)
        law = LennardJones(1.0, 1.0, 2.5)
        e_half, e_full = (
            compute_forces(
                store, build_neighbor_lists(store, build_cell_grid(store, box, 2.8, half), 2.8, half), law,
                accumulate_energy=True,
            )
            for half in (True, False)
        )
        assert e_half == pytest.approx(0.0, abs=1e-12)  # r = 1: the 12-6 terms cancel
        assert e_full == pytest.approx(e_half, abs=1e-12)

    def test_singular_pair_identified(self):
        store = ParticleStore(row_major_layout(), 2)
        store.append_locals(np.array([[4.0, 4.0, 4.0], [4.0, 4.0, 4.0]]), np.zeros((2, 3)))
        grid = build_cell_grid(store, AABB((0.0,) * 3, (9.0,) * 3), 2.8, half=True)
        lists = build_neighbor_lists(store, grid, 2.8, half=True)
        with pytest.raises(SingularityError):
            compute_forces(store, lists, LennardJones())

    @pytest.mark.parametrize("half", [False, True])
    def test_non_finite_force_rejected(self, half):
        # 1e-60 apart: rsq = 1e-120 is a normal double, but sigma^6 / rsq^3 overflows to inf
        pos = np.array([[1e-60, 4.0, 4.0], [0.0, 4.0, 4.0]])
        with pytest.raises(SingularityError, match="non-finite force on local 0"):
            forces_of_pair(LennardJones(), pos, half=half)

    def test_half_list_energy_counts_ghost_pairs_once(self):
        cfg = SimConfig(unit_cells=(4, 4, 4)).validate()
        law = law_from_config(cfg)
        energy = {}
        for half in (False, True):
            store, box, r = periodic_store(cfg)
            grid = build_cell_grid(store, box, r, half=half)
            lists = build_neighbor_lists(store, grid, r, half=half)
            energy[half] = compute_forces(store, lists, law, accumulate_energy=True)
        assert abs(energy[True] - energy[False]) < 1e-10

    @pytest.mark.parametrize("edit", ["drop_local", "add_ghost"])
    def test_stale_lists_rejected(self, edit):
        # lists index the store as it was at build time; after an edit, row 0
        # would be taken against shifted partner indices
        sites = np.stack(np.meshgrid(*[np.arange(4)] * 3, indexing="ij"), -1).reshape(-1, 3)
        store = ParticleStore(row_major_layout(), 64)
        store.append_locals(1.0 + 1.2 * sites[:40], np.zeros((40, 3)))
        grid = build_cell_grid(store, AABB((0.0,) * 3, (9.0,) * 3), 2.8)
        lists = build_neighbor_lists(store, grid, 2.8, half=False)
        if edit == "drop_local":
            store.compact_locals(np.arange(40) > 0)
            counts = "39 locals and 39 particles .* 40 locals and 40 particles"
        else:
            store.append_ghosts(np.array([[8.5, 4.0, 4.0]]), peer=1)
            counts = "40 locals and 41 particles .* 40 locals and 40 particles"
        with pytest.raises(ProtocolError, match=counts):
            compute_forces(store, lists, LennardJones())
        grid = build_cell_grid(store, AABB((0.0,) * 3, (9.0,) * 3), 2.8)
        compute_forces(store, build_neighbor_lists(store, grid, 2.8, half=False), LennardJones())

    @pytest.mark.parametrize("edit", ["partner", "late-partner"])
    def test_corrupt_lists_rejected(self, edit):
        # list data out of range must raise, not make the compiled loop read outside the arrays
        if edit == "late-partner":
            # past the first staged block of a long row, after valid entries
            store, box = clumped_store(1.35, 2.8)
            lists = build_neighbor_lists(store, build_cell_grid(store, box, 2.8), 2.8, half=False)
            assert lists.counts[125] > 280
            row(lists, 125)[280] = store.n_total
            match = f"list row 125 names particle {store.n_total} of {store.n_total}"
            with pytest.raises(ProtocolError, match=match):
                compute_forces(store, lists, LennardJones())
            return
        pos = np.array([[4.0, 4.0, 4.0], [5.0, 4.0, 4.0]])
        store = ParticleStore(row_major_layout(), 2)
        store.append_locals(pos, np.zeros((2, 3)))
        grid = build_cell_grid(store, AABB((0.0,) * 3, (9.0,) * 3), 2.8)
        lists = build_neighbor_lists(store, grid, 2.8, half=False)
        row(lists, 1)[0] = 2
        with pytest.raises(ProtocolError, match="list row 1 names particle 2 of 2"):
            compute_forces(store, lists, LennardJones())

    @pytest.mark.parametrize(
        "edit,value",
        [(0, 1), (1, 5), (-1, 7), (-1, 5)],
        ids=["first-not-zero", "decreasing", "last-past-entries", "last-short-of-entries"],
    )
    @pytest.mark.parametrize("law", [LennardJones(), SpringDashpot(damping=3.0)], ids=["lj", "sd"])
    def test_corrupt_starts_rejected(self, edit, value, law):
        # row starts that do not split the partners into the rows must raise
        # before any row is read, so a row never reads outside the partners:
        # row 0 also names a particle out of range, and no force row is written
        store = ParticleStore(row_major_layout(), 3)
        store.append_locals(np.array([[4.0, 4.0, 4.0], [5.0, 4.0, 4.0], [6.0, 4.0, 4.0]]), np.zeros((3, 3)))
        lists = build_neighbor_lists(store, build_cell_grid(store, AABB((0.0,) * 3, (9.0,) * 3), 2.8), 2.8, half=False)
        assert lists.start.tolist() == [0, 2, 4, 6]
        lists.partners[0] = 3
        lists.start[edit] = value
        store.forces.write_rows(0, np.full((3, 3), 7.0))
        with pytest.raises(ProtocolError, match="^list starts do not split 6 entries into 3 rows$"):
            compute_forces(store, lists, law)
        assert np.all(local_forces(store) == 7.0)

    @pytest.mark.parametrize("where", ["last-row", "after-empty-rows"])
    @pytest.mark.parametrize("law", [LennardJones(), SpringDashpot(damping=3.0)], ids=["lj", "sd"])
    @pytest.mark.parametrize("half", [False, True])
    def test_partner_fault_names_its_row(self, where, law, half):
        # the loop reports the faulty entry's offset into the partners; its
        # row is the last one starting at or before it, past the empty rows
        # that start at the same offset
        store = ParticleStore(row_major_layout(), 6)
        store.append_locals(4.0 + np.outer(np.arange(6.0), [1.0, 0.0, 0.0]) / 2, np.zeros((6, 3)))
        built = build_neighbor_lists(store, build_cell_grid(store, AABB((0.0,) * 3, (9.0,) * 3), 2.8, half=half), 2.8, half=half)
        rows = [row(built, i).tolist() for i in range(6)]
        bad = 5
        if where == "after-empty-rows":
            rows[2] = rows[3] = []
            bad = 4
        rows[bad] = [1, 0, 6] + rows[bad]
        partners, start = csr(rows)
        lists = replace(built, partners=partners, start=start)
        if where == "after-empty-rows":
            assert start[2] == start[3] == start[4]
        with pytest.raises(ProtocolError, match="^list row %d names particle 6 of 6$" % bad):
            compute_forces(store, lists, law)

    @pytest.mark.parametrize(
        "twin_at,bad_at,error",
        [
            (280, None, "coincident"),
            (200, 280, "coincident"),
            (270, 290, "coincident"),
            (290, 270, "partner"),
        ],
        ids=["coincident", "coincident-earlier-block", "coincident-first", "partner-first"],
    )
    @pytest.mark.parametrize("law", [LennardJones(), SpringDashpot(damping=3.0)], ids=["lj", "sd"])
    @pytest.mark.parametrize("half", [False, True])
    def test_fault_past_first_block(self, twin_at, bad_at, error, law, half):
        # local 125's row holds 299 clump partners; its twin (local 424) and a
        # partner index out of range are placed at the given entries of it, so
        # the first fault in row order lies in the second staged block. Half
        # lists hold a local pair on the row of the cell that comes first, so
        # the pairs of local 125 that other rows hold are moved to its row
        store, box = clumped_store(1.35, 2.8, twin=True)
        lists = build_neighbor_lists(store, build_cell_grid(store, box, 2.8, half=half), 2.8, half=half)
        if half:
            pairs = lists.pairs()
            theirs = pairs[:, 1] == 125
            pairs[theirs] = pairs[theirs][:, ::-1]
            partners, start = csr([pairs[pairs[:, 0] == i, 1] for i in range(lists.n_local)])
            lists = replace(lists, partners=partners, start=start)
        partners = row(lists, 125)
        assert partners.size > max(twin_at, bad_at or 0) > KERNEL_BLOCK
        k = int(np.flatnonzero(partners == 424)[0])
        partners[k], partners[twin_at] = partners[twin_at], partners[k]
        if bad_at is not None:
            partners[bad_at] = store.n_total
        if error == "coincident":
            with pytest.raises(SingularityError, match="coincident pair: local 125 and neighbor 424$"):
                compute_forces(store, lists, law)
        else:
            match = f"list row 125 names particle {store.n_total} of {store.n_total}"
            with pytest.raises(ProtocolError, match=match):
                compute_forces(store, lists, law)

    @pytest.mark.parametrize("n_ghost", [0, 2])
    def test_rank_without_locals(self, n_ghost):
        store = ParticleStore(row_major_layout(), 4)
        ghosts = np.array([[4.0, 4.0, 4.0], [5.0, 4.0, 4.0]])[:n_ghost]
        if n_ghost:
            store.append_ghosts(ghosts, peer=1)
        for half in (False, True):
            grid = build_cell_grid(store, AABB((0.0,) * 3, (9.0,) * 3), 2.8, half=half)
            lists = build_neighbor_lists(store, grid, 2.8, half=half)
            assert lists.n_local == 0 and lists.pairs().shape == (0, 2)
            energy = compute_forces(store, lists, LennardJones(), accumulate_energy=True)
            assert energy == 0.0
            assert np.all(store.forces.read_rows(0, store.n_total) == 0.0)


class TestKernelArguments:
    """The compiled loops take bare addresses; each array is checked once
    before a call, so a wrong one raises instead of being read as raw memory."""

    def lists_of_row(self):
        """Three particles in a row: full lists of 6 entries."""
        store = ParticleStore(row_major_layout(), 3)
        store.append_locals(np.array([[4.0, 4.0, 4.0], [5.0, 4.0, 4.0], [6.0, 4.0, 4.0]]), np.zeros((3, 3)))
        grid = build_cell_grid(store, AABB((0.0,) * 3, (9.0,) * 3), 2.8)
        return store, build_neighbor_lists(store, grid, 2.8, half=False)

    def test_addresses_taken_when_made(self):
        # the lists are frozen: the arrays whose addresses were taken stay bound
        store, lists = self.lists_of_row()
        partners, n_entries, start = lists.args
        assert (partners, n_entries, start) == (lists.partners.ctypes.data, 6, lists.start.ctypes.data)
        assert lists.ref_positions_address == lists.ref_positions.ctypes.data
        with pytest.raises(FrozenInstanceError):
            lists.start = lists.start.copy()
        moved = replace(lists, partners=lists.partners.copy())
        assert moved.args[0] == moved.partners.ctypes.data != partners
        compute_forces(store, moved, LennardJones())

    def test_int32_start_rejected(self):
        _, lists = self.lists_of_row()
        with pytest.raises(TypeError, match="^compiled loop argument of dtype int32, expected int64$"):
            replace(lists, start=lists.start.astype(np.int32))

    def test_non_contiguous_partners_rejected(self):
        _, lists = self.lists_of_row()
        strided = np.repeat(lists.partners, 2)[::2]
        np.testing.assert_array_equal(strided, lists.partners)
        with pytest.raises(TypeError, match=r"^compiled loop argument of shape \(6,\) is not C-contiguous$"):
            replace(lists, partners=strided)

    def test_start_of_wrong_shape_rejected(self):
        _, lists = self.lists_of_row()
        with pytest.raises(ProtocolError, match=r"^list starts of shape \(5,\) do not fit 3 rows$"):
            replace(lists, start=np.append(lists.start, 4))

    def test_reference_positions_of_wrong_shape_rejected(self):
        _, lists = self.lists_of_row()
        with pytest.raises(TypeError, match=r"^compiled loop argument of shape \(3, 2\), expected \(3, 3\)$"):
            replace(lists, ref_positions=np.zeros((3, 2)))

    def test_address_checks(self):
        xyz = np.zeros((3, 5))
        assert kernel.address(xyz, np.float64, (3, 5)) == xyz.ctypes.data
        for bad, match in [
            (np.zeros((3, 4)), r"of shape \(3, 4\), expected \(3, 5\)"),
            (np.zeros((5, 3)).T, "is not C-contiguous"),
            (np.zeros((3, 5), dtype=np.float32), "of dtype float32, expected float64"),
            (np.zeros((3, 5)).tolist(), "must be an ndarray, got list"),
        ]:
            with pytest.raises(TypeError, match=match):
                kernel.address(bad, np.float64, (3, 5))

    def test_misaligned_array_rejected(self):
        # the payload of a wire record starts after its 5-byte header
        blob = bytes(5 + 8 * 15)
        payload = np.frombuffer(blob, dtype=np.float64, offset=5).reshape(3, 5)
        assert payload.flags.c_contiguous and not payload.flags.aligned
        with pytest.raises(TypeError, match=r"^compiled loop argument of shape \(3, 5\) is not aligned to its dtype$"):
            kernel.address(payload, np.float64, (3, 5))
        assert kernel.address(payload.copy(), np.float64, (3, 5)) > 0

    def test_parameters_built_once_per_law(self):
        for law in (LennardJones(), SpringDashpot(damping=2.0)):
            code, params = law.kernel_args
            assert law.kernel_args[1] is params
            assert not params.flags.writeable and params.dtype == np.float64


@pytest.mark.parametrize(
    "cc,message",
    [
        (("no-such-compiler-for-nanopair",), "no-such-compiler-for-nanopair"),
        ((*kernel._CC, "--no-such-flag"), r"exited with \d+:\n.*--no-such-flag"),
    ],
    ids=["missing", "rejected"],
)
def test_kernel_build_failure_reported(monkeypatch, cc, message):
    kernel.library.cache_clear()
    monkeypatch.setattr(kernel, "_CC", cc)
    try:
        with pytest.raises(RuntimeError, match=f"cannot compile the pair kernel: {cc[0]}"):
            forces_of_pair(LennardJones(), np.array([[4.0, 4.0, 4.0], [5.0, 4.0, 4.0]]), half=True)
        with pytest.raises(RuntimeError, match=message):
            kernel.library()
    finally:
        kernel.library.cache_clear()


def pair_loop_forces(store, lists, law, half):
    """Oracle: forces and energy from one `pair_force` call per list entry."""
    n_local = store.n_local
    pos, vel = store.all_positions(), store.velocities.read_rows(0, store.n_total)
    forces = np.zeros((n_local, 3))
    energy = 0.0
    for i in range(n_local):
        for j in row(lists, i):
            delta = pos[i] - pos[j]
            rsq = float(delta @ delta)
            if rsq >= law.cutoff_rsq:
                continue
            f = pair_force(law, delta, rsq, vel[i], vel[j])
            forces[i] += f
            e = float(pair_energy(law, rsq))
            if half and j < n_local:
                forces[j] -= f
                energy += e
            else:
                energy += 0.5 * e
    return forces, energy


def row_order_forces(store, lists, law):
    """Oracle, in the compiled loop's order: local i's force is its row's sum
    of s * delta over the in-cutoff partners, from +0.0 in row order (s from
    `force_scalar`); for half lists the reactions, summed per local partner
    in row-major order from +0.0, are then subtracted. The energy is np.sum
    over the rows' in-order sums of `pair_energy`, at weight 1 for a local
    partner of a half list and 0.5 otherwise. Returns (forces, energy)."""
    n_local = store.n_local
    pos, vel = store.all_positions(), store.velocities.read_rows(0, store.n_total)
    own = np.zeros((n_local, 3))
    reactions = [[0.0, 0.0, 0.0] for _ in range(n_local)]
    row_energy = np.zeros(n_local)
    for i in range(n_local):
        partners = row(lists, i)
        d = pos[i] - pos[partners]
        rsq = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]
        keep = rsq < law.cutoff_rsq
        partners, d, rsq = partners[keep], d[keep], rsq[keep]
        vdot = None
        if law.needs_velocities:
            dv = vel[i] - vel[partners]
            vdot = d[:, 0] * dv[:, 0] + d[:, 1] * dv[:, 1] + d[:, 2] * dv[:, 2]
        g = (force_scalar(law, rsq, vdot)[:, None] * d).tolist()
        pair_e = pair_energy(law, rsq).tolist()
        f, e_sum = [0.0, 0.0, 0.0], 0.0
        for j, gj, e in zip(partners.tolist(), g, pair_e):
            f = [f[0] + gj[0], f[1] + gj[1], f[2] + gj[2]]
            local = j < n_local
            if lists.half and local:
                r = reactions[j]
                reactions[j] = [r[0] + gj[0], r[1] + gj[1], r[2] + gj[2]]
            e_sum += e if (lists.half and local) else 0.5 * e
        own[i] = f
        row_energy[i] = e_sum
    return own - np.array(reactions), float(row_energy.sum())


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
        lists = build_neighbor_lists(store, build_cell_grid(store, box, r, half=half), r, half=half)
        # the build puts the farthest cells last in each row; shuffling the
        # partners puts in-cutoff entries in every column, the last included
        rng = np.random.default_rng(5)
        for i in range(store.n_local):
            row(lists, i)[...] = rng.permutation(row(lists, i))
        # rows of unequal length and ghost partners both occur
        assert lists.counts.min() < lists.counts.max()
        assert np.any(lists.partners >= store.n_local)
        want, want_energy = pair_loop_forces(store, lists, law, half)
        got_energy = compute_forces(store, lists, law, accumulate_energy=True)
        got = local_forces(store)
        scale = np.abs(want).max()
        assert scale > 0.0
        np.testing.assert_allclose(got, want, rtol=0.0, atol=self.RTOL * scale)
        assert abs(got_energy - want_energy) <= self.RTOL * abs(want_energy)

    @pytest.mark.parametrize(
        "law,clump_radius,r",
        [
            (LennardJones(1.0, 1.0, 2.5), 1.35, 2.8),
            (SpringDashpot(stiffness=100.0, damping=0.0, diameter=1.0), 0.6, 1.3),
            (SpringDashpot(stiffness=100.0, damping=3.0, diameter=1.0), 0.6, 1.3),
        ],
        ids=["lj", "sd", "sd-damped"],
    )
    @pytest.mark.parametrize("half", [False, True])
    def test_row_order_bitwise(self, law, clump_radius, r, half):
        # a reordered sum passes the 1e-12 comparison above but not this one
        store, box = clumped_store(clump_radius, r)
        lists = build_neighbor_lists(store, build_cell_grid(store, box, r, half=half), r, half=half)
        rng = np.random.default_rng(9)
        for i in range(store.n_local):
            row(lists, i)[...] = rng.permutation(row(lists, i))
        assert lists.counts.max() > KERNEL_BLOCK and lists.counts.min() == 0
        want, want_energy = row_order_forces(store, lists, law)
        got_energy = compute_forces(store, lists, law, accumulate_energy=True)
        np.testing.assert_array_equal(local_forces(store), want)
        assert got_energy == want_energy

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
    def test_row_order_bitwise_with_ghost_partners(self, law, r, half):
        # the clumped store's rows never reach a ghost; the jittered one's do,
        # across every face, and its force rows are written back through the map
        store, box = jittered_store(21, r)
        lists = build_neighbor_lists(store, build_cell_grid(store, box, r, half=half), r, half=half)
        rng = np.random.default_rng(9)
        for i in range(store.n_local):
            row(lists, i)[...] = rng.permutation(row(lists, i))
        assert np.any(lists.partners >= store.n_local)
        want, want_energy = row_order_forces(store, lists, law)
        got_energy = compute_forces(store, lists, law, accumulate_energy=True)
        np.testing.assert_array_equal(local_forces(store), want)
        assert got_energy == want_energy

    @pytest.mark.parametrize(
        "law,clump_radius,r",
        [
            (LennardJones(1.0, 1.0, 2.5), 1.35, 2.8),
            (SpringDashpot(stiffness=100.0, damping=0.0, diameter=1.0), 0.6, 1.3),
            (SpringDashpot(stiffness=100.0, damping=3.0, diameter=1.0), 0.6, 1.3),
        ],
        ids=["lj", "sd", "sd-damped"],
    )
    @pytest.mark.parametrize("fill", ["clumped", "jittered"])
    def test_row_order_bitwise_with_lower_local_partners(self, law, clump_radius, r, fill):
        # the build puts a local pair in the row of the local whose cell
        # comes first (in one cell, of the lower index), so rows already name
        # some local partners j < i, whose reactions land on rows already
        # summed: the kernel must sum the reactions over all rows first and
        # subtract them after the last. Moving 90 % of the local pairs to
        # the other row and shuffling each row makes such partners common,
        # in any order; it keeps both kinds of local partner in most rows and
        # leaves the clump's last rows longer than KERNEL_BLOCK; the jittered
        # store adds ghost partners, which the clumped one lacks
        store, box = clumped_store(clump_radius, r) if fill == "clumped" else jittered_store(21, r)
        built = build_neighbor_lists(store, build_cell_grid(store, box, r, half=True), r, half=True)
        n_local = store.n_local
        rng = np.random.default_rng(13)
        pairs = built.pairs()
        flip = (pairs[:, 1] < n_local) & (rng.random(len(pairs)) < 0.9)
        pairs[flip] = pairs[flip][:, ::-1]
        rows = [rng.permutation(pairs[pairs[:, 0] == i, 1]) for i in range(n_local)]
        partners, start = csr(rows)
        lists = replace(built, partners=partners, start=start)
        lower = [(r < i).any() for i, r in enumerate(rows)]
        assert lists.half and sum(lower) > n_local // 4
        if fill == "clumped":
            assert lists.counts.max() > KERNEL_BLOCK
        else:
            assert np.any(partners >= n_local)
        want, want_energy = row_order_forces(store, lists, law)
        got_energy = compute_forces(store, lists, law, accumulate_energy=True)
        np.testing.assert_array_equal(local_forces(store), want)
        assert got_energy == want_energy


# the laws of the inner-list tests, with the reach of their Verlet lists
INNER_LAWS = [
    (LennardJones(1.0, 1.0, 2.5), 2.8),
    (SpringDashpot(stiffness=100.0, damping=0.0, diameter=1.0), 1.3),
    (SpringDashpot(stiffness=100.0, damping=3.0, diameter=1.0), 1.3),
]
INNER_LAYOUTS = [row_major_layout(), column_major_layout(), clustered_layout(4)]
# delta of these lists, up to rounding: a third of their reach past the
# cutoff (0.3), as compute_forces takes it
INNER_DELTA = 0.1


def jittered_in(layout, seed, r):
    """jittered_store(seed, r) copied into a store of `layout`."""
    src, box = jittered_store(seed, r)
    store = ParticleStore(layout, src.n_total)
    store.append_locals(src.local_positions(), src.local_velocities())
    store.append_ghosts(src.positions.read_rows(src.n_local, src.n_ghost), peer=0)
    return store, box


def forces_and_energy(store, lists, law):
    energy = compute_forces(store, lists, law, accumulate_energy=True)
    return local_forces(store), energy


def verlet_forces_and_energy(store, lists, law):
    """Forces and energy from the Verlet rows: a copy of the lists holds no
    inner rows, so its call runs them."""
    return forces_and_energy(store, replace(lists), law)


def inner_row(lists, i):
    """Row i of the lists' held inner rows."""
    inner = lists.inner
    return inner.partners[inner.start[i] : inner.start[i + 1]]


def inner_moved(store, lists):
    """The largest move of any row since the prune, by the pass compute_forces reads."""
    h, ref = store.positions, lists.inner.ref_positions
    return kernel.library().max_displacement(h.map_address, h.address, kernel.address(ref, np.float64), store.n_total)


class TestInnerLists:
    """Forces from the held inner rows equal forces from the Verlet rows they
    were pruned from, bit for bit, until a row moves the trigger (delta / 2
    less the rounding margin)."""

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.sampled_from(range(len(INNER_LAWS))),
        layout=st.sampled_from(range(len(INNER_LAYOUTS))),
        half=st.booleans(),
        seed=st.integers(0, 2**31),
        reach=st.floats(0.5, 1.0),
    )
    def test_forces_equal_after_moves_below_trigger(self, case, layout, half, seed, reach):
        law, r = INNER_LAWS[case]
        store, box = jittered_in(INNER_LAYOUTS[layout], seed % 1000, r)
        grid = build_cell_grid(store, box, r, half=half)
        lists = build_neighbor_lists(store, grid, r, half)
        inner = lists.inner
        # the first call prunes, gives the Verlet rows' bits, and keeps fewer entries
        want = verlet_forces_and_energy(store, lists, law)
        got = forces_and_energy(store, lists, law)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]
        assert inner.held and inner.prunes == 1
        assert 0 < inner.args[1] < lists.partners.size
        assert 0.5 * INNER_DELTA - 1e-11 < inner.trigger < 0.5 * INNER_DELTA
        # every row, ghosts included, moves in a random direction by `reach`
        # of the way to the trigger, just below it at reach = 1
        rng = np.random.default_rng(seed)
        move = rng.normal(size=(store.n_total, 3))
        move *= reach * (1.0 - 1e-9) * inner.trigger / np.linalg.norm(move, axis=1)[:, None]
        store.positions.write_rows(0, store.positions.read_rows(0, store.n_total) + move)
        assert inner_moved(store, lists) < inner.trigger
        want = verlet_forces_and_energy(store, lists, law)
        got = forces_and_energy(store, lists, law)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]
        assert inner.held and inner.prunes == 1

    @pytest.mark.parametrize("half", [False, True])
    def test_head_on_pair_at_the_reach_stays_out(self, half):
        # the closest approach the trigger allows: a pair the prune measured
        # just beyond r_c + delta, whose rows then move straight toward each
        # other by just below the trigger; it stays beyond r_c, so it adds
        # nothing, from the inner rows (which dropped it) or the Verlet rows
        law = LennardJones(1.0, 1.0, 2.5)
        gap = 2.5 + INNER_DELTA
        while True:
            # rows 0 and 1 are `gap` apart; row 2 is 1 from row 0 and 3.6 from row 1
            store = ParticleStore(row_major_layout(), 3)
            store.append_locals(np.array([[3.0, 4.0, 4.0], [3.0 + gap, 4.0, 4.0], [2.0, 4.0, 4.0]]), np.zeros((3, 3)))
            grid = build_cell_grid(store, AABB((0.0,) * 3, (9.0,) * 3), 2.8, half)
            lists = build_neighbor_lists(store, grid, 2.8, half)
            compute_forces(store, lists, law)
            if 1 not in inner_row(lists, 0) and 0 not in inner_row(lists, 1):
                break
            gap = np.nextafter(gap, np.inf)
        assert 1 in row(lists, 0) or 0 in row(lists, 1)
        assert gap - (2.5 + INNER_DELTA) < 1e-14
        step = lists.inner.trigger
        while True:
            pos = store.positions.read_rows(0, 3)
            pos[0, 0] += step
            pos[1, 0] -= step
            moved = store.positions.read_rows(0, 3)
            store.positions.write_rows(0, pos)
            if inner_moved(store, lists) < lists.inner.trigger:
                break
            store.positions.write_rows(0, moved)
            step = np.nextafter(step, 0.0)
        want = verlet_forces_and_energy(store, lists, law)
        got = forces_and_energy(store, lists, law)
        assert lists.inner.prunes == 1
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]
        # the pair adds nothing: row 1 has no other partner
        assert want[0][1].tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("law,r", INNER_LAWS[:2], ids=["lj", "sd"])
    def test_failed_prune_keeps_no_inner_list(self, law, r):
        # a faulty Verlet entry raises at the next prune, which then holds no
        # rows: the call after it prunes again instead of running stale rows
        store, box = jittered_in(row_major_layout(), 1, r)
        lists = build_neighbor_lists(store, build_cell_grid(store, box, r, half=True), r, True)
        compute_forces(store, lists, law)
        assert lists.inner.held
        row(lists, 7)[0] = store.n_total
        lists.inner.held = False
        for _ in range(2):
            with pytest.raises(ProtocolError, match=f"list row 7 names particle {store.n_total} of {store.n_total}"):
                compute_forces(store, lists, law)
            assert not lists.inner.held and lists.inner.prunes == 1

    def test_first_call_on_new_lists_prunes(self):
        law, r = INNER_LAWS[0]
        store, box = jittered_in(row_major_layout(), 2, r)
        lists = build_neighbor_lists(store, build_cell_grid(store, box, r), r, False)
        assert not lists.inner.held and lists.inner.prunes == 0
        compute_forces(store, lists, law)
        compute_forces(store, lists, law)
        assert lists.inner.held and lists.inner.prunes == 1
        # a copy is new lists, with an inner list of its own
        copy = replace(lists)
        assert copy.inner is not lists.inner
        assert not copy.inner.held and copy.inner.prunes == 0
        compute_forces(store, copy, law)
        assert copy.inner.prunes == 1 and lists.inner.prunes == 1

    def test_fault_named_from_held_rows(self):
        # a coincident pair met in the held rows names its own local and
        # partner: two locals 5/128 apart, each moved 5/256 toward the other
        # (below the trigger), so they meet exactly
        law, r = INNER_LAWS[0]
        src, box = jittered_store(3, r)
        pos = src.local_positions()
        i, j = 60, 61
        pos[j] = pos[i] + [5 / 128, 0.0, 0.0]
        store = with_periodic_ghosts(pos, src.local_velocities(), box, r)
        lists = build_neighbor_lists(store, build_cell_grid(store, box, r), r, False)
        compute_forces(store, lists, law)
        assert j in inner_row(lists, i)
        assert lists.inner.start[i] != lists.start[i]
        meet = pos[i] + [5 / 256, 0.0, 0.0]
        store.positions.write_rows(i, np.stack([meet, meet]))
        assert inner_moved(store, lists) < lists.inner.trigger
        assert lists.inner.held
        with pytest.raises(SingularityError, match=f"^coincident pair: local {i} and neighbor {j}$"):
            compute_forces(store, lists, law)
        assert not lists.inner.held and lists.inner.prunes == 1


def test_optimisation_level_keeps_bits(monkeypatch):
    """Forces and energies at -O0 equal those of the package's flags, bit for
    bit, on the clumped store (rows longer than a block) and on the jittered
    one (ghost partners)."""
    cases = []
    for law, clump_radius, r in (
        (LennardJones(1.0, 1.0, 2.5), 1.35, 2.8),
        (SpringDashpot(stiffness=100.0, damping=3.0, diameter=1.0), 0.6, 1.3),
    ):
        for store, box in (clumped_store(clump_radius, r), jittered_store(21, r)):
            for half in (False, True):
                lists = build_neighbor_lists(store, build_cell_grid(store, box, r, half=half), r, half=half)
                cases.append((store, lists, law))

    def results():
        out = []
        for store, lists, law in cases:
            energy = compute_forces(store, lists, law, accumulate_energy=True)
            out.append((local_forces(store), energy))
        return out

    o0 = tuple("-O0" if flag.startswith("-O") else flag for flag in kernel._CC)
    assert "-O0" in o0 and o0 != kernel._CC
    kernel.library.cache_clear()
    monkeypatch.setattr(kernel, "_CC", o0)
    try:
        at_o0 = results()
    finally:
        monkeypatch.undo()
        kernel.library.cache_clear()
    for (f0, e0), (f, e) in zip(at_o0, results()):
        np.testing.assert_array_equal(f, f0)
        assert e == e0
