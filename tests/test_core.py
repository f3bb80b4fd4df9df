import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanopair.comm import LOAD_BINS, _load_histogram
from nanopair.core import AABB, ConfigError, SimConfig
from nanopair.layout import clustered_layout, column_major_layout, row_major_layout
from nanopair.particles import ParticleStore

BOX8 = AABB((0.0,) * 3, (8.0,) * 3)


def pbc_correct(p, global_box: AABB):
    """Oracle of the periodic wrap of the compiled load histogram: positions
    wrapped into [min, max) by integer multiples of the domain length.

    Accepts a (3,) or an (n, 3) array and returns a new array of that shape;
    the input is never modified. Each axis is handled on its own, and only
    the coordinates outside [min, max) are touched: they become
    min + mod(x - min, length), moved down by one length where rounding
    lands that on max and raised to min where it falls below. In-domain
    coordinates pass through untouched, which makes the function exactly
    idempotent. NaN stays NaN.
    """
    length = tuple(b - a for a, b in zip(global_box.min, global_box.max))
    if any(ln <= 0 for ln in length):
        raise ValueError("domain must have positive extent in all dimensions")
    pts = np.array(p, dtype=np.float64)
    for d, (lo, hi, ln) in enumerate(zip(global_box.min, global_box.max, length)):
        axis = pts[..., d]
        outside = ~((axis >= lo) & (axis < hi))
        if not outside.any():
            continue
        wrapped = lo + np.mod(axis[outside] - lo, ln)
        # mod can land exactly on the upper bound through rounding
        wrapped = np.where(wrapped >= hi, wrapped - ln, wrapped)
        wrapped = np.where(wrapped < lo, lo, wrapped)
        axis[outside] = wrapped
    return pts


def histogram_oracle(pts, box):
    """The (3, LOAD_BINS) load histogram of (n, 3) points by numpy: wrapped
    by `pbc_correct`, then floor((w - lo) / ext * LOAD_BINS) clamped to the
    bins. NaN goes to bin 0, where numpy's cast of NaN to int64 (INT64_MIN on
    x86) followed by the clip put it."""
    lo, ext = box.lo, box.extent()
    f = np.floor((pbc_correct(pts, box) - lo) / ext * LOAD_BINS)
    bins = np.clip(np.where(np.isnan(f), 0.0, f), 0, LOAD_BINS - 1).astype(np.int64)
    return np.stack([np.bincount(bins[:, d], minlength=LOAD_BINS) for d in range(3)]).astype(np.float64)


def compiled_histogram(pts, box, layout=None):
    """The load histogram of (n, 3) points held as the locals of a store."""
    pts = np.atleast_2d(pts)
    store = ParticleStore(layout or row_major_layout(), max(pts.shape[0], 1))
    store.append_locals(pts, np.zeros_like(pts))
    return _load_histogram(store, box)


def wrap_by_repeated_subtraction(x, lo, hi):
    length = hi - lo
    while x >= hi:
        x -= length
    while x < lo:
        x += length
    return x


def pbc_broadcast(p, box):
    """The (n, 3)-against-(3,) formula pbc_correct once used: the reference
    its per-axis form must reproduce bit for bit."""
    lo, hi = box.lo, box.hi
    length = hi - lo
    pts = np.array(p, dtype=np.float64)
    inside = (pts >= lo) & (pts < hi)
    wrapped = lo + np.mod(pts - lo, length)
    wrapped = np.where(wrapped >= hi, wrapped - length, wrapped)
    wrapped = np.where(wrapped < lo, lo, wrapped)
    return np.where(inside, pts, wrapped)


def contains_broadcast(box, points):
    p = np.atleast_2d(points)
    return np.all((p >= box.lo) & (p < box.hi), axis=1)


# lengths that are not powers of two, so wrapping rounds
ODD_BOX = AABB((-1.5, 0.1, 2.0), (6.7, 7.3, 3.1))


def awkward_points(box, n=400, seed=11):
    """Random points up to several box lengths out, plus the edge cases:
    exactly on lo and on hi, a hair below lo (where mod rounds onto the
    length), a hair below hi, several lengths out exactly, and NaN."""
    rng = np.random.default_rng(seed)
    lo, hi = box.lo, box.hi
    ext = hi - lo
    pts = [lo + rng.uniform(-4.0, 5.0, size=(n, 3)) * ext]
    for row in (lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, -np.inf),
                lo - 1e-17, lo - 3.0 * ext, hi + 2.0 * ext, lo + 0.5 * ext):
        pts.append(row[None, :])
    pts.append(np.array([[np.nan, lo[1], hi[2]]]))
    # every edge value on every axis, mixed with interior coordinates
    edges = np.concatenate(pts[1:-1])
    mixed = np.repeat((lo + 0.5 * ext)[None, :], 3 * edges.shape[0], axis=0)
    for d in range(3):
        mixed[d * edges.shape[0] : (d + 1) * edges.shape[0], d] = edges[:, d]
    pts.append(mixed)
    return np.concatenate(pts)


class TestPerAxisOracles:
    """pbc_correct and AABB.contains run one axis at a time; they must give
    exactly what the broadcast formulas gave, NaN included."""

    @pytest.mark.parametrize("box", [BOX8, ODD_BOX], ids=["cube8", "odd"])
    def test_pbc_correct_matches_broadcast(self, box):
        pts = awkward_points(box)
        before = pts.copy()
        got = pbc_correct(pts, box)
        want = pbc_broadcast(pts, box)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert pts.tobytes() == before.tobytes()  # the input is not modified
        assert np.all((got >= box.lo) & (got < box.hi) | np.isnan(got))

    @pytest.mark.parametrize("box", [BOX8, ODD_BOX], ids=["cube8", "odd"])
    def test_pbc_correct_single_point(self, box):
        for p in awkward_points(box, n=20):
            before = p.copy()
            got = pbc_correct(p, box)
            assert got.shape == (3,)
            assert got.tobytes() == pbc_broadcast(p, box).tobytes()
            assert p.tobytes() == before.tobytes()

    def test_mod_rounding_onto_hi_wraps_to_lo(self):
        # mod(-1e-17, 8) rounds to 8.0, which must come back to 0.0, in the
        # oracle and in the compiled histogram's wrap: bin 0, not bin 255
        assert np.mod(-1e-17, 8.0) == 8.0
        p = np.array([-1e-17, 0.0, 8.0])
        np.testing.assert_array_equal(pbc_correct(p, BOX8), [0.0, 0.0, 0.0])
        hist = compiled_histogram(p, BOX8)
        assert hist[:, 0].tolist() == [1.0, 1.0, 1.0] and hist.sum() == 3.0
        assert hist.tobytes() == histogram_oracle(p[None, :], BOX8).tobytes()

    @pytest.mark.parametrize("box", [BOX8, ODD_BOX], ids=["cube8", "odd"])
    @pytest.mark.parametrize(
        "layout", [row_major_layout(), column_major_layout(), clustered_layout(1), clustered_layout(8)],
        ids=["aos", "soa", "aosoa1", "aosoa8"],
    )
    def test_load_histogram_matches_oracle(self, box, layout):
        # every edge case of the wrap (on lo and hi, a hair below each,
        # -1e-17, lengths out, NaN), one point on every bin edge and one a
        # hair below it: the compiled histogram bins them as the oracle does
        lo, ext = box.lo, box.extent()
        edges = lo + ext * (np.arange(LOAD_BINS) / LOAD_BINS)[:, None]
        pts = np.concatenate([awkward_points(box), edges, np.nextafter(edges, -np.inf)])
        before = pts.copy()
        got = compiled_histogram(pts, box, layout)
        assert got.tobytes() == histogram_oracle(pts, box).tobytes()
        assert got.sum() == 3 * pts.shape[0]
        assert pts.tobytes() == before.tobytes()

    def test_pbc_correct_of_a_view_copies(self):
        # a transposed (coordinate-major) block wraps the same and stays untouched
        pts = awkward_points(ODD_BOX)
        xyz = np.ascontiguousarray(pts.T)
        before = xyz.copy()
        assert pbc_correct(xyz.T, ODD_BOX).tobytes() == pbc_broadcast(pts, ODD_BOX).tobytes()
        assert xyz.tobytes() == before.tobytes()

    @pytest.mark.parametrize("box", [BOX8, ODD_BOX], ids=["cube8", "odd"])
    def test_contains_matches_broadcast(self, box):
        pts = awkward_points(box)
        np.testing.assert_array_equal(box.contains(pts), contains_broadcast(box, pts))
        for p in pts[-30:]:
            np.testing.assert_array_equal(box.contains(p), contains_broadcast(box, p))
        assert box.contains(box.lo).tolist() == [True]
        assert box.contains(box.hi).tolist() == [False]
        assert box.contains(np.empty((0, 3))).shape == (0,)


class TestPbcCorrect:
    def test_single_period_wrap(self):
        p = pbc_correct(np.array([-0.1, 1.0, 1.0]), BOX8)
        assert p[0] == pytest.approx(7.9)
        assert p[1] == 1.0 and p[2] == 1.0

    def test_identity_inside(self):
        p = np.array([3.25, 0.0, 7.999])
        np.testing.assert_array_equal(pbc_correct(p, BOX8), p)

    def test_multi_period_matches_repeated_subtraction(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-24.0, 24.0, size=200)
        got = pbc_correct(np.column_stack([xs, xs * 0 + 1, xs * 0 + 1]), BOX8)[:, 0]
        want = [wrap_by_repeated_subtraction(x, 0.0, 8.0) for x in xs]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert pbc_correct(np.array([16.5, 0, 0]), BOX8)[0] == pytest.approx(0.5)

    @given(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0), st.floats(-100.0, 100.0))
    @settings(max_examples=200)
    def test_idempotent_exactly(self, x, y, z):
        once = pbc_correct(np.array([x, y, z]), BOX8)
        twice = pbc_correct(once, BOX8)
        np.testing.assert_array_equal(twice, once)
        # the compiled histogram wraps the same: a point and its wrapped
        # image fall into the same bins, the oracle's
        hist = compiled_histogram(np.array([x, y, z]), BOX8)
        assert hist.tobytes() == compiled_histogram(once, BOX8).tobytes()
        assert hist.tobytes() == histogram_oracle(once[None, :], BOX8).tobytes()

    def test_result_in_half_open_domain(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-30, 30, size=(500, 3))
        out = pbc_correct(pts, BOX8)
        assert np.all(out >= 0.0) and np.all(out < 8.0)


class TestSimConfig:
    def test_defaults_valid(self):
        cfg = SimConfig().validate()
        assert cfg.interaction_radius() == pytest.approx(2.8)

    def test_domain_extent(self):
        cfg = SimConfig(unit_cells=(4, 4, 4))
        a = cfg.lattice_constant()
        assert a == pytest.approx((4 / 0.8442) ** (1 / 3))
        np.testing.assert_allclose(cfg.domain().extent(), 4 * a)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"unit_cells": (0, 4, 4)},
            {"dt": 0.005, "steps": -1},
            {"cutoff": -1.0},
            {"reneigh_interval": 0},
            {"potential_kind": "eam"},
            {"layout_kind": "csr"},
            {"layout_kind": "aosoa", "aosoa_cluster": 6},
            {"fill": "spiral"},
            {"unit_cells": (1, 1, 1)},  # domain smaller than interaction radius
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SimConfig(**kwargs).validate()

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"cutoff": 0.5, "diameter": 1.0}, "cutoff"),
            ({"cutoff": 1.0, "damping": 0.5}, "damping"),
        ],
    )
    def test_spring_dashpot_rejected(self, kwargs, field):
        with pytest.raises(ConfigError, match=field):
            SimConfig(potential_kind="sd", **kwargs).validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field",
        ["lattice_density", "dt", "cutoff", "verlet_buffer", "epsilon", "sigma",
         "stiffness", "damping", "diameter", "mass", "velocity_scale"],
    )
    def test_non_finite_real_rejected(self, field, value):
        # x <= 0 and x < 0 are both False for NaN, so only a finiteness check catches it
        with pytest.raises(ConfigError, match=f"^{field} must be finite"):
            SimConfig(unit_cells=(6, 6, 6), **{field: value}).validate()

    @pytest.mark.parametrize("value", [2.5, 4.0, "4", True])
    @pytest.mark.parametrize(
        "field", ["steps", "reneigh_interval", "aosoa_cluster"]
    )
    def test_non_integer_field_rejected(self, field, value):
        # 4.0 is a power of two and 2.5 > 0, so only a type check catches these
        kwargs = {"unit_cells": (6, 6, 6), "layout_kind": "aosoa", field: value}
        with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
            SimConfig(**kwargs).validate()

    def test_numpy_integer_fields_accepted(self):
        SimConfig(unit_cells=(6, 6, 6), steps=np.int64(3), aosoa_cluster=np.int64(4)).validate()

    def test_numpy_integer_unit_cells_accepted(self):
        # the integer rule of the integer fields above
        cfg = SimConfig(unit_cells=(np.int64(6),) * 3).validate()
        assert cfg.domain() == SimConfig(unit_cells=(6, 6, 6)).domain()

    @pytest.mark.parametrize("cells", [(True, True, True), (np.bool_(True),) * 3, (6, 6, 6.0)])
    def test_non_integer_unit_cells_rejected(self, cells):
        # at a density this low, (True, True, True) would pass the domain
        # check as a 1 x 1 x 1 lattice
        with pytest.raises(ConfigError, match="^unit_cells must be three positive integers"):
            SimConfig(unit_cells=cells, lattice_density=0.01).validate()

    def test_spring_dashpot_contact_cutoff_accepted(self):
        SimConfig(potential_kind="sd", cutoff=1.0, diameter=1.0, damping=0.0).validate()

    def test_zero_buffer_with_reneigh_interval_rejected(self):
        # lists without a buffer are stale after one move, and the driver
        # would raise GuardViolation at the first step after each rebuild
        with pytest.raises(ConfigError, match="^verlet_buffer must be positive when reneigh_interval > 1"):
            SimConfig(unit_cells=(6, 6, 6), verlet_buffer=0.0, reneigh_interval=2).validate()

    def test_zero_buffer_rebuilt_every_step_accepted(self):
        # lists rebuilt at every step are never checked against the buffer
        SimConfig(unit_cells=(6, 6, 6), verlet_buffer=0.0, reneigh_interval=1).validate()
