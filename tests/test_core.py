import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanopair.core import (
    AABB,
    ConfigError,
    SimConfig,
    Vec3,
    minimum_image,
    pbc_correct,
)

BOX8 = AABB.cube(0.0, 8.0)


def wrap_by_repeated_subtraction(x, lo, hi):
    length = hi - lo
    while x >= hi:
        x -= length
    while x < lo:
        x += length
    return x


class TestPbcCorrect:
    def test_single_period_wrap(self):
        p = pbc_correct(Vec3(-0.1, 1.0, 1.0), BOX8)
        assert p.x == pytest.approx(7.9)
        assert p.y == 1.0 and p.z == 1.0

    def test_identity_inside(self):
        p = Vec3(3.25, 0.0, 7.999)
        assert pbc_correct(p, BOX8) == p

    def test_multi_period_matches_repeated_subtraction(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-24.0, 24.0, size=200)
        got = pbc_correct(np.column_stack([xs, xs * 0 + 1, xs * 0 + 1]), BOX8)[:, 0]
        want = [wrap_by_repeated_subtraction(x, 0.0, 8.0) for x in xs]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert pbc_correct(Vec3(16.5, 0, 0), BOX8).x == pytest.approx(0.5)

    @given(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0), st.floats(-100.0, 100.0))
    @settings(max_examples=200)
    def test_idempotent_exactly(self, x, y, z):
        once = pbc_correct(Vec3(x, y, z), BOX8)
        twice = pbc_correct(once, BOX8)
        assert (twice.x, twice.y, twice.z) == (once.x, once.y, once.z)

    def test_result_in_half_open_domain(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-30, 30, size=(500, 3))
        out = pbc_correct(pts, BOX8)
        assert np.all(out >= 0.0) and np.all(out < 8.0)


class TestMinimumImage:
    def test_nearest_image(self):
        d = minimum_image(Vec3(7.9, 0.0, 0.0), BOX8)
        assert d.x == pytest.approx(-0.1)

    def test_zero(self):
        d = minimum_image(Vec3(0.0, 0.0, 0.0), BOX8)
        assert (d.x, d.y, d.z) == (0.0, 0.0, 0.0)

    def test_half_open_interval_convention(self):
        assert minimum_image(Vec3(4.0, 0, 0), BOX8).x == 4.0
        assert minimum_image(Vec3(-4.0, 0, 0), BOX8).x == 4.0

    def test_matches_27_image_enumeration(self):
        # independent oracle: try all 27 lattice offsets, keep the shortest
        rng = np.random.default_rng(11)
        deltas = rng.uniform(-11.9, 11.9, size=(300, 3))
        L = 8.0
        offs = np.array(
            [(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)],
            dtype=np.float64,
        )
        got = minimum_image(deltas, BOX8)
        norms_got = (got * got).sum(axis=1)
        for off in offs:
            cand = deltas + off * L
            assert np.all(norms_got <= (cand * cand).sum(axis=1) + 1e-12)


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
            {"particles_per_cell": 3},
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

    def test_spring_dashpot_contact_cutoff_accepted(self):
        SimConfig(potential_kind="sd", cutoff=1.0, diameter=1.0, damping=0.0).validate()
