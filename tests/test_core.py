import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanopair.core import AABB, ConfigError, SimConfig, pbc_correct

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
        "field", ["particles_per_cell", "steps", "reneigh_interval", "aosoa_cluster", "rng_seed"]
    )
    def test_non_integer_field_rejected(self, field, value):
        # 4.0 is in (1, 2, 4) and 2.5 > 0, so only a type check catches these
        kwargs = {"unit_cells": (6, 6, 6), "layout_kind": "aosoa", field: value}
        with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
            SimConfig(**kwargs).validate()

    def test_numpy_integer_fields_accepted(self):
        SimConfig(unit_cells=(6, 6, 6), steps=np.int64(3), rng_seed=np.int64(411)).validate()

    def test_spring_dashpot_contact_cutoff_accepted(self):
        SimConfig(potential_kind="sd", cutoff=1.0, diameter=1.0, damping=0.0).validate()
