import itertools
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanopair.layout import (
    ArrayHandle,
    clustered_layout,
    column_major_layout,
    layout_from_config,
    row_major_layout,
)

ALL_LAYOUTS = [
    row_major_layout(),
    column_major_layout(),
    clustered_layout(4),
    clustered_layout(8),
]


class TestIndexFormulas:
    def test_row_major_example(self):
        lay = row_major_layout()
        assert lay.index_2d(size_x=4, size_y=3, x=2, y=1) == 7

    def test_column_major_example(self):
        lay = column_major_layout()
        assert lay.index_2d(size_x=5, size_y=3, x=2, y=1) == 7

    def test_clustered_example(self):
        # i = 5 >> 2 = 1, j = 5 & 3 = 1: 4 * (1 * 3 + 1) + 1 = 17
        lay = clustered_layout(4)
        assert lay.index_2d(size_x=8, size_y=3, x=5, y=1) == 17

    @pytest.mark.parametrize("lay", ALL_LAYOUTS, ids=lambda l: l.kind.value + str(l.cluster_size))
    @pytest.mark.parametrize("size_x,size_y", [(1, 1), (5, 3), (64, 8), (17, 4)])
    def test_injective_within_capacity(self, lay, size_x, size_y):
        seen = set()
        cap = lay.required_capacity(size_x, size_y)
        for x, y in itertools.product(range(size_x), range(size_y)):
            idx = lay.index_2d(size_x, size_y, x, y)
            assert 0 <= idx < cap
            seen.add(idx)
        assert len(seen) == size_x * size_y

    def test_cluster_size_one_is_row_major(self):
        unit = clustered_layout(1)
        row = row_major_layout()
        for size_x, size_y in [(1, 1), (7, 3), (16, 5)]:
            for x, y in itertools.product(range(size_x), range(size_y)):
                assert unit.index_2d(size_x, size_y, x, y) == row.index_2d(size_x, size_y, x, y)

    def test_bad_cluster_size(self):
        with pytest.raises(ValueError):
            clustered_layout(6)


class TestScalarOps:
    @pytest.mark.parametrize("lay", ALL_LAYOUTS, ids=lambda l: l.kind.value + str(l.cluster_size))
    def test_set_get_roundtrip(self, lay):
        a = ArrayHandle(lay, 10, 3)
        a.set(3, 1, 2.5)
        assert a.get(3, 1) == 2.5

    def test_add_identity(self):
        a = ArrayHandle(row_major_layout(), 4, 3)
        a.set(1, 2, 9.0)
        a.add(1, 2, 0.0)
        assert a.get(1, 2) == 9.0

    def test_out_of_range_rejected(self):
        a = ArrayHandle(row_major_layout(), 4, 3)
        with pytest.raises(IndexError):
            a.get(4, 0)
        with pytest.raises(IndexError):
            a.set(0, 3, 1.0)

    def test_concurrent_atomic_add_sums_exactly(self):
        a = ArrayHandle(row_major_layout(atomic_add=True), 2, 3)
        n, workers = 2000, 8

        def hammer(_):
            for _ in range(n // workers):
                a.add(1, 1, 1.0)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(hammer, range(workers)))
        assert a.get(1, 1) == float(n)


class TestVec3Ops:
    @pytest.mark.parametrize("lay", ALL_LAYOUTS, ids=lambda l: l.kind.value + str(l.cluster_size))
    def test_roundtrip_sequence(self, lay):
        rng = np.random.default_rng(0)
        n = 23
        a = ArrayHandle(lay, n, 3)
        vals = rng.normal(size=(n, 3))
        for i in range(n):
            a.set_vec3(i, vals[i])
        for i in range(n):
            np.testing.assert_array_equal(a.get_vec3(i), vals[i])

    def test_add_vec3(self):
        a = ArrayHandle(row_major_layout(), 3, 3)
        a.set_vec3(0, [1.0, 2.0, 3.0])
        a.add_vec3(0, [0.5, -2.0, 1.0])
        np.testing.assert_array_equal(a.get_vec3(0), [1.5, 0.0, 4.0])

    def test_soa_and_aos_buffers_are_permutations(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=(8, 3))
        handles = [ArrayHandle(row_major_layout(), 8, 3), ArrayHandle(column_major_layout(), 8, 3)]
        for h in handles:
            for i in range(8):
                h.set_vec3(i, vals[i])
        assert sorted(handles[0].buf.tolist()) == sorted(handles[1].buf.tolist())


class TestBulkRows:
    @pytest.mark.parametrize("lay", ALL_LAYOUTS, ids=lambda l: l.kind.value + str(l.cluster_size))
    def test_rows_match_scalar_path(self, lay):
        rng = np.random.default_rng(2)
        n = 19
        a = ArrayHandle(lay, n, 3)
        vals = rng.normal(size=(n, 3))
        a.write_rows(0, vals)
        np.testing.assert_array_equal(a.read_rows(0, n), vals)
        for i in range(n):
            np.testing.assert_array_equal(a.get_vec3(i), vals[i])
        np.testing.assert_array_equal(a.read_rows(5, 7), vals[5:12])

    @pytest.mark.parametrize("lay", ALL_LAYOUTS, ids=lambda l: l.kind.value + str(l.cluster_size))
    def test_grown_preserves_contents(self, lay):
        rng = np.random.default_rng(4)
        a = ArrayHandle(lay, 9, 3)
        vals = rng.normal(size=(9, 3))
        a.write_rows(0, vals)
        b = a.grown(21)
        np.testing.assert_array_equal(b.read_rows(0, 9), vals)
        assert b.size_x == 21

    def test_layout_transparency_program(self):
        # identical get/set/add call sequence must give identical reads
        def program(lay):
            a = ArrayHandle(lay, 12, 3)
            out = []
            for i in range(12):
                a.set_vec3(i, [i * 1.0, i * 2.0, i * 3.0])
            for i in range(0, 12, 3):
                a.add(i, 1, 0.25)
            for i in range(12):
                out.append(tuple(a.get_vec3(i)))
            return out

        ref = program(row_major_layout())
        for lay in ALL_LAYOUTS[1:]:
            assert program(lay) == ref


VIEW_LAYOUTS = [
    row_major_layout(),
    column_major_layout(),
    clustered_layout(1),
    clustered_layout(4),
    clustered_layout(8),
]


@st.composite
def handle_and_rows(draw):
    """A handle whose buffer (cluster padding included) holds distinct values,
    a row range [start, start+count) and a list of distinct rows."""
    lay = draw(st.sampled_from(VIEW_LAYOUTS))
    size_x = draw(st.integers(1, 40).filter(lambda n: lay.cluster_size == 1 or n % lay.cluster_size))
    size_y = draw(st.integers(1, 4))
    start = draw(st.integers(0, size_x))
    count = draw(st.integers(0, size_x - start))
    rows = draw(st.lists(st.integers(0, size_x - 1), unique=True, max_size=size_x))
    a = ArrayHandle(lay, size_x, size_y)
    a.buf[:] = np.arange(a.buf.size) + 0.5
    return a, start, count, np.array(rows, dtype=np.int64)


def reference_index(a, x):
    """Buffer offsets of rows x through the index map, (len(x), size_y)."""
    return a.index(np.asarray(x, dtype=np.int64)[:, None], np.arange(a.size_y)[None, :])


class TestRowViews:
    @given(handle_and_rows())
    @settings(max_examples=200)
    def test_row_methods_match_index_map(self, case):
        a, start, count, rows = case
        span = np.arange(start, start + count)
        before = a.buf.copy()
        np.testing.assert_array_equal(a.read_rows(start, count), before[reference_index(a, span)])
        np.testing.assert_array_equal(a.read_rows_at(rows), before[reference_index(a, rows)])

        new = -np.arange(count * a.size_y, dtype=np.float64).reshape(count, a.size_y) - 1.0
        a.write_rows(start, new)
        want = before.copy()
        want[reference_index(a, span)] = new
        np.testing.assert_array_equal(a.buf, want)

        a.fill_rows(start, count, 7.0)
        want[reference_index(a, span)] = 7.0
        np.testing.assert_array_equal(a.buf, want)

        new = -np.arange(rows.size * a.size_y, dtype=np.float64).reshape(-1, a.size_y) - 0.25
        a.write_rows_at(rows, new)
        want[reference_index(a, rows)] = new
        np.testing.assert_array_equal(a.buf, want)


def test_layout_from_config():
    assert layout_from_config("aos").kind.value == "row_major"
    assert layout_from_config("soa").kind.value == "column_major"
    lay = layout_from_config("aosoa", cluster=16)
    assert lay.kind.value == "clustered" and lay.cluster_size == 16
    with pytest.raises(ValueError):
        layout_from_config("blocked")
