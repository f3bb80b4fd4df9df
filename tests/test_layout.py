import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanopair.layout import (
    ArrayHandle,
    LayoutKind,
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


def index_2d(lay, size_x, size_y, x, y):
    """Reference index map: buffer offset of element (x, y); broadcasts over
    integer arrays. The row methods are checked against it."""
    if lay.kind is LayoutKind.ROW_MAJOR:
        return x * size_y + y
    if lay.kind is LayoutKind.COLUMN_MAJOR:
        return y * size_x + x
    i = x >> lay.shift
    j = x & lay.mask
    return lay.cluster_size * (i * size_y + y) + j


class TestIndexFormulas:
    def test_row_major_example(self):
        lay = row_major_layout()
        assert index_2d(lay, size_x=4, size_y=3, x=2, y=1) == 7

    def test_column_major_example(self):
        lay = column_major_layout()
        assert index_2d(lay, size_x=5, size_y=3, x=2, y=1) == 7

    def test_clustered_example(self):
        # i = 5 >> 2 = 1, j = 5 & 3 = 1: 4 * (1 * 3 + 1) + 1 = 17
        lay = clustered_layout(4)
        assert index_2d(lay, size_x=8, size_y=3, x=5, y=1) == 17

    @pytest.mark.parametrize("lay", ALL_LAYOUTS, ids=lambda l: l.kind.value + str(l.cluster_size))
    @pytest.mark.parametrize("size_x,size_y", [(1, 1), (5, 3), (64, 8), (17, 4)])
    def test_injective_within_capacity(self, lay, size_x, size_y):
        seen = set()
        cap = lay.required_capacity(size_x, size_y)
        for x, y in itertools.product(range(size_x), range(size_y)):
            idx = index_2d(lay, size_x, size_y, x, y)
            assert 0 <= idx < cap
            seen.add(idx)
        assert len(seen) == size_x * size_y

    def test_cluster_size_one_is_row_major(self):
        unit = clustered_layout(1)
        row = row_major_layout()
        for size_x, size_y in [(1, 1), (7, 3), (16, 5)]:
            for x, y in itertools.product(range(size_x), range(size_y)):
                assert index_2d(unit, size_x, size_y, x, y) == index_2d(row, size_x, size_y, x, y)

    def test_bad_cluster_size(self):
        with pytest.raises(ValueError):
            clustered_layout(6)


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
            np.testing.assert_array_equal(a.buf[index_2d(lay, n, 3, i, np.arange(3))], vals[i])
        np.testing.assert_array_equal(a.read_rows(5, 7), vals[5:12])

    @pytest.mark.parametrize("lay", ALL_LAYOUTS, ids=lambda l: l.kind.value + str(l.cluster_size))
    @pytest.mark.parametrize("start,count", [(0, 29), (0, 23), (5, 17), (9, 2), (12, 0)])
    def test_read_transposed_matches_rows(self, lay, start, count):
        # 29 rows: partial last clusters, and ranges that start and end
        # inside a cluster, span whole clusters or stay within one
        rng = np.random.default_rng(6)
        a = ArrayHandle(lay, 29, 3)
        a.write_rows(0, rng.normal(size=(29, 3)))
        got = a.read_transposed(start, count)
        assert got.flags.c_contiguous and got.shape == (3, count)
        np.testing.assert_array_equal(got, a.read_rows(start, count).T)

    def test_soa_and_aos_buffers_are_permutations(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=(8, 3))
        handles = [ArrayHandle(row_major_layout(), 8, 3), ArrayHandle(column_major_layout(), 8, 3)]
        for h in handles:
            h.write_rows(0, vals)
        assert sorted(handles[0].buf.tolist()) == sorted(handles[1].buf.tolist())

    @pytest.mark.parametrize("lay", ALL_LAYOUTS, ids=lambda l: l.kind.value + str(l.cluster_size))
    def test_out_of_range_rejected(self, lay):
        a = ArrayHandle(lay, 4, 3)
        with pytest.raises(IndexError):
            a.read_rows(2, 3)
        with pytest.raises(IndexError):
            a.write_rows(3, np.zeros((2, 3)))
        with pytest.raises(IndexError):
            a.fill_rows(-1, 2)
        with pytest.raises(IndexError):
            a.read_rows_at([0, 4])
        with pytest.raises(IndexError):
            a.write_rows_at([-1], np.zeros((1, 3)))

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
        # an identical sequence of row edits must give identical reads
        def program(lay):
            a = ArrayHandle(lay, 12, 3)
            a.write_rows(0, np.arange(12.0)[:, None] * [1.0, 2.0, 3.0])
            every_third = np.arange(0, 12, 3)
            a.write_rows_at(every_third, a.read_rows_at(every_third) + [0.0, 0.25, 0.0])
            a.fill_rows(10, 2, -1.0)
            return [tuple(row) for row in a.read_rows(0, 12)] + [tuple(a.read_rows_at([11, 4]).ravel())]

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
    x = np.asarray(x, dtype=np.int64)[:, None]
    return index_2d(a.layout, a.size_x, a.size_y, x, np.arange(a.size_y)[None, :])


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


class TestRowBlocks:
    @given(handle_and_rows())
    @settings(max_examples=200)
    def test_blocks_cover_the_range_in_order(self, case):
        a, start, count, _ = case
        blocks = list(a.row_blocks(start, count))
        bounds = [(lo, hi) for lo, hi, _ in blocks]
        # back to back from 0 to count, and none when count is 0
        assert [lo for lo, _ in bounds] == [0, *(hi for _, hi in bounds)][: len(bounds)]
        assert sum(hi - lo for lo, hi in bounds) == count
        # each block holds its rows, in order, with y last; writes reach the buffer
        for lo, hi, block in blocks:
            want = a.buf[reference_index(a, np.arange(start + lo, start + hi))]
            np.testing.assert_array_equal(block.reshape(-1, a.size_y), want)
            block *= -1.0
        span = reference_index(a, np.arange(start, start + count))
        assert np.all(a.buf[span] < 0)
        assert np.count_nonzero(a.buf < 0) == count * a.size_y

    @pytest.mark.parametrize("lay", ALL_LAYOUTS, ids=lambda l: l.kind.value + str(l.cluster_size))
    @pytest.mark.parametrize("start,count", [(0, 29), (0, 3), (5, 17), (9, 2), (12, 0)])
    def test_handles_of_one_shape_line_up(self, lay, start, count):
        # in-place arithmetic between two handles' blocks is arithmetic on their rows
        rng = np.random.default_rng(9)
        a, b = ArrayHandle(lay, 29, 3), ArrayHandle(lay, 29, 3)
        a.write_rows(0, rng.normal(size=(29, 3)))
        b.write_rows(0, rng.normal(size=(29, 3)))
        want = a.read_rows(0, 29)
        want[start : start + count] += 0.5 * b.read_rows(start, count)
        for (a0, a1, x), (b0, b1, y) in zip(a.row_blocks(start, count), b.row_blocks(start, count)):
            assert (a0, a1, x.shape) == (b0, b1, y.shape)
            x += 0.5 * y
        np.testing.assert_array_equal(a.read_rows(0, 29), want)
