import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanopair.comm import WIRE_EXCHANGE, WIRE_SYNC, pack_particles, unpack_particles
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


class TestRowSources:
    @pytest.mark.parametrize("lay", VIEW_LAYOUTS, ids=lambda l: l.kind.value + str(l.cluster_size))
    @pytest.mark.parametrize("source", ["wire-payload", "column-slice", "exchange-slice", "misaligned"])
    def test_write_from_view_equals_write_from_copy(self, lay, source):
        # a wire payload is a read-only view of its record, aligned after
        # the 8-byte header; a column slice of 6-wide records is not
        # C-contiguous, and exchange's data[:, :3] is both; a view 5 bytes
        # into a buffer is not aligned
        rng = np.random.default_rng(12)
        n = 11
        records = rng.normal(size=(n, 6))
        if source == "wire-payload":
            _, rows = unpack_particles(pack_particles(WIRE_SYNC, records[:, :3]))
            assert rows.flags.aligned and rows.flags.c_contiguous and not rows.flags.writeable
        elif source == "column-slice":
            rows = records[:, :3]
        elif source == "exchange-slice":
            _, data = unpack_particles(pack_particles(WIRE_EXCHANGE, records))
            rows = data[:, :3]
            assert not (rows.flags.c_contiguous or rows.flags.writeable)
        else:
            rows = np.frombuffer(bytes(5) + records[:, :3].tobytes(), offset=5).reshape(n, 3)
            assert not rows.flags.aligned
        picked = rng.permutation(17)[:n]
        got, want = ArrayHandle(lay, 17, 3), ArrayHandle(lay, 17, 3)
        got.write_rows(4, rows)
        want.write_rows(4, rows.copy())
        assert got.buf.tobytes() == want.buf.tobytes()
        got.write_rows_at(picked, rows)
        want.write_rows_at(picked, rows.copy())
        assert got.buf.tobytes() == want.buf.tobytes()

    def test_negative_zero_kept(self):
        # a read adds no shift: -0.0 + 0.0 would come back as +0.0
        for lay in VIEW_LAYOUTS:
            a = ArrayHandle(lay, 9, 3)
            a.fill_rows(0, 9, -0.0)
            a.write_rows_at([2, 5], np.full((2, 3), -0.0))
            for rows in (a.read_rows(), a.read_rows_at([5, 2, 8])):
                assert np.all(np.signbit(rows))

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.float32])
    def test_row_methods_need_float64(self, dtype):
        a = ArrayHandle(row_major_layout(), 5, 3, dtype=dtype)
        calls = [
            lambda: a.read_rows(0, 2),
            lambda: a.read_rows_at([1, 3]),
            lambda: a.write_rows(0, np.ones((2, 3))),
            lambda: a.write_rows_at([1, 3], np.ones((2, 3))),
            lambda: a.fill_rows(0, 2, 1.0),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="float64"):
                call()
        assert not a.buf.any()


def test_layout_from_config():
    assert layout_from_config("aos").kind.value == "row_major"
    assert layout_from_config("soa").kind.value == "column_major"
    lay = layout_from_config("aosoa", cluster=16)
    assert lay.kind.value == "clustered" and lay.cluster_size == 16
    with pytest.raises(ValueError):
        layout_from_config("blocked")
