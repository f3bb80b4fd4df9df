"""2D array storage with a selectable layout, read and written by rows.

Three layouts are supported for logical (size_x, size_y) arrays over one flat
buffer, all by one index formula with a (shift, A, B, mask) tuple per layout:

    offset(x, y) = (x >> shift) * A + y * B + (x & mask)

* row-major      (0, size_y, 1, 0)                 offset = x * size_y + y
                 (AoS when size_y == 3)
* column-major   (62, 0, size_x, 2**62 - 1)        offset = y * size_x + x
                 (SoA: no x below 2**62 reaches a second cluster)
* clustered      (log2 c, size_y * c, c, c - 1)    offset = c * (i * size_y + y) + j
                 with i = x >> shift, j = x & (c - 1)   (AoSoA, cluster size c)

so for particle arrays (size_y == 3) the tuples are (0, 3, 1, 0),
(62, 0, size_x, 2**62 - 1) and (log2 c, 3c, c, c - 1).

The layout is fixed at handle creation, and so are `ArrayHandle.index_map`
(the tuple) and the addresses of the buffer and of the tuple as an int64
array, which the compiled loops of pair_kernel.c take to work in place on
the buffer (see nanopair.kernel).

The index map is the only way to address a particle array. The row methods
of `ArrayHandle` (`read_rows`, `read_rows_at`, `write_rows`, `write_rows_at`,
`fill_rows`) are each one call of the compiled row loops `gather_rows` and
`put_rows`, which read and write the buffer through the map in place, so
callers observe identical rows under every layout and nothing here depends
on the layout's kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernel

__all__ = [
    "LayoutKind",
    "LayoutDescriptor",
    "ArrayHandle",
    "row_major_layout",
    "column_major_layout",
    "clustered_layout",
    "layout_from_config",
]


# the column-major shift: every row index lies in cluster 0
_NO_CLUSTER = 62


class LayoutKind(Enum):
    ROW_MAJOR = "row_major"
    COLUMN_MAJOR = "column_major"
    CLUSTERED = "clustered"


@dataclass(frozen=True)
class LayoutDescriptor:
    kind: LayoutKind
    cluster_size: int = 1

    def __post_init__(self) -> None:
        c = self.cluster_size
        if c < 1 or (c & (c - 1)) != 0:
            raise ValueError(f"cluster_size must be a power of two, got {c}")

    @property
    def shift(self) -> int:
        return self.cluster_size.bit_length() - 1

    @property
    def mask(self) -> int:
        return self.cluster_size - 1

    def index_map(self, size_x: int, size_y: int) -> tuple[int, int, int, int]:
        """(shift, A, B, mask) of offset(x, y) = (x >> shift) * A + y * B + (x & mask)."""
        if self.kind is LayoutKind.ROW_MAJOR:
            return 0, size_y, 1, 0
        if self.kind is LayoutKind.COLUMN_MAJOR:
            return _NO_CLUSTER, 0, size_x, (1 << _NO_CLUSTER) - 1
        c = self.cluster_size
        return self.shift, size_y * c, c, self.mask

    def required_capacity(self, size_x: int, size_y: int) -> int:
        """Buffer length needed for all valid (x, y); clusters pad size_x up."""
        if self.kind is LayoutKind.CLUSTERED:
            c = self.cluster_size
            padded_x = -(-size_x // c) * c
            return padded_x * size_y
        return size_x * size_y


def row_major_layout() -> LayoutDescriptor:
    return LayoutDescriptor(LayoutKind.ROW_MAJOR)


def column_major_layout() -> LayoutDescriptor:
    return LayoutDescriptor(LayoutKind.COLUMN_MAJOR)


def clustered_layout(cluster_size: int) -> LayoutDescriptor:
    return LayoutDescriptor(LayoutKind.CLUSTERED, cluster_size)


def layout_from_config(kind: str, cluster: int = 8) -> LayoutDescriptor:
    """Map the user-facing names (aos, soa, aosoa) onto layout descriptors."""
    if kind == "aos":
        return row_major_layout()
    if kind == "soa":
        return column_major_layout()
    if kind == "aosoa":
        return clustered_layout(cluster)
    raise ValueError(f"unknown layout {kind!r}")


class ArrayHandle:
    """A logical (size_x, size_y) array in one layout, accessed by rows.

    The buffer is padded to the layout's required capacity; padding elements
    are zero-initialized and belong to no row. `index_map` is the layout's
    (shift, A, B, mask) tuple for this size; `address` and `map_address` are
    the data pointers of the buffer and of the tuple as an int64 array,
    taken once here for the compiled loops. The row methods work on float64
    arrays only (TypeError otherwise) and raise IndexError for a row outside
    [0, size_x). Rows are passed and returned row-major, (k, size_y); a
    source that is not float64, C-contiguous and aligned (a wire payload, a
    column slice) is copied once first.
    """

    def __init__(self, layout: LayoutDescriptor, size_x: int, size_y: int, dtype=np.float64):
        self.layout = layout
        self.size_x = int(size_x)
        self.size_y = int(size_y)
        self.dtype = np.dtype(dtype)
        self.buf = np.zeros(layout.required_capacity(size_x, size_y), dtype=self.dtype)
        self.index_map = layout.index_map(self.size_x, self.size_y)
        self._map = np.array(self.index_map, dtype=np.int64)
        self.address = kernel.address(self.buf, self.dtype)
        self.map_address = kernel.address(self._map, np.int64, (4,))
        self._fill = np.zeros(self.size_y)  # the row that fill_rows repeats
        self._fill_address = kernel.address(self._fill, np.float64)

    def _span(self, start: int, count: int) -> None:
        if start < 0 or count < 0 or start + count > self.size_x:
            raise IndexError(f"rows [{start}, {start + count}) outside size_x={self.size_x}")

    def _indices(self, x_indices) -> np.ndarray:
        x = np.ascontiguousarray(x_indices, dtype=np.int64).reshape(-1)
        if x.size and (x.min() < 0 or x.max() >= self.size_x):
            raise IndexError("row index outside size_x")
        return x

    def _source(self, rows, k: int) -> np.ndarray:
        """`rows` as a (k, size_y) float64 array, C-contiguous and aligned:
        copied once if it is not one already."""
        rows = np.asarray(rows, dtype=np.float64)
        if not (rows.flags.c_contiguous and rows.flags.aligned):
            rows = rows.copy()
        if rows.shape != (k, self.size_y):
            raise ValueError(f"rows of shape {rows.shape}, expected {(k, self.size_y)}")
        return rows

    def _gather(self, idx, start: int, k: int) -> np.ndarray:
        if self.dtype != np.float64:
            raise TypeError(f"row methods need a float64 array, not {self.dtype}")
        out = np.empty((k, self.size_y))
        x = None if idx is None else idx.ctypes.data
        kernel.library().gather_rows(self.map_address, self.address, self.size_y, x, start, None, k, out.ctypes.data)
        return out

    def _put(self, idx, start: int, k: int, rows_address: int, step: int) -> None:
        if self.dtype != np.float64:
            raise TypeError(f"row methods need a float64 array, not {self.dtype}")
        x = None if idx is None else idx.ctypes.data
        kernel.library().put_rows(self.map_address, self.address, self.size_y, x, start, k, rows_address, step)

    def read_rows(self, start: int = 0, count: int | None = None) -> np.ndarray:
        """Copy rows [start, start+count) out as a (count, size_y) array."""
        if count is None:
            count = self.size_x - start
        self._span(start, count)
        return self._gather(None, start, count)

    def read_rows_at(self, x_indices) -> np.ndarray:
        """Gather arbitrary rows as a (k, size_y) copy."""
        x = self._indices(x_indices)
        return self._gather(x, 0, x.size)

    def write_rows(self, start: int, rows: np.ndarray) -> None:
        k = len(rows)
        self._span(start, k)
        rows = self._source(rows, k)
        self._put(None, start, k, rows.ctypes.data, self.size_y)

    def write_rows_at(self, x_indices, rows: np.ndarray) -> None:
        x = self._indices(x_indices)
        rows = self._source(rows, x.size)
        self._put(x, 0, x.size, rows.ctypes.data, self.size_y)

    def fill_rows(self, start: int, count: int, value=0.0) -> None:
        self._span(start, count)
        self._fill[...] = value
        self._put(None, start, count, self._fill_address, 0)

    def grown(self, new_size_x: int) -> "ArrayHandle":
        """A new handle with the same layout and contents, larger size_x."""
        if new_size_x < self.size_x:
            raise ValueError("grown() cannot shrink")
        out = ArrayHandle(self.layout, new_size_x, self.size_y, self.dtype)
        out.write_rows(0, self.read_rows(0, self.size_x))
        return out
