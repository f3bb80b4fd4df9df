"""2D array storage with a selectable layout, read and written by rows.

Three layouts are supported for logical (size_x, size_y) arrays over one flat
buffer:

* row-major      offset = x * size_y + y          (AoS when size_y == 3)
* column-major   offset = y * size_x + x          (SoA)
* clustered      offset = c * (i * size_y + y) + j with i = x >> shift,
                 j = x & (c - 1)                  (AoSoA, cluster size c)

The layout is fixed at handle creation. Every access goes through one
zero-copy strided view of the buffer: (size_x, size_y) for row-major and
column-major, (clusters, size_y, c) for clustered. A row range is a slice of
that view and a row gather indexes one axis (clustered: the cluster and lane
axes), so no per-element index array is built, and callers observe identical
rows under every layout.

`ArrayHandle.row_blocks` hands out the views that cover a row range: one
block for row-major and column-major, up to three for clustered (a partial
head cluster, the whole clusters, a partial tail cluster). The blocks depend
only on the layout, size_x and the range, so the handles of one particle
store, which share a layout and size_x, yield blocks that line up row for
row: elementwise arithmetic between them can run in place on the blocks,
with no copy of the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "LayoutKind",
    "LayoutDescriptor",
    "ArrayHandle",
    "row_major_layout",
    "column_major_layout",
    "clustered_layout",
    "layout_from_config",
]


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
    are zero-initialized and belong to no row. `view` is the zero-copy strided
    view of the buffer; every row method reads or writes through it, and so
    may a caller that indexes it directly (writes through it write the buffer).
    """

    def __init__(self, layout: LayoutDescriptor, size_x: int, size_y: int, dtype=np.float64):
        self.layout = layout
        self.size_x = int(size_x)
        self.size_y = int(size_y)
        self.dtype = np.dtype(dtype)
        self.buf = np.zeros(layout.required_capacity(size_x, size_y), dtype=self.dtype)
        if layout.kind is LayoutKind.ROW_MAJOR:
            self.view = self.buf.reshape(self.size_x, self.size_y)
        elif layout.kind is LayoutKind.COLUMN_MAJOR:
            self.view = self.buf.reshape(self.size_y, self.size_x).T
        else:
            c = layout.cluster_size
            self.view = self.buf.reshape(-(-self.size_x // c), self.size_y, c)

    def row_blocks(self, start: int, count: int):
        """Cover rows [start, start+count) with zero-copy views of `view`.

        Yields (a, b, block): rows start+a .. start+b-1 live in `block`,
        whose leading axes hold those rows in order and whose last axis is y;
        writes to a block write the buffer. Two handles with the same layout
        and size_x yield blocks of the same shapes for the same range.
        """
        if count == 0:
            return
        if start < 0 or count < 0 or start + count > self.size_x:
            raise IndexError(f"rows [{start}, {start + count}) outside size_x={self.size_x}")
        if self.layout.kind is not LayoutKind.CLUSTERED:
            yield 0, count, self.view[start : start + count]
            return
        c, shift, stop = self.layout.cluster_size, self.layout.shift, start + count
        k0, k1 = start >> shift, (stop - 1) >> shift
        j0 = start & self.layout.mask
        if k0 == k1:
            yield 0, count, self.view[k0, :, j0 : j0 + count].T
            return
        # partial head cluster, whole clusters, partial tail cluster
        head, tail = c - j0, stop - (k1 << shift)
        yield 0, head, self.view[k0, :, j0:].T
        if k1 > k0 + 1:
            yield head, count - tail, self.view[k0 + 1 : k1].transpose(0, 2, 1)
        yield count - tail, count, self.view[k1, :, :tail].T

    def read_rows(self, start: int = 0, count: int | None = None) -> np.ndarray:
        """Copy rows [start, start+count) out as a (count, size_y) array."""
        if count is None:
            count = self.size_x - start
        out = np.empty((count, self.size_y), dtype=self.dtype)
        for a, b, block in self.row_blocks(start, count):
            out[a:b].reshape(block.shape)[...] = block
        return out

    def read_transposed(self, start: int, count: int) -> np.ndarray:
        """Copy rows [start, start+count) out as a C-contiguous (size_y, count)
        array: the transpose of `read_rows`, taken in one copy."""
        out = np.empty((self.size_y, count), dtype=self.dtype)
        for a, b, block in self.row_blocks(start, count):
            # splitting the contiguous last axis of a column slice is a view
            out[:, a:b].reshape((self.size_y, *block.shape[:-1]))[...] = np.moveaxis(block, -1, 0)
        return out

    def write_rows(self, start: int, rows: np.ndarray) -> None:
        rows = np.asarray(rows)
        for a, b, block in self.row_blocks(start, rows.shape[0]):
            block[...] = rows[a:b].reshape(block.shape)

    def fill_rows(self, start: int, count: int, value=0.0) -> None:
        if count > 0:
            for _, _, block in self.row_blocks(start, count):
                block[...] = value

    def _rows_key(self, x_indices):
        """Index into `view` selecting the given rows; checks their range."""
        x = np.asarray(x_indices, dtype=np.int64)
        if x.size and (x.min() < 0 or x.max() >= self.size_x):
            raise IndexError("row index outside size_x")
        if self.layout.kind is LayoutKind.CLUSTERED:
            return x >> self.layout.shift, slice(None), x & self.layout.mask
        return x

    def read_rows_at(self, x_indices) -> np.ndarray:
        """Gather arbitrary rows as a (k, size_y) copy."""
        key = self._rows_key(x_indices)
        if self.layout.kind is LayoutKind.ROW_MAJOR:
            return np.take(self.view, key, axis=0)
        if self.layout.kind is LayoutKind.COLUMN_MAJOR:
            # take along the contiguous axis of the (size_y, size_x) buffer
            return np.take(self.view.T, key, axis=1).T
        return self.view[key]

    def write_rows_at(self, x_indices, rows: np.ndarray) -> None:
        self.view[self._rows_key(x_indices)] = rows

    def grown(self, new_size_x: int) -> "ArrayHandle":
        """A new handle with the same layout and contents, larger size_x."""
        if new_size_x < self.size_x:
            raise ValueError("grown() cannot shrink")
        out = ArrayHandle(self.layout, new_size_x, self.size_y, self.dtype)
        out.write_rows(0, self.read_rows(0, self.size_x))
        return out
