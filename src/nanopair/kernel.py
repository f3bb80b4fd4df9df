"""The compiled loops of pair_kernel.c (next to this file), built and loaded once.

`library()` compiles the source with the system C compiler (`cc`, see `_CC`)
on first use in a process and returns the loaded library with the argument
types of its functions declared: `gather_rows` and `put_rows` (the row
loops through which `ArrayHandle` reads and writes rows, and the ghost
refresh's gather and write), `bin_cells` (the cell binning of the stored
positions, which also writes the cell-ordered copy of the positions, finds
the first local in the ghost shell and, for half lists, bins the locals and
the ghosts apart and records each local's slot), `build_lists` (the CSR
neighbor-list build over the stencil's z-runs of cells: the whole stencil
for full lists; for half lists the upper half stencil over the locals and
the whole stencil over the ghosts; it also copies the locals' positions
out as the lists' reference), `pair_forces` (the force kernel over the
list's rows, half-list reactions included), the per-step particle loops
`kick_drift` and `kick` (the integrators), `max_displacement` (the
displacement check), and the epoch's particle loops `select_rows` (the
exchange and border tests of a round's pattern faces), `emit_rows` (the rows
of a record or a border plan, shifted), `shift_rows` (exchange's departures
moved through their face in place), `first_outside` (the ownership check
after exchange), `load_histogram` (the load balance), `bounding_box` (the
cell grid's box) and `compact_rows` (the compaction of the locals). A C
compiler is therefore a run-time requirement of this package. The driver,
comm.py, neighbor.py, particles.py and potential.py all call into it, which
is why the loader lives in its own module.

Every loop that reads or writes a particle array works in place on the
buffer of its `ArrayHandle`, through the layout's index map (see
nanopair.layout); the index map is the only way to address one.

Array arguments are declared as plain addresses (`c_void_p`): a caller
passes `address(a, dtype, shape)`, which checks the array once (an ndarray
of that dtype, C-contiguous and aligned, of that shape where the caller
knows it) and returns its data pointer. A converter such as
`np.ctypeslib.ndpointer` would check the same on every call at several
times the cost, and taking the pointer itself costs about 2 us. So the
addresses of what lives across steps are taken once: an `ArrayHandle`'s
buffer and index map when the handle is built, a law's parameters when the
law first runs, a neighbor list's partners, row starts and reference
positions when the lists are made, and a border plan's gather index, shifts
and refresh rows when the plan is made.
"""

from __future__ import annotations

import ctypes
import functools
import subprocess
import tempfile
from pathlib import Path

import numpy as np

# compiler command for the loops; the flags fix the arithmetic to the
# source's order on every machine: no fused multiply-add, no fast-math, no
# host-specific instruction set. -O3 lets gcc vectorise the Lennard-Jones law
# loop (at -O2 its cost model leaves it scalar); vectorising changes no bit,
# because every lane rounds the same operations in the same order as the
# scalar code and, without fast-math, no floating-point sum is reassociated.
# -fno-math-errno only drops the errno path of the math functions, so the
# spring-dashpot sqrt compiles to the inline instruction instead of a
# library call guarded by a NaN test; sqrt is correctly rounded either way,
# so no bit changes
_CC = ("cc", "-std=c99", "-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")
_KERNEL_SOURCE = Path(__file__).with_name("pair_kernel.c")

__all__ = ["library", "address"]


def address(a, dtype, shape=None) -> int:
    """Data pointer of an array argument of a compiled loop, after checking it.

    TypeError unless `a` is a C-contiguous, aligned ndarray of `dtype` and,
    when `shape` is given, of that shape: the loop would read the wrong
    memory, or read it misaligned, which C leaves undefined (a view 5 bytes
    into a wire record is such an array).
    """
    if not isinstance(a, np.ndarray):
        raise TypeError(f"compiled loop argument must be an ndarray, got {type(a).__name__}")
    if a.dtype != dtype:
        raise TypeError(f"compiled loop argument of dtype {a.dtype}, expected {np.dtype(dtype)}")
    if not a.flags.c_contiguous:
        raise TypeError(f"compiled loop argument of shape {a.shape} is not C-contiguous")
    if not a.flags.aligned:
        raise TypeError(f"compiled loop argument of shape {a.shape} is not aligned to its dtype")
    if shape is not None and a.shape != shape:
        raise TypeError(f"compiled loop argument of shape {a.shape}, expected {shape}")
    return a.ctypes.data


@functools.cache
def library() -> ctypes.CDLL:
    """pair_kernel.c, compiled and loaded once per process."""
    with tempfile.TemporaryDirectory() as tmp:
        lib = Path(tmp) / "pair_kernel.so"
        cmd = [*_CC, "-o", str(lib), str(_KERNEL_SOURCE), "-lm"]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            raise RuntimeError(f"cannot compile the pair kernel: {' '.join(cmd)}: {exc}") from exc
        if done.returncode != 0:
            raise RuntimeError(
                f"cannot compile the pair kernel: {' '.join(cmd)} exited with "
                f"{done.returncode}:\n{done.stderr}"
            )
        dll = ctypes.CDLL(str(lib))
    # arrays by address (see `address`): float64, int32 and int64 elements
    f64 = i32 = idx = ctypes.c_void_p
    i64 = ctypes.c_int64
    dll.bin_cells.argtypes = [
        idx, f64, i64, f64, ctypes.c_double, i64, idx,  # map, x, n, lo, h, k, dims
        i64, ctypes.c_int,  # n_local, split
        idx, idx, i32, f64, idx, ctypes.POINTER(i64),  # cell_of, start, members, xs, slot, shell_local
    ]
    dll.bin_cells.restype = i64
    dll.build_lists.argtypes = [
        idx, f64, f64, i64,  # map, x, xs, n_total
        i32, idx, idx,  # members, start, cell_of
        idx, idx, i64, ctypes.c_double, ctypes.c_int,  # slot, runs, n_runs, rsq_max, half
        i64, i64, i32, i64,  # row0, n_local, buf, cap
        idx, ctypes.POINTER(i64), f64,  # row_start, need, ref
    ]
    dll.build_lists.restype = i64
    # a particle array goes as its buffer and its index map (ArrayHandle.address, .map_address)
    dll.pair_forces.argtypes = [
        ctypes.c_int, f64, ctypes.c_double, ctypes.c_int,  # law, params, cutoff_rsq, use_vel
        idx, f64, f64, f64, i64,  # map, positions, velocities, forces, n_total
        i32, i64, idx,  # partners, n_entries, start
        i64, ctypes.c_int, f64,  # n_local, half, row energies (NULL: not accumulated)
    ]
    dll.pair_forces.restype = i64
    dll.kick_drift.argtypes = [idx, i64, ctypes.c_double, ctypes.c_double, f64, f64, f64]  # map, n, k, dt, v, f, x
    dll.kick_drift.restype = None
    dll.kick.argtypes = [idx, i64, ctypes.c_double, f64, f64]  # map, n, k, v, f
    dll.kick.restype = None
    dll.max_displacement.argtypes = [idx, f64, f64, i64]  # map, x, ref, n
    dll.max_displacement.restype = ctypes.c_double
    dll.gather_rows.argtypes = [idx, f64, i64, idx, i64, f64, i64, f64]  # map, x, width, idx, start, shift, k, out
    dll.gather_rows.restype = None
    dll.put_rows.argtypes = [idx, f64, i64, idx, i64, i64, f64, i64]  # map, x, width, idx, start, k, rows, step
    dll.put_rows.restype = None
    dll.select_rows.argtypes = [idx, f64, i64, i64, idx, f64, ctypes.c_int, idx, idx]  # map, x, n, entries, axes, bounds, ge, idx, counts
    dll.select_rows.restype = None
    dll.emit_rows.argtypes = [idx, f64, f64, idx, i64, f64, i64, f64, f64]  # map, x, v, idx, k, shift, width, out, diff
    dll.emit_rows.restype = None
    dll.shift_rows.argtypes = [idx, f64, idx, i64, f64, f64]  # map, x, idx, k, shift, box
    dll.shift_rows.restype = i64
    dll.first_outside.argtypes = [idx, f64, i64, i64, f64]  # map, x, n, n_boxes, boxes
    dll.first_outside.restype = i64
    dll.bounding_box.argtypes = [idx, f64, i64, f64, f64]  # map, x, n, lo, hi
    dll.bounding_box.restype = None
    dll.load_histogram.argtypes = [idx, f64, i64, f64, i64, f64]  # map, x, n, box, bins, hist
    dll.load_histogram.restype = None
    dll.compact_rows.argtypes = [idx, f64, f64, f64, i64, ctypes.c_void_p]  # map, x, v, f, n, keep (bool)
    dll.compact_rows.restype = i64
    return dll
