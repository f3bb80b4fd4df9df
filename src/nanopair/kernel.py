"""The compiled loops of pair_kernel.c (next to this file), built and loaded once.

`library()` compiles the source with the system C compiler (`cc`, see `_CC`)
on first use in a process and returns the loaded library with the argument
types of its functions declared: `bin_cells` (the cell binning),
`build_lists` and `spread_rows` (the neighbor-list build) and `pair_forces`
(the force kernel, half-list reactions included).
A C compiler is therefore a run-time requirement of this package. Both
neighbor.py and potential.py call into it, which is why the loader lives in
its own module.

Array arguments are declared as plain addresses (`c_void_p`): a caller
passes `address(a, dtype, shape)`, which checks the array once (an ndarray
of that dtype, C-contiguous, of that shape where the caller knows it) and
returns its data pointer. A converter such as `np.ctypeslib.ndpointer`
would check the same on every call at several times the cost, and a
compiled call is made on every rank at every step.
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
# scalar code and, without fast-math, no floating-point sum is reassociated
_CC = ("cc", "-std=c99", "-O3", "-ffp-contract=off", "-shared", "-fPIC")
_KERNEL_SOURCE = Path(__file__).with_name("pair_kernel.c")

__all__ = ["library", "address"]


def address(a, dtype, shape=None) -> int:
    """Data pointer of an array argument of a compiled loop, after checking it.

    TypeError unless `a` is a C-contiguous ndarray of `dtype` and, when
    `shape` is given, of that shape: the loop would read the wrong memory.
    """
    if not isinstance(a, np.ndarray):
        raise TypeError(f"compiled loop argument must be an ndarray, got {type(a).__name__}")
    if a.dtype != dtype:
        raise TypeError(f"compiled loop argument of dtype {a.dtype}, expected {np.dtype(dtype)}")
    if not a.flags.c_contiguous:
        raise TypeError(f"compiled loop argument of shape {a.shape} is not C-contiguous")
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
        f64, i64, f64, ctypes.c_double, idx,  # x, n, lo, r, dims
        idx, idx, idx, i32,  # coords, cell_of, start, members
    ]
    dll.bin_cells.restype = i64
    dll.build_lists.argtypes = [
        f64, i64,  # x, n_total
        i32, idx,  # members, start
        idx, idx, ctypes.c_double, ctypes.c_int,  # cell_of, soff, rsq_max, half
        i64, i64, i32, i64,  # row0, n_local, buf, cap
        i32, ctypes.POINTER(i64),  # counts, need
    ]
    dll.build_lists.restype = i64
    dll.spread_rows.argtypes = [i64, i32, i32, i32, i64]  # n, flat, counts, mat, width
    dll.spread_rows.restype = None
    dll.pair_forces.argtypes = [
        ctypes.c_int, f64, ctypes.c_double, ctypes.c_int,  # law, params, cutoff_rsq, use_vel
        f64, f64, i64,  # x, v, n_total
        i32, i64, i32,  # mat, width, counts
        i64, ctypes.c_int,  # n_local, half
        f64, f64, f64,  # own, reactions (NULL: full lists), row energies (NULL: not accumulated)
    ]
    dll.pair_forces.restype = i64
    return dll
