"""The compiled loops of pair_kernel.c (next to this file), built and loaded once.

`library()` compiles the source with the system C compiler (`cc`, see `_CC`)
on first use in a process and returns the loaded library with every loop
declared from its own prototype (`prototypes`, `ctype`). The loader relies
on one format rule of the source: an exported loop is a non-static
definition, and each of its parameters is a pointer or an `int64_t`, `int`
or `double` scalar (a result may also be `void`); anything else fails the
load. A C compiler is therefore a run-time requirement of this package. The
driver, comm.py, neighbor.py, particles.py and potential.py all call into
it, which is why the loader lives in its own module.

Every loop that reads or writes a particle array works in place on the
buffer of its `ArrayHandle`, through the layout's index map (see
nanopair.layout); the index map is the only way to address one.

Array arguments, like every pointer, are declared as plain addresses
(`c_void_p`): a caller passes `address(a, dtype, shape)`, which checks the
array once (an ndarray of that dtype, C-contiguous and aligned, of that
shape where the caller knows it) and returns its data pointer; an
out-parameter goes as `ctypes.byref`. A converter such as
`np.ctypeslib.ndpointer` would check the same on every call at several
times the cost, and taking the pointer itself costs about 2 us. So the
addresses of what lives across steps are taken once: an `ArrayHandle`'s
buffer and index map when the handle is built, a law's parameters when the
law first runs, a neighbor list's partners, row starts and reference
positions when the lists are made, and their inner list's buffers at its
first prune, a pattern's per-round entry arrays (axes, shifts, peer
groups) and its round passes' work arrays when the pattern is built, once
per run (and when a work array grows), and a border plan's gather index,
shifts and refresh rows when the plan is made. The faces are not among
them: a round pass reads them from the rank's slab, which the phase packs
as it starts, so a cut move changes no address.
"""

from __future__ import annotations

import ctypes
import functools
import re
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

__all__ = ["library", "address", "prototypes", "ctype"]

# the ctypes type of each scalar type a loop may take or return
_SCALARS = {"int64_t": ctypes.c_int64, "int": ctypes.c_int, "double": ctypes.c_double}


def address(a, dtype, shape=None) -> int:
    """Data pointer of an array argument of a compiled loop, after checking it.

    TypeError unless `a` is a C-contiguous, aligned ndarray of `dtype` and,
    when `shape` is given, of that shape: the loop would read the wrong
    memory, or read it misaligned, which C leaves undefined.
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


def prototypes(source: str) -> list[tuple[str, str, list[str]]]:
    """(result type, name, parameters as written) of every non-static
    function that the C `source` defines, in source order; comments are
    ignored, and a parameter list of `void` is empty."""
    source = re.sub(r"/\*.*?\*/", "", source, flags=re.S)
    found = re.findall(r"^(?!static\b)(\w[\w \t*]*?)[ \t]*\b(\w+)\(([^)]*)\)\s*\{", source, flags=re.M)
    return [(result, name, [p.strip() for p in params.split(",") if p.strip() not in ("", "void")])
            for result, name, params in found]


def ctype(decl: str, result: bool = False):
    """The ctypes type that a C parameter as written (`const double *x`), or
    with `result` a result type (`int64_t`), is declared as: any pointer is
    an address, `c_void_p`; otherwise the type's words without `const` must
    be exactly `int64_t`, `int` or `double`, or `void` for a result (None).
    ValueError for any other type."""
    if "*" in decl:
        return ctypes.c_void_p
    words = [w for w in decl.split() if w != "const"]
    kind = " ".join(words if result else words[:-1])
    if result and kind == "void":
        return None
    if kind not in _SCALARS:
        raise ValueError(f"{decl!r} is neither a pointer nor one of {', '.join(_SCALARS)}")
    return _SCALARS[kind]


@functools.cache
def library() -> ctypes.CDLL:
    """pair_kernel.c, compiled and loaded once per process, with every
    non-static function declared from its prototype (`prototypes`, `ctype`);
    RuntimeError if it does not compile or a parameter cannot be declared."""
    source = _KERNEL_SOURCE.read_text()
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
    for result, name, params in prototypes(source):
        fn = getattr(dll, name)
        try:
            fn.restype = ctype(result, result=True)
            fn.argtypes = [ctype(param) for param in params]
        except ValueError as exc:
            raise RuntimeError(f"cannot declare {name} of {_KERNEL_SOURCE.name}: {exc}") from None
    return dll
