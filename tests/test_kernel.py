"""The ctypes declarations of `kernel.library()` against pair_kernel.c itself.

A function called without declared argument types gets every Python int as a
C int, so a 64-bit address would be cut to 32 bits; one without a declared
result type returns a C int. The declarations are therefore checked against
the prototypes parsed from the source, so that a changed signature cannot
drift from its declaration.
"""

import ctypes
import re

import pytest

from nanopair import kernel

# the ctypes type each C parameter or result type is declared as
_SCALARS = {"double": ctypes.c_double, "int64_t": ctypes.c_int64, "int": ctypes.c_int, "void": None}


def exported_prototypes():
    """(result type, name, parameters) of every non-static function that
    pair_kernel.c defines, parameters as written, in source order."""
    source = re.sub(r"/\*.*?\*/", "", kernel._KERNEL_SOURCE.read_text(), flags=re.S)
    found = re.findall(r"^(?!static\b)(\w+)\s+(\w+)\(([^)]*)\)\s*\{", source, flags=re.M)
    return [(result, name, [p.strip() for p in params.split(",") if p.strip() not in ("", "void")])
            for result, name, params in found]


def declared_as(param: str):
    """The ctypes type that a C parameter such as `const double *x` takes."""
    if "*" in param:
        return "pointer"
    return _SCALARS[param.split()[-2]]


PROTOTYPES = exported_prototypes()


def test_source_defines_the_loops():
    names = [name for _, name, _ in PROTOTYPES]
    assert len(names) == len(set(names))
    assert {"bin_cells", "build_lists", "pair_forces", "emit_rows", "shift_rows"} <= set(names)
    assert "spread_rows" not in names and "lj_rows" not in names


@pytest.mark.parametrize("result,name,params", PROTOTYPES, ids=[name for _, name, _ in PROTOTYPES])
def test_library_declares_prototype(result, name, params):
    fn = getattr(kernel.library(), name)
    assert fn.argtypes is not None, f"{name}: argtypes not declared"
    assert len(fn.argtypes) == len(params), f"{name}: {len(fn.argtypes)} argtypes for {len(params)} parameters"
    for param, declared in zip(params, fn.argtypes):
        want = declared_as(param)
        if want == "pointer":
            assert declared is ctypes.c_void_p or issubclass(declared, ctypes._Pointer), f"{name}: {param}"
        else:
            assert declared is want, f"{name}: {param} declared as {declared}"
    assert fn.restype is _SCALARS[result], f"{name}: restype {fn.restype}, C returns {result}"


def test_kernel_builds_without_warnings(monkeypatch):
    """pair_kernel.c compiles with the package's flags plus -Wall -Wextra
    -Werror: a warning (an unused parameter, a signed/unsigned comparison, a
    missing return) fails the build, and the build's stderr names it."""
    kernel.library.cache_clear()
    monkeypatch.setattr(kernel, "_CC", (*kernel._CC, "-Wall", "-Wextra", "-Werror"))
    try:
        kernel.library()
    finally:
        monkeypatch.undo()
        kernel.library.cache_clear()
