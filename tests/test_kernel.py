"""`kernel.library()` against pair_kernel.c itself.

A function called without declared argument types gets every Python int as a
C int, so a 64-bit address would be cut to 32 bits; one without a declared
result type returns a C int. The loader therefore declares every exported
loop from its prototype (`kernel.prototypes`, `kernel.ctype`); these tests
check that it does, that it refuses a type it cannot declare, that the
source exports exactly the loops the package calls, and that the constants
the package shares with the source agree with its enums.
"""

import ctypes
import re
from pathlib import Path

import numpy as np
import pytest

from nanopair import comm, kernel, neighbor, potential
from nanopair.core import AABB
from nanopair.layout import row_major_layout
from nanopair.neighbor import build_cell_grid, build_neighbor_lists
from nanopair.particles import ParticleStore

SOURCE = kernel._KERNEL_SOURCE.read_text()
PROTOTYPES = kernel.prototypes(SOURCE)
_DECLARABLE = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_int, ctypes.c_double)


def enums(source: str) -> dict[str, int]:
    """Every enumerator of the anonymous `enum { A = 1, B = 2 };` lines of `source`."""
    found = {}
    for body in re.findall(r"^enum\s*\{([^}]*)\};", source, flags=re.M):
        for item in body.split(","):
            name, value = item.split("=")
            found[name.strip()] = int(value)
    return found


def test_source_defines_the_loops():
    names = [name for _, name, _ in PROTOTYPES]
    assert len(names) == len(set(names))
    assert {"bin_cells", "build_lists", "pair_forces", "exchange_round", "border_round", "append_rows"} <= set(names)
    # deleted loops, replaced by the round passes and by the CSR lists
    assert not {"select_rows", "emit_rows", "shift_rows", "spread_rows", "lj_rows"} & set(names)


@pytest.mark.parametrize("result,name,params", PROTOTYPES, ids=[name for _, name, _ in PROTOTYPES])
def test_library_declares_prototype(result, name, params):
    fn = getattr(kernel.library(), name)
    assert fn.argtypes is not None, f"{name}: argtypes not declared"
    assert len(fn.argtypes) == len(params), f"{name}: {len(fn.argtypes)} argtypes for {len(params)} parameters"
    for param, declared in zip(params, fn.argtypes):
        assert declared in _DECLARABLE, f"{name}: {param} declared as {declared}"
        assert (declared is ctypes.c_void_p) == ("*" in param), f"{name}: {param} declared as {declared}"
    assert fn.restype is None or fn.restype in _DECLARABLE, f"{name}: restype {fn.restype}, C returns {result}"
    assert (fn.restype is None) == (result == "void"), f"{name}: restype {fn.restype}, C returns {result}"


@pytest.mark.parametrize(
    "decl, result, want",
    [
        ("const double *x", False, ctypes.c_void_p),
        ("int64_t *restrict need", False, ctypes.c_void_p),
        ("uint8_t *keep", False, ctypes.c_void_p),
        ("int64_t n", False, ctypes.c_int64),
        ("const int64_t n", False, ctypes.c_int64),
        ("int half", False, ctypes.c_int),
        ("double rsq_max", False, ctypes.c_double),
        ("int64_t", True, ctypes.c_int64),
        ("double", True, ctypes.c_double),
        ("void", True, None),
        ("double *", True, ctypes.c_void_p),
    ],
)
def test_ctype_of_declaration(decl, result, want):
    assert kernel.ctype(decl, result=result) is want


@pytest.mark.parametrize(
    "decl, result",
    [("float x", False), ("unsigned int n", False), ("long n", False), ("size_t n", False),
     ("int32_t k", False), ("void x", False), ("int64_t", False), ("float", True), ("uint8_t", True)],
)
def test_undeclarable_type_raises(decl, result):
    with pytest.raises(ValueError, match="is neither a pointer nor one of int64_t, int, double"):
        kernel.ctype(decl, result=result)


def test_prototypes_parse():
    source = """/* int64_t commented(int64_t n) { */
static inline int64_t helper(int64_t n) { return n; }
int64_t first(const double *x,
              int64_t n) { return n + (int64_t)x[0]; }
void second(void)
{
}
double *third(double *p) { return p; }
"""
    assert kernel.prototypes(source) == [
        ("int64_t", "first", ["const double *x", "int64_t n"]),
        ("void", "second", []),
        ("double *", "third", ["double *p"]),
    ]


def test_undeclarable_type_rejected_at_load(tmp_path, monkeypatch):
    """A loop whose parameter the loader cannot declare fails the load, with
    the function and the parameter named, although the source compiles."""
    src = tmp_path / "pair_kernel.c"
    src.write_text(
        "#include <stdint.h>\n"
        "int64_t fine(int64_t n) { return n; }\n"
        "void scaled(double *x, float scale) { x[0] *= scale; }\n"
    )
    kernel.library.cache_clear()
    monkeypatch.setattr(kernel, "_KERNEL_SOURCE", src)
    try:
        with pytest.raises(RuntimeError, match=r"^cannot declare scaled of pair_kernel.c: 'float scale' is neither"):
            kernel.library()
    finally:
        monkeypatch.undo()
        kernel.library.cache_clear()


def test_out_parameters_through_byref(monkeypatch):
    """`shell_local` of bin_cells and `need` of build_lists are declared as
    addresses, and a `ctypes.byref` argument is written through them: the
    grid names the local outside its box, and lists built with a buffer
    smaller than a row (each call reports the size it needs) equal lists
    built in one call."""
    lib = kernel.library()
    params = {name: params for _, name, params in PROTOTYPES}
    assert params["bin_cells"][-1].endswith("*shell_local") and lib.bin_cells.argtypes[-1] is ctypes.c_void_p
    assert params["build_lists"][-2].endswith("*need") and lib.build_lists.argtypes[-2] is ctypes.c_void_p
    rng = np.random.default_rng(7)
    pos = 5.0 + rng.uniform(-0.2, 0.2, size=(40, 3))
    box = AABB((0.0,) * 3, (10.0,) * 3)
    for outside in (True, False):
        moved = pos.copy()
        moved[17, 2] += 5.3 * outside
        store = ParticleStore(row_major_layout(), len(pos))
        store.append_locals(moved, np.zeros((40, 3)))
        grid = build_cell_grid(store, box, 2.5)
        assert grid.shell_local == (17 if outside else -1)
    whole = build_neighbor_lists(store, grid, 2.5, half=False)
    monkeypatch.setattr(neighbor, "_LIST_BUFFER", 1)
    split = build_neighbor_lists(store, grid, 2.5, half=False)
    assert whole.counts.tolist() == [39] * 40
    assert split.partners.tobytes() == whole.partners.tobytes() and split.start.tobytes() == whole.start.tobytes()


def test_interface_constants_match_enums():
    """The codes the package passes to or decodes from the loops are the
    source's enumerators, so a renumbered enum fails here, not as a
    wrongly decoded fault."""
    found = enums(SOURCE)
    assert (potential._FAULT_STARTS, potential._FAULT_MEMORY, potential._FAULT_NON_FINITE) == (
        found["FAULT_STARTS"], found["FAULT_MEMORY"], found["FAULT_NON_FINITE"]
    )
    assert potential.LennardJones().kernel_args[0] == found["LAW_LJ"]
    assert potential.SpringDashpot().kernel_args[0] == found["LAW_SD"]
    assert comm._ROUND_ENTRIES == found["ROUND_ENTRIES"]


def test_exports_are_the_loops_the_package_calls():
    """pair_kernel.c exports exactly the loops that src/ calls through
    `kernel.library()` (or a name `lib` bound to it): a dead export, or a
    call to a loop that does not exist, fails here and not only at run time."""
    called = set()
    for path in Path(kernel.__file__).parent.glob("*.py"):
        called |= set(re.findall(r"(?:\blibrary\(\)|\blib)\.(\w+)", path.read_text()))
    assert called == {name for _, name, _ in PROTOTYPES}


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
