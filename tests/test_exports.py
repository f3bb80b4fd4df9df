import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import nanopair
from nanopair import driver
from nanopair.layout import ArrayHandle
from nanopair.particles import ParticleStore
from nanopair.potential import law_from_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

MODULE_NAMES = sorted(m.name for m in pkgutil.iter_modules(nanopair.__path__))


def test_modules_found():
    assert {"core", "layout", "particles", "potential", "comm"} <= set(MODULE_NAMES)


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_all_names_exist(name):
    # a deleted name must not stay exported
    module = importlib.import_module(f"nanopair.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _benchmark_module(name, monkeypatch):
    """perfbench/<name>.py, loaded from its file under a private module name."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_bind(monkeypatch):
    # the benchmark imports names of the package and its tracer rebinds
    # others; a name dropped on either side must fail here, not only in the
    # benchmark's own smoke test. A short traced run also calls each wrapper
    # with the arguments the package passes
    harness = _benchmark_module("harness", monkeypatch)
    tracing = _benchmark_module("tracing", monkeypatch)
    owners = [
        (driver, [attr for attr, _, _ in tracing._DRIVER_NAMES]),
        (ParticleStore, list(tracing._STORE_METHODS)),
        (ArrayHandle, list(tracing._HANDLE_METHODS)),
    ]
    before = [(owner, attr, owner.__dict__[attr]) for owner, attrs in owners for attr in attrs]
    wl = harness.WORKLOADS["lj-p8-half"]
    cfg = wl.cfg.with_overrides(unit_cells=(6, 6, 6)).validate()
    tracer = tracing.Tracer(law_from_config(cfg))
    world = harness.build_world(cfg, wl.ranks, *harness.initial_state(cfg, 1))
    with tracer.install():
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in before)
        harness.run_segment(world, 2, observer=tracer)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)
    names = {span[1] for span in tracer.spans}
    assert {name for _, name, _ in tracing._DRIVER_NAMES} <= names
    assert {"particles.append_ghosts", "particles.set_ghost_positions"} <= names
