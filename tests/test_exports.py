import importlib
import pkgutil

import pytest

import nanopair

MODULE_NAMES = sorted(m.name for m in pkgutil.iter_modules(nanopair.__path__))


def test_modules_found():
    assert {"core", "layout", "particles", "potential", "comm"} <= set(MODULE_NAMES)


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_all_names_exist(name):
    # a deleted name must not stay exported
    module = importlib.import_module(f"nanopair.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
