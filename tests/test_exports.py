import importlib
import pkgutil

import pytest

import permorb

MODULES = [f"permorb.{m.name}" for m in pkgutil.iter_modules(permorb.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale name in __all__ makes ``from <module> import *`` raise
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
