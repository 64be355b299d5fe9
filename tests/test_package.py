"""Every name a module exports through `__all__` exists in it."""

import importlib
import pkgutil

import pytest

import discweights

MODULES = sorted(m.name for m in pkgutil.iter_modules(discweights.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"discweights.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from discweights.{name} import *", namespace)
    assert set(exported) <= set(namespace)
