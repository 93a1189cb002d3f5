"""Public surface: every name a module exports must exist."""

import importlib
import pkgutil

import pytest

import ncvi

MODULES = ["ncvi"] + [f"ncvi.{m.name}" for m in pkgutil.iter_modules(ncvi.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
