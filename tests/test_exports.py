"""Tests that every name a beyondnyq module exports exists in it."""

import importlib
import pkgutil

import pytest

import beyondnyq

MODULES = ["beyondnyq"] + [f"beyondnyq.{info.name}" for info in pkgutil.iter_modules(beyondnyq.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A name left in ``__all__`` after its definition is gone fails only
    ``from module import *``, so each is looked up here."""
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
