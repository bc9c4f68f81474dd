"""Every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import trigzeta

MODULES = ["trigzeta"] + [
    f"trigzeta.{info.name}" for info in pkgutil.iter_modules(trigzeta.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # nothing star-imports, so a stale entry would otherwise go unnoticed
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), name
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert missing == [], name
