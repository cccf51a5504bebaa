"""Every name a module exports through ``__all__`` exists."""

import importlib
import pkgutil

import eisenmodes

MODULES = ["eisenmodes"] + [
    f"eisenmodes.{info.name}" for info in pkgutil.iter_modules(eisenmodes.__path__)
]


def test_every_all_entry_resolves():
    missing = []
    for name in MODULES:
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert len(MODULES) > 10
    assert not missing
