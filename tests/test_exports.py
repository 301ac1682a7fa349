"""Package tooling: the export lists name only what the modules define."""

import importlib
import pkgutil

import bgnf


def test_every_exported_name_resolves():
    missing = []
    for info in pkgutil.iter_modules(bgnf.__path__):
        module = importlib.import_module(f"bgnf.{info.name}")
        missing += [f"bgnf.{info.name}.{name}"
                     for name in getattr(module, "__all__", ())
                     if not hasattr(module, name)]
    assert not missing
