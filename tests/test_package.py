"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import chpdispatch


def test_every_export_resolves():
    names = [info.name for info in pkgutil.iter_modules(chpdispatch.__path__)]
    assert "compile" in names and "validation" in names
    for name in names:
        module = importlib.import_module(f"chpdispatch.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (name, missing)
    # the package's re-exports are plain imports, resolved when it was imported
    assert chpdispatch.LiftedOutputMap is importlib.import_module("chpdispatch.compile").LiftedOutputMap
