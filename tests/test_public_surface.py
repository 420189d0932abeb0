"""Every public name resolves: ``signrate.__all__`` and the ``__all__`` of
each ``signrate`` module list only attributes that exist, each name once,
so a deleted function cannot linger in an export list."""

import importlib
import pkgutil

import signrate


def test_all_names_resolve_once():
    modules = [signrate] + [
        importlib.import_module(f"signrate.{info.name}")
        for info in pkgutil.iter_modules(signrate.__path__)]
    checked = 0
    for module in modules:
        exported = getattr(module, "__all__", None)
        if exported is None:
            continue
        checked += 1
        assert len(exported) == len(set(exported)), module.__name__
        missing = [name for name in exported if not hasattr(module, name)]
        assert missing == [], module.__name__
    assert checked >= 2
