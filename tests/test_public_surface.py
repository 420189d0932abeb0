"""Every public name resolves: ``signrate.__all__`` and the ``__all__`` of
each ``signrate`` module list only attributes that exist, each name once,
so a deleted function cannot linger in an export list.  The package's
``__all__`` is stated nowhere but in its modules: it joins their lists,
and each exported name is the module's own object."""

import importlib
import pkgutil

import signrate

# Every module but the command line front end exports to the package.
SURFACE_MODULES = ["channel", "config", "errors", "pulses", "rates",
                   "sweeps", "transitions"]


def test_all_names_resolve_once():
    modules = {info.name: importlib.import_module(f"signrate.{info.name}")
               for info in pkgutil.iter_modules(signrate.__path__)}
    listing = sorted(name for name, module in modules.items()
                     if hasattr(module, "__all__"))
    assert listing == SURFACE_MODULES
    for module in [signrate, *modules.values()]:
        exported = getattr(module, "__all__", [])
        assert len(exported) == len(set(exported)), module.__name__
        missing = [name for name in exported if not hasattr(module, name)]
        assert missing == [], module.__name__

    assert signrate.__all__ == [name for module in SURFACE_MODULES
                                for name in modules[module].__all__]
    for module in SURFACE_MODULES:
        for name in modules[module].__all__:
            assert getattr(signrate, name) is getattr(modules[module], name)
