"""Every public name the package and its modules declare exists."""

import importlib
import pkgutil

import catacaustics


def test_every_name_in_all_resolves():
    modules = [catacaustics] + [importlib.import_module(f"catacaustics.{info.name}")
                                for info in pkgutil.iter_modules(catacaustics.__path__)]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ lists missing names {missing}"
    namespace = {}
    exec("from catacaustics import *", namespace)
    assert set(catacaustics.__all__) <= namespace.keys()
