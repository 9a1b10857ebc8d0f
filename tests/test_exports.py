"""Every public name the package and its modules declare exists, and every
name a module imports is read."""

import ast
import importlib
import pathlib
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


def test_no_module_imports_a_name_it_does_not_read():
    package = pathlib.Path(catacaustics.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not imported - read, f"{path.name} imports {sorted(imported - read)} unread"
