"""Every public name the package and its modules declare exists, every
name a module imports is read, and the benchmark's stage trace finds the
names it wraps."""

import ast
import importlib
import importlib.util
import pathlib
import pkgutil

import catacaustics

SPANS = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"

# the names of perfbench/spans.TARGETS that the package defines; a per-layer
# metric of a name that stops resolving silently reads 0
TRACED = {
    "cli.main", "cli.parse_surface_definition", "cli.compute_caustic_sheets",
    "cli.validate_sheets", "cli.export_mesh", "cli.reflected_front_point",
    "surfaces.parse_surface",
    "caustics.eval_surface", "caustics.frame_at", "caustics.fundamental_forms",
    "caustics.reflection_data", "caustics.modified_forms", "caustics.caustic_coefficients",
    "caustics.solve_sheet_curvatures", "caustics.caustic_point",
}


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


def test_the_benchmark_trace_finds_its_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # reads TARGETS; installs no trace
    resolved = {f"{module.rpartition('.')[2]}.{attr}" for module, attr, *_ in spans.TARGETS
                if hasattr(importlib.import_module(module), attr)}
    assert not TRACED - resolved, f"traced names that do not resolve: {sorted(TRACED - resolved)}"
