"""Package surface: every exported name resolves, and the package does not
import the benchmark harness."""

import ast
import importlib
import pathlib
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


def test_package_does_not_import_the_benchmark():
    # the benchmark harness wraps the package from outside; the package never
    # reaches back into it
    harness = {"bench", "tracing", "workloads", "worker"}
    root = pathlib.Path(chpdispatch.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [(path.name, m) for m in modules if m.split(".")[0] in harness]
    assert not found


def test_every_import_is_used():
    # a name a module imports is read in it or re-exported through its
    # __all__; "# noqa: F401" marks an import kept for its side effect
    root = pathlib.Path(chpdispatch.__file__).parent
    unused = []
    for path in sorted(root.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = importlib.import_module(f"chpdispatch.{path.stem}")
        used |= set(getattr(module, "__all__", ()))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append((path.name, node.lineno, name))
    assert not unused
