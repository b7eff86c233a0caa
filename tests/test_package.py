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


def test_every_attribute_is_read():
    # a method or annotated class field of the package is read somewhere in
    # the source, the tests or the benchmark (dunder methods are called by
    # the language)
    package = pathlib.Path(chpdispatch.__file__).parent
    repo = package.parent.parent
    defined = []
    for path in sorted(package.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")):
                    defined.append((path.name, cls.name, name))
    read = set()
    for top in ("src", "tests", "bench"):
        for path in sorted((repo / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
    assert [d for d in defined if d[2] not in read] == []
