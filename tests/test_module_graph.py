"""The package's import graph: every import at module top, no cycles."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "swarmforage"
NAME = PACKAGE.name


def parse_modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def package_imports(tree: ast.Module) -> set[str]:
    """Modules of this package that ``tree`` imports, wherever it does."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import x
                found.update(alias.name for alias in node.names)
            elif node.level == 1:  # from .x import y
                found.add(node.module.split(".")[0])
            elif node.module and node.module.split(".")[0] == NAME:
                parts = node.module.split(".")
                found.update(parts[1:2] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == NAME and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_no_import_inside_a_function_or_class():
    nested = set()
    for name, tree in parse_modules().items():
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nested.update(f"{name}.py:{node.lineno}" for node in ast.walk(scope)
                              if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert sorted(nested) == []


def test_package_imports_are_acyclic():
    modules = parse_modules()
    graph = {name: package_imports(tree) & set(modules) - {name}
             for name, tree in modules.items()}
    # Kahn's algorithm: peel off modules whose imports are all peeled
    remaining = dict(graph)
    while True:
        ready = [name for name, deps in remaining.items() if not deps & set(remaining)]
        if not ready:
            break
        for name in ready:
            del remaining[name]
    assert remaining == {}, f"import cycle among {sorted(remaining)}"


def test_guard_sees_the_package():
    graph = {name: package_imports(tree) for name, tree in parse_modules().items()}
    assert {"core", "kinematics", "policy", "gateway", "cpfa", "engine"} <= set(graph)
    assert graph["engine"] >= {"cpfa", "gateway", "kinematics", "policy"}
