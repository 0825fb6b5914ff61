"""Every import in the package modules and the tests is used, every private
top-level name of the package is referenced in it, and the package imports
exactly the third-party distributions that pyproject.toml declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

import nahmkit

MODULES = sorted(p for p in Path(nahmkit.__file__).parent.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    assert _unused_imports("import cmath\nfrom x import a, b\nprint(a)\n") == ["b (line 2)", "cmath (line 1)"]


def _private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _references(trees) -> set[str]:
    refs = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return refs


def _dead_private_names(source: str, package_sources) -> list[str]:
    refs = _references(ast.parse(s) for s in package_sources)
    return [n for n in _private_definitions(ast.parse(source)) if n not in refs]


PACKAGE = sorted(Path(nahmkit.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_dead_private_names(path):
    assert _dead_private_names(path.read_text(), [p.read_text() for p in PACKAGE]) == []


def test_detects_a_dead_private_name():
    source = "_A = 1\n_B = 2\ndef _f():\n    return _A\nclass _C:\n    pass\n"
    assert _dead_private_names(source, [source, "import m\nm._C()\n"]) == ["_B", "_f"]


def _third_party_imports(sources) -> set[str]:
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {n for n in names if n not in sys.stdlib_module_names and n != "nahmkit"}


def _declared_dependencies(pyproject: str) -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    specs = tomllib.loads(pyproject)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_") for spec in specs}


def test_imports_are_the_declared_dependencies():
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert _third_party_imports(p.read_text() for p in PACKAGE) == _declared_dependencies(pyproject)


def test_dependency_check_sees_function_level_imports():
    source = "import os\nimport numpy.linalg\nfrom . import x\ndef f():\n    from scipy.optimize import y\n"
    assert _third_party_imports([source]) == {"numpy", "scipy"}
    assert _declared_dependencies('[project]\ndependencies = ["numpy>=1.24", "Sci-Py"]\n') == {"numpy", "sci_py"}
