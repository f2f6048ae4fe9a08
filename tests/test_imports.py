"""Each module of the package, except the re-exporting __init__, uses every name it imports,
and every public definition is used by the package or documented in the README."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "urlknet"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _referenced(tree: ast.Module) -> set[str]:
    """Names a module reads, imports or looks up as attributes, a definition's own body aside."""
    names = set()
    for stmt in tree.body:
        found = {
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name
            for node in ast.walk(stmt)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        }
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            found.discard(stmt.name)
        names |= found
    return names


def test_every_public_definition_is_used():
    # a top-level def or class that nothing in the package names and the README
    # does not document serves only the tests, and belongs in tests/helpers.py
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    referenced = set().union(*map(_referenced, trees.values()))
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    unused = [
        f"{path.name}:{stmt.name}"
        for path, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and stmt.name not in referenced
        and not re.search(rf"\b{stmt.name}\b", readme)
    ]
    assert unused == []


def test_tensor4_is_named_only_in_tensor_py():
    # arrays cross every package boundary bare; only ConvLayer keeps its weight in a Tensor4
    named = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "tensor.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Name) and node.id == "Tensor4")
        or (isinstance(node, ast.Attribute) and node.attr == "Tensor4")
        or (isinstance(node, ast.alias) and "Tensor4" in (node.name, node.asname))
    ]
    assert named == []
