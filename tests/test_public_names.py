"""Every public module-level function and class of the package is used: its
name is read somewhere in the package's modules or the acceptance suite."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rislink"


def parsed() -> dict:
    """The syntax tree of each package module (the package's own
    re-exports in __init__.py left out) and of the acceptance suite."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths.append(ROOT / "tests" / "test_acceptance.py")
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def public_definitions(trees: dict) -> list:
    """(module, name) of every public function and class at module level."""
    return [(path.stem, node.name) for path, tree in trees.items() if path.parent == PACKAGE
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def referenced_names(trees: dict) -> set:
    """Every name read, attribute taken or name imported in the trees. A
    docstring is a string constant, so a name in prose does not count."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_function_and_class_is_referenced():
    docstring_only = ast.parse('def f():\n    """calls g"""\n')
    assert "g" not in referenced_names({"m.py": docstring_only})
    trees = parsed()
    definitions = public_definitions(trees)
    assert ("link", "receive_bits") in definitions
    used = referenced_names(trees)
    assert [f"{module}.{name}" for module, name in definitions if name not in used] == []
