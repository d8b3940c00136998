"""Every public function, class and method of the library has a reader
in the library itself or in perfbench's modules: an API that only tests
call does not belong in src/. A name counts as read where any of those
modules loads it or an attribute of that name, so the check errs towards
passing."""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "stencil_lab").glob("*.py"))
READERS = SOURCES + [p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]


def public_definitions(tree: ast.Module):
    """(qualified name, name) of each public top-level function and class
    and of each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub.name


def read_names(tree: ast.Module) -> set[str]:
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_public_definition_has_a_reader():
    assert len(SOURCES) > 1 and len(READERS) > len(SOURCES)
    read = set().union(*(read_names(ast.parse(p.read_text())) for p in READERS))
    unread = [f"{path.stem}.{qualified}" for path in SOURCES
              for qualified, name in public_definitions(ast.parse(path.read_text())) if name not in read]
    assert unread == []
