"""Every call in the library that writes a file, with its enclosing
function: the run directory formats every output of a run, and only the
training .npz has a writer of its own. A new writer elsewhere fails here."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "stencil_lab").glob("*.py"))
WRITES = {"open", "write_text", "write_bytes", "savez", "mkdir"}


def writer_calls(path: Path) -> set[tuple[str, str]]:
    """(module.function, call) of each writing call in a module; methods
    are named Class.method, and a call at module level by the module."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
                if name in WRITES:
                    found.add((".".join([path.stem, *scope]), name))
            visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    return found


def test_only_the_run_directory_and_the_training_file_write():
    assert len(SOURCES) > 1
    assert set().union(*map(writer_calls, SOURCES)) == {
        ("experiments.RunDir.path", "mkdir"),
        ("experiments.RunDir.write_csv", "open"),
        ("experiments.RunDir.write_json", "write_text"),
        ("training.save_training_set", "savez"),
    }
