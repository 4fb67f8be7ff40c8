"""Every public name has a caller in the package's own modules, or sits on a list that can only shrink."""

from __future__ import annotations

import ast
from pathlib import Path

import specrelax

SRC = Path(specrelax.__file__).resolve().parent

# Public names with no caller in the package yet, each with its reason. A name
# leaves this list when it gains a caller or leaves `__all__`.
NO_CALLER_YET = {
    "decode_with_metrics": "bench/workloads.py and the README example call it",
    "residual_dist": "goes with exact tree verification's working-law rule",
    "tvd": "used by the tests and by callers of the package",
}

# Module-level imports no code in their own module reads, each with its reason.
# An import leaves this list when its module reads it or drops it.
UNREAD_IMPORTS = {
    "verify.py:cosine_sim": "bench/tracer.py counts scalar cosines through this name until item 1a's counter",
}


def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def loaded_names(paths) -> set[str]:
    """Every name read, bare or as an attribute, in the package modules at `paths`."""
    names = set()
    for path in paths:
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def private_module_names(path: Path) -> set[str]:
    """The `_private` functions, classes and constants a module defines at its top level."""
    names = set()
    for node in parsed(path).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_every_public_name_has_a_caller_in_the_package():
    # `__init__.py` only re-exports, so its reads are no callers.
    loaded = loaded_names(path for path in SRC.glob("*.py") if path.name != "__init__.py")
    uncalled = {name for name in specrelax.__all__ if name not in loaded}
    assert uncalled - NO_CALLER_YET.keys() == set(), "public names without a caller in the package"
    assert NO_CALLER_YET.keys() - uncalled == set(), "listed names that gained a caller or left __all__"


def test_every_private_helper_is_read_in_the_package():
    loaded = loaded_names(SRC.glob("*.py"))
    orphans = {
        f"{path.name}:{name}" for path in SRC.glob("*.py") for name in private_module_names(path) - loaded
    }
    assert orphans == set(), "private module-level names nothing in the package reads"


def module_imports(path: Path) -> set[str]:
    """The names a module binds by importing at its top level, `if` and `try` blocks included."""
    names, statements = set(), list(parsed(path).body)
    while statements:
        node = statements.pop()
        if isinstance(node, (ast.If, ast.Try)):
            statements += node.body + node.orelse + getattr(node, "finalbody", [])
            statements += [stmt for handler in getattr(node, "handlers", []) for stmt in handler.body]
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_every_import_is_read_in_its_own_module():
    # `__init__.py` imports only to re-export.
    unread = {
        f"{path.name}:{name}"
        for path in SRC.glob("*.py")
        if path.name != "__init__.py"
        for name in module_imports(path) - loaded_names([path])
    }
    assert unread - UNREAD_IMPORTS.keys() == set(), "imports their own module never reads"
    assert UNREAD_IMPORTS.keys() - unread == set(), "listed imports that are now read or gone"
