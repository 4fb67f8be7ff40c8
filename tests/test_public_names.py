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


def loaded_names() -> set[str]:
    """Every name read, bare or as an attribute, in the package's modules other than `__init__.py`."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_in_the_package():
    loaded = loaded_names()
    uncalled = {name for name in specrelax.__all__ if name not in loaded}
    assert uncalled - NO_CALLER_YET.keys() == set(), "public names without a caller in the package"
    assert NO_CALLER_YET.keys() - uncalled == set(), "listed names that gained a caller or left __all__"
