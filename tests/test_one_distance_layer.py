"""Full distance rows stay inside the space layer.

The check walks ``src/rectilib`` with ``ast`` and fails on any call of
``dists_from``, as a method or a bare name, in a module other than
``space.py``.  Other modules ask the space for what they need: chosen
entries (``dists_between``), the pairs within a radius (``neighbors``)
or each point's nearest candidate (``nearest``).
"""

import ast
from pathlib import Path

import rectilib

PACKAGE = Path(rectilib.__file__).parent


def full_row_calls(package: Path) -> list[str]:
    """``module:line`` of each ``dists_from`` call outside ``space.py``."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "space.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "dists_from":
                    found.append(f"{path.stem}:{node.lineno}")
    return found


def test_only_the_space_layer_computes_full_rows():
    assert full_row_calls(PACKAGE) == []
