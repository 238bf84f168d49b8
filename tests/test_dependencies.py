"""The package imports exactly the third-party modules it declares.

The check walks ``src/rectilib`` with ``ast`` and collects the top-level
module of every absolute ``import`` and ``from ... import``, at module
level or inside a function.  Standard-library modules and the package
itself are left out; what remains must be exactly the modules named by
``dependencies`` in ``pyproject.toml``.  So a dependency cannot come back
(or go) without the other side changing too.
"""

import ast
import re
import sys
from pathlib import Path

import rectilib

PACKAGE = Path(rectilib.__file__).parent
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"


def imported_modules(package: Path) -> set[str]:
    """Top-level names of the absolute imports in the package's modules."""
    names = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def declared_modules(pyproject: Path) -> set[str]:
    """Module names of ``[project] dependencies``: each requirement's
    distribution name, lower-cased, with ``-`` read as ``_``."""
    block = re.search(
        r"^dependencies\s*=\s*\[(.*?)\]", pyproject.read_text(), re.M | re.S
    )
    assert block, f"{pyproject}: no dependencies list"
    requirements = re.findall(r"[\"']([^\"']+)[\"']", block.group(1))
    return {
        re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
        for req in requirements
    }


def test_the_package_imports_exactly_its_declared_dependencies():
    third_party = imported_modules(PACKAGE) - set(sys.stdlib_module_names)
    third_party.discard("rectilib")
    assert third_party == declared_modules(PYPROJECT)


def test_the_walk_sees_imports_inside_functions(tmp_path):
    """A function-level import counts: the package imported scipy lazily,
    inside the neighbour query, before numpy became its only dependency."""
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n"
        "from . import space\n"
        "def f():\n"
        "    from scipy.spatial import cKDTree\n"
        "    import json\n"
    )
    assert imported_modules(tmp_path) == {"numpy", "scipy", "json"}
