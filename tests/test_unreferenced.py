"""Every function, class, method and private constant of the package is
used by it.

The check walks ``src/rectilib`` with ``ast``: each top-level function
and class, each method of a top-level class, and each module-level
constant whose name starts with ``_``; dunders are skipped.  A
definition counts as used when some ``Name`` or ``Attribute`` node
outside its own definition carries its name, in any module of the
package; tests do not count.  Matching is by name only, so a method
shares its uses with every attribute of the same name: the check misses
some dead code, but whatever it reports is dead.  A public name may be
kept for a reason given in ``KEEP``; a private one never is.

The same walk fails on a module-level import (also one under a
top-level ``if`` or ``try``) whose name no ``Name`` node of its own
module reads; names listed in the module's ``__all__`` are exempt, and
so are ``__future__`` imports.
"""

import ast
from pathlib import Path

import rectilib

PACKAGE = Path(rectilib.__file__).parent

# qualified name -> why it stays although the package never uses it
KEEP = {
    "density.stratify": "planned: the strata E_{j,k} become the curve's "
    "target (ROADMAP.md, open items)",
    "space.hausdorff_estimate": "planned: the report sets it against "
    "10 mu(E) on a stratum target (ROADMAP.md, open items)",
    "space.MetricMeasureSpace.distance_matrix": "property tests use it as the "
    "matrix-backend reference, and feed it to from_matrix",
    "space._Slice.readable": "the raw-stream protocol: io.BufferedReader calls it",
    "space._Slice.readinto": "the raw-stream protocol: io.BufferedReader calls it",
}


def definitions(modules: dict) -> list:
    """(qualified name, name, node) of each top-level function or class,
    each method of a top-level class and each private module-level
    constant, dunders left out."""
    out = []
    for stem, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((f"{stem}.{node.name}", node.name, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                for name in (t.id for t in targets if isinstance(t, ast.Name)):
                    if name.startswith("_"):
                        out.append((f"{stem}.{name}", name, node))
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        out.append((f"{stem}.{node.name}.{sub.name}", sub.name, sub))
    return [d for d in out if not (d[1].startswith("__") and d[1].endswith("__"))]


def private(qual: str) -> bool:
    return qual.rsplit(".", 1)[1].startswith("_")


def unreferenced(package: Path) -> list[str]:
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    uses: dict[str, list] = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append(node)
    dead = []
    for qual, name, node in definitions(modules):
        own = {id(n) for n in ast.walk(node)}
        if all(id(use) in own for use in uses.get(name, [])):
            dead.append(qual)
    return dead


def test_every_public_definition_is_used_by_the_package():
    dead = [qual for qual in unreferenced(PACKAGE) if not private(qual)]
    assert sorted(set(dead) - set(KEEP)) == []
    # an entry the package now uses, or that is gone, leaves the list
    assert sorted(set(KEEP) - set(dead)) == []


def test_every_private_definition_is_used_by_the_package():
    assert [qual for qual in unreferenced(PACKAGE) if private(qual)] == []


def module_imports(body: list) -> list:
    """Import statements among these statements, descending into
    ``if`` and ``try`` blocks but not into functions or classes."""
    out = []
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.append(node)
        elif isinstance(node, (ast.If, ast.Try)):
            for block in ("body", "orelse", "finalbody"):
                out += module_imports(getattr(node, block, []))
            for handler in getattr(node, "handlers", []):
                out += module_imports(handler.body)
    return out


def exported(tree: ast.Module) -> set:
    """The string entries of a module's ``__all__`` list."""
    return {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
        for elt in getattr(node.value, "elts", [])
        if isinstance(elt, ast.Constant)
    }


def unused_imports(package: Path) -> list[str]:
    """``module.name`` of each module-level import its module never reads."""
    dead = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        read |= exported(tree)
        for node in module_imports(tree.body):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    dead.append(f"{path.stem}.{name}")
    return dead


def test_every_module_level_import_is_read():
    assert unused_imports(PACKAGE) == []


def test_an_injected_unused_import_is_reported(tmp_path):
    source = (PACKAGE / "curve.py").read_text()
    (tmp_path / "curve.py").write_text("import math\n" + source)
    (tmp_path / "__init__.py").write_text(
        "from .curve import parametrize\n__all__ = ['parametrize']\n"
    )
    assert unused_imports(tmp_path) == ["curve.math"]
