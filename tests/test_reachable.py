"""Every module-level function and class of the package is reachable.

A name counts as reached when `novq/__init__.py` imports it or when some
code in `src/novq` outside its own definition names it (as a bare name or as
an attribute).  Anything else is dead code or a missing export; a private
helper that only tests name is dead code too.  Likewise every module-level
import of a module other than `__init__.py`, which re-exports, is named by
that module outside the import (`from __future__` imports name nothing).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "novq"


def unreachable() -> list[str]:
    """The module-level defs and classes of the package that nothing reaches."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    exported = {alias.asname or alias.name for node in ast.walk(trees["__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    defined, named = [], set()
    for tree in trees.values():
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                defined.append(own)
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else \
                    node.attr if isinstance(node, ast.Attribute) else None
                if name is not None and name != own:
                    named.add(name)
    return sorted(name for name in defined if name not in exported | named)


def test_every_public_def_is_exported_or_used():
    assert unreachable() == []


def unused_imports() -> list[str]:
    """module:name for each module-level import that its own module never names."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = [(alias.asname or alias.name).split(".")[0] for stmt in tree.body
                    if isinstance(stmt, (ast.Import, ast.ImportFrom))
                    and getattr(stmt, "module", None) != "__future__" for alias in stmt.names]
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        out += [f"{path.stem}:{name}" for name in imported if name not in named]
    return out


def test_every_module_level_import_is_named():
    assert unused_imports() == []
