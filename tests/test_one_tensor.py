"""Every structure constant is one Tensor: the package defines no subclass of it,
and no module but exactcore reaches into how its entries are stored."""

import ast
from pathlib import Path

from novq import Tensor, load

SRC = Path(__file__).resolve().parent.parent / "src" / "novq"


def test_no_module_subclasses_tensor():
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = [ast.unparse(base) for base in node.bases]
                assert not any(b.split(".")[-1] == "Tensor" for b in bases), \
                    f"{path.name}:{node.lineno} class {node.name}({', '.join(bases)})"


def _exactcore_private_names() -> set[str]:
    """The _-prefixed module-level names of exactcore and attributes of Tensor and Scalar."""
    tree = ast.parse((SRC / "exactcore.py").read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef) and node.name in ("Tensor", "Scalar"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names.add(item.name)
                elif isinstance(item, ast.Assign) and ast.unparse(item.targets[0]) == "__slots__":
                    names.update(ast.literal_eval(item.value))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_no_module_but_exactcore_names_its_private_storage():
    private = _exactcore_private_names()
    assert {"_scalar", "_unbox", "_entries", "_index", "_make", "_index_on", "_coerce"} <= private
    for path in sorted(SRC.glob("*.py")):
        if path.name == "exactcore.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            used = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias)
                    else node.value if isinstance(node, ast.Constant) else None)
            assert used not in private, \
                f"{path.name}:{getattr(node, 'lineno', '?')} names exactcore's {used}"


def test_a_rebuilt_product_equals_the_product():
    c = load("fixtures/exnov1").binop("dot")
    same = Tensor.einsum("ijk->ijk", c)
    assert same == c and hash(same) == hash(c)
    assert Tensor.from_dense(c.ring, c.dense) == c
