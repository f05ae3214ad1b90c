"""Every structure constant is one Tensor: the package defines no subclass of it."""

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


def test_a_rebuilt_product_equals_the_product():
    c = load("fixtures/exnov1").binop("dot")
    same = Tensor.einsum("ijk->ijk", c)
    assert same == c and hash(same) == hash(c)
    assert Tensor.from_dense(c.ring, c.dense) == c
