"""The per-pair splitting-operator check, kept as a differential oracle.

This is the body oop_check had before modules stored each operator family
as one order-3 tensor: it applies the families one basis pair (u, v) at a
time through ``_act``.  Operator i of a family is read as its i-th slice.
``oracle_oop_check`` has the signature of ``novq.oop_check`` and must return
equal reports.
"""

from novq.exactcore import LinMap, Vector
from novq.structures import PresentationError, RepAdmDiff, RepNov, scan_residuals
from novq.ybe import _twist


def _operator(family, i: int) -> LinMap:
    """The i-th operator of a family with legs (i, k, j)."""
    return LinMap.einsum("i,ikj->kj", Vector.basis(family.ring, family.shape[0], i), family)


def _act(family, a: Vector, v: Vector) -> Vector:
    """Apply sum_i a[i] * family[i] to v."""
    out = Vector.zero(v.ring, family.shape[1])
    for i, ai in a.nonzero():
        out = out + Vector.einsum("j,kj->k", v, _operator(family, i)).scale(ai)
    return out


def oracle_oop_check(T: LinMap, rep, circ=None, dot=None, D=None, Q=None) -> dict:
    """oop_check evaluated one pair of module basis vectors at a time."""
    if T.cod != rep.alg_dim or T.dom != rep.dim:
        raise PresentationError("operator shape does not match the module")
    ring = rep.ring
    nv = rep.dim
    basis = [Vector.basis(ring, nv, i) for i in range(nv)]
    timg = [T.column(i) for i in range(nv)]
    names = rep.names

    if isinstance(rep, RepNov):
        if circ is None:
            raise PresentationError("a Novikov module needs the algebra product")
        if circ.dim != rep.alg_dim or circ.ring != ring:
            raise PresentationError("product does not match the module's algebra")

        def prod_items():
            for i in range(nv):
                for j in range(nv):
                    lhs = Vector.einsum("i,j,ijk->k", timg[i], timg[j], circ)
                    rhs = Vector.einsum("j,ij->i", _act(rep.l, timg[i], basis[j])
                                        + _act(rep.r, timg[j], basis[i]), T)
                    yield (names[i], names[j]), lhs - rhs

        return {"OOP_PROD": scan_residuals("OOP_PROD", ring, prod_items())}

    if not isinstance(rep, RepAdmDiff):
        raise PresentationError(f"unsupported module type {type(rep).__name__}")
    if dot is None or D is None:
        raise PresentationError("a differential module needs the product and D")
    if dot.dim != rep.alg_dim or dot.ring != ring:
        raise PresentationError("product does not match the module's algebra")

    def prod_items():
        for i in range(nv):
            for j in range(nv):
                lhs = Vector.einsum("i,j,ijk->k", timg[i], timg[j], dot)
                rhs = Vector.einsum("j,ij->i", _act(rep.l, timg[i], basis[j])
                                    + _act(rep.l, timg[j], basis[i]), T)
                yield (names[i], names[j]), lhs - rhs

    out = {
        "OOP_PROD": scan_residuals("OOP_PROD", ring, prod_items()),
        "OOP_D": scan_residuals("OOP_D", ring, [(("D T - T alpha",), _twist(D, T, rep.alpha))]),
    }
    if Q is not None:
        out["OOP_Q"] = scan_residuals("OOP_Q", ring, [(("Q T - T beta",), _twist(Q, T, rep.beta))])
    return out
