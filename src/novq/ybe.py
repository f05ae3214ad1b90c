"""Yang-Baxter residuals, coboundary coproducts and operator checks.

An element r = sum_i x_i (x) y_i is stored as a plain order-2 tensor;
antisymmetry is a checked predicate, never an assumption, because the
operator-to-tensor direction needs the raw summand before antisymmetrizing.

For the double products the binary operation always lands in the leg the two
subscripts share, and the remaining legs keep their factors in summand order:

    r13 . r23 = sum x_i (x) x_j (x) (y_i . y_j)
    r12 . r23 = sum x_i (x) (y_i . x_j) (x) y_j
    r13 . r12 = sum (x_i . x_j) (x) y_j (x) y_i

Operator checks read a module's families as stored, with legs (i, k, j):
l[i][k][j] is the v_k coefficient of l(e_i) v_j.  Each term of an identity is
then one contraction over all pairs of module basis vectors.
"""

from .exactcore import Tensor
from .structures import (
    AxiomReport,
    PresentationError,
    RepAdmDiff,
    RepNov,
    scan_residuals,
)
from .constructions import star


def _check_dims(r: Tensor, op: Tensor) -> None:
    if r.ring != op.ring:
        raise PresentationError("r and the product live over different rings")
    if r.dim != op.dim:
        raise PresentationError("r and the product live on different spaces")


# r = sum r[a][b] e_a (x) e_b; the product of two copies lands in leg 1, 2 or 3
_PROD_LEG_SPECS = {
    1: "am,cl,ack->klm",  # r13 . r12
    2: "kb,cm,bcl->klm",  # r12 . r23
    3: "kb,ld,bdm->klm",  # r13 . r23
}


def _prod_leg(r: Tensor, op: Tensor, leg: int) -> Tensor:
    """The double product of r with itself that multiplies in the given leg."""
    return Tensor.einsum(_PROD_LEG_SPECS[leg], r, r, op)


def aybe_residual(r: Tensor, dot: Tensor) -> Tensor:
    """r13.r12 + r13.r23 - r12.r23 for a commutative associative product."""
    _check_dims(r, dot)
    return Tensor.combination([(c, _PROD_LEG_SPECS[leg], (r, r, dot))
                               for c, leg in ((1, 1), (1, 3), (-1, 2))])


def nybe_residual(r: Tensor, circ: Tensor) -> Tensor:
    """r13 circ r23 + r12 star r23 + r13 circ r12, with a star b = a circ b + b circ a."""
    _check_dims(r, circ)
    return Tensor.combination([(1, _PROD_LEG_SPECS[leg], (r, r, op))
                               for leg, op in ((3, circ), (2, star(circ)), (1, circ))])


def r_admissibility(r: Tensor, D: Tensor, Q: Tensor) -> AxiomReport:
    """(D (x) id - id (x) Q) r = 0 and (id (x) D - Q (x) id) r = 0."""
    first = Tensor.combination([(1, "ab,ia->ib", (r, D)), (-1, "ab,jb->aj", (r, Q))])
    second = Tensor.combination([(1, "ab,jb->aj", (r, D)), (-1, "ab,ia->ib", (r, Q))])
    items = [(("D(x)id - id(x)Q",), first), (("id(x)D - Q(x)id",), second)]
    return scan_residuals("R_ADMISS", r.ring, items)


def is_antisymmetric(r: Tensor) -> bool:
    return Tensor.combination([(1, "ij->ij", (r,)), (1, "ji->ij", (r,))]).is_zero()


def delta_r(r: Tensor, dot: Tensor) -> Tensor:
    """The coboundary coproduct a -> (id (x) L(a) - L(a) (x) id) r."""
    _check_dims(r, dot)
    # delta(e_i)[a][b] = sum_j r[a][j] (e_i . e_j)_b - r[j][b] (e_i . e_j)_a
    return Tensor.combination([(1, "aj,ijb->iab", (r, dot)), (-1, "jb,ija->iab", (r, dot))])


def Delta_qr(r: Tensor, circ: Tensor) -> Tensor:
    """The coboundary coproduct a -> (L_circ(a) (x) id + id (x) L_star(a)) r."""
    _check_dims(r, circ)
    return Tensor.combination([(1, "jb,ija->iab", (r, circ)),
                               (1, "aj,ijb->iab", (r, star(circ)))])


def oop_check(T: Tensor, rep, circ: Tensor | None = None,
              dot: Tensor | None = None, D: Tensor | None = None,
              Q: Tensor | None = None) -> dict:
    """Verify the defining identities of a relative splitting operator T: V -> A.

    With a Novikov module (pass circ):
        T(u) circ T(v) = T(l(T(u))v) + T(r(T(v))u).
    With a differential module (pass dot and D, and Q when the twisted half
    should be checked too):
        T(u) . T(v) = T(l(T(u))v + l(T(v))u),  D T = T alpha,  Q T = T beta.

    Returns one report per identity, keyed OOP_PROD / OOP_D / OOP_Q.
    """
    if T.shape != (rep.alg_dim, rep.dim):
        raise PresentationError("operator shape does not match the module")
    if isinstance(rep, RepNov):
        if circ is None:
            raise PresentationError("a Novikov module needs the algebra product")
        op, right = circ, rep.r
    elif isinstance(rep, RepAdmDiff):
        if dot is None or D is None:
            raise PresentationError("a differential module needs the product and D")
        op, right = dot, rep.l
    else:
        raise PresentationError(f"unsupported module type {type(rep).__name__}")
    if op.dim != rep.alg_dim or op.ring != rep.ring:
        raise PresentationError("product does not match the module's algebra")
    # residual[i][j] = T(v_i) op T(v_j) - T(l(T(v_i)) v_j) - T(right(T(v_j)) v_i)
    residual = Tensor.combination([(1, "ai,abk,bj->ijk", (T, op, T)),
                                   (-1, "ai,amj,km->ijk", (T, rep.l, T)),
                                   (-1, "bj,bmi,km->ijk", (T, right, T))])
    items = (((rep.names[i], rep.names[j]), v) for (i, j), v in residual.slices(2))
    out = {"OOP_PROD": scan_residuals("OOP_PROD", rep.ring, items)}
    if isinstance(rep, RepAdmDiff):
        out["OOP_D"] = scan_residuals("OOP_D", rep.ring,
                                      [(("D T - T alpha",), _twist(D, T, rep.alpha))])
        if Q is not None:
            out["OOP_Q"] = scan_residuals("OOP_Q", rep.ring,
                                          [(("Q T - T beta",), _twist(Q, T, rep.beta))])
    return out


def _twist(D: Tensor, T: Tensor, alpha: Tensor) -> Tensor:
    """D T - T alpha."""
    return Tensor.combination([(1, "kj,ik->ij", (T, D)), (-1, "kj,ik->ij", (alpha, T))])


def T_from_r(r: Tensor) -> Tensor:
    """The map A* -> A sending a covector f to (f (x) id) r."""
    return Tensor.einsum("ji->ij", r)


def r_from_T(T: Tensor) -> Tensor:
    """Antisymmetrized tensor of T: V -> A inside (A + V*) (x) (A + V*).

    T becomes sum_j T(v_j) (x) v_j* in the A (x) V* block; the result is that
    summand minus its flip.
    """
    na, nv = T.shape
    return Tensor.from_blocks(T.ring, (na + nv, na + nv),
                              [((0, na), T), ((na, 0), -T.transpose())])


def canonical_r(ring: str, dim_a: int) -> Tensor:
    """sum_i e_i (x) e_i* - e_i* (x) e_i on A + A*."""
    return r_from_T(Tensor.identity(ring, dim_a))
