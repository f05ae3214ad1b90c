"""Builders for induced, semidirect, dual and descendent structures.

Everything here is a pure constructor on exact structure constants.  The
builders assume their preconditions and never check them (checks cost more
than the construction); a caller that needs them runs structures.check_all
on its own presentation first, as the command line does.  A module's operator
family is an order-3 tensor with legs (i, k, j): l[i][k][j] is the v_k
coefficient of l(e_i) v_j, so each module below is one contraction of
structure constants.  A dual module's names are the second half of
structures._doubled_names, so none repeats a name of the module it dualizes.

The deformation parameter q may be a rational or the live polynomial
generator.  Over Q[q] it defaults to the generator itself; over Q it must be
given.  The secondary parameter p of the two-parameter family stays rational,
keeping the coefficient ring univariate.
"""

from fractions import Fraction

from .exactcore import POLY, Scalar, Tensor, as_fraction, qvar
from .structures import (
    Presentation,
    PresentationError,
    RepAdmDiff,
    RepNov,
    Space,
    _doubled_names,
)


def _param(ring: str, x) -> Scalar | Fraction:
    if isinstance(x, Scalar):
        if x.ring != ring:
            raise PresentationError("parameter ring does not match the structure ring")
        return x
    return as_fraction(x)


def _qparam(ring: str, q) -> Scalar | Fraction:
    if q is None:
        if ring != POLY:
            raise PresentationError("over Q the deformation parameter must be given")
        return qvar()
    return _param(ring, q)


def induce_novikov(dot: Tensor, D: Tensor, Q: Tensor, p=1, q=None) -> Tensor:
    """Structure constants of a circ b = a . (pD + qQ)(b).

    p = 1 gives the one-parameter deformation family of the commutative
    product; Q = 0, q = 0 recovers the classical construction a . D(b).
    The result is Novikov when (dot, D, Q) is an admissible quadruple.
    """
    ring = dot.ring
    K = D.scale(_param(ring, p)) + Q.scale(_qparam(ring, q))
    return Tensor.einsum("mj,imk->ijk", K, dot)


def induce_nov_coalg(delta: Tensor, Q: Tensor, D: Tensor, q=None) -> Tensor:
    """Constants of Delta_q = (id (x) (Q + qD)) delta."""
    ring = delta.ring
    K = Q + D.scale(_qparam(ring, q))
    return Tensor.einsum("ijm,km->ijk", delta, K)


def _semidirect(apres: Presentation, op: Tensor, rep, right) -> Tensor:
    """Constants of (a+u)(b+v) = ab + l(a)v + right(b)u on A + V, A block first."""
    if rep.ring != apres.ring:
        raise PresentationError("representation ring differs from the algebra ring")
    if rep.alg_dim != apres.dim:
        raise PresentationError("representation is over a different algebra dimension")
    na, nv = apres.dim, rep.dim
    n = na + nv
    return Tensor.from_blocks(apres.ring, (n, n, n), [
        ((0, 0, 0), op),
        ((0, na, na), Tensor.einsum("igb->ibg", rep.l)),
        ((na, 0, na), Tensor.einsum("igb->big", right)),
    ])


def semidirect_novikov(apres: Presentation, rep: RepNov, circ: str = "circ") -> Presentation:
    """The semidirect Novikov product on A + V, A block first.

    (a+u) circ (b+v) = a circ b + l(a)v + r(b)u.
    """
    total = _semidirect(apres, apres.binop(circ), rep, rep.r)
    return Presentation(ring=apres.ring, space=Space(apres.space.names + rep.names),
                        binops={circ: total})


def semidirect_admdiff(apres: Presentation, rep: RepAdmDiff, dot: str = "dot",
                       D: str = "D", Q: str = "Q") -> Presentation:
    """The semidirect commutative differential structure on A + V.

    (a+u) . (b+v) = a . b + l(a)v + l(b)u, with maps D + alpha and Q + beta.
    """
    op = apres.binop(dot)
    dmap, qmap = apres.linmap(D), apres.linmap(Q)
    total = _semidirect(apres, op, rep, rep.l)
    return Presentation(
        ring=apres.ring,
        space=Space(apres.space.names + rep.names),
        binops={dot: total},
        maps={D: Tensor.block_diag(dmap, rep.alpha), Q: Tensor.block_diag(qmap, rep.beta)},
    )


def dual_rep_novikov(rep: RepNov) -> RepNov:
    """The dual module (V*, l* + r*, -r*).

    Operator families dualize with the sign convention
    <phi*(a) f, v> = -<f, phi(a) v>, so each family below is transposed on
    its module legs with the signs worked in.
    """
    return RepNov(_doubled_names(rep.names)[rep.dim:],
                  -Tensor.einsum("ijk->ikj", rep.l + rep.r), Tensor.einsum("ijk->ikj", rep.r))


def dual_rep_admdiff(rep: RepAdmDiff) -> RepAdmDiff:
    """The dual module (V*, -l*, beta^T, alpha^T); the two endomorphisms swap."""
    return RepAdmDiff(_doubled_names(rep.names)[rep.dim:],
                      Tensor.einsum("ijk->ikj", rep.l), rep.beta.transpose(),
                      rep.alpha.transpose())


def induced_rep_q(rep: RepAdmDiff, D: Tensor, Q: Tensor, q=None) -> RepNov:
    """Deform a differential module into a module over the induced product.

    l'(a) = l(a)(alpha + q beta) and r'(a) = l((D + qQ)a).
    """
    qs = _qparam(rep.ring, q)
    inner = rep.alpha + rep.beta.scale(qs)
    K = D + Q.scale(qs)
    return RepNov(rep.names, Tensor.einsum("mj,ikm->ikj", inner, rep.l),
                  Tensor.einsum("mi,mkj->ikj", K, rep.l))


def pre_novikov_from_zinbiel(diamond: Tensor, D: Tensor, Q: Tensor,
                             q=None) -> tuple[Tensor, Tensor]:
    """The split pair (lhd, rhd) deforming a Zinbiel product.

    a lhd b = (D + qQ)(b) diamond a and a rhd b = a diamond (D + qQ)(b).
    """
    K = D + Q.scale(_qparam(diamond.ring, q))
    # a lhd b = K(b) diamond a and a rhd b = a diamond K(b)
    return (Tensor.einsum("mj,mik->ijk", K, diamond),
            Tensor.einsum("mj,imk->ijk", K, diamond))


def descendent_novikov(lhd: Tensor, rhd: Tensor) -> Tensor:
    """a circ b = a lhd b + a rhd b."""
    return lhd + rhd


def descendent_commdiff(diamond: Tensor) -> Tensor:
    """a . b = a diamond b + b diamond a."""
    return star(diamond)


def star(circ: Tensor) -> Tensor:
    """a star b = a circ b + b circ a."""
    return Tensor.combination([(1, "ijk->ijk", (circ,)), (1, "jik->ijk", (circ,))])


def zinbiel_from_oop(T: Tensor, rep: RepAdmDiff) -> Tensor:
    """u diamond v = l(T(u))v, for T a relative square-zero splitting operator.

    T must be a verified operator for rep (the Yang-Baxter module has the
    checker); this builder only assembles the product.
    """
    return Tensor.einsum("mi,mkj->ijk", T, rep.l)


def pre_novikov_from_oop(T: Tensor, rep: RepNov) -> tuple[Tensor, Tensor]:
    """(lhd, rhd) with u rhd v = l(T(u))v and u lhd v = r(T(v))u."""
    return (Tensor.einsum("mj,mki->ijk", T, rep.r),
            Tensor.einsum("mi,mkj->ijk", T, rep.l))


def regular_rep_novikov(circ: Tensor, names) -> RepNov:
    """The adjoint module (A, L_circ, R_circ)."""
    return RepNov(names, Tensor.einsum("ijk->ikj", circ), Tensor.einsum("jik->ikj", circ))


def regular_rep_admdiff(dot: Tensor, D: Tensor, Q: Tensor, names) -> RepAdmDiff:
    """The regular module (A, L_dot, D, Q)."""
    return RepAdmDiff(names, Tensor.einsum("ijk->ikj", dot), D, Q)
