"""The axiom catalog and its compiler.

Each catalog entry is a syntax tree for a multilinear residual, a sum at
its top.  compile_axiom turns each top-level summand into one contraction
led by a selector on the first variable's leg A and a leg Z that leads the
output (Compiled states this convention); the other variables stay free.
Maps on legs, leg swaps and permutations relabel legs, and the identity map
adds no factor.  Every sum below the top is hoisted, after the sums inside
it: contracted once per check, it is one factor of the terms that use it.
No other module knows the tree format.

Templates write each of the paper's defining identities once, over products
and maps given as functions: _assoc, _lsym, _rcomm, _admiss, _deriv, _skew.
A module axiom is its algebra's axiom on A + V, with the product
(a + u)(b + v) = ab + l(a)v + r(b)u of _split and the maps D + alpha,
Q + beta of _mapv; PRE_NOV_1-3 are those of (A, lpre + rpre) acting on
itself (_pre).  The paper's structures close the catalog, each the tuple
of ids that defines it; structures.check_all checks one.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .exactcore import polynomial

# -- axiom catalog ---------------------------------------------------------------
#
# Expressions are nested tuples.  Element-valued nodes:
#   ("var", name)                   bound basis vector
#   ("op", key, x, y)               product applied bilinearly
#   ("map", key, x)                 named linear map
#   ("rep", "l"|"r", aexpr, vexpr)  operator family applied to a module vector
#   ("rmap", "alpha"|"beta", v)     module endomorphism
#   ("pair", key, x, y)             bilinear form value, as a 1-dim vector
# Tensor-valued nodes:
#   ("cop", key, x)                 coproduct of an element (order 2)
#   ("tau", t)                      swap the legs of an order-2 tensor
#   ("tmap2", (m1, m2), t)          maps on the legs of an order-2 tensor
#   ("coleg", key, leg, t)          coproduct applied to one leg (order 3)
#   ("perm", p, t)                  leg permutation of an order-3 tensor
# Any-valued:
#   ("lin", ((coeffs, expr), ...))  sum of q-polynomial multiples
# Map expressions (used in tmap2 slots; None stands for the identity):
#   ("m", key) | ("ml", opkey, elem) | ("mr", opkey, elem)
#   ("mlin", ((coeffs, mexpr), ...)) | ("mcomp", outer, inner)
#
# Operation slots are symbolic keys ("dot", "circ", "zin", "lpre", "rpre",
# "f", "delta", "Delta", "D", "Q", "B"); callers rebind them per check.


@dataclass(frozen=True)
class AxiomDef:
    axiom_id: str
    variables: tuple[tuple[str, str], ...]  # (name, "A" | "V")
    expr: tuple | None
    uses_q: bool = False
    description: str = ""


def _node(kind: str):
    return lambda *args: (kind, *args)


_op, _m, _cop, _tau, _coleg, _perm, _ml, _mr, _mm, _mcomp, _rep, _rmap, _pair = map(_node, (
    "op", "map", "cop", "tau", "coleg", "perm", "ml", "mr", "m", "mcomp", "rep", "rmap", "pair"))
_a, _b, _c, _w = (("var", name) for name in "abcv")
_sum, _mlin = (lambda *terms: ("lin", terms)), (lambda *terms: ("mlin", terms))
_tm = lambda m1, m2, t: ("tmap2", (m1, m2), t)  # noqa: E731
_t = lambda coeffs, e: (tuple(coeffs), e)  # noqa: E731
_p, _n = (lambda e: ((1,), e)), (lambda e: ((-1,), e))  # a term with coefficient 1 or -1
_minus = lambda terms: tuple(_t([-k for k in ks], e) for ks, e in terms)  # noqa: E731


def _mstar(k, e):
    # left multiplication by e for the symmetrized product x*y + y*x
    return _mlin(_p(_ml(k, e)), _p(_mr(k, e)))


def _has(e, v) -> bool:  # whether the expression e contains the variable v
    return e == v or type(e) is tuple and any(_has(x, v) for x in e)


def _split(k, l, r, v=_w):  # the product on A + V: k on A, l(a, u) = a u and r(a, u) = u a
    return lambda x, y: l(x, y) if _has(y, v) else r(y, x) if _has(x, v) else k(x, y)


def _mapv(m, rm, v=_w):  # the map of A + V that is m on A and rm on V
    return lambda e: _rmap(rm, e) if _has(e, v) else _m(m, e)


# Templates: p the outer product, r the inner (p unless given); mixed (p, r): q^1 of p + q r.
def _assoc(p, r, x=_a, y=_b, z=_c) -> tuple:  # the associator (x r y) p z - x r (y p z)
    return _p(p(r(x, y), z)), _n(r(x, p(y, z)))


def _lsym(p, r=None, x=_a, y=_b, z=_c) -> tuple:  # the associator is symmetric in x, y
    return _assoc(p, r or p, x, y, z) + _minus(_assoc(p, r or p, y, x, z))


def _rcomm(p, r=None, x=_a, y=_b, z=_c) -> tuple:  # (x r y) p z - (x r z) p y
    return _p(p((r or p)(x, y), z)), _n(p((r or p)(x, z), y))


def _admiss(p, Q, D, x=_a, y=_b) -> tuple:  # admissibility: Q(x p y) - Q(x) p y + x p D(y)
    return _p(Q(p(x, y))), _n(p(Q(x), y)), _p(p(x, D(y)))


def _deriv(p, d, x=_a, y=_b) -> tuple:  # the derivation rule: d(x p y) - x p d(y) - d(x) p y
    return _p(d(p(x, y))), _n(p(x, d(y))), _n(p(d(x), y))


def _skew(p) -> tuple:  # skew-symmetry: a p b - b p a
    return _p(p(_a, _b)), _n(p(_b, _a))


_dot, _circ, _zin, _lp, _rp, _f = (functools.partial(_op, k) for k in (  # the products
    "dot", "circ", "zin", "lpre", "rpre", "f"))
_Q, _D = (functools.partial(_m, k) for k in "QD")
_dotQ, _dotD = (lambda x, y: _dot(x, _Q(y))), (lambda x, y: _dot(x, _D(y)))
_l, _r = (functools.partial(_rep, k) for k in "lr")  # the operator families
_nov, _com = _split(_circ, _l, _r), _split(_dot, _l, _l)  # on A + V
_Qb, _Da = _mapv("Q", "beta"), _mapv("D", "alpha")
_lrp = lambda x, y: _sum(_p(_lp(x, y)), _p(_rp(x, y)))  # noqa: E731
# (A, lpre + rpre) acting on itself, with v the acted-on variable: a u = a rpre u, u a = u lpre a
_pre = lambda v: _split(_lrp, _rp, lambda a, u: _lp(u, a), v)  # noqa: E731


_A1 = (("a", "A"),)
_AA = (("a", "A"), ("b", "A"))
_AAA = (("a", "A"), ("b", "A"), ("c", "A"))
_AV = (("a", "A"), ("v", "V"))
_AAV = (("a", "A"), ("b", "A"), ("v", "V"))

_DplusQ = _mlin(_p(_mm("D")), _p(_mm("Q")))
_QplusqD = _mlin(_p(_mm("Q")), _t((0, 1), _mm("D")))


def _catalog() -> dict[str, AxiomDef]:
    defs: list[AxiomDef] = []

    def add(axiom_id, variables, expr, uses_q=False, description=""):
        defs.append(AxiomDef(axiom_id, tuple(variables), expr, uses_q, description))

    add("COMM", _AA, _sum(*_skew(_dot)), description="the product is commutative")

    add("ASSOC", _AAA, _sum(*_assoc(_dot, _dot)), description="the product is associative")

    add("NOV_LSYM", _AAA, _sum(*_lsym(_circ)),
        description="the associator is symmetric in its first two arguments")

    add("NOV_RCOMM", _AAA, _sum(*_rcomm(_circ)), description="right multiplications commute")

    add("DERIV", _AA, _sum(*_deriv(_dot, _D)), description="D is a derivation of the product")

    add("ADMISS", _AA, _sum(*_admiss(_dot, _Q, _D)),
        description="Q twists the product against the derivation D")

    add("ZINBIEL", _AAA,
        _sum(_p(_zin(_a, _zin(_b, _c))), _n(_zin(_zin(_b, _a), _c)), _n(_zin(_zin(_a, _b), _c))),
        description="the product obeys the left Zinbiel identity")

    add("ZINB_ADMISS", _AA, _sum(*_admiss(_zin, _Q, _D)),
        description="first twisting identity of Q against D for a Zinbiel product")

    add("ZINB_ADMISS_ALT", _AA, _sum(*_admiss(lambda x, y: _zin(y, x), _Q, _D, _b, _a)),
        description="second twisting identity of Q against D for a Zinbiel product")

    add("PRE_NOV_1", _AAA, _sum(*_minus(_lsym(_pre(_c)))),
        description="splitting identity for the two pre-products, part 1")

    add("PRE_NOV_2", _AAA, _sum(*_lsym(_pre(_b), x=_b, y=_a)),
        description="splitting identity for the two pre-products, part 2")

    add("PRE_NOV_3", _AAA, _sum(*_rcomm(_pre(_c))),
        description="splitting identity for the two pre-products, part 3")

    add("PRE_NOV_4", _AAA, _sum(*_rcomm(_lp)),
        description="splitting identity for the two pre-products, part 4")

    add("COASSOC", _A1,
        _sum(_p(_coleg("delta", 1, _cop("delta", _a))),
             _n(_coleg("delta", 2, _cop("delta", _a)))),
        description="the coproduct is coassociative")

    add("COCOMM", _A1,
        _sum(_p(_cop("delta", _a)), _n(_tau(_cop("delta", _a)))),
        description="the coproduct is cocommutative")

    add("CODERIV", _A1,
        _sum(_p(_cop("delta", _m("Q", _a))),
             _n(_tm(_mm("Q"), None, _cop("delta", _a))),
             _n(_tm(None, _mm("Q"), _cop("delta", _a)))),
        description="Q is a coderivation of the coproduct")

    add("CO_ADMISS", _A1,
        _sum(_p(_tm(_mm("D"), None, _cop("delta", _a))),
             _n(_tm(None, _mm("Q"), _cop("delta", _a))),
             _n(_cop("delta", _m("D", _a)))),
        description="the coproduct intertwines D on one leg with Q on the other")

    add("NOV_COALG_1", _A1,
        _sum(_p(_coleg("Delta", 2, _cop("Delta", _a))),
             _n(_perm((1, 0, 2), _coleg("Delta", 2, _cop("Delta", _a)))),
             _n(_coleg("Delta", 1, _cop("Delta", _a))),
             _p(_perm((1, 0, 2), _coleg("Delta", 1, _cop("Delta", _a))))),
        description="co-version of the left symmetry identity")

    add("NOV_COALG_2", _A1,
        _sum(_p(_perm((1, 0, 2), _coleg("Delta", 2, _tau(_cop("Delta", _a))))),
             _n(_coleg("Delta", 1, _cop("Delta", _a)))),
        description="co-version of right multiplication commutativity")

    add("ASI_1", _AA,
        _sum(_p(_cop("delta", _dot(_a, _b))),
             _n(_tm(None, _ml("dot", _a), _cop("delta", _b))),
             _n(_tm(_mr("dot", _b), None, _cop("delta", _a)))),
        description="the coproduct is a derivation-like map for the product")

    add("ASI_2", _AA,
        _sum(_p(_tm(_ml("dot", _b), None, _cop("delta", _a))),
             _n(_tm(None, _mr("dot", _b), _cop("delta", _a))),
             _p(_tau(_sum(_p(_tm(_ml("dot", _a), None, _cop("delta", _b))),
                          _n(_tm(None, _mr("dot", _a), _cop("delta", _b))))))),
        description="balance identity between product and coproduct")

    _symd = lambda x: _sum(_p(_cop("Delta", x)), _p(_tau(_cop("Delta", x))))

    add("NOV_BIALG_1", _AA,
        _sum(_p(_cop("Delta", _circ(_a, _b))),
             _n(_tm(_mr("circ", _b), None, _cop("Delta", _a))),
             _n(_tm(None, _mstar("circ", _a), _symd(_b)))),
        description="compatibility of the coproduct with the product, part 1")

    add("NOV_BIALG_2", _AA,
        _sum(_p(_tm(_mstar("circ", _a), None, _cop("Delta", _b))),
             _n(_tm(None, _mstar("circ", _a), _tau(_cop("Delta", _b)))),
             _n(_tm(_mstar("circ", _b), None, _cop("Delta", _a))),
             _p(_tm(None, _mstar("circ", _b), _tau(_cop("Delta", _a))))),
        description="compatibility of the coproduct with the product, part 2")

    add("NOV_BIALG_3", _AA,
        _sum(_p(_tm(None, _mr("circ", _a), _symd(_b))),
             _n(_tm(_mr("circ", _a), None, _symd(_b))),
             _n(_tm(None, _mr("circ", _b), _symd(_a))),
             _p(_tm(_mr("circ", _b), None, _symd(_a)))),
        description="compatibility of the coproduct with the product, part 3")

    add("REP_NOV_1", _AAV, _sum(*_lsym(_nov, z=_w)),
        description="left operators represent the commutator")

    add("REP_NOV_2", _AAV, _sum(*_lsym(_nov, x=_w, y=_a, z=_b)),
        description="mixed commutator of left and right operators")

    add("REP_NOV_3", _AAV, _sum(*_rcomm(_nov, z=_w)),
        description="left operator of a product factors through the right operator")

    add("REP_NOV_4", _AAV, _sum(*_rcomm(_nov, x=_w, y=_b, z=_a)),
        description="right operators commute")

    add("REP_MOD", _AAV, _sum(*_assoc(_com, _com, z=_w)),
        description="left operators give a module over the commutative product")

    add("REP_DIFF", _AV, _sum(*_deriv(_com, _Da, y=_w)),
        description="alpha is a derivation over D for the action")

    add("REP_ADM", _AV, _sum(*_admiss(_com, _Qb, _Da, _w, _a)),
        description="beta twists the action against D")

    add("REP_ADM_ALT", _AV, _sum(*_admiss(_com, _Qb, _Da, y=_w)),
        description="beta twists the action against Q and alpha")

    add("DEFORM_1", _AAA, _sum(*_lsym(_f)),
        description="the deforming product satisfies the left symmetry identity")

    add("DEFORM_2", _AAA, _sum(*_minus(_lsym(_f, _circ) + _lsym(_circ, _f))),
        description="mixed left symmetry between the product and its deformation")

    add("DEFORM_3", _AAA, _sum(*_rcomm(_f)),
        description="the deforming product has commuting right multiplications")

    add("DEFORM_4", _AAA, _sum(*_rcomm(_circ, _f), *_rcomm(_f, _circ)),
        description="mixed right multiplication commutativity")

    add("SPEC_DEF_5", _AAA, _sum(*_lsym(_dotQ)),
        description="left symmetry of the Q-twisted product")

    add("SPEC_DEF_6", _AAA, _sum(*_lsym(_dotD, _dotQ)),
        description="mixed twisting identity of the Q- and D-twisted products")

    _x = _cop("delta", _a)
    _db = _m("D", _b)
    _qb = _m("Q", _b)
    _dplusq_b = _sum(_p(_db), _p(_qb))

    add("BIALG_Q_1", _AA,
        _sum(_t((-1, -1, 1), _tm(None, _mcomp(_ml("dot", _db), _DplusQ), _x)),
             _t((-1,), _tm(None, _mcomp(_ml("dot", _dplusq_b), _mm("Q")), _x)),
             _t((0, 0, 1), _tm(None, _mcomp(_ml("dot", _db), _mm("Q")), _x)),
             _t((0, 0, -1), _tm(None, _mcomp(_mr("dot", _qb), _mm("D")), _x)),
             _t((-1, -2, 1), _tm(None, _mcomp(_ml("dot", _b), _mcomp(_mm("D"), _DplusQ)), _x)),
             _t((0, -1, 1), _tm(None, _mcomp(_ml("dot", _b),
                                             _mlin(_p(_mcomp(_mm("D"), _mm("Q"))),
                                                   _n(_mcomp(_mm("Q"), _mm("D"))))), _x)),
             _t((0, -2), _tm(None, _mcomp(_ml("dot", _b), _mcomp(_mm("Q"), _DplusQ)), _x)),
             _t((1, 1, -2), _tm(_mm("D"), _mcomp(_ml("dot", _b), _DplusQ), _x))),
        uses_q=True,
        description="closure of the induced coproduct under the induced product")

    def _bq2_half(x, y):
        lmul = _ml("dot", _sum(_p(_m("D", x)), _p(_m("Q", x))))
        return (_tm(lmul, _QplusqD, _cop("delta", y)),
                _tm(_QplusqD, lmul, _cop("delta", y)))

    _ab1, _ab2 = _bq2_half(_a, _b)
    _ba1, _ba2 = _bq2_half(_b, _a)

    add("BIALG_Q_2", _AA,
        _sum(_t((1, 2), _ab1), _t((-1, -2), _ab2),
             _t((-1, -2), _ba1), _t((1, 2), _ba2)),
        uses_q=True,
        description="first symmetry of the induced pair in both arguments")

    def _bq3_half(x, y):
        lmul = _ml("dot", _sum(_p(_m("D", x)), _t((0, 1), _m("Q", x))))
        inner = _tm(None, _DplusQ, _cop("delta", y))
        return (_tm(None, lmul, inner), _tm(lmul, None, inner))

    _cb1, _cb2 = _bq3_half(_a, _b)
    _cb3, _cb4 = _bq3_half(_b, _a)

    add("BIALG_Q_3", _AA,
        _sum(_t((1, 2), _cb1), _t((-1, -2), _cb2),
             _t((-1, -2), _cb3), _t((1, 2), _cb4)),
        uses_q=True,
        description="second symmetry of the induced pair in both arguments")

    add("COND_A", _AA, _sum(_p(_dotQ(_a, _b)), _p(_dotD(_a, _b))),
        description="Q acts as minus D under multiplication")

    add("COND_B", _A1,
        _sum(_p(_tm(None, _mm("Q"), _cop("delta", _a))),
             _p(_tm(None, _mm("D"), _cop("delta", _a)))),
        description="Q acts as minus D under the coproduct")

    add("BILIN_INV_NOV", _AAA,
        _sum(_p(_pair("B", _circ(_a, _b), _c)),
             _p(_pair("B", _b, _sum(_p(_circ(_a, _c)), _p(_circ(_c, _a)))))),
        description="the form is invariant for the product and its symmetrization")

    add("BILIN_INV_ASSOC", _AAA,
        _sum(_p(_pair("B", _dot(_a, _b), _c)), _n(_pair("B", _a, _dot(_b, _c)))),
        description="the form is invariant for the commutative product")

    add("FORM_SYM", _AA, _sum(*_skew(functools.partial(_pair, "B"))),
        description="the form is symmetric")

    add("FORM_NONDEG", (), None,
        description="the form has nonzero determinant (as a polynomial over Q[q])")

    return {d.axiom_id: d for d in defs}


CATALOG: dict[str, AxiomDef] = _catalog()


# -- structures: ids in the order they are checked and reported; a structure built
# on another starts with its tuple
NOVIKOV = ("NOV_LSYM", "NOV_RCOMM")
ADMISSIBLE = ("COMM", "ASSOC", "DERIV", "ADMISS")  # commutative differential, Q admissible
ADM_ZINBIEL = ("ZINBIEL", "DERIV", "ZINB_ADMISS")  # DERIV with its slot dot bound to zin
DIFF_ASI = ADMISSIBLE + ("COASSOC", "COCOMM", "CODERIV", "CO_ADMISS", "ASI_1", "ASI_2")
NOV_BIALG = NOVIKOV + ("NOV_COALG_1", "NOV_COALG_2", "NOV_BIALG_1", "NOV_BIALG_2",
                       "NOV_BIALG_3")
BIALG_Q = ("BIALG_Q_1", "BIALG_Q_2", "BIALG_Q_3")  # zero where the induced pair is NOV_BIALG
QUADRATIC = ("FORM_SYM", "FORM_NONDEG", "BILIN_INV_NOV")
DEFORM = ("DEFORM_1", "DEFORM_2", "DEFORM_3", "DEFORM_4")  # circ + q f is Novikov for all q


# -- compiler ------------------------------------------------------------------
#
# A node below the top of a tree builds one term, (factors, output labels).
# A factor is (slot, labels); a label is an int for a leg that is summed or
# left open, or the letter of a variable (A, B, C, ... in declaration
# order), which stays a free leg.  Every lin or mlin below the top is one
# factor, a ("sum", j) slot with its variables' legs, then its value's.
# _NODES kind: (constant, its legs, legs bound to the children, output legs);
# a map node acts on the leg "i".
_NODES = {
    "op": ("binop", "ijk", "ij", "k"),
    "map": ("linmap", "ki", "i", "k"),
    "cop": ("coop", "ijk", "i", "jk"),
    "pair": ("form", "kij", "ij", "k"),  # the form on an extra leg of size 1
    "rep": ("family", "ikj", "ij", "k"),  # operator family, indexed by the algebra leg
    "rmap": ("repmap", "ki", "i", "k"),
    "m": ("linmap", "ki", "", "k"),
    "ml": ("binop", "jik", "j", "k"),
    "mr": ("binop", "ijk", "j", "k"),
}


class Compiled(NamedTuple):
    """Terms (coefficient, einsum spec, slots) whose sum is an axiom's residual.

    There is one term per summand of the tree's top-level sum.  Its
    coefficient goes into Tensor.combination as it is: an int where q does
    not occur, else a Q[q] Scalar.  Its first operand is the caller's
    selector of first indices, a diagonal matrix on legs ZA: A meets the
    first variable's leg, and Z, on no other operand, leads the output.  Its
    slots name the others: (kind, key) a tensor of the presentation or the
    module, ("sum", j) the j-th hoisted sum.  Its output legs are Z, the
    other variables in declaration order, then the value's.  sums lists each
    hoisted sum as terms over slots alone, with the legs of the variables it
    holds, in declaration order, before its value's; a sum names only sums
    before it, so they can be contracted in order.
    """

    terms: tuple
    sums: tuple


def _coefficient(k: tuple):
    """The coefficient of ascending q-coefficients k: an int if q does not occur."""
    return k[0] if len(k) == 1 else polynomial(k)


@functools.cache
def compile_axiom(axiom_id: str) -> Compiled:
    """The terms of a catalog axiom; one decided otherwise, like FORM_NONDEG, has none."""
    axdef = CATALOG[axiom_id]
    if axdef.expr is None:
        return Compiled((), ())
    legs = {name: "ABCDEFGH"[k] for k, (name, _) in enumerate(axdef.variables)}
    fresh = itertools.count()
    hoisted: dict = {}  # sum -> (slot, its variables' legs, number of value legs)
    sums: list = []

    def expand(e, inp=None) -> tuple:
        """The factors and output legs of e; a map acts on the leg inp."""
        if e is None:  # the identity map
            return (), (inp,)
        kind, tail = e[0], () if inp is None else (inp,)
        if kind == "var":
            return (), (legs[e[1]],)
        if kind in ("lin", "mlin"):  # one factor, contracted once per check
            if e not in hoisted:
                terms = [(_coefficient(k), *expand(x, inp)) for k, x in e[1]]
                if not all(f for _, f, _ in terms):  # a bare variable or the identity map
                    raise ValueError(f"{axiom_id}: a summand of an inner sum has no factor")
                used = tuple(sorted({x for _, f in terms[0][1] for x in f if type(x) is str}))
                sums.append(tuple(_render(t, used, tail) for t in terms))
                hoisted[e] = ("sum", len(sums) - 1), used, len(terms[0][2])
            slot, used, nout = hoisted[e]
            out = tuple(next(fresh) for _ in range(nout))
            return ((slot, used + out + tail),), out
        if kind in _NODES:
            what, spec, bound, outs = _NODES[kind]
            parts = [expand(x) for x in e[2:]]
            at = {"i": inp, **{x: out[0] for x, (_, out) in zip(bound, parts)}}
            at.update((x, next(fresh)) for x in outs)
            factors = sum((f for f, _ in parts), ())
            return (factors + (((what, e[1]), tuple(map(at.get, spec))),),
                    tuple(map(at.get, outs)))
        if kind in ("tau", "perm"):  # perm: result[idx] = t[idx[p[0]], idx[p[1]], idx[p[2]]]
            p = (1, 0) if kind == "tau" else e[1]
            f, o = expand(e[-1])
            return f, tuple(x for _, x in sorted(zip(p, o)))
        if kind == "coleg":
            # leg 1: out[i][j][k] = sum_m t[m][k] d[m][i][j]; leg 2: sum_m t[i][m] d[m][j][k]
            f, (u, v) = expand(e[3])
            i, j = next(fresh), next(fresh)
            at, out = ((u, i, j), (i, j, v)) if e[2] == 1 else ((v, i, j), (u, i, j))
            return f + ((("coop", e[1]), at),), out
        if kind == "tmap2":
            f, (u, v) = expand(e[2])
            (f1, out1), (f2, out2) = expand(e[1][0], u), expand(e[1][1], v)
            return f + f1 + f2, out1 + out2
        if kind == "mcomp":
            f1, (m,) = expand(e[2], inp)
            f2, out = expand(e[1], m)
            return f1 + f2, out
        raise ValueError(f"unknown expression {kind!r}")

    basis = (None, ("Z", "A"))  # the selector of first indices; Compiled gives its legs
    terms = tuple(_render((_coefficient(k), (basis, *f), o), ("Z", *list(legs.values())[1:]))
                  for k, x in axdef.expr[1] for f, o in [expand(x)])
    return Compiled(terms, tuple(sums))


def _render(term, lead: tuple, tail: tuple = ()) -> tuple:
    """(coefficient, spec, slots) of a built term with output legs lead + its own + tail.

    The term's first factor leads, in a top-level term the selector (slot None, legs ZA);
    each next factor is the first that shares a leg with those before it."""
    coef, rest, out = term[0], list(term[1]), term[2]
    order = [rest.pop(0)]
    seen = set(order[0][1])
    while rest:
        order.append(rest.pop(next((k for k, f in enumerate(rest) if seen & set(f[1])), 0)))
        seen.update(order[-1][1])
    names: dict = {}

    def letters(labels) -> str:
        return "".join(x if isinstance(x, str) else names.setdefault(x, chr(97 + len(names)))
                       for x in labels)

    spec = ",".join(letters(ls) for _, ls in order) + "->" + letters(lead + out + tail)
    return coef, spec, tuple(slot for slot, _ in order if slot is not None)
