"""Finite-dimensional algebraic structures given by structure constants.

A presentation bundles one basis with any number of binary products,
coproducts, linear maps, bilinear forms and order-2 tensors, all over a
single ring (Q or Q[q]).  Products and coproducts are sparse order-3
tensors from exactcore, and so is each operator family of a module, with
legs (i, k, j): l[i][k][j] is the v_k coefficient of l(e_i) v_j.  Axioms
are data: each catalog entry is a syntax tree for a multilinear residual.
One evaluator checks any of them on any presentation, once per basis
vector of the first variable with the other variables as free tensor legs;
every node is one contraction, and the residual of each basis tuple is read
off those slices in row-major order.

Over Q[q] a residual entry is a polynomial, so a check can also succeed on
a finite set of rational q values; that set is computed exactly by
intersecting rational root sets entry by entry.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .exactcore import (
    POLY,
    RATIONAL,
    LinMap,
    RingMismatchError,
    Scalar,
    Tensor,
    Tensor2,
    Tensor3,
    Vector,
    bareiss_det,
    polynomial,
    rational_roots,
)


class PresentationError(ValueError):
    """Raised when a presentation is malformed or missing a requested part."""


@dataclass(frozen=True)
class Space:
    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise PresentationError("a space needs at least one basis element")
        if len(set(self.names)) != len(self.names):
            raise PresentationError("duplicate basis names")

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise PresentationError(f"unknown basis element {name!r}") from None


class BinOpTensor(Tensor):
    """A bilinear product: c[i][j][k] is the e_k coefficient of e_i * e_j."""

    __slots__ = ()
    c = Tensor.dense

    def __init__(self, ring: str, c: Sequence[Sequence[Sequence[Scalar]]]):
        self._init_dense(ring, c, 3, equal_legs=True)


class CoOpTensor(Tensor):
    """A linear coproduct: d[i][j][k] is the e_j (x) e_k coefficient of delta(e_i)."""

    __slots__ = ()
    d = Tensor.dense

    def __init__(self, ring: str, d: Sequence[Sequence[Sequence[Scalar]]]):
        self._init_dense(ring, d, 3, equal_legs=True)

    @staticmethod
    def from_tensors(ring: str, images: Sequence[Tensor2]) -> "CoOpTensor":
        out = CoOpTensor.stack(images)
        if out.ring != ring:
            raise RingMismatchError(f"cannot mix {ring} with {out.ring}")
        return out

    def image(self, i: int) -> Tensor2:
        return Tensor2.einsum("i,ijk->jk", Vector.basis(self.ring, self.dim, i), self)


def _check_module(names, families: tuple, maps: tuple = ()) -> tuple[str, ...]:
    """Validate a module's operator families and endomorphisms; return its basis names."""
    dim = len(names)
    if not all(isinstance(t, Tensor) and len(t.shape) == 3 for t in families):
        raise PresentationError("an operator family must be one Tensor of shape "
                                f"(alg_dim, dim, dim) = (alg_dim, {dim}, {dim})")
    if not families[0].shape[0] or len({t.shape[0] for t in families}) > 1:
        raise PresentationError("need matching left and right operator families"
                                if len(families) > 1 else "need a nonempty operator family")
    if any(s != (dim, dim) for s in [t.shape[1:] for t in families]
           + [getattr(m, "shape", None) for m in maps]):
        raise PresentationError("operator shape does not match module dimension")
    if any(t.ring != families[0].ring for t in (*families, *maps)):
        raise RingMismatchError("mixed rings inside a representation")
    return tuple(names)


class _Module:
    """What the two module kinds share; each operator family has legs (i, k, j)."""

    @property
    def ring(self) -> str:
        return self.l.ring

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def alg_dim(self) -> int:
        return self.l.shape[0]

    def lift(self):
        """Embed a rational module into Q[q]."""
        if self.ring == POLY:
            return self
        return type(self)(self.names, *(getattr(self, f.name).map_scalars(Scalar.lift, POLY)
                                        for f in fields(self)[1:]))


@dataclass
class RepNov(_Module):
    """A module (l, r, V) over a Novikov-type product.

    l[i][k][j] is the v_k coefficient of l(e_i) v_j, and r[i][k][j] that of r(e_i) v_j.
    """

    names: tuple[str, ...]
    l: Tensor
    r: Tensor

    def __post_init__(self):
        self.names = _check_module(self.names, (self.l, self.r))


@dataclass
class RepAdmDiff(_Module):
    """A module (l, alpha, beta, V) over a commutative differential product.

    l[i][k][j] is the v_k coefficient of l(e_i) v_j; alpha and beta are maps of V.
    """

    names: tuple[str, ...]
    l: Tensor
    alpha: LinMap
    beta: LinMap

    def __post_init__(self):
        self.names = _check_module(self.names, (self.l,), (self.alpha, self.beta))


def _lookup(bag: dict, name: str, what: str):
    try:
        return bag[name]
    except KeyError:
        raise PresentationError(f"no {what} named {name!r}") from None


# the bags of named operations: field, what an error calls an entry, order
_BAGS = (("binops", "product", 3), ("coops", "coproduct", 3), ("maps", "map", 2),
         ("forms", "form", 2), ("relements", "tensor", 2))


@dataclass
class Presentation:
    """One basis, one ring, and a bag of named operations on it."""

    ring: str
    space: Space
    binops: dict[str, BinOpTensor] = field(default_factory=dict)
    coops: dict[str, CoOpTensor] = field(default_factory=dict)
    maps: dict[str, LinMap] = field(default_factory=dict)
    forms: dict[str, Tensor2] = field(default_factory=dict)
    relements: dict[str, Tensor2] = field(default_factory=dict)

    def __post_init__(self):
        n = self.space.dim
        for bag, kind, order in _BAGS:
            for name, t in getattr(self, bag).items():
                if t.ring != self.ring or t.shape != (n,) * order:
                    raise PresentationError(f"{kind} {name!r} has wrong ring or dimension")

    @property
    def dim(self) -> int:
        return self.space.dim

    def binop(self, name: str) -> BinOpTensor:
        return _lookup(self.binops, name, "product")

    def coop(self, name: str) -> CoOpTensor:
        return _lookup(self.coops, name, "coproduct")

    def linmap(self, name: str) -> LinMap:
        return _lookup(self.maps, name, "map")

    def form(self, name: str) -> Tensor2:
        return _lookup(self.forms, name, "bilinear form")

    def relement(self, name: str) -> Tensor2:
        return _lookup(self.relements, name, "order-2 tensor")

    def lift(self) -> "Presentation":
        """Embed a rational presentation into Q[q]."""
        if self.ring == POLY:
            return self
        return self._mapped(lambda s: s.lift(), POLY)

    def specialize(self, q) -> "Presentation":
        """Evaluate every entry at a rational value of q."""
        point = Fraction(q)
        return self._mapped(lambda s: s.eval_q(point), RATIONAL)

    def _mapped(self, fn: Callable[[Scalar], Scalar], ring: str) -> "Presentation":
        return Presentation(ring=ring, space=self.space, **{
            bag: {k: v.map_scalars(fn, ring) for k, v in getattr(self, bag).items()}
            for bag, *_ in _BAGS})


# -- verdicts ------------------------------------------------------------------

HOLDS = "holds"
FAILS = "fails"
HOLDS_ON_LOCUS = "holds_on_locus"

ALL_Q = "all_q"
FINITE = "finite"
EMPTY = "empty"


@dataclass(frozen=True)
class QLocus:
    """Rational q values where a family of polynomial conditions vanishes.

    kind is all_q (identically zero), finite (exactly the listed rational
    points) or empty.  has_nonrational_factor: each nonzero entry has a root
    outside Q, so no such common zero is missed; {q^2-2, q^2-3} sets it too.
    """

    kind: str
    points: frozenset = frozenset()
    has_nonrational_factor: bool = False

    def is_empty(self) -> bool:
        return self.kind == EMPTY

    def contains(self, x) -> bool:
        if self.kind == ALL_Q:
            return True
        return Fraction(x) in self.points

    def __str__(self) -> str:
        if self.kind == ALL_Q:
            return "all q"
        body = ", ".join(str(p) for p in sorted(self.points, reverse=True))
        text = "{" + body + "}"
        if self.has_nonrational_factor:
            text += " (possible non-rational zeros)"
        return text


@dataclass(frozen=True)
class AxiomReport:
    axiom_id: str
    verdict: str
    witness: tuple[str, ...] | None = None
    residual: object = None
    residual_degree: int = -1
    locus: QLocus | None = None

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    def __str__(self) -> str:
        if self.verdict == HOLDS:
            return f"{self.axiom_id}: holds"
        if self.verdict == HOLDS_ON_LOCUS:
            return f"{self.axiom_id}: holds_on_locus {self.locus}"
        where = f" at ({', '.join(self.witness)})" if self.witness else ""
        return f"{self.axiom_id}: fails{where}"


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


def _v(n):
    return ("var", n)


_a, _b, _c = _v("a"), _v("b"), _v("c")
_w = _v("v")


def _op(k, x, y):
    return ("op", k, x, y)


def _m(k, x):
    return ("map", k, x)


def _sum(*terms):
    return ("lin", tuple(terms))


def _t(coeffs, e):
    return (tuple(coeffs), e)


def _p(e):
    return ((1,), e)


def _n(e):
    return ((-1,), e)


def _cop(k, x):
    return ("cop", k, x)


def _tau(t):
    return ("tau", t)


def _tm(m1, m2, t):
    return ("tmap2", (m1, m2), t)


def _coleg(k, leg, t):
    return ("coleg", k, leg, t)


def _perm(p, t):
    return ("perm", p, t)


def _ml(k, e):
    return ("ml", k, e)


def _mr(k, e):
    return ("mr", k, e)


def _mm(k):
    return ("m", k)


def _mlin(*terms):
    return ("mlin", tuple(terms))


def _mcomp(outer, inner):
    return ("mcomp", outer, inner)


def _rep(which, ae, ve):
    return ("rep", which, ae, ve)


def _rmap(which, ve):
    return ("rmap", which, ve)


def _pair(k, x, y):
    return ("pair", k, x, y)


def _mstar(k, e):
    # left multiplication by e for the symmetrized product x*y + y*x
    return _mlin(_p(_ml(k, e)), _p(_mr(k, e)))


_A1 = (("a", "A"),)
_AA = (("a", "A"), ("b", "A"))
_AAA = (("a", "A"), ("b", "A"), ("c", "A"))
_AV = (("a", "A"), ("v", "V"))
_AAV = (("a", "A"), ("b", "A"), ("v", "V"))

_QplusD = _mlin(_p(_mm("Q")), _p(_mm("D")))
_DplusQ = _mlin(_p(_mm("D")), _p(_mm("Q")))
_QplusqD = _mlin(_p(_mm("Q")), _t((0, 1), _mm("D")))


def _catalog() -> dict[str, AxiomDef]:
    defs: list[AxiomDef] = []

    def add(axiom_id, variables, expr, uses_q=False, description=""):
        defs.append(AxiomDef(axiom_id, tuple(variables), expr, uses_q, description))

    add("COMM", _AA,
        _sum(_p(_op("dot", _a, _b)), _n(_op("dot", _b, _a))),
        description="the product is commutative")

    add("ASSOC", _AAA,
        _sum(_p(_op("dot", _op("dot", _a, _b), _c)),
             _n(_op("dot", _a, _op("dot", _b, _c)))),
        description="the product is associative")

    add("NOV_LSYM", _AAA,
        _sum(_p(_op("circ", _op("circ", _a, _b), _c)),
             _n(_op("circ", _a, _op("circ", _b, _c))),
             _n(_op("circ", _op("circ", _b, _a), _c)),
             _p(_op("circ", _b, _op("circ", _a, _c)))),
        description="the associator is symmetric in its first two arguments")

    add("NOV_RCOMM", _AAA,
        _sum(_p(_op("circ", _op("circ", _a, _b), _c)),
             _n(_op("circ", _op("circ", _a, _c), _b))),
        description="right multiplications commute")

    add("DERIV", _AA,
        _sum(_p(_m("D", _op("dot", _a, _b))),
             _n(_op("dot", _a, _m("D", _b))),
             _n(_op("dot", _m("D", _a), _b))),
        description="D is a derivation of the product")

    add("ADMISS", _AA,
        _sum(_p(_m("Q", _op("dot", _a, _b))),
             _n(_op("dot", _m("Q", _a), _b)),
             _p(_op("dot", _a, _m("D", _b)))),
        description="Q twists the product against the derivation D")

    add("ZINBIEL", _AAA,
        _sum(_p(_op("zin", _a, _op("zin", _b, _c))),
             _n(_op("zin", _op("zin", _b, _a), _c)),
             _n(_op("zin", _op("zin", _a, _b), _c))),
        description="the product obeys the left Zinbiel identity")

    add("ZINB_ADMISS", _AA,
        _sum(_p(_m("Q", _op("zin", _a, _b))),
             _n(_op("zin", _m("Q", _a), _b)),
             _p(_op("zin", _a, _m("D", _b)))),
        description="first twisting identity of Q against D for a Zinbiel product")

    add("ZINB_ADMISS_ALT", _AA,
        _sum(_p(_m("Q", _op("zin", _a, _b))),
             _n(_op("zin", _a, _m("Q", _b))),
             _p(_op("zin", _m("D", _a), _b))),
        description="second twisting identity of Q against D for a Zinbiel product")

    _lp = lambda x, y: _op("lpre", x, y)
    _rp = lambda x, y: _op("rpre", x, y)

    add("PRE_NOV_1", _AAA,
        _sum(_p(_rp(_a, _rp(_b, _c))),
             _n(_rp(_sum(_p(_rp(_a, _b)), _p(_lp(_a, _b))), _c)),
             _n(_rp(_b, _rp(_a, _c))),
             _p(_rp(_sum(_p(_rp(_b, _a)), _p(_lp(_b, _a))), _c))),
        description="splitting identity for the two pre-products, part 1")

    add("PRE_NOV_2", _AAA,
        _sum(_p(_rp(_a, _lp(_b, _c))),
             _n(_lp(_rp(_a, _b), _c)),
             _n(_lp(_b, _sum(_p(_lp(_a, _c)), _p(_rp(_a, _c))))),
             _p(_lp(_lp(_b, _a), _c))),
        description="splitting identity for the two pre-products, part 2")

    add("PRE_NOV_3", _AAA,
        _sum(_p(_rp(_sum(_p(_lp(_a, _b)), _p(_rp(_a, _b))), _c)),
             _n(_lp(_rp(_a, _c), _b))),
        description="splitting identity for the two pre-products, part 3")

    add("PRE_NOV_4", _AAA,
        _sum(_p(_lp(_lp(_a, _b), _c)),
             _n(_lp(_lp(_a, _c), _b))),
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
        _sum(_p(_cop("delta", _op("dot", _a, _b))),
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
        _sum(_p(_cop("Delta", _op("circ", _a, _b))),
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

    add("REP_NOV_1", _AAV,
        _sum(_p(_rep("l", _sum(_p(_op("circ", _a, _b)), _n(_op("circ", _b, _a))), _w)),
             _n(_rep("l", _a, _rep("l", _b, _w))),
             _p(_rep("l", _b, _rep("l", _a, _w)))),
        description="left operators represent the commutator")

    add("REP_NOV_2", _AAV,
        _sum(_p(_rep("l", _a, _rep("r", _b, _w))),
             _n(_rep("r", _b, _rep("l", _a, _w))),
             _n(_rep("r", _op("circ", _a, _b), _w)),
             _p(_rep("r", _b, _rep("r", _a, _w)))),
        description="mixed commutator of left and right operators")

    add("REP_NOV_3", _AAV,
        _sum(_p(_rep("l", _op("circ", _a, _b), _w)),
             _n(_rep("r", _b, _rep("l", _a, _w)))),
        description="left operator of a product factors through the right operator")

    add("REP_NOV_4", _AAV,
        _sum(_p(_rep("r", _a, _rep("r", _b, _w))),
             _n(_rep("r", _b, _rep("r", _a, _w)))),
        description="right operators commute")

    add("REP_MOD", _AAV,
        _sum(_p(_rep("l", _op("dot", _a, _b), _w)),
             _n(_rep("l", _a, _rep("l", _b, _w)))),
        description="left operators give a module over the commutative product")

    add("REP_DIFF", _AV,
        _sum(_p(_rmap("alpha", _rep("l", _a, _w))),
             _n(_rep("l", _m("D", _a), _w)),
             _n(_rep("l", _a, _rmap("alpha", _w)))),
        description="alpha is a derivation over D for the action")

    add("REP_ADM", _AV,
        _sum(_p(_rmap("beta", _rep("l", _a, _w))),
             _n(_rep("l", _a, _rmap("beta", _w))),
             _p(_rep("l", _m("D", _a), _w))),
        description="beta twists the action against D")

    add("REP_ADM_ALT", _AV,
        _sum(_p(_rmap("beta", _rep("l", _a, _w))),
             _n(_rep("l", _m("Q", _a), _w)),
             _p(_rep("l", _a, _rmap("alpha", _w)))),
        description="beta twists the action against Q and alpha")

    _f = lambda x, y: _op("f", x, y)
    _cr = lambda x, y: _op("circ", x, y)

    add("DEFORM_1", _AAA,
        _sum(_p(_f(_f(_a, _b), _c)),
             _n(_f(_a, _f(_b, _c))),
             _n(_f(_f(_b, _a), _c)),
             _p(_f(_b, _f(_a, _c)))),
        description="the deforming product satisfies the left symmetry identity")

    add("DEFORM_2", _AAA,
        _sum(_p(_f(_a, _cr(_b, _c))),
             _n(_f(_cr(_a, _b), _c)),
             _p(_f(_cr(_b, _a), _c)),
             _n(_f(_b, _cr(_a, _c))),
             _p(_cr(_a, _f(_b, _c))),
             _n(_cr(_f(_a, _b), _c)),
             _p(_cr(_f(_b, _a), _c)),
             _n(_cr(_b, _f(_a, _c)))),
        description="mixed left symmetry between the product and its deformation")

    add("DEFORM_3", _AAA,
        _sum(_p(_f(_f(_a, _b), _c)),
             _n(_f(_f(_a, _c), _b))),
        description="the deforming product has commuting right multiplications")

    add("DEFORM_4", _AAA,
        _sum(_p(_cr(_f(_a, _b), _c)),
             _n(_cr(_f(_a, _c), _b)),
             _p(_f(_cr(_a, _b), _c)),
             _n(_f(_cr(_a, _c), _b))),
        description="mixed right multiplication commutativity")

    add("SPEC_DEF_5", _AAA,
        _sum(_p(_op("dot", _op("dot", _a, _m("Q", _b)), _m("Q", _c))),
             _n(_op("dot", _a, _m("Q", _op("dot", _b, _m("Q", _c))))),
             _n(_op("dot", _op("dot", _b, _m("Q", _a)), _m("Q", _c))),
             _p(_op("dot", _b, _m("Q", _op("dot", _a, _m("Q", _c)))))),
        description="left symmetry of the Q-twisted product")

    add("SPEC_DEF_6", _AAA,
        _sum(_p(_op("dot", _op("dot", _a, _m("Q", _b)), _m("D", _c))),
             _n(_op("dot", _a, _m("Q", _op("dot", _b, _m("D", _c))))),
             _n(_op("dot", _op("dot", _b, _m("Q", _a)), _m("D", _c))),
             _p(_op("dot", _b, _m("Q", _op("dot", _a, _m("D", _c)))))),
        description="mixed twisting identity of the Q- and D-twisted products")

    _x = _cop("delta", _a)
    _db = _m("D", _b)
    _qb = _m("Q", _b)
    _dplusq_b = _sum(_p(_db), _p(_qb))

    add("BIALG_Q_1", _AA,
        _sum(_t((-1, -1, 1), _tm(None, _mcomp(_ml("dot", _db), _QplusD), _x)),
             _t((-1,), _tm(None, _mcomp(_ml("dot", _dplusq_b), _mm("Q")), _x)),
             _t((0, 0, 1), _tm(None, _mcomp(_ml("dot", _db), _mm("Q")), _x)),
             _t((0, 0, -1), _tm(None, _mcomp(_mr("dot", _qb), _mm("D")), _x)),
             _t((-1, -2, 1), _tm(None, _mcomp(_ml("dot", _b), _mcomp(_mm("D"), _DplusQ)), _x)),
             _t((0, -1, 1), _tm(None, _mcomp(_ml("dot", _b),
                                             _mlin(_p(_mcomp(_mm("D"), _mm("Q"))),
                                                   _n(_mcomp(_mm("Q"), _mm("D"))))), _x)),
             _t((0, -2), _tm(None, _mcomp(_ml("dot", _b), _mcomp(_mm("Q"), _QplusD)), _x)),
             _t((1, 1, -2), _tm(_mm("D"), _mcomp(_ml("dot", _b), _QplusD), _x))),
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

    add("COND_A", _AA,
        _sum(_p(_op("dot", _a, _m("Q", _b))),
             _p(_op("dot", _a, _m("D", _b)))),
        description="Q acts as minus D under multiplication")

    add("COND_B", _A1,
        _sum(_p(_tm(None, _mm("Q"), _cop("delta", _a))),
             _p(_tm(None, _mm("D"), _cop("delta", _a)))),
        description="Q acts as minus D under the coproduct")

    add("BILIN_INV_NOV", _AAA,
        _sum(_p(_pair("B", _op("circ", _a, _b), _c)),
             _p(_pair("B", _b, _sum(_p(_op("circ", _a, _c)), _p(_op("circ", _c, _a)))))),
        description="the form is invariant for the product and its symmetrization")

    add("BILIN_INV_ASSOC", _AAA,
        _sum(_p(_pair("B", _op("dot", _a, _b), _c)),
             _n(_pair("B", _a, _op("dot", _b, _c)))),
        description="the form is invariant for the commutative product")

    add("FORM_SYM", _AA,
        _sum(_p(_pair("B", _a, _b)), _n(_pair("B", _b, _a))),
        description="the form is symmetric")

    add("FORM_NONDEG", (), None,
        description="the form has nonzero determinant (as a polynomial over Q[q])")

    return {d.axiom_id: d for d in defs}


CATALOG: dict[str, AxiomDef] = _catalog()


# -- evaluator ---------------------------------------------------------------
#
# check_axiom evaluates an expression once per basis vector of its first
# variable; the other variables stay free legs.  A value is (tensor, vars):
# a leg per free variable, labelled by vars (upper case, in declaration
# order), then the output legs: 1 for an element, 2 for a map or an order-2
# tensor, 3 for order 3.  A bare variable is (None, label): the node that
# takes it puts the label on its constant's leg instead of contracting.

# kind: (constant, constant legs, legs bound to the children, output legs)
_NODES = {
    "op": ("binop", "ijk", "ij", "k"),
    "map": ("linmap", "ki", "i", "k"),
    "cop": ("coop", "ijk", "i", "jk"),
    "pair": ("form", "kij", "ij", "k"),  # the form on an extra leg of size 1
    "rep": ("family", "ikj", "ij", "k"),  # operator family, indexed by the algebra leg
    "rmap": ("repmap", "ki", "i", "k"),
    "m": ("linmap", "ki", "", "ki"),
    "ml": ("binop", "ijk", "i", "kj"),
    "mr": ("binop", "ijk", "j", "ki"),
}


class _Evaluator:
    def __init__(self, pres, binds, rep, qpoint, vals):
        self.pres, self.binds, self.rep, self.qpoint = pres, binds, rep, qpoint
        self.vals = vals  # variable name -> value
        self.const = functools.cache(self.const)  # stacks a form once; einsum keeps its index

    def const(self, what: str, key: str) -> Tensor:
        rep = self.rep  # present: check_axiom requires it for module variables
        if what == "family" and not hasattr(rep, key):
            raise PresentationError("this representation has no right operator family")
        if what in ("family", "repmap"):
            if not hasattr(rep, key):
                raise PresentationError(f"this representation has no map {key!r}")
            return getattr(rep, key)
        key = self.binds.get(key, key)
        if what == "form":
            return Tensor.stack([self.pres.form(key)])
        return getattr(self.pres, what)(key)

    def qc(self, coeffs) -> Scalar:
        p = polynomial(coeffs)
        if self.qpoint is not None:
            return p.eval_q(self.qpoint)
        # over Q without a point only constants occur: uses_q marks the axioms with q
        return p if self.pres.ring == POLY else Scalar.of(RATIONAL, p.constant_value())

    def join(self, parts, out: str):
        """Contract (value, output legs) parts; a bare variable renames its leg."""
        bare = {legs: label for (t, label), legs in parts if t is None}
        ins, operands, free = [], [], set(bare.values())
        for (t, names), legs in parts:
            if t is not None:
                ins.append(names + "".join(bare.get(c, c) for c in legs))
                operands.append(t)
                free.update(names)
        names = "".join(sorted(free))
        return Tensor.einsum(",".join(ins) + "->" + names + out, *operands), names

    def lin(self, terms):
        acc = None
        for coeffs, sub in terms:
            t, names = self.eval(sub) or (LinMap.identity(self.pres.ring, self.pres.dim), "")
            if coeffs not in ((1,), (-1,)):
                t = t.scale(self.qc(coeffs))
            if coeffs == (-1,):
                t = -t if acc is None else acc - t
            elif acc is not None:
                t = acc + t
            acc = t
        return acc, names

    def eval(self, e):
        """The value of an expression; None stands for the identity map."""
        if e is None:
            return None
        kind = e[0]
        if kind == "var":
            return self.vals[e[1]]
        if kind in _NODES:
            what, legs, slots, out = _NODES[kind]
            parts = [(self.eval(x), slot) for x, slot in zip(e[2:], slots)]
            return self.join(parts + [((self.const(what, e[1]), ""), legs)], out)
        if kind in ("lin", "mlin"):
            return self.lin(e[1])
        if kind == "tau":
            return self.join([(self.eval(e[1]), "ab")], "ba")
        if kind == "perm":  # result[idx] = t[idx[p[0]], idx[p[1]], idx[p[2]]]
            return self.join([(self.eval(e[2]), "".join("ijk"[x] for x in e[1]))], "ijk")
        if kind == "tmap2":
            f, g = self.eval(e[1][0]), self.eval(e[1][1])
            parts = [(self.eval(e[2]), "ab")] + [(m, legs) for m, legs in ((f, "ia"), (g, "jb"))
                                                 if m is not None]
            return self.join(parts, ("a" if f is None else "i") + ("b" if g is None else "j"))
        if kind == "coleg":
            # leg 1: out[i][j][k] = sum_m t[m][k] d[m][i][j]; leg 2: sum_m t[i][m] d[m][j][k]
            legs, dlegs = {1: ("mk", "mij"), 2: ("im", "mjk")}[e[2]]
            return self.join([(self.eval(e[3]), legs), ((self.const("coop", e[1]), ""), dlegs)],
                             "ijk")
        if kind == "mcomp":
            outer, inner = self.eval(e[1]), self.eval(e[2])
            if outer is None or inner is None:
                return inner if outer is None else outer
            return self.join([(inner, "kj"), (outer, "ik")], "ij")
        raise ValueError(f"unknown expression {kind!r}")


def _nonzero_values(val) -> list[Scalar]:
    if isinstance(val, Scalar):
        return [] if val.is_zero() else [val]
    if isinstance(val, Tensor):
        return [entry[-1] for entry in val.nonzero()]
    raise TypeError(f"unexpected residual value {type(val).__name__}")


def check_axiom(
    axiom_id: str,
    pres: Presentation,
    binds: dict[str, str] | None = None,
    *,
    rep: RepNov | RepAdmDiff | None = None,
    q=None,
    tuple_filter: Callable[[tuple[int, ...]], bool] | None = None,
) -> AxiomReport:
    """Check one catalog identity on a presentation.

    ``binds`` maps the catalog's symbolic operation slots to the names used
    by the presentation.  Module-variable axioms also need ``rep``.  Passing
    a rational ``q`` fixes the deformation parameter in q-dependent axioms
    (only meaningful over Q; over Q[q] the check is symbolic and a finite
    solution set comes back as a locus).
    """
    try:
        axdef = CATALOG[axiom_id]
    except KeyError:
        raise KeyError(f"unknown axiom {axiom_id!r}") from None
    binds = dict(binds or {})

    if axiom_id == "FORM_NONDEG":
        form = pres.form(binds.get("B", "B"))
        det = bareiss_det([list(r) for r in form.rows], pres.ring)
        verdict = HOLDS if not det.is_zero() else FAILS
        return AxiomReport(axiom_id, verdict, None, det, det.degree(), None)

    qpoint = None
    if q is not None:
        if pres.ring == POLY:
            raise ValueError("specialize the presentation before fixing q")
        qpoint = Fraction(q)
    elif axdef.uses_q and pres.ring == RATIONAL:
        raise ValueError(f"{axiom_id} uses q; pass q= or work over Q[q]")

    spaces = []  # basis names per variable
    for _, sp in axdef.variables:
        if sp == "V":
            if rep is None:
                raise PresentationError(f"{axiom_id} needs a representation")
            if rep.ring != pres.ring:
                raise RingMismatchError("representation ring differs from presentation ring")
            if rep.alg_dim != pres.dim:
                raise PresentationError("representation is over a different algebra dimension")
        spaces.append(pres.space.names if sp == "A" else rep.names)

    first, labels = axdef.variables[0][0], "BCDEFGH"[:len(axdef.variables) - 1]
    ev = _Evaluator(pres, binds, rep, qpoint,
                    {name: (None, label) for (name, _), label in zip(axdef.variables[1:], labels)})

    def items():
        for i in range(len(spaces[0])):
            ev.vals[first] = (Vector.basis(pres.ring, len(spaces[0]), i), "")
            t, _ = ev.eval(axdef.expr)  # every variable occurs, so t has all their legs
            cls = (Vector, Tensor2, Tensor3)[len(t.shape) - len(labels) - 1]
            for rest, residual in t.slices(len(labels), cls):
                idx = (i, *rest)
                if tuple_filter is None or tuple_filter(idx):
                    yield tuple(nm[j] for nm, j in zip(spaces, idx)), residual

    return scan_residuals(axiom_id, pres.ring, items())


def scan_residuals(axiom_id: str, ring: str, items) -> AxiomReport:
    """Fold (witness, residual value) pairs into an AxiomReport.

    ``items`` yields pairs of a witness name tuple and a residual (Scalar,
    Vector or tensor).  Over Q the first nonzero residual settles the verdict;
    over Q[q] the rational vanishing sets of all nonzero entries are
    intersected, stopping early once the intersection is empty and no
    non-rational common zero is possible.
    """
    first = None  # (witness, residual) of the first nonzero item
    maxdeg = -1

    def constraints():
        nonlocal first, maxdeg
        for names, val in items:
            nonzero = _nonzero_values(val)
            if not nonzero:
                continue
            if first is None:
                first = (tuple(names), val)
            maxdeg = max(maxdeg, max(s.degree() for s in nonzero))
            if ring == RATIONAL:
                return  # first witness settles a rational check
            for s in nonzero:
                yield rational_roots(s)

    locus = _fold_roots(constraints())
    if first is None:
        locus = QLocus(ALL_Q) if ring == POLY else None
        return AxiomReport(axiom_id, HOLDS, None, None, -1, locus)
    witness, wres = first
    if ring == RATIONAL:
        return AxiomReport(axiom_id, FAILS, witness, wres, maxdeg, None)
    verdict = HOLDS_ON_LOCUS if locus.points else FAILS
    return AxiomReport(axiom_id, verdict, witness, wres, maxdeg, locus)


def _fold_roots(constraints) -> QLocus:
    """Intersect (rational roots, may have non-rational zeros) pairs into a locus.

    No constraint at all gives all_q.  The fold stops pulling constraints
    once no rational point is left and no non-rational common zero is
    possible, since nothing can change the result after that.
    """
    points: set[Fraction] | None = None
    flag = True
    for roots, nonrational in constraints:
        points = set(roots) if points is None else points & roots
        flag = flag and nonrational
        if not points and not flag:
            break
    if points is None:
        return QLocus(ALL_Q)
    if points:
        return QLocus(FINITE, frozenset(points), flag)
    return QLocus(EMPTY, frozenset(), flag)


def vanishing_locus(entries) -> QLocus:
    """Common rational vanishing set of a family of Q[q] scalars.

    Identically zero entries impose no constraint; the result is all_q when
    every entry is zero.
    """
    return _fold_roots(rational_roots(s) for s in entries if not s.is_zero())


def combine_loci(loci) -> QLocus:
    """Intersection of q-loci; with no constraints the result is all_q."""
    return _fold_roots((lc.points, lc.has_nonrational_factor) for lc in loci
                       if lc is not None and lc.kind != ALL_Q)


def all_hold(reports: Iterable[AxiomReport]) -> bool:
    return all(r.holds for r in reports)


def is_admissible_quadruple(
    pres: Presentation,
    dot: str = "dot",
    D: str = "D",
    Q: str = "Q",
) -> dict[str, AxiomReport]:
    """Commutativity, associativity, D a derivation, Q twisted against D."""
    binds = {"dot": dot, "D": D, "Q": Q}
    return {aid: check_axiom(aid, pres, binds)
            for aid in ("COMM", "ASSOC", "DERIV", "ADMISS")}


def _toggle_prime(name: str) -> str:
    return name[:-1] if name.endswith("'") else name + "'"


def dualize(pres: Presentation) -> Presentation:
    """The dual presentation on the dual basis.

    Products and coproducts trade places (keeping their names), linear maps
    transpose, and bilinear forms trade places with order-2 tensors.  The
    operation is an exact involution.
    """
    return Presentation(
        ring=pres.ring,
        space=Space(tuple(_toggle_prime(nm) for nm in pres.space.names)),
        binops={k: BinOpTensor.einsum("kij->ijk", v) for k, v in pres.coops.items()},
        coops={k: CoOpTensor.einsum("jki->ijk", v) for k, v in pres.binops.items()},
        maps={k: m.transpose() for k, m in pres.maps.items()},
        forms=dict(pres.relements),
        relements=dict(pres.forms),
    )
