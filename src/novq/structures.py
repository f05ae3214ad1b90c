"""Finite-dimensional algebraic structures given by structure constants.

A presentation bundles one basis with any number of binary products,
coproducts, linear maps, bilinear forms and order-2 tensors, all over a
single ring (Q or Q[q]).  Each of them, and each operator family of a
module, is one sparse Tensor from exactcore; Presentation's docstring gives
the legs of each kind.  Axioms are data from the catalog module, compiled
there into signed sums of contractions.  check_axiom binds a compiled
axiom's slots to a presentation's tensors, contracts the hoisted sums in
order, and sums the terms with Tensor.combination at most twice, through
the selector on legs ZA that they lead with: of first index 0, then of all
the others, the other variables left free; residuals come in row-major order.

Over Q[q] a residual entry is a polynomial, so a check can also succeed on
a finite set of rational q values; that set is computed exactly by
intersecting rational root sets entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, Iterable

from .exactcore import (POLY, RATIONAL, RingMismatchError, Scalar, Tensor, bareiss_det,
                        rational_roots)
from .catalog import CATALOG, compile_axiom


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


def _check_module(names, families: tuple, maps: tuple = ()) -> tuple[str, ...]:
    """Validate a module's basis names as Space does, then its operator families and
    endomorphisms; return the names."""
    names = Space(tuple(names)).names
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
    return names


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
    alpha: Tensor
    beta: Tensor

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
    """One basis, one ring, and a bag of named operations on it.

    Every operation is a Tensor of structure constants on the basis e_i:

        product      c[i][j][k]  the e_k coefficient of e_i * e_j
        coproduct    d[i][j][k]  the e_j (x) e_k coefficient of delta(e_i)
        map          m[i][j]     the e_i coefficient of the image of e_j
        form         B[i][j]     B(e_i, e_j)
        r-element    r[i][j]     the e_i (x) e_j coefficient of r

    A module's operator family (RepNov, RepAdmDiff) is l[i][k][j], the v_k
    coefficient of l(e_i) v_j.
    """

    ring: str
    space: Space
    binops: dict[str, Tensor] = field(default_factory=dict)
    coops: dict[str, Tensor] = field(default_factory=dict)
    maps: dict[str, Tensor] = field(default_factory=dict)
    forms: dict[str, Tensor] = field(default_factory=dict)
    relements: dict[str, Tensor] = field(default_factory=dict)

    def __post_init__(self):
        n = self.space.dim
        for bag, kind, order in _BAGS:
            for name, t in getattr(self, bag).items():
                if t.ring != self.ring or t.shape != (n,) * order:
                    raise PresentationError(f"{kind} {name!r} has wrong ring or dimension")

    @property
    def dim(self) -> int:
        return self.space.dim

    def binop(self, name: str) -> Tensor:
        return _lookup(self.binops, name, "product")

    def coop(self, name: str) -> Tensor:
        return _lookup(self.coops, name, "coproduct")

    def linmap(self, name: str) -> Tensor:
        return _lookup(self.maps, name, "map")

    def form(self, name: str) -> Tensor:
        return _lookup(self.forms, name, "bilinear form")

    def relement(self, name: str) -> Tensor:
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


# -- checking compiled axioms -------------------------------------------------


def _constant(pres: Presentation, binds: dict, rep, what: str, key: str) -> Tensor:
    """The tensor a compiled term's slot (what, key) names."""
    if what in ("family", "repmap"):  # rep is present: check_axiom demands it for module variables
        if not hasattr(rep, key):
            raise PresentationError("this representation has no " + (
                "right operator family" if what == "family" else f"map {key!r}"))
        return getattr(rep, key)
    key = binds.get(key, key)
    return Tensor.stack([pres.form(key)]) if what == "form" else getattr(pres, what)(key)


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
        det = bareiss_det([list(r) for r in form.dense], pres.ring)
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

    compiled, consts = compile_axiom(axiom_id), {}

    def bound(terms) -> list:
        """Terms with their coefficients at q and the tensors their slots name."""
        out = []
        for c, spec, slots in terms:
            for slot in slots:  # a hoisted sum is contracted before any term names it
                if slot not in consts:
                    consts[slot] = _constant(pres, binds, rep, *slot)
            # a q-free coefficient is an int; over Q only these occur without a point
            c = c.eval_q(qpoint) if qpoint is not None and type(c) is Scalar else c
            out.append((c, spec, [consts[slot] for slot in slots]))
        return out

    for j, summands in enumerate(compiled.sums):  # a sum names only the sums before it
        consts["sum", j] = Tensor.combination(bound(summands))
    terms, n = bound(compiled.terms), len(spaces[0])

    def items():
        for block in (range(1), range(1, n))[:n]:  # 0 alone keeps early exits; n = 1: one
            pick = Tensor.from_entries(pres.ring, (n, n), {(i, i): 1 for i in block})
            t = Tensor.combination([(c, spec, (pick, *ops)) for c, spec, ops in terms])
            for idx, residual in t.slices(len(spaces)):
                if tuple_filter is None or tuple_filter(idx):
                    yield tuple(nm[j] for nm, j in zip(spaces, idx)), residual

    return scan_residuals(axiom_id, pres.ring, items())


def scan_residuals(axiom_id: str, ring: str, items) -> AxiomReport:
    """Fold (witness, residual value) pairs into an AxiomReport.

    ``items`` yields pairs of a witness name tuple and a residual (Scalar or
    Tensor).  Over Q the first nonzero residual settles the verdict;
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


def _doubled_names(names) -> tuple[str, ...]:
    """names followed by their duals: each toggles its prime, then gains primes
    until it differs from every name before it."""
    out = list(names)
    for nm in names:
        mark = _toggle_prime(nm)
        while mark in out:
            mark += "'"
        out.append(mark)
    return tuple(out)


def dualize(pres: Presentation) -> Presentation:
    """The dual presentation on the dual basis.

    Products and coproducts trade places (keeping their names), linear maps
    transpose, and bilinear forms trade places with order-2 tensors.  The
    operation is an exact involution.
    """
    return Presentation(
        ring=pres.ring,
        space=Space(tuple(_toggle_prime(nm) for nm in pres.space.names)),
        binops={k: Tensor.einsum("kij->ijk", v) for k, v in pres.coops.items()},
        coops={k: Tensor.einsum("jki->ijk", v) for k, v in pres.binops.items()},
        maps={k: m.transpose() for k, m in pres.maps.items()},
        forms=dict(pres.relements),
        relements=dict(pres.forms),
    )
