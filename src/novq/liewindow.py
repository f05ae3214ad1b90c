"""Degree-windowed checks for the affinization of a deformed bialgebra.

The ambient object is A tensored with Laurent polynomials in t, with the
bracket and cobracket induced by a differential ASI structure on A.  Both
are graded sparse tensors: the bracket, with legs (i, m, j, n, k, d), holds
the e_k t^d coefficient of [e_i t^m, e_j t^n]; the completed cobracket, with
legs (i, m, a, j, b, k), the e_a t^j (x) e_b t^k coefficient of delta(e_i t^m).
Each identity is a signed sum of their contractions over a window of
t-degrees, summed by Tensor.combination as the catalog's axioms are;
identities outside the window are not certified, and the result says so.
Jacobi triples whose nested brackets leave the window are skipped and
counted, never failed.  Two of the five reports, LIE_SKEW and
COLIE_ANTICOCOMM, hold by construction for every circ and Delta: [x, y] +
[y, x] and the completed cobracket plus its flip cancel term by term, so
they are reported as holding with nothing contracted, and certify nothing
about the input.

The polynomial-algebra family at the end is a separate finite check: its
structure constants are closed forms in the exponent, so for total degree
bounded by N every intermediate stays inside the truncation and the axioms
are certified exactly.
"""

import functools
from dataclasses import dataclass
from fractions import Fraction

from .exactcore import POLY, RATIONAL, Scalar, Tensor, qvar
from .structures import (
    Presentation,
    PresentationError,
    Space,
    all_hold,
    check_axiom,
    scan_residuals,
)
from .constructions import induce_nov_coalg, induce_novikov
from .bialgebra import NOV_BIALG_AXIOMS, bialg_q_residuals, check_diff_asi_bialgebra

@dataclass(frozen=True)
class WindowSpec:
    """Inclusive t-degree window and the deformation point."""
    deg_min: int
    deg_max: int
    q: Fraction

    def __post_init__(self):
        if self.deg_min > self.deg_max:
            raise ValueError("empty degree window")
        object.__setattr__(self, "q", Fraction(self.q))

    def degrees(self) -> range:
        return range(self.deg_min, self.deg_max + 1)

    def contains(self, d: int) -> bool:
        return self.deg_min <= d <= self.deg_max


def _weights(ring: str, at: dict, firsts, seconds, third, weight) -> Tensor:
    """weight(a, b, c) at (at[a], at[b], at[c]), c = third(a, b), a in firsts, b in seconds."""
    box = functools.cache(lambda v: Scalar.of(ring, v))  # one Scalar per distinct weight
    return Tensor.from_entries(ring, (len(at),) * 3, {
        (at[a], at[b], at[c]): box(weight(a, b, c))
        for a in firsts for b in seconds if (c := third(a, b)) in at})


def _bracket(circ: Tensor, at: dict, firsts, seconds) -> Tensor:
    """The affine bracket of degrees m in firsts and n in seconds, with legs
    (i, m, j, n, k, d): m circ_ijk - n circ_jik at d = m+n-1."""
    w = lambda f: _weights(circ.ring, at, firsts, seconds, lambda m, n: m + n - 1, f)
    return Tensor.combination([(1, "mnd,ijk->imjnkd", (w(lambda m, n, d: m), circ)),
                               (-1, "mnd,jik->imjnkd", (w(lambda m, n, d: n), circ))])


def _cobracket(Delta: Tensor, at: dict, ins, firsts) -> Tensor:
    """The completed cobracket of degrees m in ins onto j in firsts, with legs
    (i, m, a, j, b, k): (-j-1) Delta_iab + (k+1) Delta_iba at j+k = m-2."""
    w = lambda f: _weights(Delta.ring, at, ins, firsts, lambda m, j: m - 2 - j, f)
    return Tensor.combination([(1, "mjk,iab->imajbk", (w(lambda m, j, k: -j - 1), Delta)),
                               (1, "mjk,iba->imajbk", (w(lambda m, j, k: k + 1), Delta))])


def _positions(*degrees) -> dict:
    return {d: x for x, d in enumerate(sorted(set().union(*degrees)))}


@dataclass
class WindowResult:
    """Axiom reports over one degree window, plus the Jacobi coverage count."""
    reports: dict
    jacobi_checked: int
    jacobi_skipped: int
    note = "window-restricted: degrees outside the window are not certified"

    @property
    def holds(self) -> bool:
        return all_hold(self.reports.values())


def window_lie_bialgebra_check(pres: Presentation, w: WindowSpec, dot: str = "dot",
                               delta: str = "delta", D: str = "D", Q: str = "Q") -> WindowResult:
    """Check the affinized Lie bialgebra identities inside a degree window.

    The input presentation must be a differential ASI bialgebra over Q whose
    three deformation residuals vanish at w.q; both are verified first and a
    violation raises.  The five identity families are then checked on every
    basis/degree combination whose output degrees lie in the window.
    """
    if pres.ring != RATIONAL:
        raise PresentationError("windowing needs a rational presentation; specialize first")
    pre1 = check_diff_asi_bialgebra(pres, dot, delta, D, Q)
    if not all_hold(pre1.values()):
        bad = ", ".join(str(r) for r in pre1.values() if not r.holds)
        raise PresentationError(f"not a differential ASI bialgebra: {bad}")
    pre2 = bialg_q_residuals(pres, w.q, dot, delta, D, Q)
    if not all_hold(pre2.values()):
        bad = ", ".join(str(r) for r in pre2.values() if not r.holds)
        raise PresentationError(f"deformation residuals do not vanish at q={w.q}: {bad}")
    circ = induce_novikov(pres.binop(dot), pres.linmap(D), pres.linmap(Q), q=w.q)
    Delta = induce_nov_coalg(pres.coop(delta), pres.linmap(Q), pres.linmap(D), q=w.q)
    return _window_reports(circ, Delta, w, pres.space.names)


def _window_reports(circ: Tensor, Delta: Tensor, w: WindowSpec, names) -> WindowResult:
    """The five families on the window, for an induced pair (circ, Delta) over Q.

    LIE_SKEW and COLIE_ANTICOCOMM hold by construction and are reported with
    nothing contracted.  Each other family is a signed sum of contractions led
    by an indicator on its degree tuples, of the graded bracket B and
    cobracket C, each built once on the degrees the families read (m n p q r
    d e s are degree legs in the specs).  The leading legs follow the loop
    order its witnesses name, with degrees the others fix riding along, so
    nonzero slices reach scan_residuals in order.
    """
    ring, dim, lo, hi = circ.ring, circ.dim, w.deg_min, w.deg_max
    win = set(w.degrees())
    # the bracket's outputs, and the inner degrees m - 2 - d1 of the co-Jacobi
    # terms and d1 - m + 1 of the cocycle terms
    outs = set(range(2 * lo - 1, 2 * hi))
    inner = set(range(lo - hi - 2, hi - lo - 1))
    shifted = set(range(lo - hi + 1, hi - lo + 2))
    at = _positions(win, outs, inner, shifted)
    degs = sorted(at)
    lab = lambda i, x: f"{names[i]}t^{degs[x]}"
    tdegs = lambda *xs: ",".join(f"t^{degs[x]}" for x in xs)
    reports, one = {}, Scalar.one(ring)

    def family(axiom_id, tuples, terms, lead, label):
        dom = Tensor.from_entries(ring, (len(at),) * terms[0][1].index(","),
                                  {tuple(at[d] for d in t): one for t in tuples})
        total = Tensor.combination([(sign, spec, (dom, *ops)) for sign, spec, *ops in terms])
        items = ((label(*head), res) for head, res in total.slices(lead))
        reports[axiom_id] = scan_residuals(axiom_id, ring, items)

    reports["LIE_SKEW"] = scan_residuals("LIE_SKEW", ring, ())
    B = _bracket(circ, at, win, win | shifted)
    C = _cobracket(Delta, at, win | inner | outs, win | inner | shifted)
    jacobi = [(m, n, p, m + n + p - 2) for m in win for n in win for p in win
              if all(map(w.contains, (m + n - 1, n + p - 1, p + m - 1, m + n + p - 2)))]
    family("LIE_JACOBI", jacobi,
           [(1, "mnpe,imjnad,adkple->mnpeijkl", B, B),
            (1, "mnpe,jnkpad,adimle->mnpeijkl", B, B),
            (1, "mnpe,kpimad,adjnle->mnpeijkl", B, B)],
           7, lambda m, n, p, e, i, j, k: (lab(i, m), lab(j, n), lab(k, p)))
    reports["COLIE_ANTICOCOMM"] = scan_residuals("COLIE_ANTICOCOMM", ring, ())
    family("COLIE_COJACOBI", [(m, p, q, m - 4 - p - q) for m in win for p in win for q in win
                              if w.contains(m - 4 - p - q)],
           [(1, "mpqr,imxpwe,weyqzr->impqrxyz", C, C),
            (-1, "mpqr,imyqwe,wexpzr->impqrxyz", C, C),
            (-1, "mpqr,imwezr,wexpyq->impqrxyz", C, C)],
           5, lambda i, m, p, q, r: (lab(i, m), tdegs(p, q, r)))
    family("LIE_BIALG_COCYCLE", [(m, n, p, m + n - 3 - p) for m in win for n in win for p in win
                                 if w.contains(m + n - 3 - p)],
           [(1, "mnpr,imjnzd,zdxpyr->ijmnprxy", B, C),
            (-1, "mnpr,jnzsyr,imzsxp->ijmnprxy", C, B),
            (-1, "mnpr,jnxpzs,imzsyr->ijmnprxy", C, B),
            (1, "mnpr,imzsyr,jnzsxp->ijmnprxy", C, B),
            (1, "mnpr,imxpzs,jnzsyr->ijmnprxy", C, B)],
           6, lambda i, j, m, n, p, r: (lab(i, m), lab(j, n), tdegs(p, r)))
    checked = len(jacobi) * dim ** 3
    return WindowResult(reports, checked, len(win) ** 3 * dim ** 3 - checked)


POLYALG_AXIOMS = NOV_BIALG_AXIOMS


def polyalg_family(N: int, q=None) -> Presentation:
    """The deformed polynomial-algebra bialgebra truncated at degree N.

    Basis x0..xN for the monomials; the product and coproduct come from the
    closed forms x^m circ x^n = (1-q) n x^(m+n-1) and
    Delta(x^n) = (q-1) sum_i i x^(n-1-i) (x) x^(i-1).
    """
    if N < 2:
        raise ValueError("need at least degree 2 for a nontrivial coproduct")
    if q is None:
        ring, qs = POLY, qvar()
    else:
        ring, qs = RATIONAL, Scalar.of(RATIONAL, Fraction(q))
    one = Scalar.one(ring)
    dim = N + 1
    c = {(m, n, m + n - 1): (one - qs) * Scalar.of(ring, n)
         for m in range(dim) for n in range(dim) if 0 <= m + n - 1 <= N}
    d = {(n, n - 1 - i, i - 1): (qs - one) * Scalar.of(ring, i)
         for n in range(dim) for i in range(1, n)}
    return Presentation(ring=ring, space=Space(tuple(f"x{i}" for i in range(dim))),
                        binops={"circ": Tensor.from_entries(ring, (dim,) * 3, c)},
                        coops={"Delta": Tensor.from_entries(ring, (dim,) * 3, d)})


def polyalg_window_check(N: int, q=None) -> dict:
    """Novikov bialgebra axioms for the truncated polynomial family.

    Only basis tuples of total degree at most N are quantified over; for
    those, every intermediate monomial stays inside the truncation, so each
    reported verdict is exact.
    """
    pres = polyalg_family(N, q)
    keep = lambda idx: sum(idx) <= N
    return {aid: check_axiom(aid, pres, tuple_filter=keep) for aid in POLYALG_AXIOMS}
