"""Bialgebra-level constructions and checks: doubles, loci, Manin triples.

The builders assume their inputs pass the catalog's structures (DIFF_ASI,
ADM_ZINBIEL), which a caller checks with structures.check_all on its own
presentation, so a witness names that presentation's basis; the q locus
utilities sit on top of symbolic reports of NOV_BIALG.
Doubles return ordinary presentations on the input's names followed by the
dual basis, named by structures._doubled_names: each name toggles its prime,
then gains primes until no name repeats.
"""

from .catalog import NOV_BIALG, NOVIKOV
from .exactcore import POLY, Tensor
from .structures import (
    AxiomReport,
    Presentation,
    PresentationError,
    QLocus,
    RepNov,
    Space,
    _doubled_names,
    check_all,
    check_axiom,
    combine_loci,
    scan_residuals,
    vanishing_locus,
)
from .constructions import (
    descendent_commdiff,
    descendent_novikov,
    dual_rep_admdiff,
    dual_rep_novikov,
    induce_nov_coalg,
    induce_novikov,
    pre_novikov_from_zinbiel,
    regular_rep_admdiff,
    semidirect_admdiff,
    semidirect_novikov,
)
from .ybe import Delta_qr, canonical_r, delta_r


def standard_form(ring: str, dim_a: int) -> Tensor:
    """The hyperbolic pairing on A + A*: B(e_i, e_j') = B(e_j', e_i) = [i = j]."""
    ident = Tensor.identity(ring, dim_a)
    return Tensor.from_blocks(ring, (2 * dim_a, 2 * dim_a),
                              [((0, dim_a), ident), ((dim_a, 0), ident)])


def _induced_family(pres: Presentation, dot: str, delta: str, D: str, Q: str) -> Presentation:
    """The symbolic pair (circ_q, Delta_q) induced from a differential ASI bialgebra."""
    p = pres.lift()
    dmap, qmap = p.linmap(D), p.linmap(Q)
    return Presentation(ring=POLY, space=p.space,
                        binops={"circ": induce_novikov(p.binop(dot), dmap, qmap)},
                        coops={"Delta": induce_nov_coalg(p.coop(delta), qmap, dmap)})


def novikov_bialgebra_locus(pres: Presentation, dot: str = "dot", delta: str = "delta",
                            D: str = "D", Q: str = "Q") -> QLocus:
    """Rational q where the induced (circ_q, Delta_q) is a Novikov bialgebra.

    Builds the induced pair symbolically and intersects the vanishing sets of
    every failing axiom's residual entries; all_q when everything holds
    identically.  Points beyond Q are out of scope (the locus carries a flag
    when a non-rational common zero cannot be ruled out).
    """
    reports = check_all(NOV_BIALG, _induced_family(pres, dot, delta, D, Q))
    return combine_loci(r.locus for r in reports.values())


def double_construction(pres: Presentation, dot: str = "dot", delta: str = "delta",
                        D: str = "D", Q: str = "Q") -> Presentation:
    """The Frobenius-style double of a differential ASI bialgebra on A + A*.

    The A and A* halves multiply by the product and the coproduct's dual; the
    mixed product pairs the coproduct against the covector and adds the
    transposed left multiplication:

        a . f = sum <f, a_(1)> a_(2) + L(a)^T f,   f . a = a . f.

    The maps become D + Q^T and Q + D^T.  The hyperbolic form is invariant for
    the result; that invariance is re-checked on every call since the mixed
    formula exists precisely to make it hold.
    """
    op = pres.binop(dot)
    cop = pres.coop(delta)
    dmap, qmap = pres.linmap(D), pres.linmap(Q)
    n = pres.dim
    ring = pres.ring
    total = Tensor.from_blocks(ring, (2 * n,) * 3, [
        ((0, 0, 0), op),
        ((n, n, n), Tensor.einsum("kij->ijk", cop)),
        ((0, n, 0), cop),
        ((n, 0, 0), Tensor.einsum("bik->ibk", cop)),
        ((0, n, n), Tensor.einsum("ikb->ibk", op)),
        ((n, 0, n), Tensor.einsum("ikb->bik", op)),
    ])
    out = Presentation(
        ring=ring,
        space=Space(_doubled_names(pres.space.names)),
        binops={dot: total},
        coops={},
        maps={D: Tensor.block_diag(dmap, qmap.transpose()),
              Q: Tensor.block_diag(qmap, dmap.transpose())},
        forms={"B": standard_form(ring, n)},
    )
    guard = check_axiom("BILIN_INV_ASSOC", out, {"dot": dot})
    if not guard.holds:
        raise PresentationError(f"double is not invariant for the pairing: {guard}")
    return out


def zinbiel_double(pres: Presentation, zin: str = "zin", D: str = "D",
                   Q: str = "Q") -> Presentation:
    """The differential ASI bialgebra on A + A* built over a Zinbiel product.

    A carries the descendent commutative product, A* the dual of the left
    regular Zinbiel module, and the coproduct is the coboundary of the
    canonical antisymmetric pairing tensor.  Output slots are always named
    dot, delta, D, Q.
    """
    zop = pres.binop(zin)
    dmap, qmap = pres.linmap(D), pres.linmap(Q)
    ring = pres.ring
    n = pres.dim
    base_rep = regular_rep_admdiff(zop, dmap, qmap, pres.space.names)
    apres = Presentation(ring=ring, space=pres.space,
                         binops={"dot": descendent_commdiff(zop)},
                         maps={"D": dmap, "Q": qmap})
    dbl = semidirect_admdiff(apres, dual_rep_admdiff(base_rep))
    cob = delta_r(-canonical_r(ring, n), dbl.binop("dot"))
    return Presentation(ring=ring, space=dbl.space, binops=dbl.binops,
                        coops={"delta": cob}, maps=dbl.maps)


def prenov_double_family(pres: Presentation, zin: str = "zin", D: str = "D",
                         Q: str = "Q") -> Presentation:
    """The symbolic Novikov bialgebra family on A + A* via the split route.

    Deforms the Zinbiel product into a split pair, takes its descendent
    Novikov product, extends to the double by the dual of the split module,
    and closes with the coboundary coproduct of the canonical tensor.  Slots
    are named circ and Delta; the result lives over Q[q].
    """
    p = pres.lift()
    zop = p.binop(zin)
    dmap, qmap = p.linmap(D), p.linmap(Q)
    n = p.dim
    lhd, rhd = pre_novikov_from_zinbiel(zop, dmap, qmap)
    # the split module (A, L_rhd, R_lhd), with legs (i, k, j) as in regular_rep_novikov
    rep = RepNov(p.space.names, Tensor.einsum("ijk->ikj", rhd), Tensor.einsum("jik->ikj", lhd))
    apres = Presentation(ring=POLY, space=p.space,
                         binops={"circ": descendent_novikov(lhd, rhd)})
    dbl = semidirect_novikov(apres, dual_rep_novikov(rep))
    big = dbl.binop("circ")
    return Presentation(ring=POLY, space=dbl.space, binops={"circ": big},
                        coops={"Delta": Delta_qr(canonical_r(POLY, n), big)})


def double_induced_family(pres: Presentation, zin: str = "zin", D: str = "D",
                          Q: str = "Q") -> Presentation:
    """The symbolic family on A + A* via the double-then-deform route."""
    return _induced_family(zinbiel_double(pres, zin, D, Q), "dot", "delta", "D", "Q")


def family_difference_locus(pa: Presentation, pb: Presentation, circ: str = "circ",
                            Delta: str = "Delta") -> QLocus:
    """Rational q where two symbolic families agree entrywise."""
    ca, cb = pa.binop(circ), pb.binop(circ)
    da, db = pa.coop(Delta), pb.coop(Delta)
    if ca.dim != cb.dim or da.dim != db.dim:
        raise PresentationError("families live on different spaces")
    return vanishing_locus(entry[-1] for diff in (ca - cb, da - db) for entry in diff.nonzero())


def _subalgebra_report(axiom_id: str, op: Tensor, names, inside: range) -> AxiomReport:
    """Whether the basis vectors inside span a subalgebra: the residual of (e_i, e_j)
    is the part of e_i e_j outside, one contraction of op with selectors."""
    outside = [k for k in range(op.dim) if k not in inside]

    def selector(rows) -> Tensor:
        return Tensor.from_entries(op.ring, (len(rows), op.dim),
                                   {(a, k): 1 for a, k in enumerate(rows)})

    pick = selector(inside)
    leaks = Tensor.einsum("ai,bj,ijk,ck->abc", pick, pick, op, selector(outside))
    items = (((names[inside[a]], names[inside[b]]), leak) for (a, b), leak in leaks.slices(2))
    return scan_residuals(axiom_id, op.ring, items)


def check_manin_triple(pres: Presentation, circ: str = "circ") -> dict:
    """Manin triple verdict for a Novikov product on a doubled space.

    Checks that the first and the second half of the basis each span a
    subalgebra, that the whole product is Novikov, and that the hyperbolic
    pairing of the two halves is invariant.
    """
    op = pres.binop(circ)
    n = op.dim
    if n % 2:
        raise PresentationError("the split must cut the space exactly in half")
    dim_left = n // 2
    names = pres.space.names
    tmp = Presentation(ring=pres.ring, space=pres.space, binops={circ: op},
                       forms={"B": standard_form(pres.ring, dim_left)})
    return {
        "SUBALG_LEFT": _subalgebra_report("SUBALG_LEFT", op, names, range(dim_left)),
        "SUBALG_RIGHT": _subalgebra_report("SUBALG_RIGHT", op, names, range(dim_left, n)),
        **check_all(NOVIKOV + ("BILIN_INV_NOV",), tmp, {"circ": circ}),
    }

