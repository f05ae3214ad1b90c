"""Bialgebra-level checks: compatibility residuals, doubles, Manin triples.

Each check bundle runs on the presentation and slot names it is handed, so a
witness names that presentation's basis; the builders assume their inputs
pass the bundles, and the q locus utilities sit on top of symbolic reports.
Doubles return ordinary presentations on the input's names followed by each
primed, with the convention that the primed half is the dual basis.
"""

from .exactcore import POLY, Scalar, Tensor, bareiss_det, exact_div
from .structures import (
    AxiomReport,
    Presentation,
    PresentationError,
    QLocus,
    RepNov,
    Space,
    _toggle_prime,
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

DIFF_ASI_AXIOMS = ("COMM", "ASSOC", "DERIV", "ADMISS", "COASSOC", "COCOMM",
                   "CODERIV", "CO_ADMISS", "ASI_1", "ASI_2")
NOV_BIALG_AXIOMS = ("NOV_LSYM", "NOV_RCOMM", "NOV_COALG_1", "NOV_COALG_2",
                    "NOV_BIALG_1", "NOV_BIALG_2", "NOV_BIALG_3")
BIALG_Q_AXIOMS = ("BIALG_Q_1", "BIALG_Q_2", "BIALG_Q_3")


def _doubled_names(names) -> tuple[str, ...]:
    out = list(names)
    for nm in names:
        mark = _toggle_prime(nm)
        while mark in out:
            mark += "'"
        out.append(mark)
    return tuple(out)


def standard_form(ring: str, dim_a: int) -> Tensor:
    """The hyperbolic pairing on A + A*: B(e_i, e_j') = B(e_j', e_i) = [i = j]."""
    ident = Tensor.identity(ring, dim_a)
    return Tensor.from_blocks(ring, (2 * dim_a, 2 * dim_a),
                              [((0, dim_a), ident), ((dim_a, 0), ident)])


def adjoint_map(D: Tensor, B: Tensor) -> Tensor:
    """The map adj with B(D(a), b) = B(a, adj(b)) for all a, b.

    Solves the matrix equation B adj = D^T B column by column with Cramer's
    rule, so B must be nondegenerate.  Over Q[q] each solution entry must come
    out polynomial; a fractional solution raises.
    """
    n = B.dim
    if D.shape != (n, n):
        raise PresentationError("map and form have different dimensions")
    base = [list(r) for r in B.dense]
    det = bareiss_det([row[:] for row in base], B.ring)
    if det.is_zero():
        raise PresentationError("the form is degenerate")
    rhs = Tensor.einsum("kj,ki->ij", B, D)  # D^T B
    rows = [[Scalar.zero(B.ring)] * n for _ in range(n)]
    for j in range(n):
        for i in range(n):
            mat = [row[:] for row in base]
            for k in range(n):
                mat[k][i] = rhs.entry(k, j)
            rows[i][j] = exact_div(bareiss_det(mat, B.ring), det)
    return Tensor.from_dense(B.ring, rows)


def check_admissible_zinbiel(pres: Presentation, zin: str = "zin", D: str | None = "D",
                             Q: str | None = "Q") -> dict:
    """Zinbiel, D a derivation, Q admissible against D; a map given as None skips its checks."""
    reports = {"ZINBIEL": check_axiom("ZINBIEL", pres, {"zin": zin})}
    if D is not None:
        reports["DERIV"] = check_axiom("DERIV", pres, {"dot": zin, "D": D})
        if Q is not None:
            reports["ZINB_ADMISS"] = check_axiom("ZINB_ADMISS", pres, {"zin": zin, "D": D, "Q": Q})
    return reports


def check_diff_asi_bialgebra(pres: Presentation, dot: str = "dot", delta: str = "delta",
                             D: str = "D", Q: str = "Q") -> dict:
    """All axioms of a commutative cocommutative differential ASI bialgebra."""
    binds = {"dot": dot, "delta": delta, "D": D, "Q": Q}
    return {aid: check_axiom(aid, pres, binds) for aid in DIFF_ASI_AXIOMS}


def check_novikov_bialgebra(pres: Presentation, circ: str = "circ", Delta: str = "Delta") -> dict:
    """Novikov algebra + coalgebra axioms plus the three compatibilities."""
    binds = {"circ": circ, "Delta": Delta}
    return {aid: check_axiom(aid, pres, binds) for aid in NOV_BIALG_AXIOMS}


def bialg_q_residuals(pres: Presentation, q=None, dot: str = "dot", delta: str = "delta",
                      D: str = "D", Q: str = "Q") -> dict:
    """The three compatibility residuals of the induced pair, one report each.

    Over Q[q] leave q=None for the symbolic verdict; over Q pass the point.
    The reports vanish simultaneously exactly where (circ_q, Delta_q) is a
    Novikov bialgebra.
    """
    binds = {"dot": dot, "delta": delta, "D": D, "Q": Q}
    return {aid: check_axiom(aid, pres, binds, q=q) for aid in BIALG_Q_AXIOMS}


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
    reports = check_novikov_bialgebra(_induced_family(pres, dot, delta, D, Q))
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
    one = Scalar.one(op.ring)
    outside = [k for k in range(op.dim) if k not in inside]

    def selector(rows) -> Tensor:
        return Tensor.from_entries(op.ring, (len(rows), op.dim),
                                   {(a, k): one for a, k in enumerate(rows)})

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
    binds = {"circ": circ}
    return {
        "SUBALG_LEFT": _subalgebra_report("SUBALG_LEFT", op, names, range(dim_left)),
        "SUBALG_RIGHT": _subalgebra_report("SUBALG_RIGHT", op, names, range(dim_left, n)),
        "NOV_LSYM": check_axiom("NOV_LSYM", tmp, binds),
        "NOV_RCOMM": check_axiom("NOV_RCOMM", tmp, binds),
        "BILIN_INV_NOV": check_axiom("BILIN_INV_NOV", tmp, binds),
    }


def quadratic_novikov_check(pres: Presentation, circ: str = "circ", B: str = "B") -> dict:
    """Symmetric, nondegenerate and invariant form over a Novikov product."""
    binds = {"circ": circ, "B": B}
    return {aid: check_axiom(aid, pres, binds)
            for aid in ("FORM_SYM", "FORM_NONDEG", "BILIN_INV_NOV")}
