import random
from fractions import Fraction

import pytest

import oracles as orc
from novq import (BIALG_Q, DIFF_ASI, NOV_BIALG, POLY, Presentation, PresentationError,
                  QUADRATIC, RATIONAL, Scalar, Tensor, all_hold, check_all, check_axiom,
                  check_manin_triple, double_construction, double_induced_family, emit,
                  family_difference_locus, induce_nov_coalg, induce_novikov,
                  load, novikov_bialgebra_locus, parse, prenov_double_family,
                  polynomial, scan_residuals, standard_form, zinbiel_double)
from novq.bialgebra import _subalgebra_report
from novq.structures import ALL_Q, FINITE

F = Fraction


def test_diff_asi_on_base_fixture():
    assert all_hold(check_all(DIFF_ASI, load("fixtures/exnov1")).values())


def test_diff_asi_detects_broken_coproduct():
    pres = load("fixtures/exnov1")
    d = [[[Scalar.zero(RATIONAL)] * 2 for _ in range(2)] for _ in range(2)]
    d[0][0][1] = Scalar.one(RATIONAL)
    broken = Presentation(RATIONAL, pres.space, binops=dict(pres.binops),
                          coops={"delta": Tensor.from_dense(RATIONAL, d)},
                          maps=dict(pres.maps))
    out = check_all(DIFF_ASI, broken)
    assert not out["COCOMM"].holds


def test_standard_form_shape():
    B = standard_form(RATIONAL, 2)
    t = orc.tensor2_table(B)
    assert t[0][2] == {0: F(1)} and t[2][0] == {0: F(1)}
    assert t[1][3] == {0: F(1)} and t[3][1] == {0: F(1)}
    assert not t[0][1] and not t[0][0] and not t[2][3]


def test_every_double_names_its_dual_half_alike():
    # a name that already carries a prime gains primes until no name repeats
    with open("fixtures/zinb-nonderiv") as fh:
        zin = parse(fh.read().replace("e2", "e1'"))
    want = ("e1", "e1'", "e3", "e1''", "e1'''", "e3'")
    assert zinbiel_double(zin).space.names == want
    assert prenov_double_family(zin).space.names == want
    with open("fixtures/exnov1") as fh:
        asi = parse(fh.read().replace("e2", "e1'"))
    assert double_construction(asi).space.names == ("e1", "e1'", "e1''", "e1'''")


def test_zinbiel_double_matches_golden_fixture():
    dbl = zinbiel_double(load("fixtures/zinb-nonderiv"))
    with open("fixtures/examp2-double") as fh:
        assert emit(dbl) == fh.read()
    dbl2 = zinbiel_double(load("fixtures/zinb-deriv"))
    with open("fixtures/zinb-deriv-double") as fh:
        assert emit(dbl2) == fh.read()


def test_zinbiel_double_is_diff_asi():
    for fx in ("fixtures/zinb-deriv", "fixtures/zinb-nonderiv"):
        dbl = zinbiel_double(load(fx))
        assert dbl.dim == 6
        assert dbl.space.names == ("e1", "e2", "e3", "e1'", "e2'", "e3'")
        assert all_hold(check_all(DIFF_ASI, dbl).values()), fx


def test_locus_goldens():
    loc = novikov_bialgebra_locus(load("fixtures/examp2-double"))
    assert loc.kind == FINITE
    assert loc.points == {F(-1, 2), F(-1)}
    assert not loc.has_nonrational_factor
    assert str(loc) == "{-1/2, -1}"

    assert novikov_bialgebra_locus(load("fixtures/zinb-deriv-double")).kind == ALL_Q

    loc = novikov_bialgebra_locus(load("fixtures/exnov1"))
    assert loc.points == {F(0), F(-1, 2)}
    assert str(loc) == "{0, -1/2}"


def test_bialg_q_specialized():
    pres = load("fixtures/examp2-double")
    assert all_hold(check_all(BIALG_Q, pres, q=F(-1, 2)).values())
    assert all_hold(check_all(BIALG_Q, pres, q=F(-1)).values())
    out = check_all(BIALG_Q, pres, q=F(1))
    assert not all_hold(out.values())


def test_nov_bialg_on_the_induced_pair():
    pres = load("fixtures/exnov1")
    for q, good in ((F(-1, 2), True), (F(0), True), (F(1), False)):
        circ = induce_novikov(pres.binop("dot"), pres.linmap("D"),
                              pres.linmap("Q"), q=q)
        Delta = induce_nov_coalg(pres.coop("delta"), pres.linmap("Q"),
                                 pres.linmap("D"), q=q)
        pair = Presentation(RATIONAL, pres.space, binops={"circ": circ}, coops={"Delta": Delta})
        assert all_hold(check_all(NOV_BIALG, pair).values()) == good


def _lin(c0, c1):
    return {k: F(v) for k, v in ((0, c0), (1, c1)) if v}


def test_prenov_double_family_golden():
    fam = prenov_double_family(load("fixtures/zinb-nonderiv"))
    assert fam.ring == POLY
    t = orc.op_table(fam.binop("circ"))
    lin = _lin

    # A-block: the descendent deformation itself
    assert t[0][0][1] == lin(2, 6)
    # mixed blocks, e1' sits at index 3
    assert t[0][4][3] == lin(-2, -6)   # e1 circ e2' = -2(1+3q) e1'
    assert t[4][0][3] == lin(1, 3)
    assert t[0][5][4] == lin(-6, -10)
    assert t[5][0][4] == lin(2, 6)
    assert t[1][5][3] == lin(-3, -5)
    assert t[5][1][3] == lin(2, 2)

    d = orc.cop_table(fam.coop("Delta"))
    assert d[0][1][3] == lin(1, 3)
    assert d[0][2][4] == lin(2, 2)
    assert d[0][3][1] == lin(-2, -6)
    assert d[0][4][2] == lin(-3, -5)
    assert d[1][2][3] == lin(2, 6)
    assert d[1][3][2] == lin(-6, -10)
    assert all(not d[2][j][k] for j in range(6) for k in range(6))
    assert all(not d[3][j][k] for j in range(6) for k in range(6))
    assert d[4][3][3] == lin(2, 6)
    assert d[5][3][4] == lin(6, 6)
    assert d[5][4][3] == lin(3, 9)


def test_double_induced_family_golden():
    fam = double_induced_family(load("fixtures/zinb-nonderiv"))
    t = orc.op_table(fam.binop("circ"))
    lin = _lin

    assert t[0][4][3] == lin(2, 2)   # e1 circ e2' = 2(1+q) e1'
    assert t[4][0][3] == lin(1, 3)
    assert t[0][5][4] == lin(2, 6)
    assert t[5][0][4] == lin(2, 6)
    assert t[1][5][3] == lin(1, 3)
    assert t[5][1][3] == lin(2, 2)

    d = orc.cop_table(fam.coop("Delta"))
    assert d[0][1][3] == lin(1, 3)
    assert d[0][2][4] == lin(2, 2)
    assert d[0][3][1] == lin(2, 2)
    assert d[0][4][2] == lin(1, 3)
    assert d[1][2][3] == lin(2, 6) and d[1][3][2] == lin(2, 6)
    assert d[4][3][3] == lin(2, 6)
    assert d[5][3][4] == lin(6, 6)
    assert d[5][4][3] == lin(3, 9)


def test_family_difference_locus():
    pa = prenov_double_family(load("fixtures/zinb-nonderiv"))
    pb = double_induced_family(load("fixtures/zinb-nonderiv"))
    loc = family_difference_locus(pa, pb)
    assert loc.points == {F(-1, 2)}

    pa = prenov_double_family(load("fixtures/zinb-deriv"))
    pb = double_induced_family(load("fixtures/zinb-deriv"))
    assert family_difference_locus(pa, pb).kind == ALL_Q


def test_both_family_routes_are_novikov_bialgebras_on_their_locus():
    # the two routes disagree away from -1/2 but each lands on a Novikov
    # bialgebra there
    for build in (prenov_double_family, double_induced_family):
        fam = build(load("fixtures/zinb-nonderiv")).specialize(F(-1, 2))
        out = check_all(NOV_BIALG, fam)
        assert all_hold(out.values())


def test_double_construction_guard():
    pres = load("fixtures/exnov1")
    d = [[[Scalar.zero(RATIONAL)] * 2 for _ in range(2)] for _ in range(2)]
    d[0][0][1] = Scalar.one(RATIONAL)  # not cocommutative, ASI fails
    broken = Presentation(RATIONAL, pres.space, binops=dict(pres.binops),
                          coops={"delta": Tensor.from_dense(RATIONAL, d)},
                          maps=dict(pres.maps))
    with pytest.raises(PresentationError):
        double_construction(broken)


def test_manin_triple_from_double():
    # doubling, deforming at -1/2 and checking the triple: subalgebras, the
    # Novikov axioms and invariance of the hyperbolic form
    for fx in ("fixtures/examp2-double", "fixtures/zinb-deriv-double"):
        pres = load(fx)
        dbl = double_construction(pres)
        assert dbl.dim == 2 * pres.dim
        circ = induce_novikov(dbl.binop("dot"), dbl.linmap("D"),
                              dbl.linmap("Q"), q=F(-1, 2))
        half = Presentation(RATIONAL, dbl.space, binops={"circ": circ})
        out = check_manin_triple(half)
        assert all_hold(out.values()), fx


def _per_pair_subalgebra(axiom_id, op, names, inside):
    """The pair-by-pair scan that _subalgebra_report replaced."""
    outside = [k for k in range(op.dim) if k not in inside]
    items = (((names[i], names[j]),
              Tensor.from_dense(op.ring, [op.entry(i, j, k) for k in outside]))
             for i in inside for j in inside)
    return scan_residuals(axiom_id, op.ring, items)


def test_subalgebra_reports_name_planted_leaks_as_the_per_pair_scan():
    # one or two leaks planted into one half of a Manin triple, over Q and over Q[q]
    rng = random.Random(12)
    dbl = double_construction(load("fixtures/examp2-double"))
    circ = induce_novikov(dbl.binop("dot"), dbl.linmap("D"), dbl.linmap("Q"), q=F(-1, 2))
    n, names = circ.dim, dbl.space.names
    halves = {"SUBALG_LEFT": range(n // 2), "SUBALG_RIGHT": range(n // 2, n)}
    for ring in (RATIONAL, POLY):
        base = circ if ring == RATIONAL else circ.map_scalars(Scalar.lift, POLY)
        value = Scalar.of(ring, 3) if ring == RATIONAL else polynomial((F(1, 2), 1))
        for trial in range(16):
            aid = ("SUBALG_LEFT", "SUBALG_RIGHT")[trial % 2]
            inside = halves[aid]
            leaks = {(rng.choice(inside), rng.choice(inside),
                      rng.choice([k for k in range(n) if k not in inside])): value
                     for _ in range(1 + trial % 3 // 2)}
            op = base + Tensor.from_entries(ring, (n,) * 3, leaks)
            got = _subalgebra_report(aid, op, names, inside)
            assert got == _per_pair_subalgebra(aid, op, names, inside)
            i, j, _ = min(leaks)
            assert got.witness == (names[i], names[j]) and not got.holds
            other = "SUBALG_RIGHT" if aid == "SUBALG_LEFT" else "SUBALG_LEFT"
            assert _subalgebra_report(other, op, names, halves[other]).holds


def test_manin_invariance_locus_small():
    # on the 4-dim double of the base fixture the invariance residuals vanish
    # exactly at the special point
    dbl = double_construction(load("fixtures/exnov1")).lift()
    circ = induce_novikov(dbl.binop("dot"), dbl.linmap("D"), dbl.linmap("Q"))
    pres = Presentation(POLY, dbl.space, binops={"circ": circ},
                        forms={"B": standard_form(POLY, 2)})
    rep = check_axiom("BILIN_INV_NOV", pres)
    assert rep.verdict == "holds_on_locus"
    assert rep.locus.points == {F(-1, 2)}

    spec = pres.specialize(F(-1, 2))
    assert check_axiom("BILIN_INV_NOV", spec).holds


def test_semidirect_double_is_not_a_manin_triple():
    # the 6-dim semidirect double carries the commutative product, whose
    # induced deformation does not leave the hyperbolic form invariant
    dbl = zinbiel_double(load("fixtures/zinb-nonderiv"))
    circ = induce_novikov(dbl.binop("dot"), dbl.linmap("D"), dbl.linmap("Q"),
                          q=F(-1, 2))
    half = Presentation(RATIONAL, dbl.space, binops={"circ": circ})
    out = check_manin_triple(half)
    rep = out["BILIN_INV_NOV"]
    assert rep.verdict == "fails"
    assert rep.witness == ("e1", "e1", "e2'")
    assert rep.residual.dense[0] == F(-1, 2)


def test_quadratic_structure_on_the_double():
    dbl = double_construction(load("fixtures/exnov1"))
    circ = induce_novikov(dbl.binop("dot"), dbl.linmap("D"), dbl.linmap("Q"),
                          q=F(-1, 2))
    pres = Presentation(RATIONAL, dbl.space, binops={"circ": circ},
                        forms={"B": standard_form(RATIONAL, 2)})
    out = check_all(QUADRATIC, pres)
    assert all_hold(out.values())

    zero = Tensor.from_entries(RATIONAL, (4, 4), {})
    out = check_all(QUADRATIC, Presentation(RATIONAL, dbl.space, binops={"circ": circ},
                                            forms={"B": zero}))
    assert out["FORM_SYM"].holds
    assert not out["FORM_NONDEG"].holds
