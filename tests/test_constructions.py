import random
from fractions import Fraction

import oracles as orc
from genalg import random_quadruple
from novq import (POLY, Presentation, RATIONAL, Scalar,
                  Space, all_hold, check_axiom, descendent_commdiff,
                  descendent_novikov, dual_rep_admdiff, dual_rep_novikov,
                  induce_nov_coalg, induce_novikov, induced_rep_q,
                  is_admissible_quadruple, load,
                  pre_novikov_from_zinbiel, Tensor)
from novq.constructions import (deformation_family_check, pre_novikov_from_oop,
                                regular_rep_admdiff, regular_rep_novikov,
                                semidirect_novikov, star, zinbiel_from_oop)

F = Fraction


def lin(c0, c1=0):
    # poly dict with constant and q coefficients
    out = {}
    if F(c0):
        out[0] = F(c0)
    if F(c1):
        out[1] = F(c1)
    return out


def test_induce_novikov_exnov1_at_minus_half():
    pres = load("fixtures/exnov1")
    circ = induce_novikov(pres.binop("dot"), pres.linmap("D"), pres.linmap("Q"),
                          q=F(-1, 2))
    t = orc.op_table(circ)
    assert t[0][0] == [lin(F(-1, 2)), {}]
    assert t[0][1] == [{}, lin(1)]
    assert t[1][0] == [{}, lin(F(-1, 2))]
    assert t[1][1] == [{}, {}]


def test_induce_novikov_exnov1_symbolic():
    pres = load("fixtures/exnov1").lift()
    circ = induce_novikov(pres.binop("dot"), pres.linmap("D"), pres.linmap("Q"))
    t = orc.op_table(circ)
    assert t[0][0] == [lin(0, 1), {}]
    assert t[0][1] == [{}, lin(1)]
    assert t[1][0] == [{}, lin(0, 1)]
    assert t[1][1] == [{}, {}]
    # the family is Novikov for every q
    p = Presentation(POLY, pres.space, binops={"circ": circ})
    assert check_axiom("NOV_LSYM", p).holds
    assert check_axiom("NOV_RCOMM", p).holds


def test_induce_nov_coalg_exnov1():
    pres = load("fixtures/exnov1")
    delta = induce_nov_coalg(pres.coop("delta"), pres.linmap("Q"),
                             pres.linmap("D"), q=F(-1, 2))
    t = orc.cop_table(delta)
    assert t[1][1][1] == lin(F(-1, 2))
    assert sum(1 for i in range(2) for j in range(2) for k in range(2)
               if t[i][j][k]) == 1

    sym = induce_nov_coalg(pres.lift().coop("delta"), pres.lift().linmap("Q"),
                           pres.lift().linmap("D"))
    assert orc.cop_table(sym)[1][1][1] == lin(0, 1)


def test_swapped_maps_are_not_an_admissible_quadruple():
    # swapping the two maps breaks the twisted Leibniz rule
    reports = is_admissible_quadruple(load("fixtures/exnov1"), D="Q", Q="D")
    assert not all_hold(reports.values())


def test_pre_novikov_split_zinb_nonderiv():
    pres = load("fixtures/zinb-nonderiv").lift()
    lhd, rhd = pre_novikov_from_zinbiel(pres.binop("zin"), pres.linmap("D"),
                                        pres.linmap("Q"))
    lt, rt = orc.op_table(lhd), orc.op_table(rhd)
    assert lt[0][0] == [{}, lin(1, 3), {}]
    assert lt[0][1] == [{}, {}, lin(2, 2)]
    assert lt[1][0] == [{}, {}, lin(2, 6)]
    assert rt[0][0] == [{}, lin(1, 3), {}]
    assert rt[0][1] == [{}, {}, lin(4, 4)]
    assert rt[1][0] == [{}, {}, lin(1, 3)]
    # the pair satisfies the four split identities symbolically
    p = Presentation(POLY, pres.space, binops={"lpre": lhd, "rpre": rhd})
    for aid in ("PRE_NOV_1", "PRE_NOV_2", "PRE_NOV_3", "PRE_NOV_4"):
        assert check_axiom(aid, p).holds, aid


def test_pre_novikov_split_gelfand_point():
    pres = load("fixtures/zinb-deriv")
    lhd, rhd = pre_novikov_from_zinbiel(pres.binop("zin"), pres.linmap("D"),
                                        pres.linmap("Q"), q=0)
    assert list(rhd.dense[0][0]) == [0, 1, 0]  # e1 rhd e1 = e1 zin D(e1)


def test_descendent_sum_equals_induced():
    pres = load("fixtures/zinb-nonderiv").lift()
    lhd, rhd = pre_novikov_from_zinbiel(pres.binop("zin"), pres.linmap("D"),
                                        pres.linmap("Q"))
    total = descendent_novikov(lhd, rhd)
    t = orc.op_table(total)
    assert t[0][0] == [{}, lin(2, 6), {}]
    assert t[0][1] == [{}, {}, lin(6, 6)]
    assert t[1][0] == [{}, {}, lin(3, 9)]
    # same table as inducing over the symmetrized product
    dot = descendent_commdiff(pres.binop("zin"))
    dt = orc.op_table(dot)
    assert dt[0][0] == [{}, lin(2), {}]
    assert dt[0][1] == [{}, {}, lin(3)]
    assert dt[1][0] == [{}, {}, lin(3)]
    circ = induce_novikov(dot, pres.linmap("D"), pres.linmap("Q"))
    assert orc.op_table(circ) == t


def test_star_symmetrizes():
    pres = load("fixtures/exnov1")
    circ = induce_novikov(pres.binop("dot"), pres.linmap("D"), pres.linmap("Q"),
                          q=F(-1, 2))
    st = orc.op_table(star(circ))
    t = orc.op_table(circ)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert st[i][j][k] == orc.padd(t[i][j][k], t[j][i][k])


def test_regular_rep_novikov_satisfies_axioms():
    pres = load("fixtures/exnov1").lift()
    circ = induce_novikov(pres.binop("dot"), pres.linmap("D"), pres.linmap("Q"))
    p = Presentation(POLY, pres.space, binops={"circ": circ})
    rep = regular_rep_novikov(circ, ("v1", "v2"))
    for aid in ("REP_NOV_1", "REP_NOV_2", "REP_NOV_3", "REP_NOV_4"):
        assert check_axiom(aid, p, rep=rep).holds, aid
    dual = dual_rep_novikov(rep)
    for aid in ("REP_NOV_1", "REP_NOV_2", "REP_NOV_3", "REP_NOV_4"):
        assert check_axiom(aid, p, rep=dual).holds, aid


def test_dual_rep_admdiff_exnov1():
    pres = load("fixtures/exnov1")
    rep = regular_rep_admdiff(pres.binop("dot"), pres.linmap("D"),
                              pres.linmap("Q"), ("v1", "v2"))
    dual = dual_rep_admdiff(rep)
    # the endomorphisms swap and transpose: alpha' = Q^T, beta' = D^T
    assert [list(row) for row in dual.alpha.dense] == [[1, 0], [0, 0]]
    assert [list(row) for row in dual.beta.dense] == [[0, 0], [0, 1]]
    # duals of regular modules are modules again
    p = load("fixtures/exnov1")
    for aid in ("REP_MOD", "REP_DIFF", "REP_ADM"):
        assert check_axiom(aid, p, rep=dual).holds, aid


def test_induced_rep_q_exnov1():
    pres = load("fixtures/exnov1")
    rep = regular_rep_admdiff(pres.binop("dot"), pres.linmap("D"),
                              pres.linmap("Q"), ("v1", "v2"))
    nrep = induced_rep_q(rep, pres.linmap("D"), pres.linmap("Q"), q=F(-1, 2))
    img = Tensor.einsum("i,j,ikj->k", Tensor.basis(RATIONAL, 2, 0),
                        Tensor.basis(RATIONAL, 2, 0), nrep.l)
    assert list(img.dense) == [F(-1, 2), 0]
    # it is a module over the matching induced product
    circ = induce_novikov(pres.binop("dot"), pres.linmap("D"), pres.linmap("Q"),
                          q=F(-1, 2))
    p = Presentation(RATIONAL, pres.space, binops={"circ": circ})
    for aid in ("REP_NOV_1", "REP_NOV_2", "REP_NOV_3", "REP_NOV_4"):
        assert check_axiom(aid, p, rep=nrep).holds, aid


def test_induced_rep_q_symbolic_random():
    rng = random.Random(31)
    for _ in range(6):
        pres = random_quadruple(rng, rng.choice((2, 3))).lift()
        dot, D, Q = pres.binop("dot"), pres.linmap("D"), pres.linmap("Q")
        rep = regular_rep_admdiff(dot, D, Q, pres.space.names)
        nrep = induced_rep_q(rep, D, Q)
        circ = induce_novikov(dot, D, Q)
        p = Presentation(POLY, pres.space, binops={"circ": circ})
        for aid in ("REP_NOV_1", "REP_NOV_2", "REP_NOV_3", "REP_NOV_4"):
            assert check_axiom(aid, p, rep=nrep).holds, aid


def test_deformation_family_closure():
    rng = random.Random(17)
    for _ in range(8):
        pres = random_quadruple(rng, rng.choice((2, 3)))
        dot, D, Q = pres.binop("dot"), pres.linmap("D"), pres.linmap("Q")
        base = induce_novikov(dot, D, Q, q=0)          # a . D(b)
        pert = induce_novikov(dot, D, Q, p=0, q=1)     # a . Q(b)
        fam = Presentation(RATIONAL, pres.space, binops={"circ": base, "f": pert})
        assert all_hold(deformation_family_check(fam).values())


def test_deformation_family_detects_breakage():
    pres = load("fixtures/exnov1")
    dot, D, Q = pres.binop("dot"), pres.linmap("D"), pres.linmap("Q")
    base = induce_novikov(dot, D, Q, q=0)
    c = [[[Scalar.zero(RATIONAL)] * 2 for _ in range(2)] for _ in range(2)]
    c[1][1][0] = Scalar.one(RATIONAL)  # f(e2, e2) = e1
    fam = Presentation(RATIONAL, pres.space,
                       binops={"circ": base, "f": Tensor.from_dense(RATIONAL, c)})
    reports = deformation_family_check(fam)
    assert reports["DEFORM_2"].verdict == "fails"
    assert not all_hold(reports.values())


def test_semidirect_novikov_iff_module():
    # the semidirect product is Novikov exactly when the operator pair is a
    # module; perturbing one operator entry must break both sides together
    rng = random.Random(4)
    pres = load("fixtures/exnov1")
    circ = induce_novikov(pres.binop("dot"), pres.linmap("D"), pres.linmap("Q"),
                          q=F(-1, 2))
    base = Presentation(RATIONAL, pres.space, binops={"circ": circ})
    rep_ids = ("REP_NOV_1", "REP_NOV_2", "REP_NOV_3", "REP_NOV_4")
    for trial in range(40):
        rep = regular_rep_novikov(circ, ("v1", "v2"))
        l = [list(map(list, m)) for m in rep.l.dense]
        r = [list(map(list, m)) for m in rep.r.dense]
        if trial:
            tgt = rng.choice((l, r))
            tgt[rng.randrange(2)][rng.randrange(2)][rng.randrange(2)] = \
                Scalar.of(RATIONAL, rng.randint(-2, 2))
        from novq import RepNov
        rep = RepNov(("v1", "v2"),
                     Tensor.stack([Tensor.from_dense(RATIONAL, m) for m in l]),
                     Tensor.stack([Tensor.from_dense(RATIONAL, m) for m in r]))
        is_module = all(check_axiom(a, base, rep=rep).holds for a in rep_ids)
        sd = semidirect_novikov(base, rep)
        is_novikov = (check_axiom("NOV_LSYM", sd).holds
                      and check_axiom("NOV_RCOMM", sd).holds)
        assert is_module == is_novikov


def test_induced_quadruple_novikov_random():
    rng = random.Random(77)
    for _ in range(10):
        pres = random_quadruple(rng, rng.choice((2, 3))).lift()
        circ = induce_novikov(pres.binop("dot"), pres.linmap("D"), pres.linmap("Q"))
        p = Presentation(POLY, pres.space, binops={"circ": circ})
        assert check_axiom("NOV_LSYM", p).holds
        assert check_axiom("NOV_RCOMM", p).holds


def _naive_oop_product(T, family, i, j, k):
    # (family(T(e_i)) e_j)_k from the dense tables, family[m][k][j] of operator m
    n = len(family)
    return sum((T.dense[m][i] * family[m][k][j] for m in range(n)),
               Scalar.zero(T.ring))


def test_products_from_splitting_operators_on_dual_modules():
    # the canonical r of the Zinbiel double gives a splitting operator of the
    # dual module, on the differential side and at q = -1/2 on the Novikov side
    from novq import Space, T_from_r, canonical_r, oop_check, zinbiel_double
    dbl = zinbiel_double(load("fixtures/zinb-deriv"))
    dot, D, Q = dbl.binop("dot"), dbl.linmap("D"), dbl.linmap("Q")
    T = T_from_r(canonical_r(RATIONAL, 3))

    dual = dual_rep_admdiff(regular_rep_admdiff(dot, D, Q, dbl.space.names))
    assert all_hold(oop_check(T, dual, dot=dot, D=D, Q=Q).values())
    zin = zinbiel_from_oop(T, dual)
    assert not zin.is_zero()
    dl = dual.l.dense
    for i in range(6):
        for j in range(6):
            for k in range(6):
                assert zin.dense[i][j][k] == _naive_oop_product(T, dl, i, j, k)
    p = Presentation(RATIONAL, Space(dual.names), binops={"zin": zin},
                     maps={"D": dual.alpha, "Q": dual.beta})
    assert check_axiom("ZINBIEL", p).holds
    assert check_axiom("DERIV", p, {"dot": "zin"}).holds
    assert check_axiom("ZINB_ADMISS", p).holds

    circ = induce_novikov(dot, D, Q, q=F(-1, 2))
    ndual = dual_rep_novikov(regular_rep_novikov(circ, dbl.space.names))
    assert oop_check(T, ndual, circ=circ)["OOP_PROD"].holds
    lhd, rhd = pre_novikov_from_oop(T, ndual)
    assert not lhd.is_zero() and not rhd.is_zero()
    nl, nr = ndual.l.dense, ndual.r.dense
    for i in range(6):
        for j in range(6):
            for k in range(6):
                assert rhd.dense[i][j][k] == _naive_oop_product(T, nl, i, j, k)
                assert lhd.dense[i][j][k] == _naive_oop_product(T, nr, j, i, k)
    p = Presentation(RATIONAL, Space(ndual.names), binops={"lpre": lhd, "rpre": rhd})
    for aid in ("PRE_NOV_1", "PRE_NOV_2", "PRE_NOV_3", "PRE_NOV_4"):
        assert check_axiom(aid, p).holds, aid
