import random
from fractions import Fraction

import pytest

import oracles as orc
from genalg import random_antisym_r, random_quadruple
from novq import (Delta_qr, POLY, Presentation, PresentationError,
                  RATIONAL, RepNov, Scalar, Space, Tensor, all_hold,
                  aybe_residual, canonical_r, check_axiom,
                  check_diff_asi_bialgebra, delta_r, descendent_commdiff,
                  descendent_novikov, dual_rep_admdiff, dual_rep_novikov,
                  induce_novikov, induced_rep_q, is_antisymmetric, load,
                  nybe_residual, oop_check, pre_novikov_from_zinbiel, r_from_T,
                  T_from_r, zinbiel_double)
from novq.constructions import regular_rep_admdiff, regular_rep_novikov
from novq.ybe import _PROD_LEG_SPECS

F = Fraction


def _simple_r(ring, n, i, j):
    z = Scalar.zero(ring)
    rows = [[z] * n for _ in range(n)]
    rows[i][j] = Scalar.one(ring)
    return Tensor.from_dense(ring, rows)


def _t3_entries(t):
    n = len(t.dense)
    return {(i, j, k): s for i in range(n) for j in range(n)
            for k in range(n) for s in (t.dense[i][j][k],) if not s.is_zero()}


def test_leg_conventions_one_summand():
    # r = e1 (x) e2 on the fixture's commutative product; each double product
    # lands in the leg the two subscripts share
    pres = load("fixtures/exnov1")
    dot = pres.binop("dot")
    r = _simple_r(RATIONAL, 2, 0, 1)
    # r13.r12 = (e1.e1) (x) e2 (x) e2
    assert _t3_entries(Tensor.einsum(_PROD_LEG_SPECS[1], r, r, dot)) == {(0, 1, 1): 1}
    # r12.r23 = e1 (x) (e2.e1) (x) e2
    assert _t3_entries(Tensor.einsum(_PROD_LEG_SPECS[2], r, r, dot)) == {(0, 1, 1): 1}
    # r13.r23 = e1 (x) e1 (x) (e2.e2) = 0
    assert _t3_entries(Tensor.einsum(_PROD_LEG_SPECS[3], r, r, dot)) == {}


def test_aybe_pinned_one_summand():
    pres = load("fixtures/exnov1")
    r = _simple_r(RATIONAL, 2, 0, 0)
    res = aybe_residual(r, pres.binop("dot"))
    # legs give e1(x)e1(x)e1 each: 1 + 1 - 1 survives
    assert _t3_entries(res) == {(0, 0, 0): 1}


def test_nybe_pinned_one_summand():
    pres = load("fixtures/exnov1")
    circ = induce_novikov(pres.binop("dot"), pres.linmap("D"), pres.linmap("Q"),
                          q=F(-1, 2))
    r = _simple_r(RATIONAL, 2, 0, 0)
    res = nybe_residual(r, circ)
    # -1/2 - 1 - 1/2 on the only summand
    assert _t3_entries(res) == {(0, 0, 0): -2}


def test_residuals_match_oracle_random():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.choice((2, 3))
        pres = random_quadruple(rng, n)
        dot = pres.binop("dot")
        circ = induce_novikov(dot, pres.linmap("D"), pres.linmap("Q"), q=-1)
        r = random_antisym_r(rng, n)
        rr = orc.tensor2_table(r)
        got = aybe_residual(r, dot)
        want = orc.aybe_residual(rr, orc.op_table(dot))
        assert [[[orc.from_scalar(x) for x in row] for row in plane]
                for plane in got.dense] == want
        got = nybe_residual(r, circ)
        want = orc.nybe_residual(rr, orc.op_table(circ))
        assert [[[orc.from_scalar(x) for x in row] for row in plane]
                for plane in got.dense] == want


def test_zero_r_trivial():
    pres = load("fixtures/exnov1")
    z = Tensor.from_entries(RATIONAL, (2, 2), {})
    assert aybe_residual(z, pres.binop("dot")).is_zero()
    circ = induce_novikov(pres.binop("dot"), pres.linmap("D"), pres.linmap("Q"), q=0)
    assert nybe_residual(z, circ).is_zero()
    assert r_admissibility_holds(z, pres)


def r_admissibility_holds(r, pres):
    from novq import r_admissibility
    return r_admissibility(r, pres.linmap("D"), pres.linmap("Q")).holds


def test_r_admissibility():
    pres = load("fixtures/exnov1")
    r = _simple_r(RATIONAL, 2, 0, 1) - _simple_r(RATIONAL, 2, 1, 0)
    # both tensor conditions cancel entrywise for this r
    assert r_admissibility_holds(r, pres)
    # e1 (x) e1 survives: (D(x)id)r = 0 but (id(x)Q)r = r
    assert not r_admissibility_holds(_simple_r(RATIONAL, 2, 0, 0), pres)


def test_antisymmetry_predicate():
    assert is_antisymmetric(canonical_r(RATIONAL, 3))
    assert not is_antisymmetric(_simple_r(RATIONAL, 2, 0, 0))


def test_r_T_correspondence():
    rng = random.Random(6)
    # canonical r is r_from_T of the identity
    ident = Tensor.identity(RATIONAL, 3)
    assert (canonical_r(RATIONAL, 3) - r_from_T(ident)).is_zero()
    assert r_from_T(Tensor.from_entries(RATIONAL, (2, 2), {})).is_zero()
    # antisymmetric r gives a skew operator matrix
    for _ in range(10):
        r = random_antisym_r(rng, 3)
        T = T_from_r(r)
        assert all((T.dense[i][j] + T.dense[j][i]).is_zero()
                   for i in range(3) for j in range(3))


def test_oop_check_pinned_failure():
    pres = load("fixtures/exnov1")
    rep = regular_rep_admdiff(pres.binop("dot"), pres.linmap("D"),
                              pres.linmap("Q"), ("v1", "v2"))
    out = oop_check(Tensor.identity(RATIONAL, 2), rep, dot=pres.binop("dot"),
                    D=pres.linmap("D"), Q=pres.linmap("Q"))
    assert out["OOP_D"].holds and out["OOP_Q"].holds
    rep_prod = out["OOP_PROD"]
    assert rep_prod.verdict == "fails"
    assert rep_prod.witness == ("v1", "v1")
    # e1.e1 = e1 against T(e1.e1 + e1.e1) = 2 e1
    assert list(rep_prod.residual.dense) == [-1, 0]


def test_oop_identity_on_zinbiel_modules():
    # left multiplication by the Zinbiel product makes the identity a valid
    # splitting operator for the symmetrized product
    for fx in ("fixtures/zinb-deriv", "fixtures/zinb-nonderiv"):
        pres = load(fx)
        zin = pres.binop("zin")
        D, Q = pres.linmap("D"), pres.linmap("Q")
        rep = regular_rep_admdiff(zin, D, Q, pres.space.names)
        out = oop_check(Tensor.identity(RATIONAL, 3), rep,
                        dot=descendent_commdiff(zin), D=D, Q=Q)
        assert all_hold(out.values()), fx


def test_oop_zero_operator_holds():
    pres = load("fixtures/exnov1")
    circ = induce_novikov(pres.binop("dot"), pres.linmap("D"), pres.linmap("Q"),
                          q=F(-1, 2))
    rep = regular_rep_novikov(circ, ("v1", "v2"))
    out = oop_check(Tensor.from_entries(RATIONAL, (2, 2), {}), rep, circ=circ)
    assert out["OOP_PROD"].holds


def test_nybe_iff_oop_random():
    # an antisymmetric r solves the NYBE exactly when its operator is a
    # splitting operator for the dual regular module
    rng = random.Random(41)
    seen = set()
    for _ in range(60):
        n = rng.choice((2, 3))
        pres = random_quadruple(rng, n)
        circ = induce_novikov(pres.binop("dot"), pres.linmap("D"),
                              pres.linmap("Q"), q=F(-1, 2))
        p = Presentation(RATIONAL, pres.space, binops={"circ": circ})
        if not (check_axiom("NOV_LSYM", p).holds and check_axiom("NOV_RCOMM", p).holds):
            continue
        r = random_antisym_r(rng, n)
        solves = nybe_residual(r, circ).is_zero()
        dual = dual_rep_novikov(regular_rep_novikov(circ, pres.space.names))
        out = oop_check(T_from_r(r), dual, circ=circ)
        assert out["OOP_PROD"].holds == solves
        seen.add(solves)
    assert seen == {True, False}


def test_aybe_iff_oop_both_ways():
    # positive side: the canonical r inside the Zinbiel double
    dbl = zinbiel_double(load("fixtures/zinb-nonderiv"))
    dot, D, Q = dbl.binop("dot"), dbl.linmap("D"), dbl.linmap("Q")
    r = canonical_r(RATIONAL, 3)
    from novq import r_admissibility
    assert aybe_residual(r, dot).is_zero()
    assert r_admissibility(r, D, Q).holds
    dual = dual_rep_admdiff(regular_rep_admdiff(dot, D, Q, dbl.space.names))
    out = oop_check(T_from_r(r), dual, dot=dot, D=D, Q=Q)
    assert all_hold(out.values())

    # negative side: an r violating the tensor conditions must fail the
    # operator characterization too, and conversely
    rng = random.Random(13)
    seen = set()
    for _ in range(40):
        pres = random_quadruple(rng, rng.choice((2, 3)))
        dot, D, Q = pres.binop("dot"), pres.linmap("D"), pres.linmap("Q")
        r = random_antisym_r(rng, dot.dim)
        lhs = (aybe_residual(r, dot).is_zero()
               and r_admissibility(r, D, Q).holds)
        dual = dual_rep_admdiff(regular_rep_admdiff(dot, D, Q, pres.space.names))
        out = oop_check(T_from_r(r), dual, dot=dot, D=D, Q=Q)
        assert all_hold(out.values()) == lhs
        seen.add(lhs)
    assert seen == {True, False}


def test_adm_oop_induces_novikov_oop_symbolically():
    # a verified differential splitting operator stays one for the whole
    # deformed family, against the deformed module
    for fx in ("fixtures/zinb-deriv", "fixtures/zinb-nonderiv"):
        pres = load(fx).lift()
        zin = pres.binop("zin")
        D, Q = pres.linmap("D"), pres.linmap("Q")
        rep = regular_rep_admdiff(zin, D, Q, pres.space.names)
        T = Tensor.identity(POLY, 3)
        dot = descendent_commdiff(zin)
        assert all_hold(oop_check(T, rep, dot=dot, D=D, Q=Q).values())
        nrep = induced_rep_q(rep, D, Q)
        circ = induce_novikov(dot, D, Q)
        out = oop_check(T, nrep, circ=circ)
        assert out["OOP_PROD"].holds, fx


def test_oop_square_at_special_point():
    # at q = -1/2 the operator tensor solves the NYBE inside the semidirect
    # algebra, and the two module constructions agree entrywise
    qh = F(-1, 2)
    pres = load("fixtures/zinb-deriv")
    zin = pres.binop("zin")
    D, Q = pres.linmap("D"), pres.linmap("Q")
    rep = regular_rep_admdiff(zin, D, Q, pres.space.names)
    dot = descendent_commdiff(zin)
    circ = induce_novikov(dot, D, Q, q=qh)
    nrep = induced_rep_q(rep, D, Q, q=qh)
    dual = dual_rep_novikov(nrep)
    other = induced_rep_q(dual_rep_admdiff(rep), D, Q, q=qh)
    assert (dual.l - other.l).is_zero()
    base = Presentation(RATIONAL, pres.space, binops={"circ": circ})
    from novq.constructions import semidirect_novikov
    sd = semidirect_novikov(base, dual)
    r = r_from_T(Tensor.identity(RATIONAL, 3))
    assert nybe_residual(r, sd.binop("circ")).is_zero()


def test_prenov_canonical_solution_symbolic():
    # the canonical tensor solves the NYBE in the pre-Novikov semidirect
    # algebra, identically in q for both fixtures
    for fx in ("fixtures/zinb-deriv", "fixtures/zinb-nonderiv"):
        pres = load(fx).lift()
        lhd, rhd = pre_novikov_from_zinbiel(pres.binop("zin"), pres.linmap("D"),
                                            pres.linmap("Q"))
        circ = descendent_novikov(lhd, rhd)
        n = circ.dim
        basis = [i for i in range(n)]
        l = tuple(Tensor.einsum("i,ijk->kj", Tensor.basis(POLY, n, i), rhd) for i in basis)
        rr = tuple(Tensor.einsum("j,ijk->ki", Tensor.basis(POLY, n, i), lhd) for i in basis)
        rep = RepNov(pres.space.names, Tensor.stack(l), Tensor.stack(rr))
        base = Presentation(POLY, pres.space, binops={"circ": circ})
        from novq.constructions import semidirect_novikov
        sd = semidirect_novikov(base, dual_rep_novikov(rep))
        res = nybe_residual(canonical_r(POLY, n), sd.binop("circ"))
        assert res.is_zero(), fx


def test_coboundary_coincidence():
    # with the sign flip on r, the induced coproduct of the double matches the
    # Novikov coboundary at the special point
    dbl = zinbiel_double(load("fixtures/zinb-nonderiv"))
    dot, D, Q = dbl.binop("dot"), dbl.linmap("D"), dbl.linmap("Q")
    qh = F(-1, 2)
    r = canonical_r(RATIONAL, 3)
    circ = induce_novikov(dot, D, Q, q=qh)
    from novq import induce_nov_coalg
    lhs = induce_nov_coalg(delta_r(-r, dot), Q, D, q=qh)
    rhs = Delta_qr(r, circ)
    for i in range(6):
        e = Tensor.basis(RATIONAL, 6, i)
        assert (Tensor.einsum("i,ijk->jk", e, lhs) - Tensor.einsum("i,ijk->jk", e, rhs)).is_zero()


def test_coboundary_coincidence_all_q_with_derivation():
    dbl = zinbiel_double(load("fixtures/zinb-deriv")).lift()
    dot, D, Q = dbl.binop("dot"), dbl.linmap("D"), dbl.linmap("Q")
    r = canonical_r(POLY, 3)
    circ = induce_novikov(dot, D, Q)
    from novq import induce_nov_coalg
    lhs = induce_nov_coalg(delta_r(-r, dot), Q, D)
    rhs = Delta_qr(r, circ)
    for i in range(6):
        e = Tensor.basis(POLY, 6, i)
        assert (Tensor.einsum("i,ijk->jk", e, lhs) - Tensor.einsum("i,ijk->jk", e, rhs)).is_zero()


def test_delta_r_gives_diff_asi_bialgebra():
    # coboundary coproducts of verified admissible solutions assemble into a
    # differential bialgebra, for either sign of r
    dbl = zinbiel_double(load("fixtures/zinb-deriv"))
    dot, D, Q = dbl.binop("dot"), dbl.linmap("D"), dbl.linmap("Q")
    for r in (canonical_r(RATIONAL, 3), -canonical_r(RATIONAL, 3)):
        pres = Presentation(RATIONAL, dbl.space, binops={"dot": dot},
                            coops={"delta": delta_r(r, dot)},
                            maps={"D": D, "Q": Q})
        assert all_hold(check_diff_asi_bialgebra(pres).values())


def test_dimension_mismatch_rejected():
    pres = load("fixtures/exnov1")
    with pytest.raises(PresentationError):
        aybe_residual(Tensor.from_entries(RATIONAL, (3, 3), {}), pres.binop("dot"))
