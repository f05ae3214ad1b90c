import random
from fractions import Fraction

import pytest

import genalg
import oracles as orc
from genalg import random_quadruple
from novq import (POLY, Presentation, PresentationError, QLocus, RATIONAL,
                  Scalar, Space, Tensor, all_hold,
                  check_axiom, induce_novikov, is_admissible_quadruple, load,
                  polynomial, scan_residuals, vanishing_locus)
from novq.structures import ALL_Q, CATALOG, EMPTY, FINITE, combine_loci, dualize


def test_space_rejects_duplicates():
    with pytest.raises(PresentationError):
        Space(("e1", "e1"))
    assert Space(("a", "b", "c")).dim == 3


def _pres_with_product(c, name="circ"):
    n = len(c)
    op = Tensor.from_dense(RATIONAL, [[[Scalar.of(RATIONAL, c[i][j][k]) for k in range(n)]
                                       for j in range(n)] for i in range(n)])
    return Presentation(RATIONAL, Space(tuple("e%d" % (i + 1) for i in range(n))),
                        binops={name: op})


def test_missing_slot_errors():
    pres = _pres_with_product([[[0]]])
    with pytest.raises(PresentationError):
        pres.binop("dot")
    with pytest.raises(PresentationError):
        pres.linmap("D")
    with pytest.raises(PresentationError):
        pres.coop("delta")


def test_nov_lsym_pinned_failure():
    # e1 circ e2 = e1, every other product zero
    c = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
    rep = check_axiom("NOV_LSYM", _pres_with_product(c))
    assert rep.verdict == "fails"
    assert rep.witness == ("e1", "e2", "e2")
    assert [x.val for x in rep.residual.dense] == [1, 0]
    assert str(rep) == "NOV_LSYM: fails at (e1, e2, e2)"


def test_cocomm_pinned_failure():
    pres = load("fixtures/exnov1")
    d = [[[0] * 2 for _ in range(2)] for _ in range(2)]
    d[0][0][1] = 1  # delta(e1) = e1 (x) e2
    cop = Tensor.from_dense(RATIONAL, [[[Scalar.of(RATIONAL, x) for x in row] for row in plane]
                                      for plane in d])
    broken = Presentation(RATIONAL, pres.space, binops=dict(pres.binops),
                          coops={"delta": cop}, maps=dict(pres.maps))
    rep = check_axiom("COCOMM", broken)
    assert rep.verdict == "fails"
    assert rep.witness == ("e1",)


def test_witness_is_lexicographically_first():
    # the zero product fails COMM nowhere; a full-support non-symmetric one
    # must report the row-major first offending tuple
    c = [[[0, 0], [1, 0]], [[2, 0], [0, 0]]]
    rep = check_axiom("COMM", _pres_with_product(c, name="dot"))
    assert rep.witness == ("e1", "e2")


def test_axiom_verdicts_match_oracle_random():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.choice((2, 3))
        c = [[[Fraction(rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)]
             for _ in range(n)]
        pres = _pres_with_product(c)
        ct = orc.op_table(pres.binop("circ"))
        for axiom, fn in (("NOV_LSYM", orc.nov_lsym_residual),
                          ("NOV_RCOMM", orc.nov_rcomm_residual)):
            rep = check_axiom(axiom, pres)
            clean = all(orc.pis_zero(x)
                        for a in range(n) for b in range(n) for y in range(n)
                        for x in fn(ct, a, b, y))
            assert rep.holds == clean


def test_scan_residuals_locus():
    ring = POLY
    halfplus = polynomial((Fraction(1, 2), 1))  # q + 1/2
    items = [(("w1",), halfplus * polynomial((1, 1))), (("w2",), halfplus)]
    rep = scan_residuals("X", ring, items)
    assert rep.verdict == "holds_on_locus"
    assert rep.locus.points == {Fraction(-1, 2)}
    assert str(rep) == "X: holds_on_locus {-1/2}"

    rep = scan_residuals("X", ring, [(("w",), Scalar.zero(POLY))])
    assert rep.holds and rep.locus.kind == ALL_Q

    rep = scan_residuals("X", RATIONAL, [(("w",), Scalar.of(RATIONAL, 2))])
    assert rep.verdict == "fails" and rep.witness == ("w",)


def test_vanishing_locus_kinds():
    assert vanishing_locus([Scalar.zero(POLY)]).kind == ALL_Q
    assert vanishing_locus([polynomial((1,))]).kind == EMPTY

    loc = vanishing_locus([polynomial((Fraction(1, 2), Fraction(3, 2), 1))])
    assert loc.kind == FINITE
    assert loc.points == {Fraction(-1, 2), Fraction(-1)}
    assert str(loc) == "{-1/2, -1}"

    # q^2 - 2 vanishes only at irrational points
    loc = vanishing_locus([polynomial((-2, 0, 1))])
    assert loc.kind == EMPTY and not loc.points and loc.has_nonrational_factor
    assert str(loc) == "{} (possible non-rational zeros)"

    # common zeros across several entries intersect
    loc = vanishing_locus([polynomial((Fraction(1, 2), Fraction(3, 2), 1)),
                           polynomial((Fraction(1, 2), 1))])
    assert loc.points == {Fraction(-1, 2)}


def test_combine_loci():
    a = QLocus(FINITE, frozenset({Fraction(-1, 2), Fraction(0)}))
    b = QLocus(FINITE, frozenset({Fraction(-1, 2)}))
    assert combine_loci([a, b]).points == {Fraction(-1, 2)}
    assert combine_loci([a, QLocus(ALL_Q)]).points == a.points
    assert combine_loci([a, QLocus(EMPTY)]).is_empty()
    assert QLocus(ALL_Q).contains(Fraction(17, 3))
    assert not b.contains(0)


def test_lift_and_specialize():
    pres = load("fixtures/exnov1")
    lifted = pres.lift()
    assert lifted.ring == POLY
    back = lifted.specialize(Fraction(0))
    assert back.ring == RATIONAL
    got = orc.op_table(back.binop("dot"))
    want = orc.op_table(pres.binop("dot"))
    assert got == want


def test_symbolic_holds_survives_specialization():
    rng = random.Random(14)
    pres = random_quadruple(rng, 3).lift()
    circ = induce_novikov(pres.binop("dot"), pres.linmap("D"), pres.linmap("Q"))
    sym = Presentation(POLY, pres.space, binops={"circ": circ})
    assert check_axiom("NOV_LSYM", sym).holds
    for _ in range(20):
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        spec = sym.specialize(x)
        assert check_axiom("NOV_LSYM", spec).holds


def test_is_admissible_quadruple():
    rng = random.Random(2)
    for n in (2, 3):
        pres = random_quadruple(rng, n)
        assert all_hold(is_admissible_quadruple(pres).values())
    bad = load("fixtures/exnov1")
    tweaked = Presentation(RATIONAL, bad.space, binops=dict(bad.binops),
                           maps={"D": bad.linmap("D"), "Q": bad.linmap("D")})
    assert not all_hold(is_admissible_quadruple(tweaked).values())


def test_dualize_involution():
    rng = random.Random(8)
    pres = random_quadruple(rng, 3)
    full = Presentation(RATIONAL, pres.space, binops=dict(pres.binops),
                        coops={"delta": _random_coop(rng, 3)}, maps=dict(pres.maps))
    twice = dualize(dualize(full))
    assert orc.op_table(twice.binop("dot")) == orc.op_table(full.binop("dot"))
    assert orc.cop_table(twice.coop("delta")) == orc.cop_table(full.coop("delta"))


def _random_coop(rng, n):
    d = [[[Scalar.of(RATIONAL, rng.randint(-1, 1)) for _ in range(n)]
          for _ in range(n)] for _ in range(n)]
    return Tensor.from_dense(RATIONAL, d)


def test_duality_swaps_product_and_coproduct_axioms():
    # a Novikov product, read as a coproduct on the dual side, satisfies the
    # coalgebra pair exactly when the product satisfies the algebra pair
    pres = load("fixtures/exnov1")
    circ = induce_novikov(pres.binop("dot"), pres.linmap("D"), pres.linmap("Q"),
                          q=Fraction(-1, 2))
    p = Presentation(RATIONAL, pres.space, binops={"circ": circ})
    dual = dualize(p)
    assert check_axiom("NOV_COALG_1", dual, {"Delta": "circ"}).holds
    assert check_axiom("NOV_COALG_2", dual, {"Delta": "circ"}).holds

    c = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]  # fails NOV_LSYM
    dual_bad = dualize(_pres_with_product(c))
    assert not check_axiom("NOV_COALG_1", dual_bad, {"Delta": "circ"}).holds


def test_check_axiom_rejects_unknown_id():
    with pytest.raises(KeyError):
        check_axiom("NO_SUCH_AXIOM", _pres_with_product([[[0]]]))


def _nodes(e):
    """Expression nodes of a catalog syntax tree (tuples tagged by a kind string)."""
    if isinstance(e, tuple):
        if e and isinstance(e[0], str):
            yield e
        for x in e:
            yield from _nodes(x)


def test_catalog_invariants_the_evaluator_relies_on():
    for aid, axdef in CATALOG.items():
        if axdef.expr is None:
            continue
        nodes = list(_nodes(axdef.expr))
        # every variable occurs, so each one is a leg of the evaluated slice
        assert {n[1] for n in nodes if n[0] == "var"} == {v for v, _ in axdef.variables}, aid
        # module actions only where a module variable makes check_axiom demand a rep
        if any(n[0] in ("rep", "rmap") for n in nodes):
            assert any(sp == "V" for _, sp in axdef.variables), aid
        # q occurs only in the axioms marked uses_q
        if not axdef.uses_q:
            assert all(len(c) <= 1 for n in nodes if n[0] in ("lin", "mlin") for c, _ in n[1]), aid


def test_check_axiom_contracts_once_per_first_index_not_per_tuple(monkeypatch):
    # counts only: a return to per-tuple evaluation makes n^3 times the contractions
    from novq.catalog import compile_axiom
    n = 6
    rng = random.Random(6)
    # k[x]/(x^6) in a random basis: commutative and associative, hence Novikov
    c = genalg.change_basis(genalg.seed_products(n)[1], genalg.random_invertible(rng, n))
    pres = _pres_with_product(c)
    calls = []
    combination = Tensor.combination.__func__

    def counted(cls, terms):
        terms = list(terms)
        calls.append(len(terms))
        return combination(cls, terms)

    monkeypatch.setattr(Tensor, "combination", classmethod(counted))
    assert check_axiom("NOV_LSYM", pres).holds  # a full scan, no early exit
    terms = len(compile_axiom("NOV_LSYM").terms)
    assert 0 < sum(calls) <= n * terms < n ** 3


def test_check_axiom_stacks_each_constant_once(monkeypatch):
    # counts only: a module stores its operator families as tensors, so none is stacked
    from novq.constructions import regular_rep_novikov
    pres = load("fixtures/examp2-double")
    circ = induce_novikov(pres.binop("dot"), pres.linmap("D"), pres.linmap("Q"), q=Fraction(-1, 2))
    rep = regular_rep_novikov(circ, pres.space.names)
    calls = []
    stack = Tensor.stack.__func__

    def counted(cls, parts):
        calls.append(len(parts))
        return stack(cls, parts)

    monkeypatch.setattr(Tensor, "stack", classmethod(counted))
    assert check_axiom("REP_NOV_1", Presentation(RATIONAL, pres.space, binops={"circ": circ}),
                       rep=rep).holds
    assert calls == []


def _family(ring, alg_dim, dim):
    entries = {(0, 0, dim - 1): Scalar.one(ring)} if alg_dim else {}
    return Tensor.from_entries(ring, (alg_dim, dim, dim), entries)


def test_module_family_must_be_one_order3_tensor():
    from novq import RepAdmDiff, RepNov
    maps = tuple(Tensor.identity(RATIONAL, 2) for _ in range(2))
    fam, endo = _family(RATIONAL, 2, 2), Tensor.identity(RATIONAL, 2)
    for build in (lambda: RepNov(("v1", "v2"), maps, fam), lambda: RepNov(("v1", "v2"), fam, maps),
                  lambda: RepAdmDiff(("v1", "v2"), maps, endo, endo),
                  lambda: RepNov(("v1", "v2"), fam, Tensor.identity(RATIONAL, 2))):
        with pytest.raises(PresentationError, match=r"shape \(alg_dim, dim, dim\) = "
                                                    r"\(alg_dim, 2, 2\)"):
            build()


def test_module_family_shapes_are_checked():
    from novq import RepAdmDiff, RepNov
    endo = Tensor.identity(RATIONAL, 2)
    with pytest.raises(PresentationError, match="does not match module dimension"):
        RepNov(("v1", "v2"), _family(RATIONAL, 2, 3), _family(RATIONAL, 2, 3))
    with pytest.raises(PresentationError, match="does not match module dimension"):
        RepAdmDiff(("v1", "v2"), _family(RATIONAL, 2, 2), Tensor.identity(RATIONAL, 3), endo)
    with pytest.raises(PresentationError, match="need matching left and right operator families"):
        RepNov(("v1", "v2"), _family(RATIONAL, 2, 2), _family(RATIONAL, 3, 2))
    with pytest.raises(PresentationError, match="need a nonempty operator family"):
        RepAdmDiff(("v1", "v2"), _family(RATIONAL, 0, 2), endo, endo)
    rep = RepNov(["v1", "v2"], _family(RATIONAL, 3, 2), _family(RATIONAL, 3, 2))
    assert (rep.names, rep.ring, rep.dim, rep.alg_dim) == (("v1", "v2"), RATIONAL, 2, 3)
    assert rep.lift().ring == POLY and rep.lift().l == _family(POLY, 3, 2)


def test_module_rejects_mixed_rings():
    from novq import RepAdmDiff, RepNov
    from novq.exactcore import RingMismatchError
    with pytest.raises(RingMismatchError):
        RepNov(("v1", "v2"), _family(RATIONAL, 2, 2), _family(POLY, 2, 2))
    with pytest.raises(RingMismatchError):
        RepAdmDiff(("v1", "v2"), _family(RATIONAL, 2, 2), Tensor.identity(RATIONAL, 2),
                   Tensor.identity(POLY, 2))
