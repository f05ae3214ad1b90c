"""The catalog compiler: one term per summand, hoisted sums, coefficients that all vanish."""

import itertools
import random
from fractions import Fraction as F

from genalg import random_quadruple
from interp_oracle import interp_check_axiom
from novq import RATIONAL, Presentation, Scalar, Space, Tensor, check_axiom, load
from novq.catalog import CATALOG, AxiomDef, compile_axiom


def test_every_axiom_compiles_to_at_most_eight_terms():
    counts = {aid: len(compile_axiom(aid).terms) for aid in CATALOG}
    assert max(counts.values()) <= 8, counts
    assert counts["FORM_NONDEG"] == 0  # decided by a determinant
    assert all(counts[aid] for aid, d in CATALOG.items() if d.expr is not None)
    # compiled once per axiom id
    assert all(compile_axiom(aid) is compile_axiom(aid) for aid in CATALOG)


def test_every_inner_sum_is_hoisted_into_one_factor():
    for aid, d in CATALOG.items():
        if d.expr is None:
            continue
        terms = compile_axiom(aid).terms
        assert len(terms) == len(d.expr[1]), aid  # one term per top-level summand
        # check_axiom's selector leads on legs ZA: Z starts the output and is in no other
        # operand, and the first variable's leg A is contracted away
        for _, spec, _ in terms:
            ins, out = spec.split("->")
            assert ins.startswith("ZA,") and "Z" not in ins[1:], (aid, spec)
            assert out.startswith("Z") and "A" not in out, (aid, spec)
        sums = compile_axiom(aid).sums
        assert not any("Z" in spec for s in sums for _, spec, _ in s), aid
        # check_axiom contracts the sums in order: each names only the sums before it
        assert all(slot[1] < j for j, s in enumerate(sums) for _, _, slots in s
                   for slot in slots if slot[0] == "sum"), aid
    for aid in ("NOV_BIALG_1", "NOV_BIALG_3", "BIALG_Q_1", "BIALG_Q_2", "BIALG_Q_3"):
        compiled = compile_axiom(aid)
        assert compiled.sums, aid
        assert any(slot[0] == "sum" for _, _, slots in compiled.terms for slot in slots), aid
    # Delta(a) + tau Delta(a) and Delta(b) + tau Delta(b) each occur twice in NOV_BIALG_3;
    # (D + q Q) a and (D + q Q) b twice each in BIALG_Q_3, and D + Q four times; each is
    # contracted once
    assert len(compile_axiom("NOV_BIALG_3").sums) == 2
    # in the order the compiler meets them, whatever the hash seed: Delta(b) + tau Delta(b)
    # in NOV_BIALG_3's first term, then Delta(a) + tau Delta(a)
    assert [s[0][1] for s in compile_axiom("NOV_BIALG_3").sums] == ["Bab->Bab", "Aab->Aab"]
    assert len(compile_axiom("BIALG_Q_3").sums) == 3
    # D + Q occurs five times in BIALG_Q_1, in either order of its terms, and is one sum
    d_plus_q = [("ab->ab", (("linmap", "D"),)), ("ab->ab", (("linmap", "Q"),))]
    assert len([s for s in compile_axiom("BIALG_Q_1").sums
                if sorted((spec, slots) for _, spec, slots in s) == d_plus_q]) == 1


def test_a_sum_inside_a_hoisted_sum_is_contracted_before_it(monkeypatch):
    # no catalog entry nests one sum in another; this made-up one does, (D + q Q) a inside
    # ((D + q Q) a) b - b ((D + q Q) a): the compiler lists the inner sum first, and
    # check_axiom, which contracts the sums in that order, agrees with the interpreter
    a, b, c = (("var", x) for x in "abc")
    inner = ("lin", (((1,), ("map", "D", a)), ((0, 1), ("map", "Q", a))))
    outer = ("lin", (((1,), ("op", "dot", inner, b)), ((-1,), ("op", "dot", b, inner))))
    expr = ("lin", (((1,), ("op", "dot", outer, c)), ((-1,), ("op", "dot", c, outer))))
    monkeypatch.setitem(CATALOG, "NESTED_SUM", AxiomDef(
        "NESTED_SUM", (("a", "A"), ("b", "A"), ("c", "A")), expr, uses_q=True))
    sums = compile_axiom("NESTED_SUM").sums
    assert [sorted(slot for _, _, slots in s for slot in slots) for s in sums] == [
        [("linmap", "D"), ("linmap", "Q")], [("binop", "dot"), ("binop", "dot"), ("sum", 0),
                                             ("sum", 0)]]
    rng, verdicts = random.Random(31), set()
    for n in (2, 3, 3):
        def rand(order):  # a product and maps of no special kind
            return Tensor.from_entries(RATIONAL, (n,) * order, {
                key: rng.choice((0, 0, 1, -1, F(1, 2))) for key in itertools.product(
                    range(n), repeat=order)})
        pres = Presentation(RATIONAL, Space(tuple(f"e{i}" for i in range(n))),
                            binops={"dot": rand(3)}, maps={"D": rand(2), "Q": rand(2)})
        for args, kw in (((pres,), {"q": F(rng.randint(-2, 2), 2)}), ((pres.lift(),), {})):
            got = check_axiom("NESTED_SUM", *args, **kw)
            assert got == interp_check_axiom("NESTED_SUM", *args, **kw)
            verdicts.add(got.verdict)
    assert "fails" in verdicts


def _random_coop(rng, n, ring):
    d = [[[Scalar.of(ring, rng.choice((0, 0, 1, -1, F(1, 2)))) for _ in range(n)]
          for _ in range(n)] for _ in range(n)]
    return Tensor.from_dense(ring, d)


def test_bialg_q_2_where_every_coefficient_vanishes():
    # BIALG_Q_2's terms all carry 1 + 2q, so at q = -1/2 none is left to contract
    rng = random.Random(12)
    cases = [load("fixtures/examp2-double"), load("fixtures/zinb-deriv-double")]
    for n in (2, 3):
        quad = random_quadruple(rng, n)
        cases.append(Presentation(RATIONAL, quad.space, binops=dict(quad.binops),
                                  coops={"delta": _random_coop(rng, n, RATIONAL)},
                                  maps=dict(quad.maps)))
    verdicts = set()
    for pres in cases:
        for q in (F(-1, 2), F(1, 3)):
            got = check_axiom("BIALG_Q_2", pres, q=q)
            assert got == interp_check_axiom("BIALG_Q_2", pres, q=q)
            verdicts.add((q, got.verdict))
        symbolic = check_axiom("BIALG_Q_2", pres.lift())
        assert symbolic == interp_check_axiom("BIALG_Q_2", pres.lift())
        assert symbolic.locus.contains(F(-1, 2))
    assert (F(-1, 2), "fails") not in verdicts and (F(1, 3), "fails") in verdicts
