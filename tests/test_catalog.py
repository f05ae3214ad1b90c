"""The catalog compiler: one term per summand, hoisted sums, coefficients that all vanish."""

import random
from fractions import Fraction as F

from genalg import random_quadruple
from interp_oracle import interp_check_axiom
from novq import RATIONAL, Presentation, Scalar, Tensor, check_axiom, load
from novq.catalog import CATALOG, compile_axiom


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
        # the first variable's basis vector leads, and its leg A is contracted away
        assert all(spec.startswith("A,") and "A" not in spec.split("->")[1]
                   for _, spec, _ in terms), aid
    for aid in ("NOV_BIALG_1", "NOV_BIALG_3", "BIALG_Q_1", "BIALG_Q_2", "BIALG_Q_3"):
        compiled = compile_axiom(aid)
        assert compiled.sums, aid
        assert any(slot[0] == "sum" for _, _, slots in compiled.terms for slot in slots), aid
    # Delta(a) + tau Delta(a) and Delta(b) + tau Delta(b) each occur twice in NOV_BIALG_3;
    # (D + q Q) a and (D + q Q) b twice each in BIALG_Q_3, and D + Q four times; each is
    # contracted once
    assert len(compile_axiom("NOV_BIALG_3").sums) == 2
    assert len(compile_axiom("BIALG_Q_3").sums) == 3
    # D + Q occurs five times in BIALG_Q_1, in either order of its terms, and is one sum
    d_plus_q = [("ab->ab", (("linmap", "D"),)), ("ab->ab", (("linmap", "Q"),))]
    assert len([s for s in compile_axiom("BIALG_Q_1").sums
                if sorted((spec, slots) for _, spec, slots in s) == d_plus_q]) == 1


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
