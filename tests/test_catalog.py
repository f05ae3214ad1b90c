"""The catalog compiler: one term per summand, hoisted sums, coefficients that all vanish."""

import itertools
import random
from fractions import Fraction as F

import oracles as orc
import pytest
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


def test_a_summand_with_no_factor_in_a_hoisted_sum_is_refused(monkeypatch):
    # (a - D a) b - b a: the summand a of the inner sum is a bare variable, with no factor
    # to lead its contraction, in either order of the two summands
    a, b = ("var", "a"), ("var", "b")
    for k, summands in enumerate([(((1,), a), ((-1,), ("map", "D", a))),
                                  (((-1,), ("map", "D", a)), ((1,), a))]):
        inner = ("lin", summands)
        expr = ("lin", (((1,), ("op", "dot", inner, b)), ((-1,), ("op", "dot", b, a))))
        aid = f"BARE_SUMMAND_{k}"
        monkeypatch.setitem(CATALOG, aid, AxiomDef(aid, (("a", "A"), ("b", "A")), expr))
        with pytest.raises(ValueError, match=f"^{aid}: a summand of an inner sum has no factor$"):
            compile_axiom(aid)


# -- naive oracles for the template-built axioms that no other test expands ----------
#
# Each residual below is spelled from the definition with the bare index loops of
# tests/oracles.py; none goes through the catalog's templates.

def _q_part(residual: list, d: int, sign: int = 1) -> list:
    """The q^d coefficient of each entry, times sign, as a constant poly dict."""
    return [orc.pconst(sign * r.get(d, 0)) for r in residual]


def _spec_def_6(dq, dd, a, b, c) -> list:
    # (a . Q b) . D c - a . Q(b . D c), minus the same with a and b swapped, read off the
    # tables dq of x . Q(y) and dd of x . D(y)
    n = len(dq)
    out = []
    for k in range(n):
        r = orc.pzero()
        for m in range(n):
            for x, y, sign in ((a, b, 1), (b, a, -1)):
                left = orc.pmul(dq[x][y][m], dd[m][c][k])  # (x . Q y)_m (e_m . D c)_k
                right = orc.pmul(dd[y][c][m], dq[x][m][k])  # (y . D c)_m (x . Q e_m)_k
                r = orc.padd(r, orc.pmul(orc.pconst(sign), orc.psub(left, right)))
        out.append(r)
    return out


def _oracles(pres: Presentation) -> dict:
    """axiom id -> (arity, the naive residual at basis indices)."""
    tables = {k: orc.op_table(pres.binop(k)) for k in ("circ", "f", "dot", "zin", "lpre")}
    ct, ft, dot = tables["circ"], tables["f"], tables["dot"]
    dt, qt = orc.map_table(pres.linmap("D")), orc.map_table(pres.linmap("Q"))
    form = orc.tensor2_table(pres.form("B"))
    n = pres.dim
    # the family circ + q f: DEFORM_1-4 are the q^2 and q^1 parts of its two identities
    fam = [[[orc.padd(ct[i][j][k], orc.pmul(orc.QSYM, ft[i][j][k])) for k in range(n)]
            for j in range(n)] for i in range(n)]
    dot_q = orc.induced_product(dot, dt, qt, 0, orc.pconst(1))  # a . Q(b)
    dot_d = orc.induced_product(dot, dt, qt, 1, orc.pzero())  # a . D(b)
    return {
        "DEFORM_1": (3, lambda a, b, c: _q_part(orc.nov_lsym_residual(fam, a, b, c), 2)),
        "DEFORM_2": (3, lambda a, b, c: _q_part(orc.nov_lsym_residual(fam, a, b, c), 1, -1)),
        "DEFORM_3": (3, lambda a, b, c: _q_part(orc.nov_rcomm_residual(fam, a, b, c), 2)),
        "DEFORM_4": (3, lambda a, b, c: _q_part(orc.nov_rcomm_residual(fam, a, b, c), 1)),
        "SPEC_DEF_5": (3, lambda a, b, c: orc.nov_lsym_residual(dot_q, a, b, c)),
        "SPEC_DEF_6": (3, lambda a, b, c: _spec_def_6(dot_q, dot_d, a, b, c)),
        "ZINB_ADMISS": (2, lambda a, b: orc.admiss_residual(tables["zin"], dt, qt, a, b)),
        "PRE_NOV_4": (3, lambda a, b, c: orc.nov_rcomm_residual(tables["lpre"], a, b, c)),
        "FORM_SYM": (2, lambda a, b: [orc.psub(form[a][b], form[b][a])]),
    }


def test_template_built_axioms_agree_with_naive_residuals():
    rng, seen = random.Random(2024), set()
    for case in range(12):
        n = 2 + case % 2
        # sparse entries, so that some identities hold and some fail past the first tuple
        weights = (0,) * (2 + case % 5) + (1, -1, F(1, 2))

        def rand(order):
            return Tensor.from_entries(RATIONAL, (n,) * order, {
                key: rng.choice(weights) for key in itertools.product(range(n), repeat=order)})
        pres = Presentation(RATIONAL, Space(tuple(f"e{i}" for i in range(n))),
                            binops={k: rand(3) for k in ("circ", "f", "dot", "zin", "lpre")},
                            maps={"D": rand(2), "Q": rand(2)}, forms={"B": rand(2)})
        for aid, (arity, residual_at) in _oracles(pres).items():
            want = next(((tup, res) for tup in itertools.product(range(n), repeat=arity)
                         if any(res := residual_at(*tup))), None)
            got = check_axiom(aid, pres)
            if want is None:
                assert got.verdict == "holds", (case, aid)
                continue
            assert got.verdict == "fails", (case, aid)
            assert got.witness == tuple(pres.space.names[i] for i in want[0]), (case, aid)
            assert [orc.from_scalar(x) for x in got.residual.dense] == want[1], (case, aid)
            if want[0] != (0,) * arity:
                seen.add(aid)
    assert seen == set(_oracles(pres))  # each fails past its first tuple in some case
