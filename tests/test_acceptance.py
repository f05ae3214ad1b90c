"""End-to-end acceptance run, one test per numbered shipping criterion.

Each test prints a single `criterion N: pass/fail` stamp (visible under
pytest -s) and enforces its runtime budget with time.monotonic.  All
comparisons are exact; nothing here tolerates an epsilon.
"""

import contextlib
import functools
import io
import random
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import genalg
import oracles as orc
from novq import (ADMISSIBLE, NOV_BIALG, POLY, Presentation, RATIONAL, RepAdmDiff, RepNov,
                  Scalar, Space, T_from_r, Tensor, all_hold, aybe_residual, canonical_r,
                  check_all, check_axiom, descendent_commdiff, double_induced_family,
                  dual_rep_admdiff, dual_rep_novikov, family_difference_locus,
                  induce_nov_coalg, induce_novikov, load,
                  novikov_bialgebra_locus, nybe_residual, oop_check, parse,
                  prenov_double_family, r_admissibility, scan_residuals,
                  semidirect_novikov, zinbiel_double)
from novq.catalog import _catalog
from novq.cli import main as cli_main
from novq.constructions import regular_rep_admdiff, regular_rep_novikov
from novq.liewindow import (WindowSpec, _bracket, _cobracket,
                            _positions, polyalg_window_check,
                            window_lie_bialgebra_check)
from novq.structures import ALL_Q, FINITE

F = Fraction


def _stamped(n, limit=None):
    """Print one pass/fail line for criterion n and enforce its time budget."""
    def deco(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            t0 = time.monotonic()
            try:
                fn(*args, **kwargs)
                dt = time.monotonic() - t0
                if limit is not None:
                    assert dt < limit, f"took {dt:.3f}s, budget {limit}s"
            except BaseException:
                print(f"criterion {n}: fail")
                raise
            print(f"criterion {n}: pass ({dt:.3f}s)")
        return run
    return deco


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


@_stamped(1, 0.1)
def test_criterion_1():
    code, _ = _cli(["verify", "fixtures/exnov1", "--profile", "diff-asi"])
    assert code == 0
    with tempfile.TemporaryDirectory() as tmp:
        target = str(Path(tmp) / "induced")
        code, _ = _cli(["induce", "fixtures/exnov1", "--q", "-1/2",
                        "--emit", target])
        assert code == 0
        pres = parse(Path(target).read_text(encoding="utf-8"))
    t = orc.op_table(pres.binop("circ"))
    assert t[0][0] == [orc.pconst(F(-1, 2)), {}]
    assert t[0][1] == [{}, orc.pconst(1)]
    assert t[1][0] == [{}, orc.pconst(F(-1, 2))]
    assert t[1][1] == [{}, {}]
    d = orc.cop_table(pres.coop("Delta"))
    assert d[1][1][1] == orc.pconst(F(-1, 2))
    assert sum(1 for p in d for row in p for x in row if x) == 1


@_stamped(2, 5.0)
def test_criterion_2():
    dbl = zinbiel_double(load("fixtures/zinb-nonderiv"))
    locus = novikov_bialgebra_locus(dbl)
    assert locus.kind == FINITE
    assert locus.points == {F(-1, 2), F(-1)}
    assert locus.has_nonrational_factor is False
    code, out = _cli(["locus", "fixtures/examp2-double"])
    assert code == 0 and out.strip() == "{-1/2, -1}"

    src = load("fixtures/zinb-nonderiv")
    pa = prenov_double_family(src)
    pb = double_induced_family(src)
    diff = family_difference_locus(pa, pb)
    assert diff.kind == FINITE and diff.points == {F(-1, 2)}
    at_half = [p.specialize(F(-1, 2)) for p in (pa, pb)]
    assert (orc.op_table(at_half[0].binop("circ"))
            == orc.op_table(at_half[1].binop("circ")))
    assert (orc.cop_table(at_half[0].coop("Delta"))
            == orc.cop_table(at_half[1].coop("Delta")))
    at_one = [p.specialize(F(-1)) for p in (pa, pb)]
    assert (orc.op_table(at_one[0].binop("circ"))
            != orc.op_table(at_one[1].binop("circ"))
            or orc.cop_table(at_one[0].coop("Delta"))
            != orc.cop_table(at_one[1].coop("Delta")))


@_stamped(3, 5.0)
def test_criterion_3():
    locus = novikov_bialgebra_locus(zinbiel_double(load("fixtures/zinb-deriv")))
    assert locus.kind == ALL_Q
    code, out = _cli(["locus", "fixtures/zinb-deriv-double"])
    assert code == 0 and out.strip() == "all q"

    src = load("fixtures/zinb-deriv")
    pa = prenov_double_family(src)
    pb = double_induced_family(src)
    assert orc.op_table(pa.binop("circ")) == orc.op_table(pb.binop("circ"))
    assert orc.cop_table(pa.coop("Delta")) == orc.cop_table(pb.coop("Delta"))
    assert family_difference_locus(pa, pb).kind == ALL_Q


@_stamped(4, 2.0)
def test_criterion_4():
    # derivation-Q fixture: the canonical element solves the equation for all q
    dbl = zinbiel_double(load("fixtures/zinb-deriv")).lift()
    circ6 = induce_novikov(dbl.binop("dot"), dbl.linmap("D"), dbl.linmap("Q"))
    assert nybe_residual(canonical_r(POLY, 3), circ6).is_zero()

    # non-derivation fixture: the residual vanishes exactly at q = -1/2
    dbl = zinbiel_double(load("fixtures/zinb-nonderiv")).lift()
    circ6 = induce_novikov(dbl.binop("dot"), dbl.linmap("D"), dbl.linmap("Q"))
    rep = scan_residuals("NYBE", POLY,
                         [(("r",), nybe_residual(canonical_r(POLY, 3), circ6))])
    assert rep.verdict == "holds_on_locus"
    assert rep.locus.kind == FINITE and rep.locus.points == {F(-1, 2)}
    half = zinbiel_double(load("fixtures/zinb-nonderiv"))
    circ = induce_novikov(half.binop("dot"), half.linmap("D"), half.linmap("Q"),
                          q=F(-1, 2))
    assert nybe_residual(canonical_r(RATIONAL, 3), circ).is_zero()


@_stamped(5, 10.0)
def test_criterion_5():
    reports = polyalg_window_check(8)
    assert set(reports) == set(NOV_BIALG) and len(reports) == 7
    assert all(r.verdict == "holds" for r in reports.values())


@_stamped(6, 2.0)
def test_criterion_6():
    pres = load("fixtures/exnov1")
    circ = induce_novikov(pres.binop("dot"), pres.linmap("D"),
                          pres.linmap("Q"), q=F(-1, 2))
    degs = range(-3, 4)
    at = _positions(range(-8, 6))  # bracket outputs -7..5, cobracket outputs -8..4
    back = sorted(at)
    B = _bracket(circ, at, degs, degs)
    assert all(back[d] == back[m] + back[n] - 1 for _, m, _, n, _, d, _ in B.nonzero())
    for m in degs:
        for n in degs:
            got = lambda i, j: [orc.from_scalar(B.entry(i, at[m], j, at[n], k, at[m + n - 1]))
                                for k in range(2)]
            assert got(0, 1) == [{}, orc.pconst(F(m) + F(n, 2))]
            assert got(0, 0) == [orc.pconst(F(n - m, 2)), {}]
            assert got(1, 1) == [{}, {}]

    qv = F(-1, 2)
    Delta = induce_nov_coalg(pres.coop("delta"), pres.linmap("Q"), pres.linmap("D"), qv)
    C = _cobracket(Delta, at, degs, degs)
    # e1 has no cobracket, and off the j + k = m - 2 diagonal every component vanishes
    assert all(i == 1 and back[j] + back[k] == back[m] - 2
               for i, m, _, j, _, k, _ in C.nonzero())
    for m in degs:
        for i in range(-8, 9):
            j, k = -i - 2, m + i
            if not (-3 <= j <= 3 and -3 <= k <= 3):
                continue
            coeff = F(-i - 1) - F(m, 2)
            for a in range(2):
                for b in range(2):
                    want = coeff if (a, b) == (1, 1) else F(0)
                    got = C.entry(1, at[m], a, at[j], b, at[k])
                    assert orc.from_scalar(got) == orc.pconst(want)

    res = window_lie_bialgebra_check(pres, WindowSpec(-3, 3, qv))
    assert res.holds and len(res.reports) == 5
    assert res.jacobi_checked > 0


# -- criterion 7: randomized property suites ---------------------------------------

def _suite_induced_novikov():
    # admissible quadruple -> the whole deformation family is Novikov, symbolically
    rng = random.Random(101)
    for case in range(200):
        n = 3 if case % 4 == 0 else 2
        quad = genalg.random_quadruple(rng, n)
        assert all_hold(check_all(ADMISSIBLE, quad).values())
        lifted = quad.lift()
        circ = induce_novikov(lifted.binop("dot"), lifted.linmap("D"),
                              lifted.linmap("Q"))
        p = Presentation(POLY, lifted.space, binops={"circ": circ})
        assert check_axiom("NOV_LSYM", p).verdict == "holds"
        assert check_axiom("NOV_RCOMM", p).verdict == "holds"


def _suite_semidirect_iff():
    # the semidirect product is Novikov exactly when the operators form a module
    rng = random.Random(102)
    rep_ids = ("REP_NOV_1", "REP_NOV_2", "REP_NOV_3", "REP_NOV_4")
    seen = set()
    for case in range(200):
        n = 3 if case % 5 == 0 else 2
        quad = genalg.random_quadruple(rng, n)
        circ = induce_novikov(quad.binop("dot"), quad.linmap("D"),
                              quad.linmap("Q"), q=F(rng.randint(-2, 2), 2))
        base = Presentation(RATIONAL, quad.space, binops={"circ": circ})
        vnames = tuple(f"v{i + 1}" for i in range(n))
        rep = regular_rep_novikov(circ, vnames)
        if case % 2:
            l = [list(map(list, mat)) for mat in rep.l.dense]
            r = [list(map(list, mat)) for mat in rep.r.dense]
            tgt = rng.choice((l, r))
            tgt[rng.randrange(n)][rng.randrange(n)][rng.randrange(n)] = \
                Scalar.of(RATIONAL, rng.randint(-2, 2))
            rep = RepNov(vnames, Tensor.stack([Tensor.from_dense(RATIONAL, m) for m in l]),
                         Tensor.stack([Tensor.from_dense(RATIONAL, m) for m in r]))
        is_module = all(check_axiom(a, base, rep=rep).holds for a in rep_ids)
        sd = semidirect_novikov(base, rep)
        is_novikov = (check_axiom("NOV_LSYM", sd).holds
                      and check_axiom("NOV_RCOMM", sd).holds)
        assert is_module == is_novikov
        seen.add(is_novikov)
    assert seen == {True, False}


def _suite_ybe_oop():
    # tensor solutions of both equations coincide with splitting operators
    rng = random.Random(103)
    exa = load("fixtures/exnov1")
    adm = [(exa.binop("dot"), exa.linmap("D"), exa.linmap("Q"), exa.space.names)]
    for fx in ("fixtures/zinb-deriv", "fixtures/zinb-nonderiv"):
        z = load(fx)
        adm.append((descendent_commdiff(z.binop("zin")), z.linmap("D"),
                    z.linmap("Q"), z.space.names))
        d6 = zinbiel_double(z)
        adm.append((d6.binop("dot"), d6.linmap("D"), d6.linmap("Q"),
                    d6.space.names))
    novs = []
    for dot, D, Q, names in adm:
        novs.append((induce_novikov(dot, D, Q, q=F(-1, 2)), names))

    seen_a, seen_n = set(), set()
    for case in range(200):
        which = case % len(adm)
        dot, D, Q, names = adm[which]
        n = dot.dim
        if n == 6 and case % 3 == 0:
            r = canonical_r(RATIONAL, 3)
        elif case % 11 == 0:
            r = Tensor.from_entries(RATIONAL, (n, n), {})
        else:
            r = genalg.random_antisym_r(rng, n)
        lhs = (aybe_residual(r, dot).is_zero()
               and r_admissibility(r, D, Q).holds)
        dual = dual_rep_admdiff(regular_rep_admdiff(dot, D, Q, names))
        out = oop_check(T_from_r(r), dual, dot=dot, D=D, Q=Q)
        assert all_hold(out.values()) == lhs
        seen_a.add(lhs)

        circ, names = novs[which]
        solves = nybe_residual(r, circ).is_zero()
        ndual = dual_rep_novikov(regular_rep_novikov(circ, names))
        out = oop_check(T_from_r(r), ndual, circ=circ)
        assert out["OOP_PROD"].holds == solves
        seen_n.add(solves)
    assert seen_a == {True, False}
    assert seen_n == {True, False}


def _rand_op(rng, names):
    n = len(names)
    c = [[[F(rng.randint(-2, 2)) if rng.random() < 0.4 else F(0)
           for _ in range(n)] for _ in range(n)] for _ in range(n)]
    rows = tuple(tuple(tuple(Scalar.of(RATIONAL, x) for x in row) for row in plane)
                 for plane in c)
    return Tensor.from_dense(RATIONAL, rows)


def _rand_cop(rng, n):
    images = []
    for _ in range(n):
        rows = tuple(tuple(Scalar.of(RATIONAL,
                                     F(rng.randint(-2, 2)) if rng.random() < 0.4
                                     else F(0))
                           for _ in range(n)) for _ in range(n))
        images.append(Tensor.from_dense(RATIONAL, rows))
    return Tensor.stack(images)


def _rand_map(rng, n):
    return Tensor.from_dense(RATIONAL, tuple(
        tuple(Scalar.of(RATIONAL, F(rng.randint(-2, 2))) for _ in range(n))
        for _ in range(n)))


def _first_product_failure(names, arity, residual_at):
    n = len(names)
    tuples = ([(a, b) for a in range(n) for b in range(n)] if arity == 2 else
              [(a, b, c) for a in range(n) for b in range(n) for c in range(n)])
    for tup in tuples:
        res = residual_at(*tup)
        if any(not orc.pis_zero(x) for x in res):
            return tuple(names[i] for i in tup), res
    return None, None


def _first_cop_failure(names, residual_at):
    for a in range(len(names)):
        flat = residual_at(a)
        while flat and isinstance(flat[0], list):
            flat = [x for sub in flat for x in sub]
        if any(not orc.pis_zero(x) for x in flat):
            return (names[a],)
    return None


def _suite_oracle_agreement():
    # reported verdicts, witnesses and residuals match naive index expansions
    rng = random.Random(104)
    for case in range(200):
        n = rng.choice((2, 3))
        names = tuple(f"e{i + 1}" for i in range(n))
        space = Space(names)
        op = _rand_op(rng, names)
        cop = _rand_cop(rng, n)
        dm, qm = _rand_map(rng, n), _rand_map(rng, n)
        pres = Presentation(ring=RATIONAL, space=space,
                            binops={"dot": op, "circ": op, "zin": op},
                            coops={"delta": cop}, maps={"D": dm, "Q": qm})
        ct = orc.op_table(op)
        dt = orc.map_table(dm)
        qt = orc.map_table(qm)
        checks = [
            ("COMM", 2, lambda a, b: orc.comm_residual(ct, a, b)),
            ("ASSOC", 3, lambda a, b, c: orc.assoc_residual(ct, a, b, c)),
            ("NOV_LSYM", 3, lambda a, b, c: orc.nov_lsym_residual(ct, a, b, c)),
            ("NOV_RCOMM", 3, lambda a, b, c: orc.nov_rcomm_residual(ct, a, b, c)),
            ("ZINBIEL", 3, lambda a, b, c: orc.zinbiel_residual(ct, a, b, c)),
            ("DERIV", 2, lambda a, b: orc.deriv_residual(ct, dt, a, b)),
            ("ADMISS", 2, lambda a, b: orc.admiss_residual(ct, dt, qt, a, b)),
        ]
        aid, arity, fn = checks[case % len(checks)]
        rep = check_axiom(aid, pres)
        witness, res = _first_product_failure(names, arity, fn)
        if witness is None:
            assert rep.verdict == "holds", aid
        else:
            assert rep.verdict == "fails", aid
            assert rep.witness == witness, aid
            got = [orc.from_scalar(x) for x in rep.residual.dense]
            assert got == res, aid

        dct = orc.cop_table(cop)
        for aid, fn in (("COASSOC", lambda a: orc.coassoc_residual(dct, a)),
                        ("COCOMM", lambda a: orc.cocomm_residual(dct, a))):
            w = _first_cop_failure(names, fn)
            rep = check_axiom(aid, pres)
            assert (rep.verdict == "holds") == (w is None), aid
            if w is not None:
                assert rep.witness == w, aid

        # full-tensor agreement for both quadratic tensor equations
        r = genalg.random_antisym_r(rng, n)
        rt = orc.tensor2_table(r)
        got = aybe_residual(r, op)
        want = orc.aybe_residual(rt, ct)
        assert [[[orc.from_scalar(x) for x in row] for row in plane]
                for plane in got.dense] == want
        got = nybe_residual(r, op)
        want = orc.nybe_residual(rt, ct)
        assert [[[orc.from_scalar(x) for x in row] for row in plane]
                for plane in got.dense] == want


def _suite_specialization():
    # a symbolic pass stays a pass at every sampled rational point
    rng = random.Random(105)
    for case in range(200):
        n = 3 if case % 5 == 0 else 2
        quad = genalg.random_quadruple(rng, n).lift()
        circ = induce_novikov(quad.binop("dot"), quad.linmap("D"),
                              quad.linmap("Q"))
        p = Presentation(POLY, quad.space, binops={"circ": circ})
        assert check_axiom("NOV_LSYM", p).verdict == "holds"
        assert check_axiom("NOV_RCOMM", p).verdict == "holds"
        for _ in range(20):
            x = F(rng.randint(-12, 12), rng.randint(1, 12))
            sp = p.specialize(x)
            assert check_axiom("NOV_LSYM", sp).holds
            assert check_axiom("NOV_RCOMM", sp).holds


@_stamped(7, 60.0)
def test_criterion_7():
    _suite_induced_novikov()
    _suite_semidirect_iff()
    _suite_ybe_oop()
    _suite_oracle_agreement()
    _suite_specialization()


# -- criterion 8: negative controls -------------------------------------------------

def _qop(table):
    return Tensor.from_dense(RATIONAL, tuple(
        tuple(tuple(Scalar.of(RATIONAL, F(x)) for x in row) for row in plane)
        for plane in table))


def _qt2(rows):
    return Tensor.from_dense(RATIONAL, tuple(
        tuple(Scalar.of(RATIONAL, F(x)) for x in r) for r in rows))


def _qmap(rows):
    return Tensor.from_dense(RATIONAL, tuple(
        tuple(Scalar.of(RATIONAL, F(x)) for x in r) for r in rows))


def _junk_pres():
    """A two dimensional presentation built to violate everything at once."""
    op = _qop([[[1, 1], [0, 1]], [[1, 0], [1, 1]]])
    cop = Tensor.stack([_qt2([[0, 1], [0, 0]]), _qt2([[1, 0], [1, 0]])])
    return Presentation(
        ring=RATIONAL, space=Space(("e1", "e2")),
        binops={"dot": op, "circ": op, "zin": op, "lpre": op, "rpre": op,
                "f": op},
        coops={"delta": cop, "Delta": cop},
        maps={"D": _qmap([[1, 1], [0, 1]]), "Q": _qmap([[0, 1], [1, 0]])},
        forms={"B": _qt2([[0, 1], [0, 0]])})


def _diag_coop_pres():
    op = _qop([[[1, 1], [0, 1]], [[1, 0], [1, 1]]])
    cop = Tensor.stack([_qt2([[1, 0], [0, 0]]), _qt2([[0, 0], [0, 1]])])
    return Presentation(ring=RATIONAL, space=Space(("e1", "e2")),
                        binops={"circ": op}, coops={"Delta": cop})


def _single_entry_product():
    c = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]  # e1 circ e2 = e1, all else zero
    return Presentation(ring=RATIONAL, space=Space(("e1", "e2")),
                        binops={"circ": _qop(c)})


def _zero_form_pres():
    return Presentation(ring=RATIONAL, space=Space(("e1", "e2")),
                        binops={"circ": _qop([[[1, 1], [0, 1]],
                                              [[1, 0], [1, 1]]])},
                        forms={"B": _qt2([[0, 0], [0, 0]])})


def _junk_rep_nov():
    l = Tensor.stack([_qmap([[1, 0], [1, 1]]), _qmap([[0, 1], [0, 0]])])
    r = Tensor.stack([_qmap([[1, 1], [0, 0]]), _qmap([[0, 0], [1, 0]])])
    return RepNov(("v1", "v2"), l, r)


def _junk_rep_adm():
    l = Tensor.stack([_qmap([[1, 0], [1, 1]]), _qmap([[0, 1], [0, 0]])])
    return RepAdmDiff(("v1", "v2"), l, _qmap([[1, 0], [1, 1]]),
                      _qmap([[0, 1], [1, 0]]))


def _negative_controls():
    jnk = _junk_pres()
    diag = _diag_coop_pres()
    repn = _junk_rep_nov()
    repa = _junk_rep_adm()
    table = {}
    for aid in ("COMM", "ASSOC", "NOV_RCOMM", "DERIV", "ADMISS", "ZINBIEL",
                "ZINB_ADMISS", "ZINB_ADMISS_ALT", "PRE_NOV_1", "PRE_NOV_2",
                "PRE_NOV_3", "PRE_NOV_4", "COASSOC", "COCOMM", "CODERIV",
                "CO_ADMISS", "NOV_COALG_1", "NOV_COALG_2", "ASI_1", "ASI_2",
                "DEFORM_1", "DEFORM_2", "DEFORM_3", "DEFORM_4", "SPEC_DEF_5",
                "SPEC_DEF_6", "COND_A", "COND_B", "BILIN_INV_NOV",
                "BILIN_INV_ASSOC", "FORM_SYM"):
        table[aid] = lambda aid=aid: check_axiom(aid, jnk)
    table["NOV_LSYM"] = lambda: check_axiom("NOV_LSYM", _single_entry_product())
    for aid in ("NOV_BIALG_1", "NOV_BIALG_2", "NOV_BIALG_3"):
        table[aid] = lambda aid=aid: check_axiom(aid, diag)
    for aid in ("REP_NOV_1", "REP_NOV_2", "REP_NOV_3", "REP_NOV_4"):
        table[aid] = lambda aid=aid: check_axiom(aid, jnk, rep=repn)
    for aid in ("REP_MOD", "REP_DIFF", "REP_ADM", "REP_ADM_ALT"):
        table[aid] = lambda aid=aid: check_axiom(aid, jnk, rep=repa)
    for aid in ("BIALG_Q_1", "BIALG_Q_2", "BIALG_Q_3"):
        table[aid] = lambda aid=aid: check_axiom(aid, jnk, q=F(1))
    table["FORM_NONDEG"] = lambda: check_axiom("FORM_NONDEG", _zero_form_pres())
    return table


@_stamped(8)
def test_criterion_8():
    table = _negative_controls()
    assert set(table) == set(_catalog())
    for aid in sorted(table):
        first = table[aid]()
        second = table[aid]()
        assert first.verdict == "fails", aid
        assert first.witness == second.witness, aid
        assert str(first) == str(second), aid
        if aid != "FORM_NONDEG":
            # the nondegeneracy condition has no test tuple, so no witness
            assert first.witness, aid

    # the documented worked example keeps its exact witness
    rep = check_axiom("NOV_LSYM", _single_entry_product())
    assert rep.verdict == "fails"
    assert rep.witness == ("e1", "e2", "e2")

    # cross-check the first failing tuple against the naive expansions
    jnk = _junk_pres()
    ct = orc.op_table(jnk.binop("dot"))
    dt = orc.map_table(jnk.linmap("D"))
    qt = orc.map_table(jnk.linmap("Q"))
    names = jnk.space.names
    oracle_backed = {
        "COMM": (2, lambda a, b: orc.comm_residual(ct, a, b)),
        "ASSOC": (3, lambda a, b, c: orc.assoc_residual(ct, a, b, c)),
        "NOV_RCOMM": (3, lambda a, b, c: orc.nov_rcomm_residual(ct, a, b, c)),
        "ZINBIEL": (3, lambda a, b, c: orc.zinbiel_residual(ct, a, b, c)),
        "DERIV": (2, lambda a, b: orc.deriv_residual(ct, dt, a, b)),
        "ADMISS": (2, lambda a, b: orc.admiss_residual(ct, dt, qt, a, b)),
    }
    for aid, (arity, fn) in oracle_backed.items():
        witness, _ = _first_product_failure(names, arity, fn)
        assert check_axiom(aid, jnk).witness == witness, aid
    dct = orc.cop_table(jnk.coop("delta"))
    for aid, fn in (("COCOMM", lambda a: orc.cocomm_residual(dct, a)),
                    ("COASSOC", lambda a: orc.coassoc_residual(dct, a))):
        witness = _first_cop_failure(names, fn)
        assert witness is not None
        assert check_axiom(aid, jnk).witness == witness, aid
