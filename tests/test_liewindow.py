import random
from fractions import Fraction

import pytest

import oracles as orc
from novq import (POLY, PresentationError, RATIONAL, Scalar, Tensor,
                  WindowSpec, induce_nov_coalg, induce_novikov, load, polyalg_family,
                  polyalg_window_check, window_lie_bialgebra_check)
from novq.liewindow import _bracket, _cobracket, _positions, _window_reports

F = Fraction


def _circ_half():
    pres = load("fixtures/exnov1")
    return induce_novikov(pres.binop("dot"), pres.linmap("D"),
                          pres.linmap("Q"), q=F(-1, 2))


def test_affine_bracket_closed_form():
    degs = range(-3, 4)
    at = _positions(range(-7, 6))
    back = sorted(at)
    B = _bracket(_circ_half(), at, degs, degs)
    # [e_i t^m, e_j t^n] lies in degree m + n - 1
    assert all(back[d] == back[m] + back[n] - 1 for _, m, _, n, _, d, _ in B.nonzero())
    for m in degs:
        for n in degs:
            br = lambda i, j: [B.entry(i, at[m], j, at[n], k, at[m + n - 1])
                               for k in range(2)]
            assert br(0, 1) == [0, F(m) + F(n, 2)]
            assert br(0, 0) == [F(-(m - n), 2), 0]
            assert br(1, 1) == [0, 0]


def test_cobracket_components_closed_form():
    pres = load("fixtures/exnov1")
    Delta = induce_nov_coalg(pres.coop("delta"), pres.linmap("Q"), pres.linmap("D"), F(-1, 2))
    ins, firsts = range(-2, 3), range(-4, 3)
    at = _positions(range(-6, 5))
    back = sorted(at)
    C = _cobracket(Delta, at, ins, firsts)
    # off the diagonal j + k = m - 2 everything vanishes, and so does e1's cobracket
    assert all(i == 1 and back[j] + back[k] == back[m] - 2
               for i, m, _, j, _, k, _ in C.nonzero())
    for m in ins:
        for j in firsts:
            k = m - 2 - j
            want = F(j - k, 2)
            for a in range(2):
                for b in range(2):
                    got = orc.from_scalar(C.entry(1, at[m], a, at[j], b, at[k]))
                    assert got == ({0: want} if (a, b) == (1, 1) and want else {})


def _random_q3(rng, n):
    return Tensor.from_entries(RATIONAL, (n, n, n), {
        (i, j, k): Scalar.of(RATIONAL, F(rng.randint(-4, 4), rng.randint(1, 3)))
        for i in range(n) for j in range(n) for k in range(n) if rng.random() < 0.6})


def test_bracket_and_cobracket_cancel_against_their_swaps():
    """[x, y] + [y, x] and the completed cobracket plus its flip vanish for any
    circ and Delta, which is why LIE_SKEW and COLIE_ANTICOCOMM need no contraction."""
    rng = random.Random(5150)
    nonzero = 0
    for _ in range(40):
        n = rng.randint(1, 3)
        circ, Delta = _random_q3(rng, n), _random_q3(rng, n)
        degs = set(rng.sample(range(-5, 6), rng.randint(1, 5)))
        at = _positions(degs, {m + p - 1 for m in degs for p in degs},
                        {m - 2 - p for m in degs for p in degs})
        B = _bracket(circ, at, degs, degs)
        assert (B + Tensor.einsum("jnimkd->imjnkd", B)).is_zero()
        C = _cobracket(Delta, at, degs, at)
        assert (C + Tensor.einsum("imbkaj->imajbk", C)).is_zero()
        nonzero += not B.is_zero() and not C.is_zero()
    assert nonzero >= 20  # most cases test something


def test_window_reports_contract_three_families(monkeypatch):
    pres = load("fixtures/exnov1")
    D, Q = pres.linmap("D"), pres.linmap("Q")
    circ = induce_novikov(pres.binop("dot"), D, Q, q=F(-1, 2))
    Delta = induce_nov_coalg(pres.coop("delta"), Q, D, q=F(-1, 2))
    calls = []
    combination = Tensor.combination
    monkeypatch.setattr(Tensor, "combination",
                        classmethod(lambda cls, terms: calls.append(1) or combination(terms)))
    res = _window_reports(circ, Delta, WindowSpec(-3, 3, F(-1, 2)), pres.space.names)
    # the bracket, the cobracket, Jacobi, co-Jacobi and the cocycle
    assert len(calls) == 5
    assert list(res.reports) == ["LIE_SKEW", "LIE_JACOBI", "COLIE_ANTICOCOMM",
                                 "COLIE_COJACOBI", "LIE_BIALG_COCYCLE"]
    assert res.holds


def test_window_check_base_fixture():
    pres = load("fixtures/exnov1")
    res = window_lie_bialgebra_check(pres, WindowSpec(-3, 3, F(-1, 2)))
    assert res.holds
    assert len(res.reports) == 5
    assert all(r.holds for r in res.reports.values())
    assert res.jacobi_checked == 1120
    assert res.jacobi_skipped == 1624
    assert "window" in res.note


def test_window_check_rejects_bad_point():
    pres = load("fixtures/exnov1")
    with pytest.raises(PresentationError):
        window_lie_bialgebra_check(pres, WindowSpec(-2, 2, F(1)))


def test_window_spec_validation():
    with pytest.raises(ValueError):
        WindowSpec(3, -3, F(0))


def test_polyalg_family_tables():
    fam = polyalg_family(4)
    assert fam.ring == POLY
    t = orc.op_table(fam.binop("circ"))
    for m in range(5):
        for n in range(5):
            for k in range(5):
                want = {}
                if k == m + n - 1 and n:
                    want = {0: F(n), 1: F(-n)}  # (1 - q) n
                assert t[m][n][k] == want
    d = orc.cop_table(fam.coop("Delta"))
    assert d[3][1][0] == {0: F(-1), 1: F(1)}      # (q - 1) * 1
    assert d[3][0][1] == {0: F(-2), 1: F(2)}      # (q - 1) * 2
    assert all(not d[1][j][k] for j in range(5) for k in range(5))
    assert all(not d[0][j][k] for j in range(5) for k in range(5))


def test_polyalg_window_check_symbolic():
    out = polyalg_window_check(4)
    assert len(out) == 7
    assert all(r.holds for r in out.values())


def test_polyalg_window_check_rational_point():
    out = polyalg_window_check(5, q=F(3, 2))
    assert all(r.holds for r in out.values())
