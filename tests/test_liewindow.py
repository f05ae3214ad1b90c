from fractions import Fraction

import pytest

import oracles as orc
from novq import (POLY, PresentationError, RATIONAL, Scalar, Tensor,
                  WindowSpec, induce_nov_coalg, induce_novikov, load, polyalg_family,
                  polyalg_window_check, window_lie_bialgebra_check)
from novq.liewindow import LaurentVector, affine_bracket, cobracket_component

F = Fraction


def _circ_half():
    pres = load("fixtures/exnov1")
    return induce_novikov(pres.binop("dot"), pres.linmap("D"),
                          pres.linmap("Q"), q=F(-1, 2))


def test_affine_bracket_closed_form():
    circ = _circ_half()
    e1 = Tensor.basis(RATIONAL, 2, 0)
    e2 = Tensor.basis(RATIONAL, 2, 1)
    for m in range(-3, 4):
        for n in range(-3, 4):
            br = affine_bracket(LaurentVector(e1, m), LaurentVector(e2, n), circ)
            assert br.degree == m + n - 1
            assert [c.val for c in br.base.dense] == [0, F(m) + F(n, 2)]
            br = affine_bracket(LaurentVector(e1, m), LaurentVector(e1, n), circ)
            assert [c.val for c in br.base.dense] == [F(-(m - n), 2), 0]
            br = affine_bracket(LaurentVector(e2, m), LaurentVector(e2, n), circ)
            assert br.base.is_zero()


def test_cobracket_components_closed_form():
    pres = load("fixtures/exnov1")
    Delta = induce_nov_coalg(pres.coop("delta"), pres.linmap("Q"), pres.linmap("D"), F(-1, 2))
    e1 = Tensor.basis(RATIONAL, 2, 0)
    e2 = Tensor.basis(RATIONAL, 2, 1)
    for m in range(-2, 3):
        for j in range(-4, 3):
            k = m - 2 - j
            comp = cobracket_component(e2, m, (j, k), Delta)
            t = orc.tensor2_table(comp)
            want = F(j - k, 2)
            for a in range(2):
                for b in range(2):
                    if (a, b) == (1, 1) and want:
                        assert t[a][b] == {0: want}
                    else:
                        assert not t[a][b]
            # off the diagonal j + k = m - 2 everything vanishes
            off = cobracket_component(e2, m, (j, k + 1), Delta)
            assert off.is_zero()
            assert cobracket_component(e1, m, (j, k), Delta).is_zero()


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
