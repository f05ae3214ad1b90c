"""The graded-tensor window check against the per-tuple loops it replaced."""

import random
from fractions import Fraction

import pytest

from novq import (RATIONAL, BinOpTensor, CoOpTensor, Scalar, WindowSpec,
                  induce_nov_coalg, induce_novikov, load, window_lie_bialgebra_check)
from novq.liewindow import _window_reports
from window_oracle import oracle_window_reports

F = Fraction


def _pair(pres, q):
    D, Q = pres.linmap("D"), pres.linmap("Q")
    return (induce_novikov(pres.binop("dot"), D, Q, q=q),
            induce_nov_coalg(pres.coop("delta"), Q, D, q=q))


def _assert_same(new, old):
    reports, checked, skipped = old
    assert list(new.reports) == list(reports)
    for aid, want in reports.items():
        got = new.reports[aid]
        assert (got.verdict, got.witness, got.residual, got.residual_degree) == \
            (want.verdict, want.witness, want.residual, want.residual_degree), aid
    # the loops stop counting at the first Jacobi witness
    if reports["LIE_JACOBI"].holds:
        assert (new.jacobi_checked, new.jacobi_skipped) == (checked, skipped)


@pytest.mark.parametrize("fixture, q, lo, hi", [
    ("exnov1", F(-1, 2), -3, 3),
    ("exnov1", F(-1, 2), -2, 2),
    ("exnov1", F(-1, 2), -1, 4),
    ("exnov1", F(-1, 2), -6, 6),
    ("exnov1", F(0), -3, 2),
    ("examp2-double", F(-1, 2), -1, 1),
])
def test_window_matches_the_loops(fixture, q, lo, hi):
    pres = load(f"fixtures/{fixture}")
    w = WindowSpec(lo, hi, q)
    res = window_lie_bialgebra_check(pres, w)
    assert res.holds
    _assert_same(res, oracle_window_reports(*_pair(pres, q), w, pres.space.names))


def _perturbed(t, rng):
    key = tuple(rng.randrange(d) for d in t.shape)
    bump = rng.choice((F(1), F(-1), F(2), F(1, 2), F(-3, 2)))
    entries = {tuple(e[:-1]): e[-1] for e in t.nonzero()}
    entries[key] = entries.get(key, Scalar.of(RATIONAL, 0)) + Scalar.of(RATIONAL, bump)
    return type(t).from_entries(RATIONAL, t.shape, entries)


def test_window_matches_the_loops_on_planted_failures():
    rng = random.Random(404)
    cases = [("exnov1", F(-1, 2)), ("exnov1", F(0)), ("examp2-double", F(-1, 2))]
    failed = {}
    for case in range(48):
        fixture, q = cases[0 if case % 8 < 5 else 1 if case % 8 < 7 else 2]
        pres = load(f"fixtures/{fixture}")
        circ, Delta = _pair(pres, q)
        if case % 2:
            Delta = _perturbed(Delta, rng)
        else:
            circ = _perturbed(circ, rng)
        assert isinstance(circ, BinOpTensor) and isinstance(Delta, CoOpTensor)
        lo = rng.randint(-2, 1)
        w = WindowSpec(lo, lo + (1 if fixture == "examp2-double" else rng.randint(1, 3)), q)
        new = _window_reports(circ, Delta, w, pres.space.names)
        _assert_same(new, oracle_window_reports(circ, Delta, w, pres.space.names))
        for aid, rep in new.reports.items():
            failed[aid] = failed.get(aid, 0) + (not rep.holds)
    # skewness of the bracket and of the cobracket holds for every circ and Delta,
    # so only the other three families can be made to fail
    assert failed["LIE_SKEW"] == failed["COLIE_ANTICOCOMM"] == 0
    assert all(failed[aid] for aid in ("LIE_JACOBI", "COLIE_COJACOBI", "LIE_BIALG_COCYCLE"))
