"""oop_check against the per-pair check it replaced, on seeded modules and operators."""

import dataclasses
import itertools
import random
from fractions import Fraction as F

from genalg import random_quadruple
from novq import (POLY, RATIONAL, LinMap, RepAdmDiff, RepNov, Scalar, T_from_r, Tensor,
                  canonical_r, descendent_commdiff, dual_rep_admdiff, dual_rep_novikov,
                  induce_novikov, induced_rep_q, load, oop_check, polynomial, zinbiel_double)
from novq.constructions import regular_rep_admdiff, regular_rep_novikov
from oop_oracle import oracle_oop_check


def _scalar(rng, ring, density):
    if rng.random() >= density:
        return Scalar.zero(ring)
    if ring == RATIONAL:
        return Scalar.of(ring, rng.choice((1, -1, 2, F(1, 2), F(-3, 2))))
    return polynomial((rng.randint(-2, 2), rng.choice((0, 0, 1, -1))))


def _rand(cls, rng, ring, shape, density):
    return cls.from_entries(ring, shape, {idx: _scalar(rng, ring, density)
                                          for idx in itertools.product(*map(range, shape))})


def _plant(t, rng, ring):
    """t plus one entry at a random index: 1 over Q, q + 1/2 over Q[q]."""
    one = Scalar.one(ring) if ring == RATIONAL else polynomial((F(1, 2), 1))
    idx = tuple(rng.randrange(d) for d in t.shape)
    return t + type(t).from_entries(ring, t.shape, {idx: one})


def _modules(rng, quad, ring):
    """(module, product keywords) for the regular, dual, induced and random modules."""
    dot, D, Q = quad.binop("dot"), quad.linmap("D"), quad.linmap("Q")
    n, names = quad.dim, quad.space.names
    qv = None if ring == POLY else F(rng.randint(-3, 3), 2)
    circ = induce_novikov(dot, D, Q, q=qv)
    nov, adm = {"circ": circ}, {"dot": dot, "D": D, "Q": Q}
    reg = regular_rep_admdiff(dot, D, Q, names)
    out = [(regular_rep_novikov(circ, names), nov), (reg, adm),
           (dual_rep_novikov(regular_rep_novikov(circ, names)), nov),
           (dual_rep_admdiff(reg), adm), (induced_rep_q(reg, D, Q, q=qv), nov)]
    for m in (n, n + 1):  # random modules, also of another dimension than the algebra
        vnames = tuple(f"v{i}" for i in range(m))
        family = lambda: _rand(Tensor, rng, ring, (n, m, m), 0.4)
        out.append((RepNov(vnames, family(), family()), nov))
        endo = lambda: _rand(LinMap, rng, ring, (m, m), 0.4)
        out.append((RepAdmDiff(vnames, family(), endo(), endo()),
                    {**adm, "Q": Q if m == n else None}))
    return out


def _operators(rng, rep):
    """A random T, a planted one, zero, and T_from_r(canonical_r) when it fits."""
    ring, n, m = rep.ring, rep.alg_dim, rep.dim
    rand = _rand(LinMap, rng, ring, (n, m), 0.5)
    out = [rand, _plant(rand, rng, ring), LinMap.zero(ring, n, m)]
    if n == m and n % 2 == 0:
        out.append(T_from_r(canonical_r(ring, n // 2)))
    return out


def _planted_module(rep, rng):
    field = "r" if isinstance(rep, RepNov) and rng.random() < 0.5 else "l"
    return dataclasses.replace(rep, **{field: _plant(getattr(rep, field), rng, rep.ring)})


def _both(T, rep, kw):
    got = oop_check(T, rep, **kw)
    want = oracle_oop_check(T, rep, **kw)
    assert got.keys() == want.keys()
    for key in got:
        assert got[key] == want[key], (key, got[key], want[key])
        assert str(got[key]) == str(want[key])
    return {r.verdict for r in got.values()}


def test_oop_check_matches_per_pair_oracle_on_seeded_modules():
    rng = random.Random(707)
    seen = set()
    for case in range(6):
        ring = POLY if case % 2 else RATIONAL
        quad = random_quadruple(rng, (2, 3, 2, 4, 3, 2)[case])
        for rep, kw in _modules(rng, quad.lift() if ring == POLY else quad, ring):
            for module in (rep, _planted_module(rep, rng)):
                for T in _operators(rng, module):
                    seen |= _both(T, module, kw)
    assert {"holds", "fails", "holds_on_locus"} <= seen, seen


def test_oop_check_matches_per_pair_oracle_on_splitting_operators():
    # operators that satisfy the identities: the canonical r in the Zinbiel
    # double's dual module, and the identity on the induced Zinbiel module
    # over Q[q]; planted entries break them, over Q[q] only off q = -1/2
    rng = random.Random(708)
    seen = set()
    for fx in ("fixtures/zinb-deriv", "fixtures/zinb-nonderiv"):
        dbl = zinbiel_double(load(fx))
        dot, D, Q = dbl.binop("dot"), dbl.linmap("D"), dbl.linmap("Q")
        T = T_from_r(canonical_r(RATIONAL, 3))
        circ = induce_novikov(dot, D, Q, q=F(-1, 2))
        cases = [(dual_rep_admdiff(regular_rep_admdiff(dot, D, Q, dbl.space.names)),
                  {"dot": dot, "D": D, "Q": Q}),
                 (dual_rep_novikov(regular_rep_novikov(circ, dbl.space.names)), {"circ": circ})]
        pres = load(fx).lift()
        zin, D, Q = pres.binop("zin"), pres.linmap("D"), pres.linmap("Q")
        reg = regular_rep_admdiff(zin, D, Q, pres.space.names)
        cases += [(reg, {"dot": descendent_commdiff(zin), "D": D, "Q": Q}),
                  (induced_rep_q(reg, D, Q), {"circ": induce_novikov(descendent_commdiff(zin),
                                                                     D, Q)})]
        for rep, kw in cases:
            op = T if rep.ring == RATIONAL else LinMap.identity(POLY, 3)
            for module in (rep, _planted_module(rep, rng)):
                seen |= _both(op, module, kw)
            seen |= _both(_plant(op, rng, rep.ring), rep, kw)
    assert {"holds", "fails", "holds_on_locus"} <= seen, seen
