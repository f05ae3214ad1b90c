"""check_axiom against the per-tuple interpreter it replaced, on every catalog entry."""

import itertools
import random
from collections import defaultdict
from fractions import Fraction as F

from genalg import random_quadruple
from interp_oracle import interp_check_axiom
from novq import (POLY, RATIONAL, Presentation, RepAdmDiff, RepNov, Scalar, Tensor,
                  check_axiom, induce_nov_coalg, induce_novikov, load, polynomial)
from novq.constructions import regular_rep_admdiff, regular_rep_novikov
from novq.liewindow import POLYALG_AXIOMS, polyalg_family
from novq.structures import CATALOG

EXPR_AXIOMS = sorted(aid for aid, d in CATALOG.items() if d.expr is not None)


def _scalar(rng, ring, density):
    if rng.random() >= density:
        return Scalar.zero(ring)
    if ring == RATIONAL:
        return Scalar.of(ring, rng.choice((1, -1, 2, F(1, 2), F(-3, 2))))
    return polynomial((rng.randint(-2, 2), rng.choice((0, 0, 1, -1))))


def _tensor(rng, ring, shape, density):
    return Tensor.from_entries(ring, shape, {idx: _scalar(rng, ring, density)
                                             for idx in itertools.product(*map(range, shape))})


def _planted(t, rng, ring):
    """t plus one entry at (e1, e2, e_k), which breaks commutativity.

    The entry is 1 over Q and q - 1/2 over Q[q], so there an identity of t
    still holds at q = 1/2.
    """
    one = Scalar.one(ring) if ring == RATIONAL else polynomial((F(-1, 2), 1))
    idx = (0, 1, rng.randrange(t.dim))
    return t + Tensor.from_entries(ring, t.shape, {idx: one})


def _case(rng, n, ring, plant):
    """A presentation with every catalog slot, and one module of each kind."""
    quad = random_quadruple(rng, n)
    quad = quad.lift() if ring == POLY else quad
    dot, D, Q = quad.binop("dot"), quad.linmap("D"), quad.linmap("Q")
    circ = induce_novikov(dot, D, Q, q=None if ring == POLY else F(rng.randint(-3, 3), 2))
    if plant:
        dot, circ = _planted(dot, rng, ring), _planted(circ, rng, ring)
    rand = lambda order, density: _tensor(rng, ring, (n,) * order, density)
    pres = Presentation(
        ring, quad.space,
        binops={"dot": dot, "circ": circ, "zin": rand(3, 0.3), "lpre": rand(3, 0.3),
                "rpre": rand(3, 0.3), "f": rand(3, 0.3)},
        coops={"delta": rand(3, 0.3), "Delta": rand(3, 0.2)},
        maps={"D": D, "Q": Q}, forms={"B": rand(2, 0.5)})
    names = quad.space.names
    if rng.random() < 0.5:  # the regular modules
        return pres, regular_rep_novikov(circ, names), regular_rep_admdiff(dot, D, Q, names)
    m = n + 1  # a module of another dimension than the algebra
    vnames = tuple(f"v{i}" for i in range(m))
    family = lambda: _tensor(rng, ring, (n, m, m), 0.4)
    return (pres, RepNov(vnames, family(), family()),
            RepAdmDiff(vnames, family(), *(_tensor(rng, ring, (m, m), 0.4) for _ in range(2))))


def _both(aid, pres, binds=None, **kw):
    got = check_axiom(aid, pres, binds, **kw)
    want = interp_check_axiom(aid, pres, binds, **kw)
    assert got == want, (aid, got, want)
    assert str(got) == str(want)
    return got


def test_sliced_check_axiom_matches_per_tuple_interpreter():
    rng = random.Random(808)
    seen = defaultdict(set)
    for case in range(8):
        ring = POLY if case % 2 else RATIONAL
        pres, repnov, repadm = _case(rng, 2 + case % 3 // 2, ring, plant=case % 4 >= 2)
        for aid in EXPR_AXIOMS:
            axdef = CATALOG[aid]
            kw = {}
            if any(sp == "V" for _, sp in axdef.variables):
                kw["rep"] = repnov if aid.startswith("REP_NOV") else repadm
            if ring == RATIONAL and (axdef.uses_q or rng.random() < 0.2):
                kw["q"] = F(rng.randint(-4, 4), rng.randint(1, 3))
            if rng.random() < 0.3:
                kw["tuple_filter"] = lambda idx: sum(idx) % 2 == 0
            seen[aid].add(_both(aid, pres, **kw).verdict)
    # every entry failed somewhere and the symbolic cases produced loci
    assert all("fails" in seen[aid] for aid in EXPR_AXIOMS), seen
    assert any("holds_on_locus" in v for v in seen.values())
    assert any("holds" in v for v in seen.values())


def test_sliced_check_axiom_matches_on_fixtures_and_filtered_families():
    verdicts = set()
    for path in ("fixtures/examp2-double", "fixtures/zinb-deriv-double"):
        p = load(path).lift()
        induced = Presentation(POLY, p.space, binops={"circ": induce_novikov(
            p.binop("dot"), p.linmap("D"), p.linmap("Q"))}, coops={"Delta": induce_nov_coalg(
                p.coop("delta"), p.linmap("Q"), p.linmap("D"))})
        verdicts |= {_both(aid, induced).verdict for aid in POLYALG_AXIOMS}
        verdicts |= {_both(aid, p).verdict for aid in ("BIALG_Q_1", "BIALG_Q_2", "BIALG_Q_3")}
        verdicts |= {_both(aid, p.specialize(F(-1, 2))).verdict for aid in ("ASI_1", "ASI_2")}
    assert {"holds", "holds_on_locus"} <= verdicts
    keep = lambda idx: sum(idx) <= 4
    for q in (None, F(1, 3)):
        pres = polyalg_family(4, q)
        for aid in POLYALG_AXIOMS:
            _both(aid, pres, tuple_filter=keep)
