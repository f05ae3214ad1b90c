"""Tensor.combination against sums of the Fraction-join einsum oracle.

combination adds c * einsum(spec, *operands) over its terms on integer
numerators over one common denominator.  Its entries must equal the
oracle's sum of c times each contraction, each an int when integral and a
Fraction otherwise over Q.  The inputs are Q operands with non-integral
entries, Q[q] operands, coefficients that are ints, rational Scalars and
Q[q] Scalars, a term with no join (a leg change, whose entries are not
numerators yet) and terms that cancel.  Over Q[q] the joins run on packed
ints: the width each call reads back at must hold every true output
coefficient, and no Scalar arithmetic may run inside a call.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from einsum_oracle import oracle_einsum
from genalg import random_quadruple
from novq import (POLY, RATIONAL, Presentation, Scalar, Tensor, check_axiom, induce_novikov,
                  polynomial)
from novq import cli, exactcore
from novq.exactcore import RingMismatchError, ShapeError
from novq.presfile import MAX_POWER

# terms of one output shape (n, n): joins, a product with no shared leg, a leg change
SPECS = ("ij,jk->ik", "ijk,j->ik", "i,k->ik", "ki->ik", "ab,ia,kb->ik")


def _value(rng, ring):
    if ring == RATIONAL:
        den = rng.choice((1, 1, 2, 3, 7, 10 ** 20 + 39))
        return Scalar.of(ring, F(rng.choice((-3, -1, 1, 2, 5)), den))
    return polynomial((F(rng.randint(-3, 3), rng.choice((1, 2, 5))),
                       rng.choice((0, 1, -1, F(1, 3)))))


def _operand(rng, ring, legs: int, n: int, density: float) -> Tensor:
    return Tensor.from_entries(ring, (n,) * legs, {
        key: _value(rng, ring) if rng.random() < density else Scalar.zero(ring)
        for key in itertools.product(range(n), repeat=legs)})


def _coefficient(rng, ring):
    kind = rng.choice(("one", "minus", "int", "scalar"))
    if kind in ("one", "minus"):
        return 1 if kind == "one" else -1
    if kind == "int":
        return rng.choice((2, -3, 0))
    return _value(rng, ring) if rng.random() < 0.8 else Scalar.zero(ring)


def _oracle_sum(terms) -> dict:
    acc = {}
    for c, spec, operands in terms:
        for *key, v in oracle_einsum(spec, *operands).nonzero():
            key = tuple(key)
            acc[key] = v * c if key not in acc else acc[key] + v * c
    return {key: v for key, v in acc.items() if not v.is_zero()}


def _assert_matches(terms) -> Tensor:
    got = Tensor.combination(terms)
    assert {tuple(key): v for *key, v in got.nonzero()} == _oracle_sum(terms)
    if got.ring == RATIONAL and len(terms) > 1:
        for v in got._entries.values():
            assert type(v) is (int if F(v).denominator == 1 else F), v
    return got


def _random_terms(rng, ring, n):
    terms = []
    for spec in rng.sample(SPECS, rng.randint(1, len(SPECS))):
        ins = spec.split("->")[0].split(",")
        density = rng.choice((0.3, 0.7, 1.0))
        operands = tuple(_operand(rng, ring, len(legs), n, density) for legs in ins)
        terms.append((_coefficient(rng, ring), spec, operands))
    return terms


@pytest.mark.parametrize("ring", [RATIONAL, POLY])
def test_matches_the_oracle_sum_on_random_terms(ring):
    rng = random.Random(f"combination/{ring}")
    for _ in range(60):
        _assert_matches(_random_terms(rng, ring, rng.randint(1, 3)))


@pytest.mark.parametrize("ring", [RATIONAL, POLY])
def test_a_leg_change_alone_and_beside_a_join(ring):
    rng = random.Random(f"legs/{ring}")
    a, b = _operand(rng, ring, 2, 3, 1.0), _operand(rng, ring, 2, 3, 0.7)
    # alone with coefficient 1 it keeps the stored entries; scaled or summed they are numerators
    assert Tensor.combination([(1, "ki->ik", (a,))]) == oracle_einsum("ki->ik", a)
    _assert_matches([(-1, "ki->ik", (a,))])
    _assert_matches([(_value(rng, ring), "ki->ik", (a,))])
    _assert_matches([(1, "ki->ik", (a,)), (1, "ij,jk->ik", (a, b))])
    _assert_matches([(1, "ij,jk->ik", (a, b)), (-1, "ki->ik", (b,))])


def test_leg_changes_alone_sum_to_canonical_entries():
    # 1/2 + 1/2 is stored as the int 1, as after a join
    half = Tensor.from_entries(RATIONAL, (2, 2), {(0, 1): Scalar.of(RATIONAL, F(1, 2)),
                                                  (1, 0): Scalar.of(RATIONAL, F(1, 2))})
    got = _assert_matches([(1, "ij->ij", (half,)), (1, "ji->ij", (half,))])
    assert got._entries == {(0, 1): 1, (1, 0): 1} == (half + half)._entries
    assert all(type(v) is int for v in (half + half)._entries.values())


@pytest.mark.parametrize("ring", [RATIONAL, POLY])
def test_terms_that_cancel(ring):
    rng = random.Random(f"cancel/{ring}")
    a, b = _operand(rng, ring, 2, 3, 1.0), _operand(rng, ring, 2, 3, 1.0)
    c = _value(rng, ring)
    for terms in ([(1, "ij,jk->ik", (a, b)), (-1, "ij,jk->ik", (a, b))],
                  [(c, "ij,jk->ik", (a, b)), (-c, "ij,jk->ik", (a, b))],
                  [(1, "ki->ik", (a,)), (-1, "ki->ik", (a,))],
                  [(2, "ij->ij", (a,)), (-1, "ij->ij", (a,)),
                   (-1, "ji->ij", (Tensor.einsum("ij->ji", a),))],
                  [(0, "ij,jk->ik", (a, b)), (Scalar.zero(ring), "ki->ik", (a,))]):
        assert _assert_matches(terms).is_zero()
    # a a minus its transpose: only the antisymmetric part is left
    _assert_matches([(1, "ij,jk->ik", (a, a)), (-1, "ij,jk->ki", (a, a))])


def test_mismatched_terms_raise():
    rng = random.Random(5)
    a, p = _operand(rng, RATIONAL, 2, 2, 1.0), _operand(rng, POLY, 2, 2, 1.0)
    b, v = _operand(rng, RATIONAL, 2, 3, 1.0), _operand(rng, RATIONAL, 1, 2, 1.0)
    with pytest.raises(RingMismatchError):
        Tensor.combination([(1, "ij->ij", (a,)), (1, "ij->ij", (p,))])
    with pytest.raises(RingMismatchError):
        Tensor.combination([(1, "ij,jk->ik", (a, p))])
    with pytest.raises(RingMismatchError):
        Tensor.combination([(polynomial((0, 1)), "ij->ij", (a,))])
    with pytest.raises(RingMismatchError):
        Tensor.combination([(Scalar.of(RATIONAL, 2), "ij->ij", (p,))])
    with pytest.raises(ShapeError):
        Tensor.combination([(1, "ij->ij", (a,)), (1, "ij->ij", (b,))])
    with pytest.raises(ShapeError):
        Tensor.combination([(1, "ij->ij", (a,)), (1, "i->i", (v,))])
    with pytest.raises(ShapeError):
        Tensor.combination([(1, "ij,jk->ik", (a, b))])
    with pytest.raises(ShapeError):
        a + _operand(rng, RATIONAL, 3, 2, 1.0)
    with pytest.raises(RingMismatchError):
        a - p


# -- the read-back width -------------------------------------------------------
# Over Q[q] combination packs every join at q = 2^k and reads each output entry
# back in balanced base-2^k digits, with k chosen from an a priori bound.  The
# spy below records, per combination, the terms, the result and the (d, k) of
# its read-back; the oracle's sum gives the true output coefficients, whose
# numerators over d must lie below 2^(k-1).


def _spy(monkeypatch) -> list:
    calls, reads = [], []
    entry, combination = exactcore._entry, Tensor.combination.__func__

    def spy_entry(n, den, k):
        if k:
            reads.append((den, k))
        return entry(n, den, k)

    def spy_combination(cls, terms):
        terms = list(terms)
        del reads[:]
        got = combination(cls, terms)
        if reads:
            calls.append((terms, got, set(reads)))
        return got

    monkeypatch.setattr(exactcore, "_entry", spy_entry)
    monkeypatch.setattr(Tensor, "combination", classmethod(spy_combination))
    return calls


def _assert_within_width(calls) -> int:
    """Check every recorded call against the oracle; the number of calls checked."""
    for terms, got, reads in calls:
        (den, k), = reads  # one common denominator and one width per call
        want = _oracle_sum(terms)
        assert {tuple(key): v for *key, v in got.nonzero()} == want
        top = max(abs(c * den) for v in want.values() for c in v.coeffs())
        assert top.denominator == 1 and top < 2 ** (k - 1), (top, k)
    return len(calls)


def test_oracle_cases_read_back_within_the_width(monkeypatch):
    rng = random.Random("width/oracle")
    calls = _spy(monkeypatch)
    for _ in range(60):
        Tensor.combination(_random_terms(rng, POLY, rng.randint(1, 3)))
    assert _assert_within_width(calls) > 40


@pytest.mark.parametrize("seed", range(3))
def test_seeded_families_read_back_within_the_width(monkeypatch, seed):
    # the symbolic product induced from a seeded admissible quadruple over Q, with one
    # entry perturbed by 1 + q^2 so that the Novikov identities leave nonzero residuals
    rng = random.Random(f"width/family/{seed}")
    n = 2 + seed
    pres = random_quadruple(rng, n).lift()
    calls = _spy(monkeypatch)
    circ = induce_novikov(pres.binop("dot"), pres.linmap("D"), pres.linmap("Q"))
    circ = circ + Tensor.from_entries(POLY, circ.shape, {(0, 1, n - 1): polynomial((1, 0, 1))})
    sym = Presentation(POLY, pres.space, binops={"circ": circ})
    for axiom in ("NOV_LSYM", "NOV_RCOMM"):
        assert not check_axiom(axiom, sym).holds
    assert _assert_within_width(calls) >= 3 + n


def test_positive_constants_attain_the_bound(monkeypatch):
    # every entry is one positive coefficient of degree 0, so the bound 3 M N is the output
    # coefficient itself: a width that left 2^(k-1) <= 3 M N would read it back wrong
    m, n = 10 ** 30 + 7, 3 ** 70
    a = Tensor.from_entries(POLY, (3, 3), {(i, j): polynomial((m,)) for i in range(3)
                                           for j in range(3)})
    b = Tensor.from_entries(POLY, (3, 3), {(i, j): polynomial((n,)) for i in range(3)
                                           for j in range(3)})
    calls = _spy(monkeypatch)
    got = Tensor.einsum("ij,jk->ik", a, b)
    assert _assert_within_width(calls) == 1
    assert got.entry(0, 0) == polynomial((3 * m * n,))


def test_thirty_digit_coefficients_near_the_top_power():
    # sparse operands whose products reach degree 4095 of MAX_POWER = 4096
    rng = random.Random("width/deep")

    def big():
        return F(rng.randint(-10 ** 30, 10 ** 30), rng.choice((1, 1, 10 ** 29 + 3, 7)))

    def sparse(powers):
        coeffs = [0] * (max(powers) + 1)
        for p in powers:
            coeffs[p] = big()
        return polynomial(coeffs)

    assert MAX_POWER == 4096
    a = Tensor.from_entries(POLY, (2, 2), {(i, j): sparse((0, 1999, 4000))
                                           for i in range(2) for j in range(2)})
    b = Tensor.from_entries(POLY, (2, 2), {(0, 1): sparse((0, 50, 95)), (1, 1): sparse((3, 95)),
                                           (1, 0): sparse((95,))})
    c = sparse((0, 1))
    for terms in ([(1, "ij,jk->ik", (a, b))],
                  [(c, "ij,jk->ik", (a, b)), (-1, "ij,kj->ik", (a, b)), (2, "ki->ik", (a,))]):
        got = _assert_matches(terms)
        assert max(v.degree() for *_, v in got.nonzero()) >= 4090


def test_no_scalar_arithmetic_inside_a_join(monkeypatch, tmp_path):
    # verify --profile novikov-bialgebra on exnov1's induced Q[q] family: every Scalar
    # sum and product (the operators below run _padd and _pmul) stays out of combination
    family = str(tmp_path / "family")
    assert cli.main(["induce", "fixtures/exnov1", "--q", "sym", "--emit", family]) == 0
    inside, seen = [], {"joins": 0, RATIONAL: 0, POLY: 0}
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        def counted(a, b, op=Scalar.__dict__[name]):
            if inside:
                seen[a.ring] += 1
            return op(a, b)
        monkeypatch.setattr(Scalar, name, counted)
    combination = Tensor.combination.__func__

    def spy(cls, terms):
        terms = list(terms)
        seen["joins"] += any(ops[0].ring == POLY and "," in spec for _, spec, ops in terms)
        inside.append(True)
        try:
            return combination(cls, terms)
        finally:
            inside.pop()

    monkeypatch.setattr(Tensor, "combination", classmethod(spy))
    assert cli.main(["verify", family, "--profile", "novikov-bialgebra"]) in (0, 1)
    assert seen["joins"] >= 10 and seen[POLY] == 0 and seen[RATIONAL] == 0


# -- packed rows ---------------------------------------------------------------
# When one operand alone carries the last output leg of every term and fills half
# of its rows (twice its entries times its most coefficients per entry reach its
# dense size times the most coefficients of an output entry), combination packs
# that operand one int per row of the leg and splits each output row into its
# slots.  The spy below records the rows each call packs, so every case asserts
# both the oracle's sum and whether the packed path ran.


def _rows_spy(monkeypatch) -> list:
    packed, rows = [], Tensor._rows

    def spy(self, leg, k, width):
        packed.append((self.shape, leg, width))
        return rows(self, leg, k, width)

    monkeypatch.setattr(Tensor, "_rows", spy)
    return packed


def _assert_packs(packed: list, terms, packs: bool = True) -> Tensor:
    del packed[:]
    got = _assert_matches(terms)
    assert bool(packed) == packs, (packs, packed)
    return got


def _dense(rng, ring, shape) -> Tensor:
    """A tensor of the given shape whose every coefficient is nonzero: over Q[q] every entry
    has degree 1, so it packs against operands and coefficients of degree at most 1."""
    value = (lambda: _value(rng, ring)) if ring == RATIONAL else (
        lambda: polynomial((rng.choice((-2, -1, 1, F(1, 2))), rng.choice((-1, 1, F(1, 3))))))
    return Tensor.from_entries(ring, shape, {key: value()
                                             for key in itertools.product(*map(range, shape))})


@pytest.mark.parametrize("ring", [RATIONAL, POLY])
def test_packed_rows_match_the_oracle_wherever_the_holder_sits(monkeypatch, ring):
    rng = random.Random(f"rows/where/{ring}")
    packed = _rows_spy(monkeypatch)
    for _ in range(12):
        n = rng.randint(2, 4)
        a, b = _operand(rng, ring, 2, n, 0.5), _dense(rng, ring, (n, n))
        v, u = _operand(rng, ring, 1, n, 0.7), _dense(rng, ring, (n,))
        c = _coefficient(rng, ring) or 1
        _assert_packs(packed, [(c, "ij,jk->ik", (a, b))])  # a later operand holds k
        _assert_packs(packed, [(c, "jk,ij->ik", (b, a))])  # the first operand holds k
        _assert_packs(packed, [(c, "i,j->ij", (v, u))])  # u holds only the packed leg
        _assert_packs(packed, [(1, "ij,jk->ik", (a, b)), (c, "kj,ij->ik", (b, a)),
                               (-2, "i,k->ik", (v, u)), (c, "ki->ik", (b,))])
        assert {width for _, _, width in packed} == {packed[0][2]}  # one stride per call


@pytest.mark.parametrize("ring", [RATIONAL, POLY])
def test_a_leg_carried_by_two_operands_is_not_packed(monkeypatch, ring):
    rng = random.Random(f"rows/shared/{ring}")
    packed = _rows_spy(monkeypatch)
    for _ in range(8):
        n = rng.randint(2, 3)
        a, b = _dense(rng, ring, (n, n)), _dense(rng, ring, (n, n))
        _assert_packs(packed, [(1, "ik,jk->ijk", (a, b))], packs=False)
        _assert_packs(packed, [(1, "ik,k->ik", (a, _dense(rng, ring, (n,))))], packs=False)
        # one term whose holder is not alone keeps every term of the call unpacked
        _assert_packs(packed, [(1, "ij,jk->ik", (a, b)), (-1, "ik,jk->ik", (a, b))],
                      packs=False)
        _assert_packs(packed, [(1, "ij,jk->ik", (a, b)), (-1, "ij,jk->ik", (b, a))])


def test_packed_rows_of_fractions_with_distinct_denominators(monkeypatch):
    rng = random.Random("rows/fractions")
    packed = _rows_spy(monkeypatch)
    dens = (1, 2, 3, 7, 11, 10 ** 20 + 39)
    for _ in range(10):
        n = rng.randint(2, 4)
        a, b = (Tensor.from_entries(RATIONAL, (n, n), {
            key: Scalar.of(RATIONAL, F(rng.randint(-9, 9) or 1, rng.choice(dens)))
            for key in itertools.product(range(n), repeat=2)}) for _ in range(2))
        c = Scalar.of(RATIONAL, F(rng.randint(1, 5), rng.choice(dens)))
        got = _assert_packs(packed, [(c, "ij,jk->ik", (a, b)),
                                     (Scalar.of(RATIONAL, F(-1, 3)), "ji,jk->ik", (a, b))])
        for v in got._entries.values():
            assert type(v) is (int if F(v).denominator == 1 else F), v


@pytest.mark.parametrize("ring", [RATIONAL, POLY])
def test_packed_rows_that_cancel(monkeypatch, ring):
    rng = random.Random(f"rows/cancel/{ring}")
    packed = _rows_spy(monkeypatch)
    a, b = _operand(rng, ring, 2, 4, 0.7), _dense(rng, ring, (4, 4))
    c = _value(rng, ring)
    assert _assert_packs(packed, [(c, "ij,jk->ik", (a, b)), (-c, "ij,jk->ik", (a, b))]).is_zero()
    # only the rows of the first index 0 survive: every other row cancels to zero
    head = Tensor.from_entries(ring, (4, 4), {(0, j): Scalar.one(ring) for j in range(4)})
    got = _assert_packs(packed, [(1, "ij,jk->ik", (a, b)), (-1, "ij,jk->ik", (a - head, b))])
    assert {key[0] for key in got._entries} <= {0}


def test_packed_rows_of_mixed_degrees_keep_their_stride(monkeypatch):
    # a has degree 1 at (0, 0) and 0 elsewhere, b degree 2 with positive top coefficients
    # everywhere, c degree 0 to 2: the output entry (0, 0) reaches the output degree bound,
    # 3 + deg c, so a stride one digit short would carry its top coefficient into the next
    # slot, while b, with three coefficients per entry against at most six per output
    # entry, is dense enough to pack
    rng = random.Random("rows/stride")
    packed = _rows_spy(monkeypatch)

    def poly(deg, low=-5):
        return polynomial([rng.randint(low, 5) for _ in range(deg)] + [rng.randint(1, 5)])

    for _ in range(10):
        n = rng.randint(2, 4)
        keys = list(itertools.product(range(n), repeat=2))
        a = Tensor.from_entries(POLY, (n, n), {key: poly(1 if key == (0, 0) else 0)
                                               for key in keys})
        b = Tensor.from_entries(POLY, (n, n), {key: poly(2, 1) for key in keys})
        c = poly(rng.randint(0, 2))
        got = _assert_packs(packed, [(c, "ij,jk->ik", (a, b)), (1, "ij,kj->ik", (a, b))])
        assert got.entry(0, 0).degree() == 3 + c.degree()


@pytest.mark.parametrize("ring", [RATIONAL, POLY])
def test_positive_constants_attain_the_bound_through_a_packed_row(monkeypatch, ring):
    # 3 M N is the bound and the output entry itself; it lies in [2^31, 2^32), so a slot
    # one bit narrower than the bound needs, 2^31 <= 3 M N, reads it back wrong
    m, n = 2 ** 15 + 3, 30011
    assert 2 ** 31 <= 3 * m * n < 2 ** 32
    a = Tensor.from_entries(ring, (3, 3), {(i, j): Scalar.of(ring, m) for i in range(3)
                                           for j in range(3)})
    b = Tensor.from_entries(ring, (3, 3), {(i, j): Scalar.of(ring, n) for i in range(3)
                                           for j in range(3)})
    packed = _rows_spy(monkeypatch)
    got = _assert_packs(packed, [(1, "ij,jk->ik", (a, b))])
    assert got.entry(2, 1) == Scalar.of(ring, 3 * m * n)


@pytest.mark.parametrize("ring", [RATIONAL, POLY])
def test_a_holder_packs_from_half_full(monkeypatch, ring):
    # b holds k; a's entries are constants, so over Q[q] an output entry has at most as
    # many coefficients as an entry of b, and b packs from half of its entries
    rng = random.Random(f"rows/half/{ring}")
    packed = _rows_spy(monkeypatch)
    a = Tensor.from_entries(ring, (3, 4), {key: Scalar.of(ring, rng.randint(1, 9))
                                           for key in itertools.product(range(3), range(4))})
    value = (lambda: Scalar.of(ring, rng.randint(1, 9))) if ring == RATIONAL else (
        lambda: polynomial((rng.randint(1, 9), rng.randint(1, 9))))
    keys = list(itertools.product(range(4), range(3)))
    for full, packs in ((6, True), (5, False), (12, True), (1, False)):
        b = Tensor.from_entries(ring, (4, 3), {key: value() for key in keys[:full]})
        _assert_packs(packed, [(1, "ij,jk->ik", (a, b))], packs)
    if ring == POLY:  # each entry counts as wide as the widest: 11 coefficients still pack
        b = Tensor.from_entries(ring, (4, 3), {key: value() if key != (0, 0) else
                                               Scalar.of(ring, 2) for key in keys[:6]})
        _assert_packs(packed, [(1, "ij,jk->ik", (a, b))])


def test_a_holder_of_constants_packs_only_against_a_low_degree(monkeypatch):
    # the slots of b's rows are as wide as an output entry, so against a of degree d the
    # 12 constants of b fill 1 / (d + 1) of them: half at d = 1, a third at d = 2
    rng = random.Random("rows/stride/constants")
    packed = _rows_spy(monkeypatch)
    keys = list(itertools.product(range(4), range(3)))
    for deg, full, packs in ((1, 12, True), (1, 11, False), (2, 12, False), (4000, 12, False)):
        a = Tensor.from_entries(POLY, (3, 4), {
            key: polynomial([0] * deg + [rng.randint(1, 9)])
            for key in itertools.product(range(3), range(4))})
        b = Tensor.from_entries(POLY, (4, 3), {key: Scalar.of(POLY, rng.randint(-9, 9) or 1)
                                               for key in keys[:full]})
        _assert_packs(packed, [(1, "ij,jk->ik", (a, b))], packs)


@pytest.mark.parametrize("ring", [RATIONAL, POLY])
def test_packed_rows_in_seeded_checks_match_the_interpreter(monkeypatch, ring):
    # the Novikov identities on the product induced from a seeded admissible quadruple,
    # dense enough to pack, with one entry perturbed so that they leave residuals
    from interp_oracle import interp_check_axiom
    packed = _rows_spy(monkeypatch)
    for seed in range(3):
        rng = random.Random(f"rows/family/{seed}/{ring}")
        n = 3 + seed
        quad = random_quadruple(rng, n)
        quad = quad.lift() if ring == POLY else quad
        circ = induce_novikov(quad.binop("dot"), quad.linmap("D"), quad.linmap("Q"),
                              q=None if ring == POLY else F(rng.randint(-3, 3), 2))
        bump = Scalar.one(ring) if ring == RATIONAL else polynomial((1, 0, 1))
        for t in (circ, circ + Tensor.from_entries(ring, circ.shape, {(0, 1, n - 1): bump})):
            pres = Presentation(ring, quad.space, binops={"circ": t})
            for axiom in ("NOV_LSYM", "NOV_RCOMM"):
                assert check_axiom(axiom, pres) == interp_check_axiom(axiom, pres)
    assert packed
