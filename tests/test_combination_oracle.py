"""Tensor.combination against sums of the Fraction-join einsum oracle.

combination adds c * einsum(spec, *operands) over its terms on integer
numerators over one common denominator.  Its entries must equal the
oracle's sum of c times each contraction, each an int when integral and a
Fraction otherwise over Q.  The inputs are Q operands with non-integral
entries, Q[q] operands, coefficients that are ints, rational Scalars and
Q[q] Scalars, a term with no join (a leg change, whose entries are not
numerators yet) and terms that cancel.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from einsum_oracle import oracle_einsum
from novq import POLY, RATIONAL, Scalar, Tensor, polynomial
from novq.exactcore import RingMismatchError, ShapeError

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
        for *key, v in oracle_einsum(Tensor, spec, *operands).nonzero():
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
    assert Tensor.combination([(1, "ki->ik", (a,))]) == oracle_einsum(Tensor, "ki->ik", a)
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
