"""Tensor.einsum against the Fraction-join oracle on Q inputs.

Over Q einsum joins integer numerators over each operand's common
denominator and divides once per output entry; a leg change alone does no
arithmetic.  It must store exactly the oracle's entries, each an int when
integral and a Fraction otherwise after a join and as stored after a leg
change.  The inputs are operands that are all ints, all Fractions or mixed;
small, coprime prime and 30-digit denominators; products that cancel; empty
operands; and an operand whose cached index is reused across calls.
"""

import itertools
import random
from fractions import Fraction

import pytest

from einsum_oracle import oracle_einsum
from genalg import random_quadruple
from novq import RATIONAL, BinOpTensor, LinMap, Scalar, Tensor, Vector
from novq.constructions import induce_novikov

F = Fraction
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

SPECS = (
    "i,j,ijk->k",  # a product of two vectors
    "ab,ia,jb->ij",  # a map on each leg of an order-2 tensor
    "i,ijk->jk",
    "j,ij->i",
    "kj,ik->ij",  # composition of maps
    "mj,imk->ijk",  # the induced product a . K(b)
    "ABi,iCk->ABCk",  # a nested product in the evaluator
    "Amk,mij->Aijk",  # a coproduct on leg 1 (coleg)
    "Aim,mjk->Aijk",  # a coproduct on leg 2 (coleg)
    "Ai,Wj,ikj->AWk",  # a module's operator family (rep)
    "bj,bmi,km->ijk",
    "i,j,ijk,kl->l",  # four operands
    "ijk->ikj",  # a leg change, no join
    "ij->ij",
    "i,i->",  # a full contraction to order 0
)


def _denominators(rng, pool: str, operand: int) -> tuple:
    if pool == "small":
        return tuple(range(1, 10))
    if pool == "primes":  # two primes per operand, coprime to every other operand's
        return PRIMES[2 * operand:2 * operand + 2]
    return tuple(rng.randint(1, 10 ** 30) for _ in range(3))


def _value(rng, kind: str, dens: tuple):
    num = rng.choice((-2, -1, 1, 1, 2, 3)) * (rng.randint(1, 10 ** 30) if dens[0] > 10 ** 6
                                              else 1)
    if kind == "int":
        return num
    v = F(num, rng.choice(dens))
    if kind == "fraction" or v.denominator > 1 or rng.random() < 0.5:
        return v  # all-Fraction operands hold Fraction(k, 1) too, as a sum can leave
    return v.numerator


def _operand(rng, legs: int, n: int, kind: str, dens: tuple, density: float) -> Tensor:
    entries = {key: _value(rng, kind, dens) for key in itertools.product(range(n), repeat=legs)
               if rng.random() < density}
    return Tensor._make(RATIONAL, (n,) * legs, entries)


def _assert_same(got: Tensor, want: Tensor, joined: bool = True) -> None:
    """Equal entries: an int exactly when integral after a join, as stored after a leg change."""
    assert (type(got), got.ring, got.shape) == (type(want), want.ring, want.shape)
    assert got._entries.keys() == want._entries.keys()
    for key, v in want._entries.items():
        g = got._entries[key]
        kind = (int if F(v).denominator == 1 else F) if joined else type(v)
        assert g == v and type(g) is kind, (key, g, v)


def _check(cls, spec: str, *operands: Tensor) -> Tensor:
    got = cls.einsum(spec, *operands)
    _assert_same(got, oracle_einsum(cls, spec, *operands), joined=len(operands) > 1)
    return got


@pytest.mark.parametrize("pool", ["small", "primes", "big"])
@pytest.mark.parametrize("kinds", [("int",), ("fraction",), ("int", "fraction", "mixed")])
def test_matches_the_oracle_on_random_operands(pool, kinds):
    rng = random.Random(f"einsum/{pool}/{kinds}")
    for spec in SPECS:
        ins = spec.split("->")[0].split(",")
        for _ in range(6):
            n = rng.randint(1, 3)
            density = rng.choice((0.0, 0.3, 0.7, 1.0))
            operands = [_operand(rng, len(legs), n, rng.choice(kinds),
                                 _denominators(rng, pool, o), density)
                        for o, legs in enumerate(ins)]
            _check(Tensor, spec, *operands)


def test_matches_the_oracle_where_products_cancel():
    # e1 e1 -> e1 and e2 e2 -> -e1, scaled: x (x) x cancels whenever x1 = +-x2
    for num, den, scale in ((1, 3, F(1, 2)), (7, 10 ** 30 + 1, F(5, 10 ** 29 + 3)), (2, 1, 3)):
        x = Vector(RATIONAL, [Scalar.of(RATIONAL, F(num, den)), Scalar.of(RATIONAL, F(-num, den))])
        op = BinOpTensor.from_entries(RATIONAL, (2, 2, 2), {
            (0, 0, 0): Scalar.of(RATIONAL, scale), (1, 1, 0): Scalar.of(RATIONAL, -scale),
            (0, 1, 1): Scalar.of(RATIONAL, scale)})
        got = _check(Vector, "i,j,ijk->k", x, x, op)
        assert (0,) not in got._entries and got._entries[(1,)] == -scale * F(num, den) ** 2
    # a product of two nonzero sparse operands with no shared keys is empty
    a = _operand(random.Random(1), 2, 3, "fraction", (3, 7), 1.0)
    empty = Tensor._make(RATIONAL, (3, 3), {})
    assert _check(Tensor, "ij,jk->ik", a, empty).is_zero()
    assert _check(Tensor, "ij,jk->ik", empty, a).is_zero()


def test_matches_the_oracle_on_seeded_quadruples_with_cached_indexes():
    rng = random.Random(23)
    for _ in range(6):
        pres = random_quadruple(rng, rng.randint(2, 4))
        dot, D, Q = pres.binop("dot"), pres.linmap("D"), pres.linmap("Q")
        n = dot.dim
        q = rng.choice((F(-1, 2), F(1, 3), F(-3, 2), F(2)))
        circ = induce_novikov(dot, D, Q, q=q)
        _assert_same(circ, oracle_einsum(BinOpTensor, "mj,imk->ijk",
                                         D + Q.scale(Scalar.of(RATIONAL, q)), dot))
        cached = None
        for _ in range(4):  # circ and D are hit again through their cached indexes
            x, y = (_operand(rng, 1, n, "mixed", (1, 2, 3, 7), 0.7) for _ in range(2))
            _check(Vector, "i,j,ijk->k", x, y, circ)
            _check(Tensor, "ABi,iCk->ABCk", circ, circ)
            _check(Tensor, "ab,ia,jb->ij", Tensor.einsum("i,j,ijk->jk", x, y, circ), D, Q)
            _check(LinMap, "kj,ik->ij", D, Q)
            if cached is None:
                cached = dict(circ._index)
            assert all(circ._index[key] is index for key, index in cached.items())
