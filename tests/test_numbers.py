"""Constants reach a tensor as ints and Fractions, equal to the Scalars they stand for."""

import random
from fractions import Fraction

import pytest

from novq import POLY, PresFileError, RATIONAL, Scalar, Tensor, parse
from novq.catalog import CATALOG, compile_axiom
from novq.exactcore import ShapeError
from novq.presfile import MAX_POWER


def test_ints_and_fractions_go_in_as_the_scalars_they_equal():
    rng = random.Random(29)
    for ring in (RATIONAL, POLY):
        for _ in range(60):
            nums = {(rng.randrange(3), rng.randrange(2)): rng.choice(
                        (rng.randint(-3, 3), Fraction(rng.randint(-6, 6), rng.randint(1, 4))))
                    for _ in range(rng.randint(0, 6))}
            boxed = Tensor.from_entries(ring, (3, 2),
                                        {k: Scalar.of(ring, v) for k, v in nums.items()})
            bare = Tensor.from_entries(ring, (3, 2), nums)
            assert bare == boxed and hash(bare) == hash(boxed)
            assert bare.nonzero() == boxed.nonzero() and bare._entries == boxed._entries
            c = rng.choice((-2, Fraction(3, 4)))
            assert bare.scale(c) == boxed.scale(Scalar.of(ring, c))
            assert Tensor.combination([(c, "ij->ij", (bare,))]) == \
                Tensor.combination([(Scalar.of(ring, c), "ij->ij", (boxed,))])
        one = Scalar.one(ring)
        assert Tensor.from_dense(ring, [[0, Fraction(1, 2)], [one, -3]]) == Tensor.from_entries(
            ring, (2, 2), {(0, 1): Fraction(1, 2), (1, 0): 1, (1, 1): -3})
        assert Tensor.basis(ring, 3, 1) == Tensor.from_entries(ring, (3,), {(1,): one})
        assert Tensor.identity(ring, 2) == Tensor.from_entries(ring, (2, 2),
                                                               {(0, 0): one, (1, 1): one})
        # an integral Fraction is stored as the int it equals, over Q[q] as a coefficient
        stored = Tensor.from_entries(ring, (1,), {(0,): Fraction(4, 2)})._entries[(0,)]
        assert type(stored if ring == RATIONAL else stored.val[0]) is int and stored == 2
        for bad in (2.0, True, "2", None):
            with pytest.raises(TypeError):
                Tensor.from_entries(ring, (1,), {(0,): bad})
            with pytest.raises(TypeError):
                Tensor.from_dense(ring, [1, bad])
    with pytest.raises(ShapeError):
        Tensor.basis(RATIONAL, 3, 3)


def test_the_catalog_compiles_a_q_free_coefficient_as_an_int():
    for aid in CATALOG:
        compiled = compile_axiom(aid)
        for c, _, _ in (*compiled.terms, *(t for terms in compiled.sums for t in terms)):
            assert type(c) is int or c.ring == POLY and c.degree() > 0, (aid, c)


def test_the_power_budget_sizes_a_number_as_the_scalar_it_equals():
    # one, plus the degree, plus the bit lengths of each coefficient's numerator and denominator
    F = Fraction
    for ring, base, value, size in (("Q", "0", 0, 1), ("Q", "(2/3)", F(2, 3), 5),
                                    ("Q", "(3 - 3)", 0, 1), ("Q[q]", "(4/2)", 2, 4),
                                    ("Q[q]", "(q - q + 7)", 7, 5), ("Q[q]", "(1 + q)", None, 6),
                                    ("Q[q]", "(0*q)", 0, 1)):
        e = MAX_POWER // size + 1
        with pytest.raises(PresFileError) as exc:
            parse(f"space 1 a\nring {ring}\nproduct dot\na a -> {base}^{e}*a\n")
        assert str(exc.value) == (f"line 4: power with exponent {e} of a base of size {size} "
                                  f"exceeds the budget of {MAX_POWER}"), (ring, base)
        got = parse(f"space 1 a\nring {ring}\nproduct dot\na a -> -{base}^{e - 1}*a\n")
        entry = got.binop("dot").entry(0, 0, 0)
        assert entry.degree() == e - 1 if value is None else entry == -value ** (e - 1)
