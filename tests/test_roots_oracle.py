"""rational_roots (p-adic lifting) against the trial-division oracle and sympy."""

import random
import time
from fractions import Fraction

import pytest

from novq import polynomial, rational_roots
from novq.exactcore import RootReport
from roots_oracle import oracle_rational_roots


def _linear(rng):
    """q - a/b, as a Q[q] scalar with a Fraction constant term."""
    return polynomial((-Fraction(rng.randint(-6, 6), rng.randint(1, 4)), 1))


def _irreducible(rng):
    """A quadratic or cubic with no rational root."""
    if rng.random() < 0.5:
        # a q^2 + b q + c with b^2 < 4ac, so no real root at all
        a, c = rng.randint(1, 4), rng.randint(1, 5)
        b = rng.choice([b for b in range(-3, 4) if b * b < 4 * a * c])
        return polynomial((c, b, a))
    # q^3 - d with d not a cube, or q^3 + q + 1 (no root among +-1)
    return polynomial(rng.choice(((-2, 0, 0, 1), (3, 0, 0, 1), (-5, 0, 0, 2), (1, 1, 0, 1))))


def _case(rng):
    """A seeded product and the set of features it has: linear factors with
    multiplicity 1-3, an irreducible quadratic or cubic, roots at 0, Fraction
    coefficients and an integer content up to 10^3."""
    tags = set()
    p = polynomial((Fraction(rng.choice((1, -1, 2, 3, -6)), rng.choice((1, 1, 2, 3))),))
    for _ in range(rng.choice((0, 1, 1, 2, 2, 3))):
        factor, times = _linear(rng), rng.choice((1, 1, 2, 3))
        if times > 1:
            tags.add("multiple")
        for _ in range(times):
            p = p * factor
    if rng.random() < 0.35:
        tags.add("irreducible")
        p = p * _irreducible(rng)
    if rng.random() < 0.25:
        tags.add("zero")
        p = p * polynomial((0,) * rng.randint(1, 3) + (1,))
    if rng.random() < 0.3:
        tags.add("content")
        p = p * polynomial((rng.randint(2, 999),))
    if any(c.denominator > 1 for c in p.val):
        tags.add("fraction")
    return p, tags


def test_matches_the_oracle_on_seeded_products():
    rng = random.Random(20240501)
    seen = dict.fromkeys(("multiple", "irreducible", "zero", "content", "fraction"), 0)
    for _ in range(2000):
        p, tags = _case(rng)
        assert rational_roots(p) == oracle_rational_roots(p), str(p)
        for tag in tags:
            seen[tag] += 1
    assert min(seen.values()) >= 100, seen


def test_content_up_to_1e12_does_not_change_the_report():
    # The oracle's time grows with the square root of the end coefficients,
    # so it sees the primitive polynomial; the report of c*p must equal it.
    rng = random.Random(7)
    for _ in range(200):
        p, _ = _case(rng)
        expected = oracle_rational_roots(p)
        for c in (rng.randint(2, 10 ** 12), 10 ** 12, 2 ** 39 * 3, 999999999989):
            assert rational_roots(p * polynomial((c,))) == expected
            assert rational_roots(p * polynomial((Fraction(1, c),))) == expected


def test_oracle_itself_at_a_large_prime_content():
    # one direct comparison where the content is a prime near 10^12
    p = polynomial((-1, 2)) * polynomial((3, 0, 1)) * polynomial((999999999989,))
    assert rational_roots(p) == oracle_rational_roots(p) == RootReport(
        frozenset({Fraction(1, 2)}), True)


def test_bit_size_regressions():
    primes = (1048573, 1048571, 1048559, 1048549, 1048517, 1048507)
    sixth = polynomial((1, 1, 0, 1))  # q^3 + q + 1, no rational root
    for a, b in zip(primes[:3], primes[3:]):
        sixth = sixth * polynomial((-b, a))
    assert sixth.degree() == 6
    assert all(59 <= abs(c).numerator.bit_length() <= 61 for c in (sixth.val[0], sixth.val[-1]))
    cases = [
        (polynomial((-10 ** 40, 10 ** 40)), RootReport(frozenset({Fraction(1)}), False)),
        (polynomial((-3, 10 ** 20)) * polynomial((7, 1)) * polynomial((2, 0, 1)),
         RootReport(frozenset({Fraction(3, 10 ** 20), Fraction(-7)}), True)),
        (sixth, RootReport(frozenset(Fraction(b, a) for a, b in zip(primes[:3], primes[3:])),
                           True)),
    ]
    start = time.perf_counter()
    for p, expected in cases:
        assert rational_roots(p) == expected
    # trial division up to the square root of 10^40 would not finish at all
    assert time.perf_counter() - start < 1.0


def _sympy_report(sympy, p):
    x = sympy.Symbol("q")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** k for k, c in enumerate(p.val))
    roots, nonrational = set(), False
    for factor, _ in sympy.factor_list(expr, x)[1]:
        poly = sympy.Poly(factor, x)
        if poly.degree() == 1:
            a, b = poly.all_coeffs()
            r = -sympy.Rational(b) / sympy.Rational(a)
            roots.add(Fraction(int(r.p), int(r.q)))
        elif poly.degree() > 1:
            nonrational = True
    return RootReport(frozenset(roots), nonrational)


def test_matches_sympy_on_large_coefficients():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    for _ in range(60):
        p = polynomial((Fraction(rng.randint(1, 10 ** 30), rng.randint(1, 10 ** 10)),))
        for _ in range(rng.randint(1, 3)):
            root = Fraction(rng.randint(-10 ** 15, 10 ** 15), rng.randint(1, 10 ** 12))
            p = p * polynomial((-root, 1))
        if rng.random() < 0.5:
            p = p * polynomial((rng.randint(1, 10 ** 18), rng.randint(-3, 3), 1))
        if rng.random() < 0.3:
            p = p * polynomial((-rng.choice((2, 3, 5)) * 10 ** 21, 0, 0, 1))
        assert rational_roots(p) == _sympy_report(sympy, p), str(p)
