"""Rational roots by trial division, kept as a naive oracle.

This is the method ``novq.exactcore.rational_roots`` used before p-adic
lifting: every quotient of a divisor of the trailing coefficient by a
divisor of the leading one is tried by synthetic division.  It takes time
exponential in the coefficients' bit size, so only small inputs are fed to
it.  ``oracle_rational_roots`` must return the RootReport of
``rational_roots``.
"""

import math
from fractions import Fraction

from novq.exactcore import RootReport, Scalar, ZeroPolynomialError


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


def _deflate(coeffs: list[Fraction], root: Fraction) -> list[Fraction] | None:
    # synthetic division by (q - root); None when root is not actually a root
    acc = Fraction(0)
    quotient = []
    for c in reversed(coeffs):
        acc = acc * root + c
        quotient.append(acc)
    if acc != 0:
        return None
    quotient.pop()
    quotient.reverse()
    return quotient


def oracle_rational_roots(p: Scalar) -> RootReport:
    """All rational roots of a nonzero Q[q] scalar, ignoring multiplicity.

    ``has_nonrational_factor`` is True exactly when deflating every rational
    root still leaves a factor of positive degree.
    """
    p = p.lift()
    if p.is_zero():
        raise ZeroPolynomialError("the zero polynomial vanishes identically")
    coeffs = list(p.val)

    roots: set[Fraction] = set()
    # factor out q^k first so the trailing coefficient is nonzero
    shift = 0
    while coeffs[0] == 0:
        coeffs.pop(0)
        shift += 1
    if shift:
        roots.add(Fraction(0))
    if len(coeffs) == 1:
        return RootReport(frozenset(roots), False)

    # clear denominators to a primitive integer polynomial
    denom_lcm = 1
    for c in coeffs:
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in coeffs]

    candidates: set[Fraction] = set()
    for num in _divisors(ints[0]):
        for den in _divisors(ints[-1]):
            candidates.add(Fraction(num, den))
            candidates.add(Fraction(-num, den))

    work = coeffs
    for cand in sorted(candidates):
        while True:
            reduced = _deflate(work, cand)
            if reduced is None:
                break
            roots.add(cand)
            work = reduced
            if len(work) == 1:
                return RootReport(frozenset(roots), False)
    return RootReport(frozenset(roots), len(work) > 1)
