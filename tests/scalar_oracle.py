"""Q[q] arithmetic on Fraction coefficient tuples, kept as a naive oracle.

These are the bodies of ``Scalar.__add__``, ``__neg__``, ``__sub__`` and
``__mul__`` over Q[q], and of ``_trim``, as novq had them before integral
coefficients were stored as ints: every coefficient is a Fraction, missing
ones are padded with Fraction(0), and subtraction adds the negation.  Each
function takes and returns an ascending coefficient tuple with no trailing
zeros.  ``eval_q`` is ``Scalar.eval_q`` as it was before it ran on integer
numerators: Horner's rule in Fractions, returning the Fraction value.
"""

from fractions import Fraction


def _trim(coeffs):
    # canonical form: no trailing zeros, zero polynomial is ()
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def add(a, b):
    n = max(len(a), len(b))
    return _trim(tuple(
        (a[i] if i < len(a) else Fraction(0)) + (b[i] if i < len(b) else Fraction(0))
        for i in range(n)))


def neg(a):
    return tuple(-c for c in a)


def sub(a, b):
    return add(a, neg(b))


def mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _trim(out)


def eval_q(a, point):
    p = Fraction(point)
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * p + c
    return acc
