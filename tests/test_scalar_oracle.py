"""The Q[q] kernel against the Fraction-tuple oracle, and the tensor edges.

Inside a tensor a Q[q] coefficient is an int when integral; everywhere else
it is a Fraction.  The kernel must give the oracle's values on any mix of
the two, keep all-int and all-Fraction payloads as they are, and never
produce a float.
"""

import operator
import random
from fractions import Fraction

import scalar_oracle as orc
from novq import POLY, RATIONAL, Scalar, polynomial
from novq.exactcore import Tensor, bareiss_det, exact_div

F = Fraction


def _coeff(rng):
    kind = rng.random()
    if kind < 0.25:
        return 0
    if kind < 0.55:
        return rng.randint(-9, 9)
    if kind < 0.7:
        return rng.choice((1, -1)) * rng.randint(1, 10 ** 30)
    if kind < 0.9:
        return F(rng.randint(-9, 9), rng.randint(1, 9))
    return F(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 30))


def _poly(rng):
    """Canonical exact coefficients of degree -1..6, interior zeros included."""
    coeffs = [_coeff(rng) for _ in range(rng.randint(0, 7))]
    return orc._trim([F(c) for c in coeffs])


def _as(p, kind):
    """The same value as an all-Fraction, unboxed (int when integral) or mixed tuple."""
    if kind == "fraction":
        return p
    if kind == "unboxed":
        return tuple(c.numerator if c.denominator == 1 else c for c in p)
    return tuple(c.numerator if c.denominator == 1 and i % 2 else c for i, c in enumerate(p))


def _pair(rng):
    a, b = _poly(rng), _poly(rng)
    shape = rng.random()
    if shape < 0.1:
        b = orc.neg(a)  # a + b cancels to zero
    elif shape < 0.2:
        b = a  # a - b cancels to zero
    elif shape < 0.35 and a:
        # b agrees with -a on the top coefficients, so a + b drops degree
        k = rng.randint(1, len(a))
        low = _poly(rng)[:len(a) - k]
        b = orc._trim(low + (F(0),) * (len(a) - k - len(low)) + orc.neg(a[len(a) - k:]))
    return a, b


def _types(p):
    return {type(c) for c in p}


def test_kernel_matches_the_oracle_on_seeded_pairs():
    rng = random.Random(2024)
    ops = ((operator.add, orc.add), (operator.sub, orc.sub), (operator.mul, orc.mul))
    for _ in range(2000):
        a, b = _pair(rng)
        ka, kb = rng.choice(("fraction", "unboxed", "mixed")), rng.choice(
            ("fraction", "unboxed", "mixed"))
        x, y = Scalar(POLY, _as(a, ka)), Scalar(POLY, _as(b, kb))
        results = [(op(x, y), want(a, b)) for op, want in ops]
        results.append((-x, orc.neg(a)))
        for got, want in results:
            assert got.ring == POLY and got.val == want, (a, b)
            assert _types(got.val) <= {int, Fraction}
        # an all-int payload stays all-int, an all-Fraction one all-Fraction
        for kind in (int, Fraction):
            if _types(x.val) | _types(y.val) <= {kind}:
                assert all(_types(got.val) <= {kind} for got, _ in results), (a, b)


def _is_fraction_payload(s):
    return isinstance(s, Scalar) and s.ring == POLY and _types(s.val) <= {Fraction}


def test_eval_q_matches_fraction_horner_on_seeded_points():
    rng = random.Random(31)
    points = [0, 1, -1, 7, -5, F(-1, 2), F(3, 7), F(-10 ** 30 + 7, 10 ** 30 + 1)]
    for _ in range(600):
        a = _poly(rng) if rng.random() < 0.9 else ()
        point = rng.choice(points + [F(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 30)),
                                     rng.randint(-9, 9)])
        for kind in ("fraction", "unboxed", "mixed"):
            got = Scalar(POLY, _as(a, kind)).eval_q(point)
            assert got.ring == RATIONAL and type(got.val) is Fraction
            assert got.val == orc.eval_q(a, point), (a, point)
    assert Scalar(POLY, ()).eval_q(F(2, 3)).val == 0


def test_every_edge_gives_fraction_payloads():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 3)
        x = Tensor.from_dense(POLY, [polynomial(_poly(rng)[:3]) for _ in range(n)])
        m = Tensor.from_dense(POLY, [[polynomial(_poly(rng)[:3]) for _ in range(n)]
                                     for _ in range(n)])
        t = Tensor.from_dense(POLY, [[polynomial(_poly(rng)[:2]) for _ in range(n)]
                                     for _ in range(n)])
        y = Tensor.einsum("j,ij->i", x, m)
        tensors = (x, m, t, y, y + x, y - x, -y, y.scale(polynomial((3, F(1, 2)))),
                   Tensor.block_diag(m, m), m.transpose(),
                   Tensor.einsum("j,ij->i", Tensor.basis(POLY, n, 0), m),
                   Tensor.stack([x, y]), Tensor.einsum("ij,jk->ik", t, t))
        for tensor in tensors:
            for s in (*(e[-1] for e in tensor.nonzero()), tensor.entry(*(0,) * len(tensor.shape))):
                assert _is_fraction_payload(s), s.val
            dense = tensor.dense
            while dense and isinstance(dense[0], tuple):
                dense = [s for row in dense for s in row]
            assert all(_is_fraction_payload(s) for s in dense)
            seen = []
            tensor.map_scalars(lambda s: seen.append(s) or s, POLY)
            assert all(_is_fraction_payload(s) for s in seen)
        # the values a tensor holds are what it was given, whatever it stores inside
        assert [e[-1] for e in y.nonzero()] == [s for s in y.dense if s]
        assert list(x.dense) == [Tensor.from_dense(POLY, x.dense).entry(i) for i in range(n)]
    # inside, integral coefficients are ints and the rest Fractions
    v = Tensor.from_dense(POLY, [polynomial((2, F(1, 2), F(4, 2)))])
    assert [type(c) for c in v._entries[(0,)].val] == [int, Fraction, int]
    assert [type(c) for c in v.entry(0).val] == [Fraction] * 3


def test_division_and_determinant_stay_exact_on_integral_inputs():
    big = 10 ** 30 + 1
    # int / int would be a float: 1/3 and (10^30 + 1)/3 are not floats
    for num, den, want in (((1, 3), (3,), (F(1, 3), F(1))),
                           ((big, 3 * big), (3,), (F(big, 3), F(big))),
                           ((-1, 0, 1), (1, 1), (F(-1), F(1))),
                           ((0, 0, 7), (0, 7), (F(0), F(1)))):
        q = exact_div(Scalar(POLY, num), Scalar(POLY, den))
        assert q.val == want and _types(q.val) <= {Fraction}
    assert Scalar(POLY, (5,)).constant_value() == 5
    assert type(Scalar(POLY, (5,)).constant_value()) is Fraction
    p = Scalar(POLY, (1, 2)).eval_q(F(1, 3))
    assert p.val == F(5, 3) and type(p.val) is Fraction

    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 4)
        rows = [[Scalar(POLY, orc._trim([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]))
                 for _ in range(n)] for _ in range(n)]
        det = bareiss_det(rows, POLY)
        want = _cofactor_det([[tuple(F(c) for c in s.val) for s in row] for row in rows])
        assert det.val == want
        if det:
            assert _types(det.val) <= {Fraction}


def _cofactor_det(rows):
    """Determinant by cofactor expansion along the first row, in the oracle's arithmetic."""
    if len(rows) == 1:
        return rows[0][0]
    acc = ()
    for j, s in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = orc.mul(s, _cofactor_det(minor))
        acc = orc.add(acc, term) if j % 2 == 0 else orc.sub(acc, term)
    return acc
