"""Seeded generators for randomized tests.

Builds small commutative associative algebras with a derivation D and a
compatible second operator Q, solving the defining linear systems exactly
over Fraction so every generated quadruple is admissible by construction.
"""

import random
from fractions import Fraction

from novq import Presentation, RATIONAL, Scalar, Space, Tensor


def rref(rows):
    """In-place reduced row echelon form; returns the pivot column list."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pick = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pick = i
                break
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def solve_affine(rows, rhs):
    """Solve rows . x = rhs exactly.

    Returns (particular, basis) where basis spans the homogeneous solutions,
    or None when the system is inconsistent.
    """
    n = len(rows[0]) if rows else 0
    aug = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = rref(aug)
    if n in pivots:
        return None
    part = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        part[c] = aug[r][n]
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -aug[r][f]
        basis.append(v)
    return part, basis


def mat_inverse(m):
    n = len(m)
    aug = [list(map(Fraction, m[i])) + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in aug]


# -- seed algebras (commutative, associative) --------------------------------------

def _trunc(n):
    # span of t, t^2, ..., t^n with t^i t^j = t^(i+j), chopped past degree n
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i + j + 2 <= n:
                c[i][j][i + j + 1] = Fraction(1)
    return c


def _unital_trunc(n):
    # 1, x, ..., x^(n-1) in k[x]/(x^n)
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i + j < n:
                c[i][j][i + j] = Fraction(1)
    return c


def _diag(n):
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        c[i][i][i] = Fraction(1)
    return c


def _zero(n):
    return [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]


def seed_products(n):
    out = [_trunc(n), _unital_trunc(n), _diag(n), _zero(n)]
    if n == 3:
        c = _zero(3)
        c[0][0][1] = Fraction(2)
        c[0][1][2] = Fraction(3)
        c[1][0][2] = Fraction(3)
        out.append(c)
    return out


def change_basis(c, P):
    n = len(c)
    Pinv = mat_inverse(P)
    assert Pinv is not None
    out = _zero(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = Fraction(0)
                for m in range(n):
                    for p in range(n):
                        for l in range(n):
                            s += P[m][i] * P[p][j] * c[m][p][l] * Pinv[k][l]
                out[i][j][k] = s
    return out


def random_invertible(rng, n):
    while True:
        P = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if mat_inverse(P) is not None:
            return P


def _deriv_system(c):
    # unknowns D[k][m] flattened as k*n + m
    n = len(c)
    rows = []
    for a in range(n):
        for b in range(n):
            for k in range(n):
                row = [Fraction(0)] * (n * n)
                for m in range(n):
                    row[k * n + m] += c[a][b][m]
                    row[m * n + a] -= c[m][b][k]
                    row[m * n + b] -= c[a][m][k]
                rows.append(row)
    return rows


def _admiss_system(c, D):
    # unknowns Q[k][m]; rhs collects the -a.D(b) part moved across
    n = len(c)
    rows, rhs = [], []
    for a in range(n):
        for b in range(n):
            for k in range(n):
                row = [Fraction(0)] * (n * n)
                for m in range(n):
                    row[k * n + m] += c[a][b][m]
                    row[m * n + a] -= c[m][b][k]
                rows.append(row)
                rhs.append(-sum(D[m][b] * c[a][m][k] for m in range(n)))
    return rows, rhs


def _combine(rng, basis, n):
    M = [[Fraction(0)] * n for _ in range(n)]
    for v in basis:
        w = rng.randint(-2, 2)
        if w:
            for idx, x in enumerate(v):
                M[idx // n][idx % n] += w * x
    return M


def random_quadruple(rng, n):
    """A random admissible quadruple as a Presentation over Q.

    Product: a random basis change of a seed algebra.  D: random derivation.
    Q: random solution of Q(ab) = Q(a)b - aD(b), retrying with D = 0 when the
    inhomogeneous system has no solution.
    """
    c = rng.choice(seed_products(n))
    c = change_basis(c, random_invertible(rng, n))
    for _ in range(4):
        dbasis = solve_affine(_deriv_system(c), [0] * (n * n * n))[1]
        D = _combine(rng, dbasis, n)
        sol = solve_affine(*_admiss_system(c, D))
        if sol is None:
            D = [[Fraction(0)] * n for _ in range(n)]
            sol = solve_affine(*_admiss_system(c, D))
        if sol is not None:
            break
    part, qbasis = sol
    Q = _combine(rng, qbasis, n)
    for idx in range(n * n):
        Q[idx // n][idx % n] += part[idx]
    return quadruple_presentation(c, D, Q)


def quadruple_presentation(c, D, Q):
    n = len(c)
    names = tuple("e%d" % (i + 1) for i in range(n))
    space = Space(names)
    dot = _binop_from(c)
    dm = Tensor.from_dense(RATIONAL, tuple(tuple(Scalar.of(RATIONAL, x) for x in row) for row in D))
    qm = Tensor.from_dense(RATIONAL, tuple(tuple(Scalar.of(RATIONAL, x) for x in row) for row in Q))
    return Presentation(RATIONAL, space, binops={"dot": dot}, maps={"D": dm, "Q": qm})


def _binop_from(c):
    n = len(c)
    return Tensor.from_dense(RATIONAL, [[[Scalar.of(RATIONAL, c[i][j][k])
                                          for k in range(n)]
                                         for j in range(n)]
                                        for i in range(n)])


def random_antisym_r(rng, n, ring=RATIONAL):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = Fraction(rng.randint(-2, 2))
            rows[i][j] = x
            rows[j][i] = -x
    return Tensor.from_dense(ring, tuple(tuple(Scalar.of(ring, x) for x in row) for row in rows))
