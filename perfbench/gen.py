"""Seeded inputs for the novq benchmark.

The design of every input is fixed here: dimensions, the seed algebra of
each generated quadruple, the share of perturbed copies, the bound on
basis-change entries, the scale bands and the windows.  The seed only
draws inside that design, so every seed asks the program for the same kind
and amount of work.  The program receives only the text files written from
these values; nothing here imports novq.

The quadruple construction follows tests/genalg.py: a commutative
associative product, a random derivation D and a random solution Q of
Q(ab) = Q(a)b - aD(b), solved exactly over Fraction, then moved to a fixed
basis with an integer inverse whose vectors the seed permutes and negates.
"""

import random
from fractions import Fraction

# (dimension, seed algebra) of each admissible quadruple in rational_cli.
# Every one also gets a perturbed copy, so half of the generated files fail.
QUADRUPLE_SLOTS = ((2, "unital"), (3, "special"), (4, "trunc"), (4, "unital"),
                   (5, "trunc"), (6, "unital"))
BASIS_BOUND = 2  # basis-change entries are drawn from [-BASIS_BOUND, BASIS_BOUND]

# symbolic_loci: (fixture, dense basis?, scale band).  A scale is a prime in
# its band, so every seed gives root finding the same divisor structure.
# A dense basis with a large scale takes many seconds per locus, so the dense
# case keeps scale 1; the large scales run in the fixture's own basis.  The
# list is kept short (about 5 s per pass on a 2-vCPU VM) so that a run holds
# enough passes for each operation's median to be steady.
ZINBIEL_CASES = (("zinb-nonderiv", False, (1, 1)),
                 ("zinb-nonderiv", False, (9900, 10100)),
                 ("zinb-deriv", False, (9900, 10100)),
                 ("zinb-nonderiv", True, (1, 1)))

# symbolic_loci's dense case changes to this basis (entries in [-2, 2],
# determinant 1), then relabels and signs the new basis vectors by seed.  The
# seed thus never changes how many residual entries are nonzero or how large
# their coefficients are, which is what sets the cost of root finding.
DENSE_BASIS = ((1, 1, 0), (1, 2, 1), (0, 1, 2))

# affine_window: (q, lowest degree, highest degree) of each window on exnov1,
# widths 5 to 7, centred and shifted.  A window's cost moves by up to 15% with
# its shift, and the workload's percentiles fall among these windows, so the
# windows are fixed and the seed draws only the order of the operations.
EXNOV1_WINDOWS = (("-1/2", -2, 2), ("-1/2", -1, 4), ("-1/2", -3, 3), ("0", -3, 2))


# -- exact linear algebra over Fraction ----------------------------------------

def _rref(rows):
    """Reduce rows in place; return the pivot columns."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pick = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        inv = 1 / rows[r][c]
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


def _solve_affine(rows, rhs):
    """(particular solution, homogeneous basis) of rows . x = rhs, or None."""
    n = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = _rref(aug)
    if n in pivots:
        return None
    part = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        part[c] = aug[r][n]
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -aug[r][f]
        basis.append(v)
    return part, basis


def _inverse(m):
    n = len(m)
    aug = [[Fraction(x) for x in m[i]] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    if _rref(aug) != list(range(n)):
        return None
    return [row[n:] for row in aug]


def _zero3(n):
    return [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]


def _seed_product(n, kind):
    c = _zero3(n)
    if kind == "trunc":  # t, t^2, ..., t^n with products past t^n cut off
        for i in range(n):
            for j in range(n):
                if i + j + 2 <= n:
                    c[i][j][i + j + 1] = Fraction(1)
    elif kind == "unital":  # 1, x, ..., x^(n-1) in k[x]/(x^n)
        for i in range(n):
            for j in range(n):
                if i + j < n:
                    c[i][j][i + j] = Fraction(1)
    elif kind == "special":  # the 3-dim algebra of the paper's examples
        c[0][0][1] = Fraction(2)
        c[0][1][2] = c[1][0][2] = Fraction(3)
    else:
        raise ValueError(f"unknown seed algebra {kind!r}")
    return c


def _random_unimodular(rng, n):
    """A basis change with small entries and an integer inverse.

    An integer inverse keeps integer constants integral and their size
    bounded, so every seed asks the program for about the same arithmetic.
    """
    while True:
        P = [[rng.randint(-BASIS_BOUND, BASIS_BOUND) for _ in range(n)] for _ in range(n)]
        if abs(_det(P)) == 1:
            return [[Fraction(x) for x in row] for row in P], _inverse(P)


def _signed_relabelling(rng, P0):
    """P0 with its columns permuted and negated by seed, and its inverse."""
    n = len(P0)
    perm = rng.sample(range(n), n)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    P = [[Fraction(signs[j] * P0[i][perm[j]]) for j in range(n)] for i in range(n)]
    return P, _inverse(P)


def _det(m):
    """Determinant of an integer matrix by fraction-free elimination."""
    m = [row[:] for row in m]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _change_product(c, P, Pinv):
    """Constants of the same product in the basis f_i = sum_m P[m][i] e_m."""
    n = len(c)
    out = _zero3(n)
    for i in range(n):
        for j in range(n):
            # e-coordinates of f_i f_j, then back to f-coordinates
            v = [sum(P[m][i] * P[p][j] * c[m][p][l]
                     for m in range(n) if P[m][i] for p in range(n) if P[p][j])
                 for l in range(n)]
            for k in range(n):
                out[i][j][k] = sum(Pinv[k][l] * v[l] for l in range(n) if v[l])
    return out


def _change_map(M, P, Pinv):
    n = len(M)
    MP = [[sum(M[i][a] * P[a][j] for a in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(Pinv[i][a] * MP[a][j] for a in range(n)) for j in range(n)]
            for i in range(n)]


def _combine(rng, basis, n):
    M = [[Fraction(0)] * n for _ in range(n)]
    for v in basis:
        w = rng.randint(-2, 2)
        if w:
            for idx, x in enumerate(v):
                M[idx // n][idx % n] += w * x
    return M


def _derivations(c):
    # unknowns D[k][m] (coefficient of e_k in D(e_m)), flattened as k*n + m
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
    return _solve_affine(rows, [0] * len(rows))[1]


def _admissible_q(c, D):
    # Q(ab) - Q(a)b = -aD(b), unknowns Q[k][m]
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
    return _solve_affine(rows, rhs)


def random_quadruple(rng, n, kind, basis):
    """(product, D, Q) of an admissible quadruple in a seeded relabelling of basis.

    D and Q are solved for in the seed algebra's own sparse integer basis,
    where the linear systems are cheap, and then carried to the new basis
    with the product; both conditions are basis independent.
    """
    c = _seed_product(n, kind)
    D = _combine(rng, _derivations(c), n)
    sol = _admissible_q(c, D)
    if sol is None:  # this D admits no Q; D = 0 always does (Q = 0)
        D = [[Fraction(0)] * n for _ in range(n)]
        sol = _admissible_q(c, D)
    part, qbasis = sol
    Q = _combine(rng, qbasis, n)
    for idx in range(n * n):
        Q[idx // n][idx % n] += part[idx]
    P, Pinv = _signed_relabelling(rng, basis)
    return _change_product(c, P, Pinv), _change_map(D, P, Pinv), _change_map(Q, P, Pinv)


def perturb(rng, c):
    """A copy of c whose product is no longer commutative at e1 e2.

    The entry is fixed so that every seed's checks meet their first witness
    at the same point of their scan; the seed draws the change.
    """
    n = len(c)
    out = [[row[:] for row in plane] for plane in c]
    out[0][1][n - 1] += rng.choice((-2, -1, 1, 2))
    return out


def _prime_in(rng, band):
    lo, hi = band
    if hi <= 1:
        return 1
    primes = [p for p in range(max(lo, 2), hi + 1)
              if all(p % d for d in range(2, int(p ** 0.5) + 1))]
    return rng.choice(primes)


# rational_cli's basis of each slot: drawn once, with entries in
# [-BASIS_BOUND, BASIS_BOUND] and an integer inverse.  The seed relabels and
# signs its vectors, which leaves the number and size of the product's
# constants, and so the work of a full scan, the same for every seed.
QUADRUPLE_BASES = tuple(
    [[int(x) for x in row] for row in _random_unimodular(random.Random(f"basis/{slot}"), n)[0]]
    for slot, (n, _) in enumerate(QUADRUPLE_SLOTS))


# -- text ----------------------------------------------------------------------

def _terms(pairs, names):
    parts = []
    for k, x in pairs:
        if x == 1:
            term = names[k]
        elif x == -1:
            term = "-" + names[k]
        else:
            term = f"{x}*{names[k]}"
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append("- " + term[1:])
        else:
            parts.append("+ " + term)
    return " ".join(parts)


def presentation_text(c, maps, product="dot"):
    """A presentation file over Q with one product and named linear maps."""
    n = len(c)
    names = [f"e{i + 1}" for i in range(n)]
    out = [f"space {n} {' '.join(names)}", "ring Q", "", f"product {product}"]
    for i in range(n):
        for j in range(n):
            pairs = [(k, x) for k, x in enumerate(c[i][j]) if x]
            if pairs:
                out.append(f"{names[i]} {names[j]} -> {_terms(pairs, names)}")
    for name, M in maps:
        out += ["", f"map {name}"]
        for j in range(n):
            pairs = [(k, M[k][j]) for k in range(n) if M[k][j]]
            if pairs:
                out.append(f"{names[j]} -> {_terms(pairs, names)}")
    return "\n".join(out) + "\n"


# -- per-workload inputs ----------------------------------------------------------

def quadruple_files(seed):
    """rational_cli inputs: [(name, text, product constants, perturbed?)]."""
    rng = random.Random(f"rational_cli/{seed}")
    out = []
    for slot, (n, kind) in enumerate(QUADRUPLE_SLOTS):
        c, D, Q = random_quadruple(rng, n, kind, QUADRUPLE_BASES[slot])
        maps = (("D", D), ("Q", Q))
        out.append((f"quad{slot}-n{n}", presentation_text(c, maps), c, False))
        bad = perturb(rng, c)
        out.append((f"quad{slot}-n{n}-perturbed", presentation_text(bad, maps), bad, True))
    return out


# Zinbiel fixtures: product e1e1 = e2, e1e2 = 2e3, e2e1 = e3, D = diag(1, 2, 3);
# Q is a derivation in zinb-deriv and is not one in zinb-nonderiv.
_ZIN = {(0, 0, 1): 1, (0, 1, 2): 2, (1, 0, 2): 1}
_D = [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
_Q = {"zinb-deriv": [[-1, 0, 0], [0, -2, 0], [1, 0, -3]],
      "zinb-nonderiv": [[3, 0, 0], [0, 2, 0], [1, 0, 1]]}
# The double of the pair is a Novikov bialgebra exactly on this q-locus; a
# basis change or a scale of the product leaves it unchanged.
ZINBIEL_LOCUS = {"zinb-deriv": "all q", "zinb-nonderiv": "{-1/2, -1}"}


def zinbiel_files(seed):
    """symbolic_loci inputs: [(name, text, fixture)] after basis change and scaling."""
    rng = random.Random(f"symbolic_loci/{seed}")
    out = []
    for slot, (fixture, dense, band) in enumerate(ZINBIEL_CASES):
        lam = _prime_in(rng, band)
        c = _zero3(3)
        for (i, j, k), x in _ZIN.items():
            c[i][j][k] = Fraction(x * lam)
        D = [[Fraction(x) for x in row] for row in _D]
        Q = [[Fraction(x) for x in row] for row in _Q[fixture]]
        if dense:
            P, Pinv = _signed_relabelling(rng, DENSE_BASIS)
            c = _change_product(c, P, Pinv)
            D, Q = _change_map(D, P, Pinv), _change_map(Q, P, Pinv)
        tag = "dense" if dense else "own"
        text = presentation_text(c, (("D", D), ("Q", Q)), product="zin")
        out.append((f"{fixture}-{tag}-x{lam}-{slot}", text, fixture))
    return out


def operation_order(seed, ops):
    """affine_window's operations in a seeded order."""
    ops = list(ops)
    random.Random(f"affine_window/{seed}").shuffle(ops)
    return ops
