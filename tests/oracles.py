"""Naive reference expansions used to cross-check reported residuals.

Everything here works on plain nested lists of {degree: Fraction} dicts and
spells out each identity with bare index loops, sharing no arithmetic with
the package beyond reading structure constants out of its containers.
"""

from fractions import Fraction


def pzero():
    return {}


def padd(a, b):
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, 0) + v
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


def pneg(a):
    return {k: -v for k, v in a.items()}


def psub(a, b):
    return padd(a, pneg(b))


def pmul(a, b):
    out = {}
    for i, u in a.items():
        for j, v in b.items():
            k = i + j
            w = out.get(k, 0) + u * v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
    return out


def pconst(x):
    x = Fraction(x)
    return {0: x} if x else {}


QSYM = {1: Fraction(1)}


def pis_zero(a):
    return not a


def peval(a, x):
    x = Fraction(x)
    return sum(v * x ** k for k, v in a.items()) if a else Fraction(0)


def from_scalar(s):
    """Scalar -> poly dict, reading only the public value."""
    v = s.val
    if isinstance(v, Fraction):
        return pconst(v)
    return {i: Fraction(c) for i, c in enumerate(v) if c}


def op_table(op):
    n = op.dim
    return [[[from_scalar(op.dense[i][j][k]) for k in range(n)] for j in range(n)]
            for i in range(n)]


def cop_table(cop):
    n = cop.dim
    return [[[from_scalar(cop.dense[i][j][k]) for k in range(n)] for j in range(n)]
            for i in range(n)]


def map_table(m):
    n = m.shape[0]
    return [[from_scalar(m.dense[i][j]) for j in range(m.shape[1])] for i in range(n)]


def tensor2_table(t):
    n = t.dim
    return [[from_scalar(t.dense[i][j]) for j in range(n)] for i in range(n)]


# -- algebra axiom residuals, one triple/pair at a time ---------------------------

def _mul2(c, i, j, k):
    return c[i][j][k]


def _assoc_left(c, a, b, x, k):
    # ((a b) x)_k
    n = len(c)
    out = pzero()
    for m in range(n):
        out = padd(out, pmul(c[a][b][m], c[m][x][k]))
    return out


def _assoc_right(c, a, b, x, k):
    # (a (b x))_k
    n = len(c)
    out = pzero()
    for m in range(n):
        out = padd(out, pmul(c[b][x][m], c[a][m][k]))
    return out


def comm_residual(c, a, b):
    n = len(c)
    return [psub(c[a][b][k], c[b][a][k]) for k in range(n)]


def assoc_residual(c, a, b, x):
    n = len(c)
    return [psub(_assoc_left(c, a, b, x, k), _assoc_right(c, a, b, x, k))
            for k in range(n)]


def nov_lsym_residual(c, a, b, x):
    n = len(c)
    out = []
    for k in range(n):
        r = psub(_assoc_left(c, a, b, x, k), _assoc_right(c, a, b, x, k))
        r = psub(r, _assoc_left(c, b, a, x, k))
        r = padd(r, _assoc_right(c, b, a, x, k))
        out.append(r)
    return out


def nov_rcomm_residual(c, a, b, x):
    n = len(c)
    return [psub(_assoc_left(c, a, b, x, k), _assoc_left(c, a, x, b, k))
            for k in range(n)]


def zinbiel_residual(c, a, b, x):
    # a(bx) - (ba)x - (ab)x
    n = len(c)
    out = []
    for k in range(n):
        r = _assoc_right(c, a, b, x, k)
        r = psub(r, _assoc_left(c, b, a, x, k))
        r = psub(r, _assoc_left(c, a, b, x, k))
        out.append(r)
    return out


def deriv_residual(c, D, a, b):
    # D(ab) - D(a)b - aD(b)
    n = len(c)
    out = []
    for k in range(n):
        r = pzero()
        for m in range(n):
            r = padd(r, pmul(c[a][b][m], D[k][m]))
            r = psub(r, pmul(D[m][a], c[m][b][k]))
            r = psub(r, pmul(D[m][b], c[a][m][k]))
        out.append(r)
    return out


def admiss_residual(c, D, Q, a, b):
    # Q(ab) - Q(a)b + aD(b)
    n = len(c)
    out = []
    for k in range(n):
        r = pzero()
        for m in range(n):
            r = padd(r, pmul(c[a][b][m], Q[k][m]))
            r = psub(r, pmul(Q[m][a], c[m][b][k]))
            r = padd(r, pmul(D[m][b], c[a][m][k]))
        out.append(r)
    return out


def coassoc_residual(d, a):
    n = len(d)
    out = [[[pzero() for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for k in range(n):
            for l in range(n):
                left = pzero()
                right = pzero()
                for p in range(n):
                    left = padd(left, pmul(d[a][p][l], d[p][j][k]))
                    right = padd(right, pmul(d[a][j][p], d[p][k][l]))
                out[j][k][l] = psub(left, right)
    return out


def cocomm_residual(d, a):
    n = len(d)
    return [[psub(d[a][j][k], d[a][k][j]) for k in range(n)] for j in range(n)]


# -- induced tables ---------------------------------------------------------------

def induced_product(c, D, Q, p, q):
    """Table of a circ b = a . (pD + qQ)(b); q is a poly dict."""
    n = len(c)
    p = pconst(p)
    out = [[[pzero() for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                r = pzero()
                for m in range(n):
                    coef = padd(pmul(p, D[m][j]), pmul(q, Q[m][j]))
                    r = padd(r, pmul(coef, c[i][m][k]))
                out[i][j][k] = r
    return out


def induced_coproduct(d, Q, D, q):
    """Table of (id x (Q + qD)) delta."""
    n = len(d)
    out = [[[pzero() for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                r = pzero()
                for m in range(n):
                    r = padd(r, pmul(d[i][j][m], padd(Q[k][m], pmul(q, D[k][m]))))
                out[i][j][k] = r
    return out


# -- Yang-Baxter products from the simple-tensor expansion ------------------------

def _pair_terms(r):
    n = len(r)
    return [(i, j, r[i][j]) for i in range(n) for j in range(n) if r[i][j]]


def ybe_prod13_23(r, c):
    """r13 r23 = sum x_i (x) x_s (x) (y_i y_s)."""
    n = len(r)
    out = [[[pzero() for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i, j, u in _pair_terms(r):
        for s, t, v in _pair_terms(r):
            w = pmul(u, v)
            for k in range(n):
                if c[j][t][k]:
                    out[i][s][k] = padd(out[i][s][k], pmul(w, c[j][t][k]))
    return out


def ybe_prod12_23(r, c):
    """r12 r23 = sum x_i (x) (y_i x_s) (x) y_s."""
    n = len(r)
    out = [[[pzero() for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i, j, u in _pair_terms(r):
        for s, t, v in _pair_terms(r):
            w = pmul(u, v)
            for k in range(n):
                if c[j][s][k]:
                    out[i][k][t] = padd(out[i][k][t], pmul(w, c[j][s][k]))
    return out


def ybe_prod13_12(r, c):
    """r13 r12 = sum (x_i x_s) (x) y_s (x) y_i."""
    n = len(r)
    out = [[[pzero() for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i, j, u in _pair_terms(r):
        for s, t, v in _pair_terms(r):
            w = pmul(u, v)
            for k in range(n):
                if c[i][s][k]:
                    out[k][t][j] = padd(out[k][t][j], pmul(w, c[i][s][k]))
    return out


def _t3_add(a, b, sign=1):
    n = len(a)
    return [[[padd(a[i][j][k], b[i][j][k]) if sign > 0 else psub(a[i][j][k], b[i][j][k])
              for k in range(n)] for j in range(n)] for i in range(n)]


def aybe_residual(r, c):
    """r13 r12 + r13 r23 - r12 r23 over a commutative product."""
    t = _t3_add(ybe_prod13_12(r, c), ybe_prod13_23(r, c))
    return _t3_add(t, ybe_prod12_23(r, c), sign=-1)


def nybe_residual(r, c):
    """r13 r23 + r12 (star) r23 + r13 r12 over a Novikov product."""
    n = len(r)
    star = [[[padd(c[i][j][k], c[j][i][k]) for k in range(n)] for j in range(n)]
            for i in range(n)]
    t = _t3_add(ybe_prod13_23(r, c), ybe_prod12_23(r, star))
    return _t3_add(t, ybe_prod13_12(r, c))


def t3_is_zero(t):
    return all(pis_zero(x) for plane in t for row in plane for x in row)
