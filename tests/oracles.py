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
    return [[[from_scalar(x) for x in row] for row in plane] for plane in op.dense]


cop_table = op_table


def map_table(m):
    return [[from_scalar(x) for x in row] for row in m.dense]


tensor2_table = map_table


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


# -- module and pre-Novikov residuals, as vectors ----------------------------------
#
# A vector is a list of poly dicts.  A module's operator family F is a table on legs
# (i, k, j), F[i][k][j] the v_k coefficient of F(e_i) v_j; a map table m[i][j] is the
# e_i coefficient of the image of e_j.

def unit(n, i):
    return [pconst(1 if k == i else 0) for k in range(n)]


def vadd(*terms):
    """The sum of sign * vector over (sign, vector) pairs."""
    out = [pzero() for _ in terms[0][1]]
    for sign, x in terms:
        out = [padd(o, pmul(pconst(sign), y)) for o, y in zip(out, x)]
    return out


def vprod(c, x, y):
    """x y under the product table c."""
    n = len(c[0][0])
    out = [pzero() for _ in range(n)]
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for k in range(n):
                out[k] = padd(out[k], pmul(pmul(xi, yj), c[i][j][k]))
    return out


def sum_poly(polys):
    out = pzero()
    for x in polys:
        out = padd(out, x)
    return out


def vmap(m, x):
    """m x for a map table m."""
    return [sum_poly(pmul(m[i][j], x[j]) for j in range(len(x))) for i in range(len(m))]


def vact(fam, x, u):
    """F(x) u for an operator family F, x a vector of the algebra, u one of the module."""
    out = [pzero() for _ in range(len(fam[0]))]
    for i, xi in enumerate(x):
        for k in range(len(out)):
            for j, uj in enumerate(u):
                out[k] = padd(out[k], pmul(pmul(xi, uj), fam[i][k][j]))
    return out


def rep_nov_residuals(c, l, r, a, b, v):
    """The four identities of a module (l, r, V) over a Novikov product c, at e_a, e_b, v_v."""
    n, m = len(c), len(l[0])
    x, y, u = unit(n, a), unit(n, b), unit(m, v)
    xy, yx = vprod(c, x, y), vprod(c, y, x)
    return {
        # l(a b - b a) v = [l(a), l(b)] v
        "REP_NOV_1": vadd((1, vact(l, vadd((1, xy), (-1, yx)), u)),
                          (-1, vact(l, x, vact(l, y, u))), (1, vact(l, y, vact(l, x, u)))),
        # l(a) r(b) v - r(b) l(a) v = r(a b) v - r(b) r(a) v
        "REP_NOV_2": vadd((1, vact(l, x, vact(r, y, u))), (-1, vact(r, y, vact(l, x, u))),
                          (-1, vact(r, xy, u)), (1, vact(r, y, vact(r, x, u)))),
        # l(a b) v = r(b) l(a) v
        "REP_NOV_3": vadd((1, vact(l, xy, u)), (-1, vact(r, y, vact(l, x, u)))),
        # r(a) r(b) v = r(b) r(a) v
        "REP_NOV_4": vadd((1, vact(r, x, vact(r, y, u))), (-1, vact(r, y, vact(r, x, u)))),
    }


def rep_mod_residual(c, l, a, b, v):
    """l(a b) v - l(a) l(b) v over a commutative product c."""
    x, y, u = unit(len(c), a), unit(len(c), b), unit(len(l[0]), v)
    return vadd((1, vact(l, vprod(c, x, y), u)), (-1, vact(l, x, vact(l, y, u))))


def rep_admdiff_residuals(l, D, Q, alpha, beta, a, v):
    """The three identities of a module (l, alpha, beta, V) over (A, D, Q), at e_a, v_v."""
    x, u = unit(len(D), a), unit(len(alpha), v)
    lu = vact(l, x, u)
    return {
        # alpha(l(a) v) = l(D a) v + l(a) alpha(v)
        "REP_DIFF": vadd((1, vmap(alpha, lu)), (-1, vact(l, vmap(D, x), u)),
                         (-1, vact(l, x, vmap(alpha, u)))),
        # beta(l(a) v) = l(a) beta(v) - l(D a) v
        "REP_ADM": vadd((1, vmap(beta, lu)), (-1, vact(l, x, vmap(beta, u))),
                        (1, vact(l, vmap(D, x), u))),
        # beta(l(a) v) = l(Q a) v - l(a) alpha(v)
        "REP_ADM_ALT": vadd((1, vmap(beta, lu)), (-1, vact(l, vmap(Q, x), u)),
                            (1, vact(l, x, vmap(alpha, u)))),
    }


def zinb_admiss_alt_residual(c, D, Q, a, b):
    """Q(a b) - a Q(b) + D(a) b for a Zinbiel product c."""
    x, y = unit(len(c), a), unit(len(c), b)
    return vadd((1, vmap(Q, vprod(c, x, y))), (-1, vprod(c, x, vmap(Q, y))),
                (1, vprod(c, vmap(D, x), y)))


def pre_nov_residuals(lp, rp, a, b, c):
    """The first three identities of a pre-Novikov pair (lpre, rpre), at e_a, e_b, e_c."""
    x, y, z = (unit(len(lp), i) for i in (a, b, c))

    def L(u, w):
        return vprod(lp, u, w)

    def R(u, w):
        return vprod(rp, u, w)

    def S(u, w):  # the sum lpre + rpre
        return vadd((1, L(u, w)), (1, R(u, w)))
    return {
        "PRE_NOV_1": vadd((1, R(x, R(y, z))), (-1, R(S(x, y), z)), (-1, R(y, R(x, z))),
                          (1, R(S(y, x), z))),
        "PRE_NOV_2": vadd((1, R(x, L(y, z))), (-1, L(R(x, y), z)), (-1, L(y, S(x, z))),
                          (1, L(L(y, x), z))),
        "PRE_NOV_3": vadd((1, R(S(x, y), z)), (-1, L(R(x, z), y))),
    }


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
