"""The per-tuple window loops, kept as a differential oracle.

``oracle_window_reports(circ, Delta, w, names)`` runs the five affinized Lie
bialgebra families the way ``novq.liewindow`` did before it contracted graded
tensors: one loop per basis/degree tuple, each residual rebuilt from affine
brackets and cobracket components.  It returns (reports, jacobi_checked,
jacobi_skipped), where the Jacobi counts stop at the first witness.
"""

from novq.exactcore import Scalar, Tensor
from novq.liewindow import LaurentVector
from novq.structures import scan_residuals


def affine_bracket(x, y, circ):
    """[a t^m, b t^n] = m (a circ b) t^(m+n-1) - n (b circ a) t^(m+n-1)."""
    ring = circ.ring
    m, n = x.degree, y.degree
    base = Tensor.einsum("i,j,ijk->k", x.base, y.base, circ).scale(Scalar.of(ring, m)) \
        - Tensor.einsum("i,j,ijk->k", y.base, x.base, circ).scale(Scalar.of(ring, n))
    return LaurentVector(base, m + n - 1)


def _component(t, m, j, k):
    """The (t^j, t^k) coefficient of the cobracket of a t^m, for t = Delta_q(a)."""
    if j + k != m - 2:
        return Tensor.from_entries(t.ring, (t.dim, t.dim), {})
    return t.scale(Scalar.of(t.ring, -j - 1)) + _flip(t).scale(Scalar.of(t.ring, k + 1))


def _flip(t):
    return Tensor.einsum("ji->ij", t)


def _syn_cop(Delta, j, k):
    """Basis images of the (j, k) cobracket component, as a coproduct tensor."""
    return Delta.scale(Scalar.of(Delta.ring, -j - 1)) \
        + Tensor.einsum("ikj->ijk", Delta).scale(Scalar.of(Delta.ring, k + 1))


def oracle_window_reports(circ, Delta, w, names):
    ring = circ.ring
    n = circ.dim
    basis = [Tensor.basis(ring, n, i) for i in range(n)]
    degs = list(w.degrees())

    def lab(i, m):
        return f"{names[i]}t^{m}"

    def skew_items():
        for i in range(n):
            for j in range(n):
                for m in degs:
                    for nn in degs:
                        x = LaurentVector(basis[i], m)
                        y = LaurentVector(basis[j], nn)
                        res = affine_bracket(x, y, circ).base + affine_bracket(y, x, circ).base
                        yield (lab(i, m), lab(j, nn)), res

    checked = skipped = 0

    def jacobi_items():
        nonlocal checked, skipped
        for m in degs:
            for nn in degs:
                for p in degs:
                    inner_ok = all(w.contains(d) for d in
                                   (m + nn - 1, nn + p - 1, p + m - 1, m + nn + p - 2))
                    for i in range(n):
                        for j in range(n):
                            for k in range(n):
                                if not inner_ok:
                                    skipped += 1
                                    continue
                                checked += 1
                                x = LaurentVector(basis[i], m)
                                y = LaurentVector(basis[j], nn)
                                z = LaurentVector(basis[k], p)
                                res = affine_bracket(affine_bracket(x, y, circ), z, circ).base \
                                    + affine_bracket(affine_bracket(y, z, circ), x, circ).base \
                                    + affine_bracket(affine_bracket(z, x, circ), y, circ).base
                                yield (lab(i, m), lab(j, nn), lab(k, p)), res

    img = [Tensor.einsum("i,ijk->jk", e, Delta) for e in basis]

    def anticocomm_items():
        for i in range(n):
            for m in degs:
                for j in degs:
                    k = m - 2 - j
                    if not w.contains(k):
                        continue
                    res = _component(img[i], m, j, k) + _flip(_component(img[i], m, k, j))
                    yield (lab(i, m), f"t^{j},t^{k}"), res

    cop_cache = {}

    def cop(j, k):
        if (j, k) not in cop_cache:
            cop_cache[(j, k)] = _syn_cop(Delta, j, k)
        return cop_cache[(j, k)]

    def cojacobi_items():
        for i in range(n):
            for m in degs:
                for d1 in degs:
                    for d2 in degs:
                        d3 = m - 4 - d1 - d2
                        if not w.contains(d3):
                            continue
                        t1 = _component(img[i], m, d1, d2 + d3 + 2)
                        t2 = _component(img[i], m, d2, d1 + d3 + 2)
                        t3 = _component(img[i], m, d1 + d2 + 2, d3)
                        # the coproduct on leg 2 of t1, on leg 2 of t2 with the
                        # first two legs swapped, and on leg 1 of t3
                        res = Tensor.einsum("im,mjk->ijk", t1, cop(d2, d3)) \
                            - Tensor.einsum("jm,mik->ijk", t2, cop(d1, d3)) \
                            - Tensor.einsum("mk,mij->ijk", t3, cop(d1, d2))
                        yield (lab(i, m), f"t^{d1},t^{d2},t^{d3}"), res

    def ad_matrix(v, deg, src):
        # deg times left multiplication by v, minus src times right multiplication
        return Tensor.einsum("i,ijk->kj", v, circ).scale(Scalar.of(ring, deg)) \
            - Tensor.einsum("j,ijk->ki", v, circ).scale(Scalar.of(ring, src))

    def cocycle_items():
        for ia in range(n):
            for ib in range(n):
                a, b = basis[ia], basis[ib]
                ta, tb = img[ia], img[ib]
                for m in degs:
                    for nn in degs:
                        v = affine_bracket(LaurentVector(a, m), LaurentVector(b, nn), circ).base
                        tv = Tensor.einsum("i,ijk->jk", v, Delta)
                        for d1 in degs:
                            d2 = m + nn - 3 - d1
                            if not w.contains(d2):
                                continue
                            res = _component(tv, m + nn - 1, d1, d2) \
                                - Tensor.einsum("ab,ia->ib", _component(tb, nn, d1 - m + 1, d2),
                                                 ad_matrix(a, m, d1 - m + 1)) \
                                - Tensor.einsum("ab,jb->aj", _component(tb, nn, d1, d2 - m + 1),
                                                 ad_matrix(a, m, d2 - m + 1)) \
                                + Tensor.einsum("ab,ia->ib", _component(ta, m, d1 - nn + 1, d2),
                                                 ad_matrix(b, nn, d1 - nn + 1)) \
                                + Tensor.einsum("ab,jb->aj", _component(ta, m, d1, d2 - nn + 1),
                                                 ad_matrix(b, nn, d2 - nn + 1))
                            yield (lab(ia, m), lab(ib, nn), f"t^{d1},t^{d2}"), res

    reports = {
        "LIE_SKEW": scan_residuals("LIE_SKEW", ring, skew_items()),
        "LIE_JACOBI": scan_residuals("LIE_JACOBI", ring, jacobi_items()),
        "COLIE_ANTICOCOMM": scan_residuals("COLIE_ANTICOCOMM", ring, anticocomm_items()),
        "COLIE_COJACOBI": scan_residuals("COLIE_COJACOBI", ring, cojacobi_items()),
        "LIE_BIALG_COCYCLE": scan_residuals("LIE_BIALG_COCYCLE", ring, cocycle_items()),
    }
    return reports, checked, skipped
