"""The per-tuple axiom interpreter, kept as a differential oracle.

This is the evaluator check_axiom used before axioms were evaluated as
sliced contractions: it walks the expression tree once per basis tuple,
with the bound variables as basis vectors.  ``interp_check_axiom`` has the
signature of ``novq.check_axiom`` and must return equal reports.
"""

import itertools
from fractions import Fraction

from novq.exactcore import (POLY, RATIONAL, RingMismatchError, Scalar, Tensor,
                            bareiss_det, polynomial)
from novq.structures import (CATALOG, FAILS, HOLDS, AxiomReport, PresentationError,
                             scan_residuals)
from oop_oracle import _act


class _Ctx:
    __slots__ = ("pres", "binds", "vals", "rep", "qpoint")

    def __init__(self, pres, binds, vals, rep, qpoint):
        self.pres = pres
        self.binds = binds
        self.vals = vals
        self.rep = rep
        self.qpoint = qpoint

    def key(self, k: str) -> str:
        return self.binds.get(k, k)


def _qc(coeffs, ctx: _Ctx) -> Scalar:
    p = polynomial(coeffs)
    if ctx.qpoint is not None:
        return p.eval_q(ctx.qpoint)
    if ctx.pres.ring == POLY:
        return p
    if p.degree() <= 0:
        return Scalar.of(RATIONAL, p.constant_value())
    raise ValueError("checking a q-dependent identity over Q needs an explicit q value")


def _eval_map(me, ctx: _Ctx) -> Tensor | None:
    if me is None:
        return None
    kind = me[0]
    if kind == "m":
        return ctx.pres.linmap(ctx.key(me[1]))
    if kind == "ml":  # x -> a * x
        return Tensor.einsum("i,ijk->kj", _eval(me[2], ctx), ctx.pres.binop(ctx.key(me[1])))
    if kind == "mr":  # x -> x * b
        return Tensor.einsum("j,ijk->ki", _eval(me[2], ctx), ctx.pres.binop(ctx.key(me[1])))
    if kind == "mlin":
        acc = None
        for coeffs, sub in me[1]:
            part = _eval_map(sub, ctx)
            if part is None:
                part = Tensor.identity(ctx.pres.ring, ctx.pres.dim)
            part = part.scale(_qc(coeffs, ctx))
            acc = part if acc is None else acc + part
        return acc
    if kind == "mcomp":
        outer = _eval_map(me[1], ctx)
        inner = _eval_map(me[2], ctx)
        if outer is None:
            return inner
        if inner is None:
            return outer
        return Tensor.einsum("kj,ik->ij", inner, outer)
    raise ValueError(f"unknown map expression {kind!r}")


def _eval(e, ctx: _Ctx):
    kind = e[0]
    if kind == "var":
        return ctx.vals[e[1]]
    if kind == "op":
        return Tensor.einsum("i,j,ijk->k", _eval(e[2], ctx), _eval(e[3], ctx),
                             ctx.pres.binop(ctx.key(e[1])))
    if kind == "map":
        return Tensor.einsum("j,ij->i", _eval(e[2], ctx), ctx.pres.linmap(ctx.key(e[1])))
    if kind == "lin":
        acc = None
        for coeffs, sub in e[1]:
            part = _eval(sub, ctx).scale(_qc(coeffs, ctx))
            acc = part if acc is None else acc + part
        return acc
    if kind == "cop":
        return Tensor.einsum("i,ijk->jk", _eval(e[2], ctx), ctx.pres.coop(ctx.key(e[1])))
    if kind == "tau":
        return Tensor.einsum("ji->ij", _eval(e[1], ctx))
    if kind == "tmap2":
        t = _eval(e[2], ctx)
        f, g = _eval_map(e[1][0], ctx), _eval_map(e[1][1], ctx)
        if g is None:
            return t if f is None else Tensor.einsum("ab,ia->ib", t, f)
        if f is None:
            return Tensor.einsum("ab,jb->aj", t, g)
        return Tensor.einsum("ab,ia,jb->ij", t, f, g)
    if kind == "coleg":
        # leg 1: out[i][j][k] = sum_m t[m][k] d[m][i][j]; leg 2: sum_m t[i][m] d[m][j][k]
        spec = {1: "mk,mij->ijk", 2: "im,mjk->ijk"}[e[2]]
        return Tensor.einsum(spec, _eval(e[3], ctx), ctx.pres.coop(ctx.key(e[1])))
    if kind == "perm":
        # result[idx] = t[idx[p[0]], idx[p[1]], idx[p[2]]]
        return Tensor.einsum("".join("ijk"[x] for x in e[1]) + "->ijk", _eval(e[2], ctx))
    if kind == "pair":
        value = Tensor.einsum("i,j,ij->", _eval(e[2], ctx), _eval(e[3], ctx),
                              ctx.pres.form(ctx.key(e[1]))).entry()
        return Tensor.from_dense(ctx.pres.ring, [value])
    if kind == "rep":
        if ctx.rep is None:
            raise PresentationError("this axiom needs a representation")
        which = e[1]
        if which == "r" and not hasattr(ctx.rep, "r"):
            raise PresentationError("this representation has no right operator family")
        fam = ctx.rep.r if which == "r" else ctx.rep.l
        return _act(fam, _eval(e[2], ctx), _eval(e[3], ctx))
    if kind == "rmap":
        if ctx.rep is None:
            raise PresentationError("this axiom needs a representation")
        if not hasattr(ctx.rep, e[1]):
            raise PresentationError(f"this representation has no map {e[1]!r}")
        return Tensor.einsum("j,ij->i", _eval(e[2], ctx), getattr(ctx.rep, e[1]))
    raise ValueError(f"unknown expression {kind!r}")



def interp_check_axiom(axiom_id, pres, binds=None, *, rep=None, q=None, tuple_filter=None):
    """check_axiom evaluated one basis tuple at a time."""
    try:
        axdef = CATALOG[axiom_id]
    except KeyError:
        raise KeyError(f"unknown axiom {axiom_id!r}") from None
    binds = dict(binds or {})

    if axiom_id == "FORM_NONDEG":
        form = pres.form(binds.get("B", "B"))
        det = bareiss_det([list(r) for r in form.dense], pres.ring)
        verdict = HOLDS if not det.is_zero() else FAILS
        return AxiomReport(axiom_id, verdict, None, det, det.degree(), None)

    qpoint = None
    if q is not None:
        if pres.ring == POLY:
            raise ValueError("specialize the presentation before fixing q")
        qpoint = Fraction(q)
    elif axdef.uses_q and pres.ring == RATIONAL:
        raise ValueError(f"{axiom_id} uses q; pass q= or work over Q[q]")

    spaces = []  # (basis vectors, basis names) per variable
    for _, sp in axdef.variables:
        if sp == "A":
            names = pres.space.names
        else:
            if rep is None:
                raise PresentationError(f"{axiom_id} needs a representation")
            if rep.ring != pres.ring:
                raise RingMismatchError("representation ring differs from presentation ring")
            if rep.alg_dim != pres.dim:
                raise PresentationError("representation is over a different algebra dimension")
            names = rep.names
        basis = [Tensor.basis(pres.ring, len(names), i) for i in range(len(names))]
        spaces.append((basis, names))

    def items():
        for idx in itertools.product(*(range(len(names)) for _, names in spaces)):
            if tuple_filter is not None and not tuple_filter(idx):
                continue
            vals = {name: basis[i] for (name, _), (basis, _), i in
                    zip(axdef.variables, spaces, idx)}
            ctx = _Ctx(pres, binds, vals, rep, qpoint)
            yield tuple(names[i] for (_, names), i in zip(spaces, idx)), _eval(axdef.expr, ctx)

    return scan_residuals(axiom_id, pres.ring, items())
