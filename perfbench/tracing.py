"""Spans and counters around novq's public functions, from outside the package.

Tracer wraps the public functions of each novq module and patches every
wrapper into each novq namespace that imported the original (cli and
bialgebra import check_axiom by name, for example).  A span records its
name and the span that caused it; self time is the span's duration minus its
child spans.  Spans are folded into per-(parent, name) totals as they close,
so memory stays flat however many calls a workload makes.

scan_residuals consumes an iterable of residual items that its caller
produces lazily.  The wrapper times each item as a child span charged to the
caller's layer: items of check_axiom are the structures evaluator
("structures.items"), items of a liewindow scan are liewindow work.

Counter is the untimed companion: it counts Scalar arithmetic by ring,
tuples visited against tuples available, nonzero residual items, root
finding calls and the largest coefficient passed to root finding.  Its
wrappers cost far more than the work they count, so it never runs in a
timed pass.

Both restore every patched name on exit.
"""

import inspect
import itertools
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "presfile", "structures", "exactcore", "constructions",
          "bialgebra", "ybe", "liewindow")

# Element-level helpers called inside the inner loops of their own module: a
# span per call would cost more than the call and would move no time between
# layers, so they stay unwrapped.
UNWRAPPED = {"exactcore": {"rational", "polynomial", "qvar", "exact_div"},
             "liewindow": {"affine_bracket", "cobracket_component"}}


def public_functions(novq):
    """{(layer, name): function} for every wrapped public function."""
    out = {}
    for layer in LAYERS:
        mod = getattr(novq, layer)
        for name, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not name.startswith("_") and name not in UNWRAPPED.get(layer, ())):
                out[(layer, name)] = fn
    return out


class _Patcher:
    """Replace functions in every novq namespace; put the originals back."""

    def __init__(self):
        self._undo = []

    def patch_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname != "novq" and not modname.startswith("novq."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def patch_attr(self, owner, attr, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _layer_of(name):
    return name.split(".", 1)[0]


class Tracer(_Patcher):
    """Timed spans; use as a context manager around one pass."""

    def __init__(self, novq):
        super().__init__()
        self.novq = novq
        self.stack = []  # [name, start, child seconds]
        self.edges = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name) -> calls, total, self

    def _enter(self, name):
        self.stack.append([name, time.perf_counter(), 0.0])

    def _exit(self):
        name, start, child = self.stack.pop()
        dur = time.perf_counter() - start
        parent = self.stack[-1][0] if self.stack else "bench"
        if self.stack:
            self.stack[-1][2] += dur
        edge = self.edges[(parent, name)]
        edge[0] += 1
        edge[1] += dur
        edge[2] += dur - child

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return wrapper

    def _timed_items(self, items):
        caller = self.stack[-2][0] if len(self.stack) > 1 else "bench"
        name = _layer_of(caller) + ".items"
        it = iter(items)
        while True:
            self._enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._exit()
            yield item

    def __enter__(self):
        structures = self.novq.structures
        for (layer, name), fn in public_functions(self.novq).items():
            span = self._span(f"{layer}.{name}", fn)
            if (layer, name) == ("structures", "scan_residuals"):
                inner = span

                def span(axiom_id, ring, items, _inner=inner):
                    return _inner(axiom_id, ring, self._timed_items(items))
            self.patch_everywhere(fn, span)
        for meth in ("lift", "specialize"):
            self.patch_attr(structures.Presentation, meth,
                            self._span(f"structures.{meth}",
                                       structures.Presentation.__dict__[meth]))
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def layer_totals(self):
        """{layer: (calls, self seconds)}; items spans count toward time only."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for (_, name), (calls, _, self_s) in self.edges.items():
            layer = _layer_of(name)
            if layer in out:
                if not name.endswith(".items"):
                    out[layer][0] += calls
                out[layer][1] += self_s
        return out

    def total(self, name, field):
        """Calls, total or self seconds of every span with this name."""
        idx = {"calls": 0, "total": 1, "self": 2}[field]
        return sum(v[idx] for (_, n), v in self.edges.items() if n == name)


class Counter(_Patcher):
    """Untimed counts; use as a context manager around one pass."""

    def __init__(self, novq):
        super().__init__()
        self.novq = novq
        self.counts = defaultdict(int)
        self.roots_max_bits = 0
        self._in_scalar_op = False
        self._caller = []

    def _scalar_op(self, fn):
        def wrapper(a, b):
            if self._in_scalar_op:  # __sub__ is built from __add__; count it once
                return fn(a, b)
            self._in_scalar_op = True
            try:
                self.counts["scalar_ops." + a.ring] += 1
                return fn(a, b)
            finally:
                self._in_scalar_op = False
        return wrapper

    def _counted(self, layer, name, fn):
        key = f"{layer}.{name}"
        novq = self.novq

        def wrapper(*args, **kwargs):
            self.counts[key + ".calls"] += 1
            if key == "exactcore.rational_roots":
                for c in args[0].lift().val:
                    self.roots_max_bits = max(self.roots_max_bits, c.numerator.bit_length(),
                                              c.denominator.bit_length())
            elif key == "presfile.parse":
                self.counts["presfile.bytes_in"] += len(args[0].encode())
            elif key == "structures.check_axiom":
                self.counts["structures.tuples_available"] += _tuples_available(
                    novq, args, kwargs)
            self._caller.append(layer if key != "structures.check_axiom" else "check_axiom")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._caller.pop()
            if key == "liewindow.window_lie_bialgebra_check":
                self.counts["liewindow.jacobi_checked"] += result.jacobi_checked
                self.counts["liewindow.jacobi_skipped"] += result.jacobi_skipped
            return result
        return wrapper

    def _counted_items(self, items):
        caller = self._caller[-2] if len(self._caller) > 1 else "bench"
        for item in items:
            if caller == "check_axiom":
                self.counts["structures.tuples_visited"] += 1
                if not item[1].is_zero():
                    self.counts["structures.nonzero_items"] += 1
            elif caller == "liewindow":
                self.counts["liewindow.items"] += 1
            yield item

    def __enter__(self):
        for (layer, name), fn in public_functions(self.novq).items():
            wrapper = self._counted(layer, name, fn)
            if (layer, name) == ("structures", "scan_residuals"):
                inner = wrapper

                def wrapper(axiom_id, ring, items, _inner=inner):
                    return _inner(axiom_id, ring, self._counted_items(items))
            self.patch_everywhere(fn, wrapper)
        scalar = self.novq.exactcore.Scalar
        for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
            self.patch_attr(scalar, op, self._scalar_op(scalar.__dict__[op]))
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _tuples_available(novq, args, kwargs):
    """Basis tuples a check_axiom call quantifies over, after its tuple_filter."""
    axiom_id, pres = args[0], args[1]
    axdef = novq.structures.CATALOG[axiom_id]
    if axdef.expr is None:  # decided by a determinant, not by a scan
        return 0
    rep = kwargs.get("rep")
    dims = [pres.dim if space == "A" else rep.dim for _, space in axdef.variables]
    keep = kwargs.get("tuple_filter")
    if keep is None:
        n = 1
        for d in dims:
            n *= d
        return n
    return sum(1 for idx in itertools.product(*(range(d) for d in dims)) if keep(idx))
