"""Tensor.einsum with Fraction joins, kept as a differential oracle.

This is the body einsum had before rational contractions ran on integer
numerators: every join multiplies and adds the stored entries themselves, so
a Q contraction does Fraction arithmetic in each step and an integral result
may come out as Fraction(k, 1).  The index on each later operand is built
afresh on every call.  ``oracle_einsum(spec, *operands)`` takes the
arguments of ``Tensor.einsum`` and must return an equal tensor.
"""

from novq.exactcore import RingMismatchError, ShapeError, Tensor, _picker, _plan


def _index_on(t, shared, rest) -> dict:
    """Entries grouped by their shared legs, each as (rest legs, value)."""
    of, tail = _picker(shared), _picker(rest)
    index = {}
    for key, s in t._entries.items():
        index.setdefault(of(key), []).append((tail(key), s))
    return index


def oracle_einsum(spec: str, *operands):
    plan = _plan(spec)
    if len(operands) != plan.operands:
        raise ValueError(f"{spec!r} takes {plan.operands} operands, got {len(operands)}")
    ring = operands[0].ring
    for t in operands:
        if t.ring != ring:
            raise RingMismatchError(f"cannot mix {ring} with {t.ring}")
    for (o1, p1), (o2, p2) in plan.same_size:
        if operands[o1].shape[p1] != operands[o2].shape[p2]:
            raise ShapeError(f"leg sizes differ in {spec!r}")
    acc = operands[0]._entries
    for o, shared_of, shared, rest, keep in plan.steps:
        index = _index_on(operands[o], shared, rest)
        out: dict = {}
        get = out.get
        for key, s in acc.items():
            hits = index.get(shared_of(key))
            if hits:
                head = key if keep is None else keep(key)
                for tail, w in hits:
                    k = head + tail
                    prev = get(k)
                    out[k] = s * w if prev is None else prev + s * w
        acc = out
    if plan.steps or plan.final is not None:
        final = plan.final or (lambda key: key)
        acc = {final(key): s for key, s in acc.items() if s}
    shape = tuple(operands[o].shape[p] for o, p in plan.out_legs)
    return Tensor._make(ring, shape, acc)
