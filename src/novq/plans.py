"""Contraction specs compiled once into join plans, for exactcore's Tensor.combination."""

from __future__ import annotations

import functools
import operator
from typing import Callable, NamedTuple


@functools.lru_cache(maxsize=None)
def _picker(positions: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """A function taking an index tuple to the tuple of its entries at positions."""
    if not positions:
        return lambda key: ()
    if len(positions) == 1:
        p = positions[0]
        return lambda key: (key[p],)
    return operator.itemgetter(*positions)


class _Plan(NamedTuple):
    operands: int
    # one join per later operand: (operand, picks the shared legs of the running
    # result, shared legs of the operand, its legs to carry on, picks the legs of
    # the running result to carry on or None for all of them)
    steps: tuple
    final: Callable | None  # puts the result legs in output order
    out_legs: tuple  # (operand, leg) giving the size of each output leg
    summed: tuple  # (operand, leg) giving the size of each summed leg
    same_size: tuple  # pairs of (operand, leg) that carry one label
    row: tuple | None  # (the one operand with the last output leg, that leg, the spec without it)


@functools.lru_cache(maxsize=None)
def _plan(spec: str) -> _Plan:
    lhs, arrow, out = spec.partition("->")
    ins = lhs.split(",")
    labels = set(lhs) - {","}
    if (not arrow or any(len(set(s)) != len(s) for s in (*ins, out))
            or not set(out) <= labels or not set(ins[0]) <= set(out).union(*ins[1:])):
        raise ValueError(f"bad contraction spec {spec!r}")
    where: dict[str, tuple[int, int]] = {}
    same_size = []
    for o, legs in enumerate(ins):
        for p, label in enumerate(legs):
            if label in where:
                same_size.append((where[label], (o, p)))
            else:
                where[label] = (o, p)

    acc = ins[0]
    steps = []
    for o in range(1, len(ins)):
        legs, need = ins[o], set(out).union(*ins[o + 1:])
        shared = [label for label in legs if label in acc]
        rest = [label for label in legs if label not in acc and label in need]
        keep = [label for label in acc if label in need]
        steps.append((o, _picker(tuple(map(acc.index, shared))), tuple(map(legs.index, shared)),
                      tuple(map(legs.index, rest)),
                      None if len(keep) == len(acc) else _picker(tuple(map(acc.index, keep)))))
        acc = "".join(keep + rest)
    final = None if acc == out else _picker(tuple(map(acc.index, out)))
    held = [o for o, legs in enumerate(ins) if out and out[-1] in legs]
    row = None if len(held) != 1 else (held[0], ins[held[0]].index(out[-1]), ",".join(
        legs.replace(out[-1], "") for legs in ins) + "->" + out[:-1])
    return _Plan(len(ins), tuple(steps), final, tuple(map(where.get, out)),
                 tuple(map(where.get, sorted(labels - set(out)))), tuple(same_size), row)
