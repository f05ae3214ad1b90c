"""Naive reference answers for generated inputs.

Each function recomputes, with plain Fraction loops written from the
definitions, what a novq command must print for one generated file.  The
checks scan basis tuples in row-major order, as the CLI reports the first
failing tuple as the witness.
"""

import itertools


def _mul(c, x, y):
    """Coordinates of x . y for coordinate lists x, y."""
    n = len(c)
    out = [0] * n
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    for k, cijk in enumerate(c[i][j]):
                        if cijk:
                            out[k] += xi * yj * cijk
    return out


def _first_failure(c, residual):
    n = len(c)
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    for a, b, d in itertools.product(range(n), repeat=3):
        if any(residual(basis[a], basis[b], basis[d])):
            return f"(e{a + 1}, e{b + 1}, e{d + 1})"
    return None


def _lsym(c):
    def res(a, b, d):
        ab_d = _mul(c, _mul(c, a, b), d)
        a_bd = _mul(c, a, _mul(c, b, d))
        ba_d = _mul(c, _mul(c, b, a), d)
        b_ad = _mul(c, b, _mul(c, a, d))
        return [w - x - y + z for w, x, y, z in zip(ab_d, a_bd, ba_d, b_ad)]
    return res


def _rcomm(c):
    def res(a, b, d):
        return [x - y for x, y in zip(_mul(c, _mul(c, a, b), d), _mul(c, _mul(c, a, d), b))]
    return res


def verify_novikov_stdout(c):
    """(exit code, stdout) of `novq verify FILE --profile novikov`."""
    lines = []
    ok = True
    for axiom, residual in (("NOV_LSYM", _lsym(c)), ("NOV_RCOMM", _rcomm(c))):
        where = _first_failure(c, residual)
        ok = ok and where is None
        lines.append(f"{axiom}: holds" if where is None else f"{axiom}: fails at {where}")
    lines.append("all checks hold" if ok else "some checks fail")
    return (0 if ok else 1), "\n".join(lines) + "\n"
