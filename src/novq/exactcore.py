"""Exact scalars over Q and Q[q], plus sparse tensors of structure constants.

Everything in the package bottoms out here.  A Scalar is a tuple of
Fraction coefficients, ascending in the deformation parameter q with no
trailing zero, so zero is the empty tuple and the degree is len-1.  Its ring
tag, Q or Q[q], says whether q may occur: over Q the tuple holds at most one
coefficient, a rational being the constant polynomial.  Zero tests are
structural (empty coefficient tuple); there is no floating point and no
tolerance anywhere.

Vectors, maps, forms, r-elements, products and coproducts are all one
sparse Tensor class that stores only its nonzero entries; products, map
applications, leg changes and sums all go through Tensor.combination, a
signed sum of contractions (Tensor.einsum is one term).  A Q entry is
stored as an int when integral and a Fraction otherwise, a Q[q] entry as a
Scalar whose coefficients are stored so.  Over Q, each term joins integer
numerators over its operands' common denominators, and the sum divides
once per output entry, fraction-free as in Bareiss's elimination.  Scalars
go in and come out at the tensor's edges with Fraction coefficients, as
everywhere outside a tensor.  No other module knows how entries are stored.

rational_roots finds the rational roots of a Q[q] scalar by p-adic lifting
(R. Loos, Computing rational zeros of integral polynomials by p-adic
expansion, SIAM J. Comput. 12, 1983): it takes the square-free primitive
integer part, lifts its roots modulo a small prime by Newton's iteration
and reads each back as a fraction with the extended Euclidean algorithm, so
its time is polynomial in the degree and in the bit size of the
coefficients.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence, Union

RATIONAL = "Q"
POLY = "Q[q]"


class RingMismatchError(TypeError):
    """Raised when two exact values from different base rings are combined."""


class ZeroPolynomialError(ValueError):
    """Raised when an operation requires a nonzero polynomial."""


class ShapeError(ValueError):
    """Raised when tensor or matrix dimensions do not line up."""


RationalLike = Union[int, Fraction]


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


def _trim(coeffs: Sequence) -> tuple:
    # canonical form: no trailing zeros, zero polynomial is ()
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


# The Q[q] kernel on ascending coefficient tuples with no trailing zeros.  A
# coefficient is an int or a Fraction, and a result coefficient is an int
# exactly when those it is computed from are: nothing pads with Fraction(0).

def _padd(a: tuple, b: tuple) -> tuple:
    if len(a) == len(b):
        return _trim(tuple(map(operator.add, a, b)))
    if len(a) < len(b):
        a, b = b, a
    return (*map(operator.add, a, b), *a[len(b):])


def _psub(a: tuple, b: tuple) -> tuple:
    n = len(b)
    if len(a) == n:
        return _trim(tuple(map(operator.sub, a, b)))
    if len(a) > n:
        return (*map(operator.sub, a, b), *a[n:])
    return (*map(operator.sub, a, b), *map(operator.neg, b[len(a):]))


def _pmul(a: tuple, b: tuple) -> tuple:
    # every coefficient is a sum of products, never a padding zero, so it is an
    # int exactly when its products are; the top one is nonzero: nothing to trim
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return ()
    c = b[0]
    out = [c * x for x in a]
    for i in range(1, len(b)):
        c = b[i]
        out.append(c * a[-1])
        if c:
            for k in range(len(a) - 1):
                out[i + k] += c * a[k]
    return tuple(out)


def _arith(kernel: Callable) -> Callable:
    """A binary Scalar operator.  Two Scalars of one ring skip _coerce and the
    checks of __init__: the kernel keeps a constant a constant, so the payload
    of the result is valid for the ring."""
    def op(self, other) -> "Scalar":
        if type(other) is not Scalar or other.ring != self.ring:
            other = self._coerce(other)
        return _scalar(self.ring, kernel(self.val, other.val))
    return op


class Scalar:
    """An exact ring element: an ascending coefficient tuple with no trailing
    zero, of at most one coefficient over Q."""

    __slots__ = ("ring", "val")

    def __init__(self, ring: str, val):
        if ring != RATIONAL and ring != POLY:
            raise ValueError(f"unknown ring tag {ring!r}")
        if not isinstance(val, tuple):
            raise TypeError("scalar payload must be a tuple of coefficients")
        for c in val:
            if type(c) is not Fraction and type(c) is not int:
                raise TypeError(f"expected int or Fraction coefficients, got {type(c).__name__}")
        if val and not val[-1]:
            raise TypeError("scalar payload must not end in a zero coefficient")
        if len(val) > 1 and ring == RATIONAL:
            raise TypeError("rational scalar payload holds more than one coefficient")
        self.ring = ring
        self.val = val

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(ring: str, x: RationalLike) -> "Scalar":
        f = _as_fraction(x)  # refuses a float before x is tested for zero
        return Scalar(ring, (f,) if x else ())

    @staticmethod
    def zero(ring: str) -> "Scalar":
        return Scalar.of(ring, 0)

    @staticmethod
    def one(ring: str) -> "Scalar":
        return Scalar.of(ring, 1)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.val

    def __bool__(self) -> bool:
        return bool(self.val)

    def degree(self) -> int:
        """Degree in q; rationals count as degree 0 (or -1 for zero)."""
        return len(self.val) - 1

    def coeffs(self) -> tuple[Fraction, ...]:
        """Ascending coefficient tuple, also for rationals."""
        return self.val

    def constant_value(self) -> Fraction:
        """The value as a Fraction, failing if q actually occurs."""
        if len(self.val) > 1:
            raise ZeroPolynomialError("polynomial has positive degree, not a constant")
        return _as_fraction(self.val[0]) if self.val else Fraction(0)

    # -- ring maps ----------------------------------------------------------

    def lift(self) -> "Scalar":
        """Embed into Q[q] (identity if already there)."""
        return self if self.ring == POLY else _scalar(POLY, self.val)

    def eval_q(self, point: RationalLike) -> "Scalar":
        """Substitute a rational value for q, landing in Q.

        With p = a/b and the coefficients as integer numerators over their
        common denominator den, Horner's rule on integers gives
        den b^n f(a/b), n the degree, and one Fraction divides it out.
        """
        p = _as_fraction(point)
        a, b = p.numerator, p.denominator
        den = math.lcm(*[c.denominator for c in self.val])
        acc, bpow = 0, 1
        for c in reversed(self.val):
            acc, bpow = acc * a + c.numerator * (den // c.denominator) * bpow, bpow * b
        # bpow is b^(n+1), so acc * b / (den * bpow) is acc / (den b^n)
        return _scalar(RATIONAL, (Fraction(acc * b, den * bpow),) if acc else ())

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.ring != self.ring:
                raise RingMismatchError(f"cannot mix {self.ring} with {other.ring}")
            return other
        return Scalar.of(self.ring, other)

    __add__ = __radd__ = _arith(_padd)
    __sub__ = _arith(_psub)
    __mul__ = __rmul__ = _arith(_pmul)

    def __rsub__(self, other) -> "Scalar":
        return self._coerce(other) - self

    def __neg__(self) -> "Scalar":
        return _scalar(self.ring, tuple(map(operator.neg, self.val)))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.of(self.ring, other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.ring == other.ring and self.val == other.val

    def __hash__(self) -> int:
        return hash((self.ring, self.val))

    def __repr__(self) -> str:
        return f"Scalar({self.ring!r}, {self})"

    def __str__(self) -> str:
        """Canonical text form; parses back through the fixture-file grammar."""
        if len(self.val) < 2:
            return str(self.val[0]) if self.val else "0"
        return join_terms((str(c), "" if k == 0 else "q" if k == 1 else f"q^{k}")
                          for k, c in enumerate(self.val) if c)


def join_terms(pairs: Iterable[tuple[str, str]]) -> str:
    """Signed sum of (coefficient text, base text) terms, as in "1 - 2*q + q^2": a
    coefficient of 1 or -1 leaves the base alone or negated, an empty base the coefficient."""
    text = ""
    for c, base in pairs:
        term = c if not base else base if c == "1" else f"-{base}" if c == "-1" else f"{c}*{base}"
        text += term if not text else f" - {term[1:]}" if term[0] == "-" else f" + {term}"
    return text


def _scalar(ring: str, val) -> Scalar:
    """A Scalar from a payload already known to be valid for ring (no checks)."""
    s = object.__new__(Scalar)
    s.ring = ring
    s.val = val
    return s


def polynomial(coeffs: Iterable[RationalLike]) -> Scalar:
    """Build a Q[q] scalar from ascending coefficients."""
    return Scalar(POLY, _trim(tuple(_as_fraction(c) for c in coeffs)))


def qvar() -> Scalar:
    """The deformation variable q itself."""
    return polynomial((0, 1))


# -- polynomial root finding -------------------------------------------------
# The helpers work on ascending lists of ints with a nonzero last entry.


class RootReport(NamedTuple):
    roots: frozenset[Fraction]
    has_nonrational_factor: bool


def _primitive(f: list[int]) -> list[int]:
    g = math.gcd(*f)
    return [c // g for c in f]


def _derivative(f: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(f)][1:]


def _prem(a: list[int], b: list[int]) -> list[int]:
    """The remainder of a by b over Z, up to a power of b's leading coefficient."""
    a, lead, n = list(a), b[-1], len(b)
    while len(a) >= n:
        c, k = a[-1], len(a) - n
        a = [x * lead for x in a]
        for i, x in enumerate(b):
            a[k + i] -= c * x
        while a and not a[-1]:
            a.pop()
    return a


def _squarefree(f: list[int]) -> list[int]:
    """f / gcd(f, f') for a primitive f of positive degree.

    The gcd is the last member of the primitive remainder sequence of f and
    f' (W. S. Brown, JACM 1971); it is primitive, so the quotient is integral.
    """
    a, b = f, _primitive(_derivative(f))
    while True:
        r = _prem(a, b)
        if len(r) <= 1:
            break
        a, b = b, _primitive(r)
    if r:  # a nonzero constant remainder: f and f' are coprime
        return f
    f, quo = list(f), [0] * (len(f) - len(b) + 1)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = f[k + len(b) - 1] // b[-1]
        for i, x in enumerate(b):
            f[k + i] -= c * x
    return quo


def _mod(f: list[int], p: int) -> list[int]:
    f = [c % p for c in f]
    while f and not f[-1]:
        f.pop()
    return f


def _squarefree_mod(f: list[int], p: int) -> bool:
    """Whether f, of the same degree modulo the prime p, is square-free modulo p."""
    a, b = _mod(f, p), _mod(_derivative(f), p)
    while b:  # Euclid in GF(p)[q]: a becomes gcd(f, f') modulo p
        inv, n = pow(b[-1], -1, p), len(b)
        while len(a) >= n:
            c, k = a[-1] * inv % p, len(a) - n
            for i, x in enumerate(b):
                a[k + i] = (a[k + i] - c * x) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _horner(f: list[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def _vanishes(f: list[int], a: int, b: int) -> bool:
    """Whether f(a/b) = 0, from b^deg(f) f(a/b) in integers."""
    acc, bpow = 0, 1
    for c in reversed(f):
        acc, bpow = acc * a + c * bpow, bpow * b
    return acc == 0


def rational_roots(p: Scalar) -> RootReport:
    """All rational roots of a nonzero scalar, ignoring multiplicity.

    ``has_nonrational_factor`` is True exactly when deflating every rational
    root still leaves a factor of positive degree.

    After q^k is split off, f is the primitive integer square-free part,
    with end coefficients a0 and an.  Each root a/b in lowest terms has
    |a| <= |a0| and 0 < b <= |an|.  For the smallest prime p that does not
    divide an and keeps f square-free modulo p, every root of f modulo p is
    simple; each is lifted by Newton's iteration until p^k > 2 |a0 an|, read
    back as a/b by the extended Euclidean algorithm, and kept if f(a/b) = 0
    in exact arithmetic.  The work is polynomial in the degree and in the
    bit size of the coefficients.
    """
    if p.is_zero():
        raise ZeroPolynomialError("the zero polynomial vanishes identically")
    shift = 0
    while p.val[shift] == 0:
        shift += 1
    roots = {Fraction(0)} if shift else set()
    den = math.lcm(*(c.denominator for c in p.val))
    f = _primitive([c.numerator * (den // c.denominator) for c in p.val[shift:]])
    if len(f) == 1:
        return RootReport(frozenset(roots), False)

    f = _squarefree(f)
    prime = 2
    while not (f[-1] % prime and _squarefree_mod(f, prime)):
        prime += 1
        while any(prime % d == 0 for d in range(2, math.isqrt(prime) + 1)):
            prime += 1
    df, bound, found = _derivative(f), 2 * abs(f[0] * f[-1]), 0
    for r in range(prime):
        if _horner(f, r, prime):
            continue
        m, u = prime, r
        while m <= bound:
            m *= m
            u = (u - _horner(f, u, m) * pow(_horner(df, u, m), -1, m)) % m
        # extended Euclid on (m, u) down to the first remainder r1 <= |a0|;
        # then r1 = t1 u (mod m), and r1/t1 is the only candidate
        r0, r1, t0, t1 = m, u, 0, 1
        while r1 > abs(f[0]):
            k = r0 // r1
            r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
        if _vanishes(f, r1, t1):
            roots.add(Fraction(r1, t1))
            found += 1
    return RootReport(frozenset(roots), len(f) - 1 > found)


def exact_div(a: Scalar, b: Scalar) -> Scalar:
    """Divide a by b when the division is exact; error otherwise.  The quotient
    is over Q[q] if either operand is."""
    # long division; dividing through a Fraction, as int / int is a float
    rem, div = list(a.val), b.val
    if not div:
        raise ZeroPolynomialError("division by zero")
    quot = [Fraction(0)] * max(len(rem) - len(div) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        factor = quot[k] = _as_fraction(rem[k + len(div) - 1]) / div[-1]
        if factor:
            for i, d in enumerate(div):
                rem[k + i] -= factor * d
    if _trim(rem[: len(div) - 1]):
        raise ZeroPolynomialError("division is not exact in Q[q]")
    return Scalar(RATIONAL if a.ring == b.ring == RATIONAL else POLY, _trim(quot))


# -- sparse tensors -------------------------------------------------------------


def _unbox(ring: str, s: Scalar):
    if not isinstance(s, Scalar):
        raise TypeError("entries must be Scalar values")
    if s.ring != ring:
        raise RingMismatchError(f"entry from {s.ring} in a {ring} container")
    if ring == POLY:
        return _scalar(POLY, tuple([c.numerator if c.denominator == 1 else c for c in s.val]))
    v = s.val[0] if s.val else 0
    return v.numerator if v.denominator == 1 else v


def _box(ring: str, v) -> Scalar:
    if ring == RATIONAL:  # v is nonzero: a stored entry
        return _scalar(RATIONAL, (v if type(v) is Fraction else Fraction(v),))
    return _scalar(POLY, tuple([c if type(c) is Fraction else Fraction(c) for c in v.val]))


def _exact(v):
    """A stored entry in canonical form: an integral Q value as an int, anything else as is."""
    return v.numerator if type(v) is Fraction and v.denominator == 1 else v


def _numerators(ring: str, entries: dict) -> tuple[int, dict]:
    """(d, entries as integer numerators over d): d is the lcm of Q denominators, 1 over Q[q]."""
    den = 1 if ring == POLY else math.lcm(*[v.denominator for v in entries.values()])
    if den == 1:
        return 1, entries
    return den, {k: v.numerator * (den // v.denominator) for k, v in entries.items()}


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
    same_size: tuple  # pairs of (operand, leg) that carry one label


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

    def needed(o: int) -> set:
        return set(out).union(*ins[o + 1:])

    acc = ins[0]
    steps = []
    for o in range(1, len(ins)):
        legs, need = ins[o], needed(o)
        shared = [label for label in legs if label in acc]
        rest = [label for label in legs if label not in acc and label in need]
        keep = [label for label in acc if label in need]
        steps.append((o,
                      _picker(tuple(acc.index(label) for label in shared)),
                      tuple(legs.index(label) for label in shared),
                      tuple(legs.index(label) for label in rest),
                      None if len(keep) == len(acc)
                      else _picker(tuple(acc.index(label) for label in keep))))
        acc = "".join(keep + rest)
    final = None if acc == out else _picker(tuple(acc.index(label) for label in out))
    return _Plan(len(ins), tuple(steps), final, tuple(where[label] for label in out),
                 tuple(same_size))


def _join(plan: _Plan, operands: Sequence["Tensor"], numerators: bool) -> tuple[int, dict]:
    """(d, the contraction's entries keyed in output order), as integer numerators
    over d after a join or with numerators set, else as stored, over d = 1."""
    entries = operands[0]._entries
    den, acc = _numerators(operands[0].ring, entries) if plan.steps or numerators else (1, entries)
    for o, shared_of, shared, rest, keep in plan.steps:
        d, index = operands[o]._index_on(shared, rest)
        den *= d
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
    if plan.final is not None:
        acc = {plan.final(key): s for key, s in acc.items()}
    return den, acc


def _same(t: "Tensor") -> tuple:
    """(spec, operands) of t unchanged, as a term of Tensor.combination."""
    legs = "abcdefghijklmnopqrstuvwxyz"[:len(t.shape)]
    return f"{legs}->{legs}", (t,)


class Tensor:
    """A sparse order-k tensor over one ring.

    Only nonzero entries are stored, keyed by index tuple, as raw
    coefficients, so equality and hashing are canonical (an int and the
    equal Fraction compare and hash alike) and compare ring, shape and
    entries only.  Every product, map application, change of legs and sum is
    one call of ``combination``.  Values go in and come out as Scalars;
    ``from_dense`` and ``dense`` are the one edge to nested sequences.
    """

    __slots__ = ("ring", "shape", "_entries", "_index")

    @classmethod
    def _make(cls, ring: str, shape: tuple[int, ...], entries: dict):
        # trusted: entries already hold nonzero raw coefficients of ring only
        t = object.__new__(cls)
        t.ring = ring
        t.shape = shape
        t._entries = entries
        t._index = None
        return t

    @classmethod
    def from_entries(cls, ring: str, shape: Sequence[int], entries):
        """A tensor from (index tuple, Scalar) pairs or a mapping; zero values are dropped."""
        shape = tuple(shape)
        out = {}
        for key, s in dict(entries).items():
            key = tuple(key)
            if len(key) != len(shape) or key and (
                    min(key) < 0 or not all(map(operator.lt, key, shape))):
                raise ShapeError(f"index {key} lies outside shape {shape}")
            if v := _unbox(ring, s):
                out[key] = v
        return cls._make(ring, shape, out)

    @classmethod
    def from_dense(cls, ring: str, nested):
        """A tensor from nested sequences of Scalars; the nesting gives the legs."""
        shape, level = [], nested
        while not isinstance(level, Scalar):
            shape.append(len(level))
            if not level:
                break
            level = level[0]
        entries = {}

        def walk(seq, key):
            if isinstance(seq, Scalar) or len(seq) != shape[len(key)]:
                raise ShapeError("ragged nested sequence")
            for i, x in enumerate(seq):
                if len(key) < len(shape) - 1:
                    walk(x, key + (i,))
                elif v := _unbox(ring, x):
                    entries[key + (i,)] = v

        walk(nested, ())
        return cls._make(ring, tuple(shape), entries)

    @classmethod
    def basis(cls, ring: str, dim: int, i: int):
        """The basis vector e_i of a space of dimension dim."""
        if not 0 <= i < dim:
            raise ShapeError(f"basis index {i} outside dimension {dim}")
        return cls._make(ring, (dim,), {(i,): _unbox(ring, Scalar.one(ring))})

    @classmethod
    def identity(cls, ring: str, dim: int):
        one = _unbox(ring, Scalar.one(ring))
        return cls._make(ring, (dim, dim), {(i, i): one for i in range(dim)})

    @classmethod
    def stack(cls, parts: Sequence["Tensor"]):
        """The tensor whose slices along a new first leg are parts[0], parts[1], ..."""
        parts = tuple(parts)
        if not parts:
            raise ShapeError("nothing to stack")
        ring, shape = parts[0].ring, parts[0].shape
        entries = {}
        for i, t in enumerate(parts):
            if t.ring != ring:
                raise RingMismatchError(f"cannot mix {ring} with {t.ring}")
            if t.shape != shape:
                raise ShapeError("stacked tensors differ in shape")
            entries.update(((i,) + key, s) for key, s in t._entries.items())
        return cls._make(ring, (len(parts),) + shape, entries)

    @classmethod
    def from_blocks(cls, ring: str, shape: Sequence[int], blocks):
        """The sum of (offsets, tensor) blocks, each shifted by its per-leg offsets."""
        shape = tuple(shape)
        out = {}
        for offsets, t in blocks:
            if t.ring != ring:
                raise RingMismatchError(f"cannot mix {ring} with {t.ring}")
            if len(offsets) != len(shape) or len(t.shape) != len(shape) or any(
                    o + d > n for o, d, n in zip(offsets, t.shape, shape)):
                raise ShapeError(f"block of shape {t.shape} does not fit into {shape}")
            for key, s in t._entries.items():
                key = tuple(map(operator.add, key, offsets))
                prev = out.get(key)
                out[key] = s if prev is None else _exact(prev + s)
        return cls._make(ring, shape, {k: s for k, s in out.items() if s})

    @classmethod
    def block_diag(cls, a: "Tensor", b: "Tensor"):
        """a and b on the diagonal, a first, of a tensor of their summed shapes."""
        return cls.from_blocks(a.ring, tuple(map(operator.add, a.shape, b.shape)),
                               [((0,) * len(a.shape), a), (a.shape, b)])

    @classmethod
    def einsum(cls, spec: str, *operands: "Tensor"):
        """Contract tensors by leg labels, as in "i,j,ijk->k" for a product of two vectors.

        The operands are joined from left to right.  Each later operand is
        looked up through an index on the legs it shares with the running
        result, built once and kept on that operand, so a call only visits
        nonzero entries.  Pass sparse arguments first and the structure
        constants they hit last.  Labels missing from the output are summed;
        every leg of the first operand must meet a later operand or the output.
        """
        return cls.combination([(1, spec, operands)])

    @classmethod
    def combination(cls, terms):
        """The sum of c * einsum(spec, *operands) over (c, spec, operands) terms of one shape.

        c is an int or a Scalar of the operands' ring; a zero c skips its
        contraction, and 1 and -1 add and subtract without a product.  Over Q
        the joins run on integer numerators over each operand's common
        denominator, the terms add over one common denominator, and each
        nonzero output entry is divided once.
        """
        ring = shape = None
        live = []  # (c, plan, operands) with c nonzero
        for c, spec, operands in terms:
            plan = _plan(spec)
            if len(operands) != plan.operands:
                raise ValueError(f"{spec!r} takes {plan.operands} operands, got {len(operands)}")
            ring = ring or operands[0].ring
            for t in operands:
                if t.ring != ring:
                    raise RingMismatchError(f"cannot mix {ring} with {t.ring}")
            for (o1, p1), (o2, p2) in plan.same_size:
                if operands[o1].shape[p1] != operands[o2].shape[p2]:
                    raise ShapeError(f"leg sizes differ in {spec!r}")
            tshape = tuple(operands[o].shape[p] for o, p in plan.out_legs)
            if shape is not None and tshape != shape:
                raise ShapeError(f"shapes {shape} and {tshape} differ")
            shape, c = tshape, c if type(c) is int else _unbox(ring, c)
            if c:
                live.append((c, plan, operands))
        if ring is None:
            raise ValueError("nothing to combine")
        if len(live) == 1 and live[0][0] == 1:  # one contraction; a leg change keeps its entries
            den, acc = _join(live[0][1], live[0][2], False)
        else:
            parts = [(c, *_join(plan, operands, True)) for c, plan, operands in live]
            # over Q[q] every d is 1 and c stays as given
            den = math.lcm(*[d * (c.denominator if ring == RATIONAL else 1) for c, d, _ in parts])
            acc = {}
            get = acc.get
            for c, d, part in parts:
                m = c if ring == POLY else c.numerator * (den // (d * c.denominator))
                one, minus = m == 1, m == -1
                for key, s in part.items():
                    if not one:
                        s = -s if minus else m * s
                    prev = get(key)
                    acc[key] = s if prev is None else prev + s
        return cls._make(ring, shape, {key: s if den == 1 else s // den if not s % den
                                       else Fraction(s, den) for key, s in acc.items() if s})

    def _index_on(self, shared: tuple[int, ...], rest: tuple[int, ...]) -> tuple[int, dict]:
        """(d, entries grouped by shared legs as (rest legs, value)), values from _numerators."""
        if self._index is None:
            self._index = {}
        index = self._index.get((shared, rest))
        if index is None:
            of, tail = _picker(shared), _picker(rest)
            den, entries = _numerators(self.ring, self._entries)
            groups: dict = {}
            for key, s in entries.items():
                groups.setdefault(of(key), []).append((tail(key), s))
            index = self._index[(shared, rest)] = den, groups
        return index

    # -- reading -------------------------------------------------------------

    @property
    def dim(self) -> int:
        """Size of the first leg."""
        return self.shape[0]

    def entry(self, *index: int) -> Scalar:
        v = self._entries.get(index)
        return Scalar.zero(self.ring) if v is None else _box(self.ring, v)

    def nonzero(self) -> list[tuple]:
        """(*index, value) for every nonzero entry, in row-major order."""
        entries, ring = self._entries, self.ring
        return [(*key, _box(ring, entries[key])) for key in sorted(entries)]

    def slices(self, lead: int):
        """(index on the first lead legs, tensor of the rest) per nonzero slice, row-major."""
        shape = self.shape[lead:]
        for head, group in itertools.groupby(sorted(self._entries.items()),
                                             key=lambda item: item[0][:lead]):
            yield head, self._make(self.ring, shape, {key[lead:]: v for key, v in group})

    def is_zero(self) -> bool:
        return not self._entries

    @property
    def dense(self) -> tuple:
        """The entries as nested tuples of Scalars in row-major order, zeros included."""
        shape = self.shape

        def build(key):
            if len(key) == len(shape) - 1:
                return tuple(self.entry(*key, i) for i in range(shape[-1]))
            return tuple(build(key + (i,)) for i in range(shape[len(key)]))

        return build(())

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Tensor"):
        return Tensor.combination([(1, *_same(self)), (1, *_same(other))])

    def __sub__(self, other: "Tensor"):
        return Tensor.combination([(1, *_same(self)), (-1, *_same(other))])

    def __neg__(self):
        return self._make(self.ring, self.shape, {k: -s for k, s in self._entries.items()})

    def scale(self, s: Scalar):
        return Tensor.combination([(s, *_same(self))])

    def transpose(self):
        """The order-2 tensor with its two legs swapped."""
        return Tensor.einsum("ij->ji", self)

    def map_scalars(self, fn: Callable[[Scalar], Scalar], ring: str):
        """Apply fn to every entry, landing in ring; entries that become zero are dropped."""
        return self._make(ring, self.shape, {key: t for key, v in self._entries.items()
                                             if (t := _unbox(ring, fn(_box(self.ring, v))))})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return (self.ring == other.ring and self.shape == other.shape
                and self._entries == other._entries)

    def __hash__(self) -> int:
        return hash((self.ring, self.shape, frozenset(self._entries.items())))

    def __repr__(self) -> str:
        return f"Tensor({self.ring}, {self.shape}, {len(self._entries)} nonzero)"


def bareiss_det(rows: list[list[Scalar]], ring: str) -> Scalar:
    """Fraction-free determinant; exact over Q and over Q[q]."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ShapeError("determinant needs a square matrix")
    if n == 0:
        return Scalar.one(ring)
    m = [list(r) for r in rows]
    sign, prev = 1, Scalar.one(ring)
    for k in range(n - 1):
        if m[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if swap is None:
                return Scalar.zero(ring)
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = exact_div(num, prev)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det
