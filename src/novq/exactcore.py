"""Exact scalars over Q and Q[q], plus sparse tensors of structure constants.

Everything in the package bottoms out here.  A Scalar is a tuple of
Fraction coefficients, ascending in the deformation parameter q with no
trailing zero, so zero is the empty tuple and the degree is len-1.  Its ring
tag, Q or Q[q], says whether q may occur: over Q the tuple holds at most one
coefficient, a rational being the constant polynomial.  There is no floating
point and no tolerance anywhere.

Vectors, maps, forms, r-elements, products and coproducts are all one
sparse Tensor class that stores only its nonzero entries: a Q entry as an
int when integral and a Fraction otherwise, a Q[q] entry as a Scalar whose
coefficients are stored so.  Products, map applications, leg changes and
sums all go through Tensor.combination, a signed sum of contractions whose
joins run on ints: each operand's integer numerators over its common
denominator, packed at q = 2^k over Q[q] (Kronecker substitution), read
back and divided once per output entry; an operand that alone carries the
last output leg and fills half of its rows joins one int per row, a row per
multiply-add.  Values go in at a tensor's edges as Scalars or numbers (ints
and Fractions) and come out as Scalars with Fraction coefficients.  No
other module knows how entries are stored.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .plans import _Plan, _picker, _plan

RATIONAL = "Q"
POLY = "Q[q]"
_RUN = (re.compile(b"[^\\x00]"), re.compile(b"[^\\xff]"))  # a byte that ends a run of zero digits


class RingMismatchError(TypeError):
    """Raised when two exact values from different base rings are combined."""


class ZeroPolynomialError(ValueError):
    """Raised when an operation requires a nonzero polynomial."""


class ShapeError(ValueError):
    """Raised when tensor or matrix dimensions do not line up."""


RationalLike = Union[int, Fraction]


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, (int, Fraction)):
        return x if isinstance(x, Fraction) else Fraction(x)
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
    """A binary Scalar operator; the kernel keeps a constant a constant, so two
    Scalars of one ring skip _coerce and the checks of __init__."""
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

    # -- ring maps ----------------------------------------------------------

    def lift(self) -> "Scalar":
        """Embed into Q[q] (identity if already there)."""
        return self if self.ring == POLY else _scalar(POLY, self.val)

    def eval_q(self, point: RationalLike) -> "Scalar":
        """Substitute a rational value a/b for q, landing in Q: Horner's rule on the integer
        numerators over their common denominator den gives den b^n f(a/b), n the degree."""
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
    __sub__ = _arith(lambda a, b: _padd(a, tuple(map(operator.neg, b))))
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
        # a scalar of degree at most 0 equals its number, so it hashes as that number
        return hash(self.val) if len(self.val) > 1 else hash(self.val[0] if self.val else 0)

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
    """f / gcd(f, f') for a primitive f of positive degree.  The gcd is the last member of
    the primitive remainder sequence of f and f' (W. S. Brown, JACM 1971); it is
    primitive, so the quotient is integral."""
    a, b = f, _primitive(_derivative(f))
    while True:
        r = _prem(a, b)
        if len(r) <= 1:
            break
        a, b = b, _primitive(r)
    if r:  # a nonzero constant remainder: f and f' are coprime
        return f
    return [int(c) for c in exact_div(_scalar(POLY, tuple(f)), _scalar(POLY, tuple(b))).val]


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


def rational_roots(p: Scalar) -> RootReport:
    """All rational roots of a nonzero scalar, ignoring multiplicity, by p-adic lifting (R.
    Loos, Computing rational zeros of integral polynomials by p-adic expansion, SIAM J.
    Comput. 12, 1983).  ``has_nonrational_factor`` is True exactly when deflating every
    rational root still leaves a factor of positive degree.

    After q^k is split off, f is the primitive integer square-free part, with end
    coefficients a0 and an; a root a/b in lowest terms has |a| <= |a0| and 0 < b <= |an|.
    For the smallest prime p that does not divide an and keeps f square-free modulo p,
    each root of f modulo p is lifted by Newton's iteration until p^k > 2 |a0 an|, read
    back as a/b by the extended Euclidean algorithm, and kept if f(a/b) = 0 exactly: the
    work is polynomial in the degree and in the bit size of the coefficients.
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
        if not _scalar(POLY, tuple(f)).eval_q(Fraction(r1, t1)):
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


def _exact(v):
    """A value in canonical stored form: every integral coefficient an int."""
    if type(v) is Scalar:
        return _scalar(v.ring, tuple([c.numerator if c.denominator == 1 else c for c in v.val]))
    return v.numerator if v.denominator == 1 else v


def _unbox(ring: str, s):
    if type(s) is int or type(s) is Fraction:  # a number, of either ring; not a bool
        s = _exact(s)
        return s if ring == RATIONAL else _scalar(POLY, (s,) if s else ())
    if not isinstance(s, Scalar):
        raise TypeError(f"entries must be Scalars, ints or Fractions, got {type(s).__name__}")
    if s.ring != ring:
        raise RingMismatchError(f"entry from {s.ring} in a {ring} container")
    return _exact(s) if ring == POLY else _exact(s.val[0]) if s.val else 0


def _box(ring: str, v) -> Scalar:
    return _scalar(ring, tuple([c if type(c) is Fraction else Fraction(c)
                                for c in (v.val if ring == POLY else (v,))]))


def _extent(values) -> tuple[int, int, int]:
    """(d, n, l): d the lcm of the denominators of the values' coefficients, a Q value being
    a constant, l the most coefficients of a value and n their largest numerator over d times l."""
    cs = [v.val if type(v) is Scalar else (v,) for v in values]
    den, l = math.lcm(*[c.denominator for v in cs for c in v]), max(map(len, cs), default=0)
    return den, max([abs(c.numerator) * (den // c.denominator) for v in cs for c in v],
                    default=0) * l, l


def _pack(v, den: int, k: int) -> int:
    """v's coefficients as integer numerators over den, at q = 2^k: a constant packs to itself."""
    return sum([c.numerator * (den // c.denominator) << k * i
                for i, c in enumerate(v.val if type(v) is Scalar else (v,)) if c])


def _digits(n: int, k: int) -> list[int]:
    """n's balanced base-2^k digits, lowest first, for k a multiple of 8: one pass over n."""
    w, half, carry, i = k // 8, 1 << (k - 1), 0, 0
    raw = n.to_bytes((n.bit_length() // k + 2) * w, "little", signed=True)
    digits = [0] * (len(raw) // w)
    while i < len(raw):
        if raw[i] == 255 * carry:  # a run of zero digits, bytes 0x00 or 0xff after a carry?
            if not (at := _RUN[carry].search(raw, i)):
                break
            i = at.start() - at.start() % w
        c = int.from_bytes(raw[i:i + w], "little") + carry
        carry = c >= half
        digits[i // w], i = c - (carry << k), i + w
    return digits


def _entry(n: int, den: int, k: int):
    """The stored entry n / den; over Q[q] (k > 0) n is read in balanced base-2^k digits."""
    if not k:
        return n if den == 1 else n // den if not n % den else Fraction(n, den)
    digits = _digits(n, k)
    return _scalar(POLY, _trim(digits if den == 1 else [_entry(c, den, 0) for c in digits]))


def _join(plan: _Plan, operands: Sequence["Tensor"], k: int | None) -> dict:
    """The contraction's entries keyed in output order: integer numerators over the
    product of the operands' denominators packed at q = 2^k, or as stored if k is None."""
    acc = operands[0]._entries if k is None else operands[0]._numerators(k)
    for o, shared_of, shared, rest, keep in plan.steps:
        index = operands[o]._index_on(shared, rest, k)
        out: dict = {}
        get = out.get
        for key, s in acc.items():
            hits = index.get(shared_of(key))
            if hits:
                head = key if keep is None else keep(key)
                for tail, w in hits:
                    at = head + tail
                    prev = get(at)
                    out[at] = s * w if prev is None else prev + s * w
        acc = out
    if plan.final is not None:
        acc = {plan.final(key): s for key, s in acc.items()}
    return acc


def _same(t: "Tensor") -> tuple:
    """(spec, operands) of t unchanged, as a term of Tensor.combination."""
    legs = "abcdefghijklmnopqrstuvwxyz"[:len(t.shape)]
    return f"{legs}->{legs}", (t,)


class Tensor:
    """A sparse order-k tensor over one ring, storing only its nonzero entries, keyed by index
    tuple, in canonical form (an int and the equal Fraction compare and hash alike), so
    equality and hashing compare ring, shape and entries only.  Values go in as Scalars or
    numbers and come out as Scalars; ``from_dense`` and ``dense`` are the one edge to nested
    sequences."""

    __slots__ = ("ring", "shape", "_entries", "_index")

    @classmethod
    def _make(cls, ring: str, shape: tuple[int, ...], entries: dict):
        # trusted: entries already hold nonzero raw coefficients of ring only
        t = object.__new__(cls)
        t.ring = ring
        t.shape = shape
        t._entries = entries
        t._index = None  # what the entries determine, made on a first join: see _numerators
        return t

    @classmethod
    def from_entries(cls, ring: str, shape: Sequence[int], entries):
        """A tensor from (index tuple, Scalar or number) pairs or a mapping; zeros are dropped."""
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
        """A tensor from nested sequences of Scalars or numbers; the nesting gives the legs."""
        shape, level, leaf = [], nested, (Scalar, int, Fraction)
        while not isinstance(level, leaf):
            shape.append(len(level))
            if not level:
                break
            level = level[0]
        entries = {}

        def walk(seq, key):
            if isinstance(seq, leaf) or len(seq) != shape[len(key)]:
                raise ShapeError("ragged nested sequence")
            for i, x in enumerate(seq):
                if len(key) < len(shape) - 1:
                    walk(x, key + (i,))
                else:
                    entries[key + (i,)] = x

        walk(nested, ())
        return cls.from_entries(ring, shape, entries)

    @classmethod
    def basis(cls, ring: str, dim: int, i: int):
        """The basis vector e_i of a space of dimension dim."""
        return cls.from_entries(ring, (dim,), {(i,): 1})

    @classmethod
    def identity(cls, ring: str, dim: int):
        return cls.from_entries(ring, (dim, dim), {(i, i): 1 for i in range(dim)})

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

        The operands are joined from left to right, each later one through an index on the
        legs it shares with the running result, kept on that operand, so a call only visits
        nonzero entries: pass sparse arguments first.  Labels missing from the output are
        summed; every leg of the first operand must meet a later operand or the output."""
        return cls.combination([(1, spec, operands)])

    @classmethod
    def combination(cls, terms):
        """The sum of c * einsum(spec, *operands) over (c, spec, operands) terms of one shape.

        c is a number or a Scalar of the operands' ring; a zero c skips its
        contraction.  Each operand joins as integer numerators over its common
        denominator, packed into one int per entry at q = 2^k (a Q entry packs
        to itself); the terms add over one common denominator d, and each
        nonzero output entry is read back once, in balanced base-2^k digits,
        and divided by d.  If one operand of each term alone carries the last
        output leg, of size w > 1, and its z entries of at most l coefficients
        fill half its rows (2 z l >= its dense size times s, s the most
        coefficients of an output entry), it joins as one int per row, slot j
        at bit j k s, on the spec without the leg, and each nonzero output row
        splits into its w slots.  Over Q without rows nothing is read: k = 0.

        Why k suffices: evaluation at q = 2^k, t = 2^(ks) is a ring map from
        Z[q, t] to Z, so the packed sums and products are exact for any k; t
        occurs in one operand only, so an output row is the sum of t^j times
        entry j.  Reading back is exact when every output coefficient's
        numerator over d is below 2^(k-1) in size: an entry's value is then
        below (2^(k-1) - 1)(2^(ks) - 1)/(2^k - 1) < 2^(ks-1).  An integer
        polynomial's 1-norm, at most its largest coefficient times (degree +
        1), bounds each of its coefficients and is submultiplicative.  So over
        its own denominator a term's output coefficient is at most the product
        of |c| (deg c + 1), of each operand's largest numerator times (degree +
        1), and of the sizes of the summed legs.  Brought to d and summed over
        the terms, these give B, and k = bitlen(2B) + 1 has 2^(k-1) > B; k is
        rounded up to a multiple of 32, so that near-equal bounds share an
        operand's index.
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
        if len(live) == 1 and live[0][0] == 1 and not live[0][1].steps:  # a leg change: as stored
            return cls._make(ring, shape, _join(live[0][1], live[0][2], None))
        row = shape and shape[-1] > 1 and all(  # a holder per term, half full as below, s = 1
            p.row and ops[p.row[0]]._extent()[3] for _, p, ops in live)
        full = row and ring == RATIONAL  # over Q only packed rows need the numerators' bound
        parts, top = [], 1  # per term (c's denominator, the term's, its bound); top: s above
        for c, plan, operands in live:
            cd, b, l = _extent((c,)) if type(c) is Scalar else (c.denominator, abs(c.numerator), 1)
            d = cd
            for t in operands:
                td, tb, tl, _ = t._extent(full)
                d, b, l = d * td, b * tb, l + tl - 1
            for o, p in plan.summed:
                b *= operands[o].shape[p]
            parts.append((cd, d, b))
            top = max(top, l)
        row = row and all(ops[p.row[0]]._extent()[3] >= top for _, p, ops in live)
        den = math.lcm(*[d for _, d, _ in parts])
        k = 0 if ring == RATIONAL and not row else -(  # nothing is read back over Q unpacked
            -((2 * sum([b * (den // d) for _, d, b in parts])).bit_length() + 1) // 32) * 32
        kq = k if ring == POLY else 0  # the width of one coefficient; a Q entry packs to itself
        acc = {}
        get = acc.get
        for (c, plan, operands), (cd, d, _) in zip(live, parts):
            m = (c if type(c) is int else _pack(c, cd, kq)) * (den // d)
            if row:  # the holder's rows join on the spec without the leg
                o, leg, spec = plan.row
                plan = _plan(spec)
                operands = (*operands[:o], operands[o]._rows(leg, kq, k * top), *operands[o + 1:])
            for key, s in _join(plan, operands, kq).items():
                prev = get(key)
                acc[key] = m * s if prev is None else prev + m * s
        if not row:
            return cls._make(ring, shape, {key: _entry(s, den, kq) for key, s in acc.items() if s})
        return cls._make(ring, shape, {key + (j,): _entry(v, den, kq) for key, s in acc.items()
                                       if s for j, v in enumerate(_digits(int(s), k * top)) if v})

    def _extent(self, full: bool = False) -> tuple[int, int, int, int]:
        """_extent of the entries and 2 z l // the dense size, z the number of entries (rows
        pack where it reaches s).  Over Q, where only rows are read back, n is 0 until full."""
        got = self._index and self._index[()]
        if not got or full and not got[1]:
            vs = self._entries.values()
            d, n, l = _extent(vs) if full or self.ring == POLY else (
                math.lcm(*[v.denominator for v in vs]), 0, 1)
            got = d, n, l, 2 * len(vs) * l // (math.prod(self.shape) or 1)
            self._index = {**(self._index or {}), (): got}
        return got

    def _numerators(self, k: int) -> dict:
        """The entries as integer numerators over their lcm denominator, packed at q = 2^k.

        Kept in _index, which _extent makes, beside the join indexes: a tensor never
        changes, and only a tensor that joins pays for the cache."""
        den, got = self._extent()[0], self._index.get(k)
        if got is None:
            got = self._index[k] = self._entries if den == 1 and not k else {
                key: _pack(v, den, k) if k else v.numerator * (den // v.denominator)
                for key, v in self._entries.items()}
        return got

    def _rows(self, leg: int, k: int, width: int) -> "Tensor":
        """The tensor without leg whose entries are the rows of _numerators(k) along leg, slot
        j at bit j * width, and are their own numerators; kept in _index."""
        got = self._index.get(("rows", leg, k, width))
        if got is None:
            others = tuple(p for p in range(len(self.shape)) if p != leg)
            rows = {at: sum([int(v) << j * width for (j,), v in hits])  # int: a stored n/1
                    for at, hits in self._index_on(others, (leg,), k).items()}
            got = self._index["rows", leg, k, width] = self._make(
                self.ring, tuple(map(self.shape.__getitem__, others)), rows)
            got._index = {(): (1, 0, 1, 0), k: rows}
        return got

    def _index_on(self, shared: tuple[int, ...], rest: tuple[int, ...], k: int) -> dict:
        """_numerators at k grouped by shared legs, as (rest legs, value) pairs."""
        entries = self._numerators(k)
        index = self._index.get((shared, rest, k))
        if index is None:
            of, tail, index = _picker(shared), _picker(rest), {}
            for key, s in entries.items():
                index.setdefault(of(key), []).append((tail(key), s))
            self._index[(shared, rest, k)] = index
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
        def build(key):
            if len(key) == len(self.shape):
                return self.entry(*key)
            return tuple(build(key + (i,)) for i in range(self.shape[len(key)]))
        return build(())

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Tensor"):
        return Tensor.combination([(1, *_same(self)), (1, *_same(other))])

    def __sub__(self, other: "Tensor"):
        return Tensor.combination([(1, *_same(self)), (-1, *_same(other))])

    def __neg__(self):
        return self._make(self.ring, self.shape, {k: -s for k, s in self._entries.items()})

    def scale(self, s):
        """Every entry times s: one product per entry, Scalar arithmetic over Q[q], no join."""
        c = _unbox(self.ring, s)
        return self._make(self.ring, self.shape, {key: t for key, v in self._entries.items()
                                                  if (t := _exact(v * c))})

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
