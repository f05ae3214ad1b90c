"""Plain-text presentation files.

The format is line oriented.  A file opens with the space and the ring, then
any number of named blocks; inside a block each line gives one nonzero piece
of structure, and everything unstated is zero.

    # comment
    space 2 e1 e2
    ring Q[q]

    product dot
    e1 e1 -> e1
    e1 e2 -> -1/2*e1 + e2

    coproduct delta
    e2 -> (1 + 2*q)*e2 (x) e2

    map D
    e2 -> e2

    form B
    e1 e2 -> 1

    relement r
    e1 e2 -> 1
    e2 e1 -> -1

Scalars are rationals and polynomials in q, built from integers, /, *, ^,
parentheses and the literal q; multi-term coefficients of a basis vector must
be parenthesized.  The tensor marker (x) separates the two legs of a
coproduct or r-element term.  The name q is reserved.

BLOCKS is the one table of block kinds: each keyword names a Presentation
field, the order of its tensor and the number of basis vectors left of ->.
An entry gives the slice of the tensor at those left legs; its right side is
a sum of terms on the remaining legs, or a bare scalar when none remain.  A
map's line gives the image of one basis vector, a column of the map.  A line
that contains -> is an entry line, whatever its first word.

parse and emit are inverse on canonical files: emit writes entries in basis
order with normalized scalars, and parse(emit(p)) reproduces p exactly.
"""

import itertools
import re
from fractions import Fraction

from .exactcore import POLY, RATIONAL, Scalar, Tensor, qvar
from .structures import Presentation, Space


class PresFileError(Exception):
    """A syntax or consistency error in a presentation file, with line info."""

    def __init__(self, lineno: int, msg: str):
        super().__init__(f"line {lineno}: {msg}")
        self.lineno = lineno


# The block kinds in the order emit writes them: keyword -> (Presentation
# field, order of the tensor, basis vectors left of "->" on an entry line).
BLOCKS = {
    "product": ("binops", 3, 2),
    "coproduct": ("coops", 3, 1),
    "map": ("maps", 2, 1),
    "form": ("forms", 2, 2),
    "relement": ("relements", 2, 2),
}

# a token, or in the second group the first character that starts none
_TOKEN = re.compile(r"(\(x\)|->|[-+*/^()]|[\w']+)|(\S)")

# Input budgets, so that a short line cannot ask for unbounded work: how
# deeply coefficients may nest parentheses, how large a power s^e may be, as
# e times the size of s: one, plus its degree, plus the bit lengths of the
# numerators and denominators of its coefficients, and the dimension of the
# space, since the checks on a product visit up to n^3 basis tuples.  At 128
# dimensions `verify --profile novikov` on the truncated polynomial algebra
# (8,256 product entries) takes 1.8-2.3 s with Python 3.11 on a 2-vCPU Xeon VM.
MAX_NESTING = 100
MAX_POWER = 4096
MAX_DIM = 128


def _number(t: str, lineno: int) -> int:
    """A decimal literal.  Where int() would raise, on digits outside ASCII or
    on more digits than the interpreter converts, this is a parse error."""
    if not (t.isascii() and t.isdigit()):
        raise PresFileError(lineno, f"expected a number, found {t!r}")
    try:
        return int(t)
    except ValueError:
        raise PresFileError(lineno, f"a number of {len(t)} digits is too long") from None


def _tokenize(line: str, lineno: int) -> list[str]:
    toks = _TOKEN.findall(line)
    for _, bad in toks:
        if bad:
            raise PresFileError(lineno, f"unexpected character {bad!r}")
    return [tok for tok, _ in toks]


class _TermParser:
    """Recursive-descent parser for one entry line's token list."""

    def __init__(self, toks, lineno, ring, index):
        self.toks = toks
        self.pos = 0
        self.lineno = lineno
        self.ring = ring
        self.index = index  # basis name -> position, or None before the space line
        self.depth = 0  # open parentheses around the current scalar

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        if t is None:
            raise PresFileError(self.lineno, "unexpected end of line")
        self.pos += 1
        return t

    def expect(self, t):
        got = self.take()
        if got != t:
            raise PresFileError(self.lineno, f"expected {t!r}, found {got!r}")

    def done(self):
        if self.pos != len(self.toks):
            raise PresFileError(self.lineno, f"trailing tokens from {self.peek()!r}")

    def _int(self):
        return _number(self.take(), self.lineno)

    def _is_scalar_start(self, t):
        return t is not None and (t.isdigit() or t == "q" or t == "(")

    def scalar_atom(self) -> Scalar:
        t = self.peek()
        if t == "(":
            self.take()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise PresFileError(self.lineno, f"parentheses nested deeper than {MAX_NESTING}")
            s = self.scalar_expr()
            self.expect(")")
            self.depth -= 1
        elif t == "q":
            self.take()
            if self.ring != POLY:
                raise PresFileError(self.lineno, "q is only available over ring Q[q]")
            s = qvar()
        elif t is not None and t.isdigit():
            num = self._int()
            if self.peek() == "/":
                self.take()
                den = self._int()
                if den == 0:
                    raise PresFileError(self.lineno, "zero denominator")
                s = Scalar.of(self.ring, Fraction(num, den))
            else:
                s = Scalar.of(self.ring, num)
        else:
            raise PresFileError(self.lineno, f"expected a scalar, found {t!r}")
        if self.peek() == "^":
            self.take()
            e = self._int()
            size = 1 + max(s.degree(), 0) + sum(
                c.numerator.bit_length() + c.denominator.bit_length() for c in s.coeffs())
            if e * size > MAX_POWER:
                raise PresFileError(self.lineno, f"power with exponent {e} of a base of size "
                                                 f"{size} exceeds the budget of {MAX_POWER}")
            out = Scalar.one(self.ring)
            for _ in range(e):
                out = out * s
            s = out
        return s

    def scalar_term(self) -> Scalar:
        s = self.scalar_atom()
        while self.peek() == "*":
            self.take()
            s = s * self.scalar_atom()
        return s

    def signed_sum(self, term) -> list:
        """(negated, term()) for each term of "[+|-] term (+|- term)*"."""
        out = []
        sign = self.peek() in ("+", "-") and self.take()
        while True:
            out.append((sign == "-", term()))
            if self.peek() not in ("+", "-"):
                return out
            sign = self.take()

    def scalar_expr(self) -> Scalar:
        s = Scalar.zero(self.ring)
        for neg, t in self.signed_sum(self.scalar_term):
            s = s - t if neg else s + t
        return s

    def basis(self) -> int:
        t = self.take()
        if t not in self.index:
            raise PresFileError(self.lineno, f"unknown basis vector {t!r}")
        return self.index[t]

    def _one_term(self, legs: int):
        """(coeff, basis indices) of a term: factors with one basis vector, then legs - 1
        more basis vectors, each after (x)."""
        coeff = Scalar.one(self.ring)
        base = None
        while True:
            t = self.peek()
            if self._is_scalar_start(t):
                coeff = coeff * self.scalar_atom()
            elif t in self.index:
                if base is not None:
                    raise PresFileError(self.lineno, "two basis vectors in one term")
                self.take()
                base = self.index[t]
            else:
                raise PresFileError(self.lineno, f"expected a term, found {t!r}")
            if self.peek() != "*":
                break
            self.take()
        out = (base,)
        for _ in range(legs - 1):
            self.expect("(x)")
            out += (self.basis(),)
        if base is None:
            raise PresFileError(self.lineno, "term has no basis vector")
        return coeff, out

    def linear_rhs(self, legs: int) -> list:
        """A signed sum of terms of legs basis vectors each, as (coeff, indices) pairs."""
        if self.toks[self.pos:] == ["0"]:
            self.take()
            return []
        return [(-c if neg else c, out)
                for neg, (c, out) in self.signed_sum(lambda: self._one_term(legs))]


def parse(text: str) -> Presentation:
    """Read a presentation from file text."""
    space = ring = None
    index = {}
    bags = {field: {} for field, *_ in BLOCKS.values()}
    # (kind, name, entries by index, left sides whose line left a nonzero entry)
    block = None

    def close_block():
        if block is not None:
            kind, name, entries, _ = block
            field, order, _ = BLOCKS[kind]
            t = Tensor.from_entries(ring, (len(space.names),) * order, entries)
            bags[field][name] = t.transpose() if kind == "map" else t

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" in line:
            if block is None:
                raise PresFileError(lineno, "entry line outside any block")
            kind, _, entries, filled = block
            _, order, left = BLOCKS[kind]
            toks = _tokenize(line, lineno)
            arrow = toks.index("->")
            lhs = toks[:arrow]
            if len(lhs) != left or not all(t in index for t in lhs):
                raise PresFileError(lineno, "left side must be "
                                    + ("one basis vector" if left == 1 else "two basis vectors"))
            key = tuple(index[t] for t in lhs)
            p = _TermParser(toks[arrow + 1:], lineno, ring, index)
            if order == left:
                terms = [(key, p.scalar_expr())]
            else:
                terms = [(key + legs, c) for c, legs in p.linear_rhs(order - left)]
            p.done()
            if key in filled:
                raise PresFileError(lineno, f"duplicate entry for {' '.join(lhs)}")
            # no earlier line left a nonzero entry under key, so these sums are its entries
            for k, c in terms:
                entries[k] = entries[k] + c if k in entries else c
            if any(entries[k] for k, _ in terms):
                filled.add(key)
            continue

        parts = line.split()
        head = parts[0]
        if head == "space":
            if space is not None:
                raise PresFileError(lineno, "duplicate space line")
            if len(parts) < 3 or not parts[1].isdigit():
                raise PresFileError(lineno, "space line needs a dimension and basis names")
            dim = _number(parts[1], lineno)
            if dim > MAX_DIM:
                raise PresFileError(lineno, f"dimension {dim} exceeds the budget of {MAX_DIM}")
            names = tuple(parts[2:])
            if len(names) != dim:
                raise PresFileError(lineno, f"expected {parts[1]} basis names, got {len(names)}")
            if len(set(names)) != len(names):
                raise PresFileError(lineno, "repeated basis name")
            if "q" in names:
                raise PresFileError(lineno, "the name q is reserved for the parameter")
            # an entry line reads a number, or a name outside one token, as no basis vector
            for nm in names:
                if nm.isdigit() or not re.fullmatch(r"[\w']+", nm):
                    raise PresFileError(lineno, f"basis name {nm!r} is a number or not one word")
            space = Space(names)
            index = {nm: i for i, nm in enumerate(names)}
        elif head == "ring":
            if len(parts) != 2 or parts[1] not in ("Q", "Q[q]"):
                raise PresFileError(lineno, "ring must be Q or Q[q]")
            if ring is not None:
                raise PresFileError(lineno, "duplicate ring line")
            ring = RATIONAL if parts[1] == "Q" else POLY
        elif head in BLOCKS:
            if space is None or ring is None:
                raise PresFileError(lineno, "space and ring must come before any block")
            if len(parts) != 2:
                raise PresFileError(lineno, f"{head} line needs exactly one name")
            if parts[1] == "q":
                raise PresFileError(lineno, "the name q is reserved for the parameter")
            if any(parts[1] in bag for bag in bags.values()):
                raise PresFileError(lineno, f"duplicate name {parts[1]!r}")
            close_block()
            block = (head, parts[1], {}, set())
        else:
            raise PresFileError(lineno, f"unrecognized line {line!r}")

    close_block()
    if space is None or ring is None:
        raise PresFileError(0, "file must declare a space and a ring")
    return Presentation(ring=ring, space=space, **bags)


def _coeff_str(s: Scalar) -> str:
    """Render a coefficient for term position; parenthesize sums."""
    txt = str(s)
    if " + " in txt or " - " in txt:
        return f"({txt})"
    return txt


def _terms(pairs) -> str:
    """Signed sum of (basis text, coefficient) pairs, as in "e1 - 2*e2"."""
    parts = []
    for basis, s in pairs:
        txt = _coeff_str(s)
        if txt == "1":
            term = basis
        elif txt == "-1":
            term = f"-{basis}"
        else:
            term = f"{txt}*{basis}"
        if parts and not term.startswith("-"):
            parts.append(f"+ {term}")
        elif parts:
            parts.append(f"- {term[1:]}")
        else:
            parts.append(term)
    return " ".join(parts)


def emit(pres: Presentation) -> str:
    """Write a presentation as canonical file text."""
    names = pres.space.names
    out = [f"space {len(names)} {' '.join(names)}",
           "ring " + ("Q" if pres.ring == RATIONAL else "Q[q]")]

    word = names.__getitem__
    for kind, (field, order, left) in BLOCKS.items():
        bag = getattr(pres, field)
        for name in sorted(bag):
            out += ["", f"{kind} {name}"]
            t = bag[name].transpose() if kind == "map" else bag[name]
            # nonzero entries in row-major order, one line per left side
            for head, group in itertools.groupby(t.nonzero(), key=lambda e: e[:left]):
                pairs = [(" (x) ".join(map(word, e[left:-1])), e[-1]) for e in group]
                rhs = _terms(pairs) if order > left else str(pairs[0][1])
                out.append(f"{' '.join(map(word, head))} -> {rhs}")

    return "\n".join(out) + "\n"


def load(path) -> Presentation:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def save(path, pres: Presentation) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit(pres))
