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
An entry gives the slice of the tensor at those left legs.  One grammar
reads every right side: a signed sum of terms, each a product of factors
joined by *, on the remaining legs.  A term has one basis vector among its
factors and one more after each further (x); a bare scalar is a term with no
basis vector, which is what every term is when no legs remain.  A map's line
gives the image of one basis vector, a column of the map.  A line that
contains -> is an entry line, whatever its first word.

parse and emit are inverse on canonical files: emit writes entries in basis
order with normalized scalars, and parse(emit(p)) reproduces p exactly.
"""

import itertools
import re
from fractions import Fraction

from .exactcore import POLY, RATIONAL, Scalar, Tensor, join_terms, qvar
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

_TOKEN = re.compile(r"\(x\)|->|[-+*/^()]|[\w']+")
# a character that starts no token: ">" starts one only after "-"
_STRAY = re.compile(r"[^\s\w'()*/^+>-]|>(?<!->)")

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
# the interpreter's default limit for int(); cli.main lifts that limit while a
# command runs, so that computed coefficients print
MAX_DIGITS = 4300


def _number(t: str, lineno: int) -> int:
    """A decimal literal of ASCII digits, at most MAX_DIGITS of them."""
    if not (t.isascii() and t.isdigit()):
        raise PresFileError(lineno, f"expected a number, found {t!r}")
    if len(t) > MAX_DIGITS:
        raise PresFileError(lineno, f"a number of {len(t)} digits is too long")
    return int(t)


def _tokenize(line: str, lineno: int) -> list[str]:
    if bad := _STRAY.search(line):
        raise PresFileError(lineno, f"unexpected character {bad.group()!r}")
    return _TOKEN.findall(line)


class _TermParser:
    """Recursive-descent parser for one entry line's token list.

    tok is the current token, None past the last one; take() returns it and
    moves on.
    """

    __slots__ = ("toks", "rest", "tok", "lineno", "ring", "index", "depth")

    def __init__(self, toks, lineno, ring, index):
        self.toks = toks
        self.rest = iter(toks)
        self.tok = next(self.rest, None)
        self.lineno = lineno
        self.ring = ring
        self.index = index  # basis name -> position
        self.depth = 0  # open parentheses around the current scalar

    def take(self):
        t = self.tok
        if t is None:
            raise PresFileError(self.lineno, "unexpected end of line")
        self.tok = next(self.rest, None)
        return t

    def expect(self, t):
        got = self.take()
        if got != t:
            raise PresFileError(self.lineno, f"expected {t!r}, found {got!r}")

    def done(self):
        if self.tok is not None:
            raise PresFileError(self.lineno, f"trailing tokens from {self.tok!r}")

    def scalar_atom(self, what: str, neg: bool):
        """One factor that is not a basis vector, negated with neg; what names the
        factor expected.  It is an int or a Fraction, or a Scalar where q occurs."""
        t = self.tok
        if t is not None and t.isdigit():
            self.take()
            num, den = _number(t, self.lineno), 1
            if self.tok == "/":
                self.take()
                den = _number(self.take(), self.lineno)
                if den == 0:
                    raise PresFileError(self.lineno, "zero denominator")
            if neg and self.tok != "^":  # no power follows: the sign goes on the number
                num, neg = -num, False
            s = num if den == 1 else Fraction(num, den)
        elif t == "(":
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
        else:
            raise PresFileError(self.lineno, f"expected {what}, found {t!r}")
        if self.tok == "^":
            self.take()
            e = _number(self.take(), self.lineno)
            cs = s.coeffs() if isinstance(s, Scalar) else (s,) if s else ()
            size = max(len(cs), 1) + sum(
                c.numerator.bit_length() + c.denominator.bit_length() for c in cs)
            if e * size > MAX_POWER:
                raise PresFileError(self.lineno, f"power with exponent {e} of a base of size "
                                                 f"{size} exceeds the budget of {MAX_POWER}")
            out = 1
            for _ in range(e):
                out = out * s
            s = out
        return -s if neg else s

    def term(self, legs: int, neg: bool):
        """(coeff, basis indices) of factors joined by *, negated with neg: with
        legs >= 1 exactly one factor is a basis vector and legs - 1 more follow,
        each after (x); with legs = 0 every factor is a scalar."""
        coeff = base = None
        what = "a term" if legs else "a scalar"
        while True:
            if legs and (i := self.index.get(self.tok)) is not None:
                if base is not None:
                    raise PresFileError(self.lineno, "two basis vectors in one term")
                self.take()
                base = i
            else:
                s = self.scalar_atom(what, neg and coeff is None)
                coeff = s if coeff is None else coeff * s
            if self.tok != "*":
                break
            self.take()
        out = (base,) if legs else ()
        for _ in range(legs - 1):
            self.expect("(x)")
            out += (self.basis(),)
        if legs and base is None:
            raise PresFileError(self.lineno, "term has no basis vector")
        return (-1 if neg else 1) if coeff is None else coeff, out

    def signed_sum(self, legs: int) -> list:
        """(coeff, indices) of each term of "[+|-] term (+|- term)*", signs applied."""
        out = []
        sign = self.tok in ("+", "-") and self.take()
        while True:
            out.append(self.term(legs, sign == "-"))
            if self.tok not in ("+", "-"):
                return out
            sign = self.take()

    def scalar_expr(self):
        return sum(c for c, _ in self.signed_sum(0))

    def basis(self) -> int:
        t = self.take()
        if t not in self.index:
            raise PresFileError(self.lineno, f"unknown basis vector {t!r}")
        return self.index[t]

    def linear_rhs(self, legs: int) -> list:
        """An entry line's right side, a lone 0 or a signed sum of terms of legs basis
        vectors each, as (coeff, indices) pairs."""
        if self.toks == ["0"]:
            self.take()
            return []
        return self.signed_sum(legs)


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
            if kind == "map":  # a line gives column j: its entry (j, i) is m[i][j]
                entries = {(i, j): c for (j, i), c in entries.items()}
            bags[field][name] = Tensor.from_entries(ring, (len(space.names),) * order, entries)

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
            key = tuple(map(index.get, lhs))
            if len(key) != left or None in key:
                raise PresFileError(lineno, "left side must be "
                                    + ("one basis vector" if left == 1 else "two basis vectors"))
            p = _TermParser(toks[arrow + 1:], lineno, ring, index)
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
            close_block()  # the open block's name too is taken
            if any(parts[1] in bag for bag in bags.values()):
                raise PresFileError(lineno, f"duplicate name {parts[1]!r}")
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
    return join_terms((_coeff_str(s), basis) for basis, s in pairs)


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
