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

parse and emit are inverse on canonical files: emit writes entries in basis
order with normalized scalars, and parse(emit(p)) reproduces p exactly.
"""

import itertools
from fractions import Fraction

from .exactcore import POLY, RATIONAL, Scalar, Tensor2, qvar
from .structures import BinOpTensor, CoOpTensor, LinMap, Presentation, Space


class PresFileError(Exception):
    """A syntax or consistency error in a presentation file, with line info."""

    def __init__(self, lineno: int, msg: str):
        super().__init__(f"line {lineno}: {msg}")
        self.lineno = lineno


_PUNCT = ("(x)", "->", "+", "-", "*", "/", "^", "(", ")")

# Input budgets, so that a short line cannot ask for unbounded work: how
# deeply coefficients may nest parentheses, how large a power s^e may be, as
# e times the size of s: one, plus its degree, plus the bit lengths of the
# numerators and denominators of its coefficients, and the dimension of the
# space, since the checks on a product visit up to n^3 basis tuples.  At 128
# dimensions `verify --profile novikov` on the truncated polynomial algebra
# (8,256 product entries) takes 4.0 s with Python 3.11 on a 2-vCPU Xeon VM.
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
    toks = []
    i = 0
    while i < len(line):
        ch = line[i]
        if ch.isspace():
            i += 1
            continue
        for p in _PUNCT:
            if line.startswith(p, i):
                toks.append(p)
                i += len(p)
                break
        else:
            j = i
            while j < len(line) and (line[j].isalnum() or line[j] in "_'"):
                j += 1
            if j == i:
                raise PresFileError(lineno, f"unexpected character {ch!r}")
            toks.append(line[i:j])
            i = j
    return toks


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

    def scalar_expr(self) -> Scalar:
        neg = False
        if self.peek() in ("+", "-"):
            neg = self.take() == "-"
        s = self.scalar_term()
        if neg:
            s = -s
        while self.peek() in ("+", "-"):
            sub = self.take() == "-"
            t = self.scalar_term()
            s = s - t if sub else s + t
        return s

    def basis(self) -> int:
        t = self.take()
        if t not in self.index:
            raise PresFileError(self.lineno, f"unknown basis vector {t!r}")
        return self.index[t]

    def _one_term(self, tensor: bool):
        """coeff, basis index, and second index when tensor terms are expected."""
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
            if self.peek() == "*":
                self.take()
                continue
            break
        second = None
        if tensor:
            self.expect("(x)")
            second = self.basis()
        elif base is None:
            raise PresFileError(self.lineno, "term has no basis vector")
        if tensor and base is None:
            raise PresFileError(self.lineno, "term has no basis vector")
        return coeff, base, second

    def linear_rhs(self, tensor: bool):
        """Sum of terms; yields (coeff, i) or (coeff, i, j) triples."""
        if self.toks[self.pos:] == ["0"]:
            self.take()
            return []
        out = []
        neg = False
        if self.peek() in ("+", "-"):
            neg = self.take() == "-"
        while True:
            coeff, base, second = self._one_term(tensor)
            if neg:
                coeff = -coeff
            out.append((coeff, base, second))
            t = self.peek()
            if t in ("+", "-"):
                self.take()
                neg = t == "-"
                continue
            break
        return out


def parse(text: str) -> Presentation:
    """Read a presentation from file text."""
    space = None
    index = {}
    ring = None
    binops = {}
    coops = {}
    maps = {}
    forms = {}
    relements = {}
    # (kind, name, entries by index, left sides whose line left a nonzero entry)
    block = None

    def close_block():
        nonlocal block
        if block is None:
            return
        kind, name, entries, _ = block
        n = len(space.names)
        if kind == "product":
            binops[name] = BinOpTensor.from_entries(ring, (n, n, n), entries)
        elif kind == "coproduct":
            coops[name] = CoOpTensor.from_entries(ring, (n, n, n), entries)
        elif kind == "map":
            maps[name] = LinMap.from_entries(ring, (n, n), entries)
        elif kind == "form":
            forms[name] = Tensor2.from_entries(ring, (n, n), entries)
        else:
            relements[name] = Tensor2.from_entries(ring, (n, n), entries)
        block = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split()[0]

        if head == "space":
            if space is not None:
                raise PresFileError(lineno, "duplicate space line")
            parts = line.split()
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
            space = Space(names)
            index = {nm: i for i, nm in enumerate(names)}
            continue

        if head == "ring":
            parts = line.split()
            if len(parts) != 2 or parts[1] not in ("Q", "Q[q]"):
                raise PresFileError(lineno, "ring must be Q or Q[q]")
            if ring is not None:
                raise PresFileError(lineno, "duplicate ring line")
            ring = RATIONAL if parts[1] == "Q" else POLY
            continue

        if head in ("product", "coproduct", "map", "form", "relement"):
            if space is None or ring is None:
                raise PresFileError(lineno, "space and ring must come before any block")
            parts = line.split()
            if len(parts) != 2:
                raise PresFileError(lineno, f"{head} line needs exactly one name")
            name = parts[1]
            if name == "q":
                raise PresFileError(lineno, "the name q is reserved for the parameter")
            for table in (binops, coops, maps, forms, relements):
                if name in table:
                    raise PresFileError(lineno, f"duplicate name {name!r}")
            close_block()
            block = (head, name, {}, set())
            continue

        if "->" not in line:
            raise PresFileError(lineno, f"unrecognized line {line!r}")
        if block is None:
            raise PresFileError(lineno, "entry line outside any block")

        kind, _, entries, filled = block
        toks = _tokenize(line, lineno)
        arrow = toks.index("->")
        lhs, rhs = toks[:arrow], toks[arrow + 1:]
        p = _TermParser(rhs, lineno, ring, index)

        # terms as (index, coefficient); left is the index on the left side
        if kind in ("product", "form", "relement"):
            if len(lhs) != 2 or lhs[0] not in index or lhs[1] not in index:
                raise PresFileError(lineno, "left side must be two basis vectors")
            left = (index[lhs[0]], index[lhs[1]])
            if kind == "product":
                terms = [(left + (k,), c) for c, k, _ in p.linear_rhs(tensor=False)]
            else:
                terms = [(left, p.scalar_expr())]
        else:
            if len(lhs) != 1 or lhs[0] not in index:
                raise PresFileError(lineno, "left side must be one basis vector")
            left = (index[lhs[0]],)
            if kind == "coproduct":
                terms = [(left + (j, k), c) for c, j, k in p.linear_rhs(tensor=True)]
            else:  # a map: the image of e_i is column i
                terms = [((k,) + left, c) for c, k, _ in p.linear_rhs(tensor=False)]
        p.done()
        if left in filled:
            raise PresFileError(lineno, f"duplicate entry for {' '.join(lhs)}")
        # no earlier line left a nonzero entry under left, so these sums are its entries
        for key, c in terms:
            entries[key] = entries[key] + c if key in entries else c
        if any(entries[key] for key, _ in terms):
            filled.add(left)

    close_block()
    if space is None or ring is None:
        raise PresFileError(0, "file must declare a space and a ring")
    return Presentation(ring=ring, space=space, binops=binops, coops=coops,
                        maps=maps, forms=forms, relements=relements)


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
    n = len(names)
    out = [f"space {n} {' '.join(names)}",
           "ring " + ("Q" if pres.ring == RATIONAL else "Q[q]")]

    def grouped(t, legs):
        # nonzero entries in row-major order, grouped by their first legs
        return itertools.groupby(t.nonzero(), key=lambda entry: entry[:legs])

    for name in sorted(pres.binops):
        out.append("")
        out.append(f"product {name}")
        for (i, j), terms in grouped(pres.binops[name], 2):
            out.append(f"{names[i]} {names[j]} -> {_terms((names[k], s) for *_, k, s in terms)}")

    for name in sorted(pres.coops):
        out.append("")
        out.append(f"coproduct {name}")
        for (i,), terms in grouped(pres.coops[name], 1):
            pairs = ((f"{names[j]} (x) {names[k]}", s) for _, j, k, s in terms)
            out.append(f"{names[i]} -> {_terms(pairs)}")

    for name in sorted(pres.maps):
        out.append("")
        out.append(f"map {name}")
        for (j,), terms in grouped(pres.maps[name].transpose(), 1):
            out.append(f"{names[j]} -> {_terms((names[k], s) for _, k, s in terms)}")

    for label, table in (("form", pres.forms), ("relement", pres.relements)):
        for name in sorted(table):
            out.append("")
            out.append(f"{label} {name}")
            for i, j, s in table[name].nonzero():
                out.append(f"{names[i]} {names[j]} -> {s}")

    return "\n".join(out) + "\n"


def load(path) -> Presentation:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def save(path, pres: Presentation) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit(pres))
