"""The entry-line parser with one grammar for scalars and one for terms, kept as an oracle.

This is ``presfile._TermParser`` as it was before one term rule read every
right side: a form or r-element line went through ``scalar_expr`` and every
other line through ``linear_rhs``.  ``rhs`` keeps that call pattern; the
parser of the package must give the same terms, or raise the same
``PresFileError``.
"""

from fractions import Fraction

from novq.exactcore import POLY, Scalar, qvar
from novq.presfile import MAX_NESTING, MAX_POWER, PresFileError, _number


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


def rhs(toks, lineno, ring, index, order, left) -> list:
    """(coeff, right-leg indices) of an entry line's right side, read to its end."""
    p = _TermParser(toks, lineno, ring, index)
    terms = [(p.scalar_expr(), ())] if order == left else p.linear_rhs(order - left)
    p.done()
    return terms
