"""Parser for rational function expressions.

Grammar (whitespace insignificant):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | base ('^' exponent)?
    base   := integer | identifier | '(' expr ')'

Exponents are integers, possibly negative.  Identifiers must name variables
of the target ring.  Printing a value and reparsing it in the same ring gives
the same value back.  A factor may sit inside at most MAX_NESTING
parentheses and unary minus signs, which keeps the recursive descent well
inside Python's recursion limit.

Expression size is capped so that every parse ends in bounded time.  No
value may have a numerator or denominator of more than MAX_TERMS terms, or
a coefficient of more than MAX_BITS bits (the bits of its numerator and
denominator together; 1 and -1 count as zero bits).  A power of a base
whose numerator or denominator has several terms may have an exponent of
at most MAX_POWER in absolute value, and is refused before it is computed
when the multinomial count of its terms could pass MAX_TERMS.  Any power is
refused before it is computed when its coefficients could pass MAX_BITS,
so powers of monomials with coefficients 1 and -1 are not limited.
`parse_rational` reads one rational literal, such as a config value, under
the same MAX_BITS cap.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator

from .functions import RationalFunction
from .polynomials import Polynomial


class ParseError(ValueError):
    """An expression the parser cannot read, with the position it failed at."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


MAX_NESTING = 100
MAX_POWER = 64
MAX_TERMS = 1000
MAX_BITS = 4096

_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|[-+*/^()]|\S")


def _tokenize(text: str) -> Iterator[tuple[str, int]]:
    """Yield (token, position) pairs, then ("", len(text)).

    Tokens are produced as the parser asks for them, so a fault it meets
    first (too deep a nesting, say) ends the parse before the rest of the
    text is scanned."""
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if not (tok.isdigit() or tok[0].isalpha() or tok[0] == "_"
                or tok in "+-*/^()"):
            raise ParseError(f"unexpected character {tok!r}", m.start())
        # leading zeros aside, more than MAX_BITS // 3 digits make more
        # than MAX_BITS bits; such a literal is refused before int()
        # converts it (past 4300 digits int() raises a plain ValueError)
        if tok.isdigit() and len(tok) > MAX_BITS // 3:
            raise ParseError(f"integer literal of more than {MAX_BITS // 3} "
                             f"digits", m.start())
        yield tok, m.start()
    yield "", len(text)


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.tokens = _tokenize(text)
        # the one lookahead token and its position
        self.tok, self.at = next(self.tokens)
        self.depth = 0
        self.variables = variables
        self.one = RationalFunction.from_polynomial(Polynomial.one(variables))

    def peek(self) -> str:
        return self.tok

    def pos(self) -> int:
        return self.at

    def advance(self) -> str:
        tok = self.tok
        self.tok, self.at = next(self.tokens)
        return tok

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            found = self.peek() or "end of input"
            raise ParseError(f"expected {tok!r}, found {found!r}", self.pos())
        self.advance()

    def parse(self) -> RationalFunction:
        value = self.expr()
        if self.peek() != "":
            raise ParseError(f"unexpected trailing input {self.peek()!r}",
                             self.pos())
        return value

    def expr(self) -> RationalFunction:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.advance()
            pos = self.pos()
            rhs = self.term()
            value = _sized(value + rhs if op == "+" else value - rhs, pos,
                           rhs)
        return value

    def term(self) -> RationalFunction:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.advance()
            pos = self.pos()
            rhs = self.factor()
            if op == "*":
                signed = _signed_monomial_product(value, rhs)
                value = value * rhs
                if signed:
                    continue
            else:
                if rhs.is_zero():
                    raise ParseError("division by zero", pos)
                value = value / rhs
            value = _sized(value, pos)
        return value

    def factor(self) -> RationalFunction:
        # depth counts the '(' and unary '-' around this factor; every
        # recursion of the parser passes through here
        if self.depth > MAX_NESTING:
            raise ParseError("expression nested too deeply", self.pos())
        self.depth += 1
        if self.peek() == "-":
            self.advance()
            value = -self.factor()
        else:
            value = self.base()
            if self.peek() == "^":
                self.advance()
                pos = self.pos()
                n = self.exponent()
                if n < 0 and value.is_zero():
                    raise ParseError("zero raised to a negative power", pos)
                value = _power(value, n, pos)
        self.depth -= 1
        return value

    def exponent(self) -> int:
        sign = 1
        if self.peek() == "-":
            self.advance()
            sign = -1
        tok = self.peek()
        if not tok.isdigit():
            found = tok or "end of input"
            raise ParseError(f"expected integer exponent, found {found!r}",
                             self.pos())
        self.advance()
        return sign * int(tok)

    def base(self) -> RationalFunction:
        tok = self.peek()
        if tok == "(":
            self.advance()
            value = self.expr()
            self.expect(")")
            return value
        if tok.isdigit():
            pos = self.pos()
            self.advance()
            k = int(tok)
            _check_bits(_fraction_bits(k), pos)
            return self.one.scale(k)
        if tok and (tok[0].isalpha() or tok[0] == "_"):
            if tok not in self.variables:
                raise ParseError(
                    f"unknown variable {tok!r} (expected one of "
                    f"{', '.join(self.variables)})", self.pos())
            self.advance()
            return RationalFunction.variable(tok, self.variables)
        found = tok or "end of input"
        raise ParseError(f"expected a value, found {found!r}", self.pos())


def _terms(value: RationalFunction) -> int:
    return max(len(value.numerator.terms), len(value.denominator.terms))


def _fraction_bits(c: Fraction | int) -> int:
    """The bit lengths of c's numerator and denominator, each counting zero
    when it is 1."""
    n, d = abs(c.numerator), c.denominator
    return (n.bit_length() if n > 1 else 0) + (d.bit_length() if d > 1 else 0)


def _bits(value: RationalFunction) -> int:
    """The size of the largest coefficient."""
    return max(_fraction_bits(c)
               for p in (value.numerator, value.denominator)
               for c in p.terms.values())


def _sized(value: RationalFunction, pos: int,
           addend: RationalFunction | None = None) -> RationalFunction:
    """value, refused when it passes MAX_TERMS or MAX_BITS.

    For value = v + addend or v - addend, v within the caps, the exact
    scan is bounded by the operands: when v and addend are polynomials,
    every coefficient of value not at an exponent of addend is one of v's,
    so only those at addend's exponents are measured.  (Denominators are
    monic, so value and addend over one puts v over one too.)"""
    if _terms(value) > MAX_TERMS:
        raise ParseError(f"expression has more than {MAX_TERMS} terms", pos)
    if (addend is not None and value.denominator.is_one()
            and addend.denominator.is_one()):
        terms = value.numerator.terms
        bits = max((_fraction_bits(terms[e]) for e in addend.numerator.terms
                    if e in terms), default=0)
    else:
        bits = _bits(value)
    _check_bits(bits, pos)
    return value


def _check_bits(bits: int, pos: int) -> None:
    if bits > MAX_BITS:
        raise ParseError(f"expression has a coefficient of more than "
                         f"{MAX_BITS} bits", pos)


def _signed_monomial_product(a: RationalFunction,
                             b: RationalFunction) -> bool:
    """a and b are polynomials and one of them is x^e or -x^e, so that a*b
    has the other's term count and coefficients up to sign: within the caps
    when a and b are."""
    if not (a.denominator.is_one() and b.denominator.is_one()):
        return False
    return any(len(p.terms) == 1 and abs(next(iter(p.terms.values()))) == 1
               for p in (a.numerator, b.numerator))


def _power(value: RationalFunction, n: int, pos: int) -> RationalFunction:
    """value ** n, refused before it is computed when it could be too large.

    A sum of t terms raised to k has at most comb(k + t - 1, t - 1) terms,
    so that bound keeps the result within MAX_TERMS.  An integer of b bits
    raised to k has at most b*k bits, so that bound keeps the coefficients
    of a monomial's power within MAX_BITS, and such a power is not measured
    again.
    """
    t, k = _terms(value), abs(n)
    if t > 1:
        if k > MAX_POWER:
            raise ParseError(f"exponent {n} is too large for a base of "
                             f"several terms (at most {MAX_POWER})", pos)
        if comb(k + t - 1, t - 1) > MAX_TERMS:
            raise ParseError(f"power could have more than {MAX_TERMS} terms",
                             pos)
    if _bits(value) * k > MAX_BITS:
        raise ParseError(f"power could have a coefficient of more than "
                         f"{MAX_BITS} bits", pos)
    return value ** n if t == 1 else _sized(value ** n, pos)


def parse_expr(text: str, variables: Iterable[str]) -> RationalFunction:
    """Parse an expression into a RationalFunction over the given variables."""
    vs = tuple(variables)
    if not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text, vs).parse()


def parse_rational(text: str) -> Fraction:
    """A rational literal in any form Fraction() reads ("-3/4", "0.25",
    "1e-3"), within the size cap on an expression's coefficients.

    A literal that makes more than MAX_BITS // 3 digits, its exponent
    included, is refused before Fraction() builds it (1e99999 would build
    10^99999); a value of more than MAX_BITS bits is refused after.
    Raises ValueError with a one-line message."""
    mantissa, _, exponent = text.lower().partition("e")
    digits = sum(ch.isdigit() for ch in mantissa)
    exponent_digits = sum(ch.isdigit() for ch in exponent)
    if exponent_digits:
        # leading zeros aside, an exponent of k digits is at least
        # 10^(k-1); past 10^6 the literal is refused all the same
        digits += 10 ** min(exponent_digits - 1, 6)
    if digits > MAX_BITS // 3:
        raise ValueError(f"rational literal of more than {MAX_BITS // 3} "
                         f"digits")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad rational {text!r}") from None
    if _fraction_bits(value) > MAX_BITS:
        raise ValueError(f"rational of more than {MAX_BITS} bits")
    return value
