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

A value is a Laurent term map for as long as it can be: a dict from
exponent tuples, which may be negative, to nonzero coefficients (an int
when whole, else a Fraction).  Integers, variables, unary minus, sums,
differences, products, powers, and division by a monomial run as dict
arithmetic on the term-map kernel of `polynomials` and build no
Polynomial: sums go through `add_terms`, products through `mul_terms`,
and powers through `pow_terms`, division by a monomial being a
product with its power -1.  A RationalFunction is first built at a
division by a value of several terms, or at a negative power of one;
from there on that value runs on RationalFunction arithmetic.  A term map
left at the end becomes a fraction with no gcd: its negative exponents make
a monomial denominator with coefficient 1, and the numerator then has a
term free of each variable of that monomial, so the fraction is reduced
and monic already.

Expression size is capped so that every parse ends in bounded time.  No
value may have a numerator or denominator of more than MAX_TERMS terms, or
a coefficient of more than MAX_BITS bits (the bits of its numerator and
denominator together; 1 and -1 count as zero bits).  A term map stands for
a fraction with its terms and coefficients in the numerator over a
monomial, so it is measured as that fraction is.  A power of a base
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
from itertools import chain
from math import comb
from typing import Iterable, Iterator

from .functions import RationalFunction
from .polynomials import (Coefficient, Exponents, Polynomial, add_terms,
                          mul_terms, pow_terms)


class ParseError(ValueError):
    """An expression the parser cannot read, with the position it failed at."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


MAX_NESTING = 100
MAX_POWER = 64
MAX_TERMS = 1000
MAX_BITS = 4096

# a Laurent term map, or the fraction a value becomes once it is not one
Value = dict[Exponents, Coefficient] | RationalFunction

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
        self.origin = (0,) * len(variables)

    def advance(self) -> str:
        tok = self.tok
        self.tok, self.at = next(self.tokens)
        return tok

    def expect(self, tok: str) -> None:
        if self.tok != tok:
            found = self.tok or "end of input"
            raise ParseError(f"expected {tok!r}, found {found!r}", self.at)
        self.advance()

    def parse(self) -> RationalFunction:
        value = self.expr()
        if self.tok != "":
            raise ParseError(f"unexpected trailing input {self.tok!r}",
                             self.at)
        return self.fraction(value)

    def fraction(self, value: Value) -> RationalFunction:
        """value as a RationalFunction; a term map's negative exponents
        become its denominator, which needs no gcd (see the module
        docstring)."""
        if type(value) is not dict:
            return value
        vs = self.variables
        low = [min(0, *ks) for ks in zip(*value)]
        if not any(low):
            return RationalFunction.from_polynomial(Polynomial._make(vs, value))
        num = {tuple(k - m for k, m in zip(e, low)): c
               for e, c in value.items()}
        den = {tuple(-m for m in low): 1}
        return RationalFunction._make(Polynomial._make(vs, num),
                                      Polynomial._make(vs, den))

    def expr(self) -> Value:
        value = self.term()
        while self.tok in ("+", "-"):
            op = self.advance()
            pos = self.at
            rhs = self.term()
            if op == "-":
                rhs = _negate(rhs)
            if type(value) is dict and type(rhs) is dict:
                value = _sized(add_terms(value, rhs), pos, rhs)
            else:
                value = _sized(self.fraction(value) + self.fraction(rhs), pos)
        return value

    def term(self) -> Value:
        value = self.factor()
        while self.tok in ("*", "/"):
            op = self.advance()
            pos = self.at
            rhs = self.factor()
            if op == "/":
                if _is_zero(rhs):
                    raise ParseError("division by zero", pos)
                if type(rhs) is dict and len(rhs) == 1:
                    op, rhs = "*", pow_terms(rhs, -1, self.origin)
            if op == "/":
                value = self.fraction(value) / self.fraction(rhs)
            elif type(value) is dict and type(rhs) is dict:
                value = mul_terms(value, rhs)
            else:
                value = self.fraction(value) * self.fraction(rhs)
            value = _sized(value, pos)
        return value

    def factor(self) -> Value:
        # depth counts the '(' and unary '-' around this factor; every
        # recursion of the parser passes through here
        if self.depth > MAX_NESTING:
            raise ParseError("expression nested too deeply", self.at)
        self.depth += 1
        if self.tok == "-":
            self.advance()
            value = _negate(self.factor())
        else:
            value = self.base()
            if self.tok == "^":
                self.advance()
                pos = self.at
                n = self.exponent()
                if n < 0 and _is_zero(value):
                    raise ParseError("zero raised to a negative power", pos)
                value = self.power(value, n, pos)
        self.depth -= 1
        return value

    def power(self, value: Value, n: int, pos: int) -> Value:
        """value ** n, refused before it is computed when it could be too
        large.

        A sum of t terms raised to k has at most comb(k + t - 1, t - 1)
        terms, so that bound keeps the result within MAX_TERMS.  An integer
        of b bits raised to k has at most b*k bits, so that bound keeps the
        coefficients of a monomial's power within MAX_BITS, and such a power
        is not measured again.
        """
        t, k = _terms(value), abs(n)
        if t > 1:
            if k > MAX_POWER:
                raise ParseError(f"exponent {n} is too large for a base of "
                                 f"several terms (at most {MAX_POWER})", pos)
            if comb(k + t - 1, t - 1) > MAX_TERMS:
                raise ParseError(f"power could have more than {MAX_TERMS} "
                                 f"terms", pos)
        if _bits(value) * k > MAX_BITS:
            raise ParseError(f"power could have a coefficient of more than "
                             f"{MAX_BITS} bits", pos)
        if type(value) is not dict or (n < 0 and t > 1):
            value = self.fraction(value) ** n
        else:
            value = pow_terms(value, n, self.origin)
        return _sized(value, pos) if t > 1 else value

    def exponent(self) -> int:
        sign = 1
        if self.tok == "-":
            self.advance()
            sign = -1
        tok = self.tok
        # the tokenizer passes any digit, but int() reads only decimal ones
        # ('2' and '\u0663', not '\u00b2')
        if not tok.isdecimal():
            found = tok or "end of input"
            raise ParseError(f"expected integer exponent, found {found!r}",
                             self.at)
        self.advance()
        return sign * int(tok)

    def base(self) -> Value:
        tok = self.tok
        if tok == "(":
            self.advance()
            value = self.expr()
            self.expect(")")
            return value
        if tok.isdecimal():
            pos = self.at
            self.advance()
            k = int(tok)
            _check_bits(_fraction_bits(k), pos)
            return {self.origin: k} if k else {}
        if tok and (tok[0].isalpha() or tok[0] == "_"):
            if tok not in self.variables:
                raise ParseError(
                    f"unknown variable {tok!r} (expected one of "
                    f"{', '.join(self.variables)})", self.at)
            self.advance()
            e = [0] * len(self.variables)
            e[self.variables.index(tok)] = 1
            return {tuple(e): 1}
        found = tok or "end of input"
        raise ParseError(f"expected a value, found {found!r}", self.at)


def _is_zero(value: Value) -> bool:
    return not value if type(value) is dict else value.is_zero()


def _negate(value: Value) -> Value:
    if type(value) is dict:
        return {e: -c for e, c in value.items()}
    return -value


def _terms(value: Value) -> int:
    """The terms of the larger part; a term map counts its own."""
    if type(value) is dict:
        return len(value)
    return max(len(value.numerator.terms), len(value.denominator.terms))


def _fraction_bits(c: Fraction | int) -> int:
    """The bit lengths of c's numerator and denominator, each counting zero
    when it is 1."""
    n, d = abs(c.numerator), c.denominator
    return (n.bit_length() if n > 1 else 0) + (d.bit_length() if d > 1 else 0)


def _bits(value: Value) -> int:
    """The size of the largest coefficient."""
    if type(value) is dict:
        coefficients = value.values()
    else:
        coefficients = chain(value.numerator.terms.values(),
                             value.denominator.terms.values())
    return max(map(_fraction_bits, coefficients), default=0)


def _sized(value: Value, pos: int, addend: dict | None = None) -> Value:
    """value, refused when it passes MAX_TERMS or MAX_BITS.

    For a term map value = v + addend, v within the caps, every coefficient
    of value not at an exponent of addend is one of v's, so only those at
    addend's exponents are measured."""
    if _terms(value) > MAX_TERMS:
        raise ParseError(f"expression has more than {MAX_TERMS} terms", pos)
    if addend is None:
        bits = _bits(value)
    else:
        bits = max((_fraction_bits(value[e]) for e in addend if e in value),
                   default=0)
    _check_bits(bits, pos)
    return value


def _check_bits(bits: int, pos: int) -> None:
    if bits > MAX_BITS:
        raise ParseError(f"expression has a coefficient of more than "
                         f"{MAX_BITS} bits", pos)


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
