"""Rational functions in canonical form, and the order at the origin.

A RationalFunction is a reduced fraction of Polynomials: numerator and
denominator are coprime and the denominator is monic under graded lex.  That
makes equality structural, so values can be compared and hashed directly.

Reduce once: every operation that can create a common factor (sum, product,
quotient, substitution) builds one unreduced polynomial fraction and hands it
to the constructor, whose `_reduce` takes the single `poly_gcd` and scales
the denominator monic.  Operations that cannot create one (negation, powers,
inverses, scaling) keep the reduced parts as they are and take no gcd.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .polynomials import (Exponents, Polynomial, _exact, poly_gcd,
                          substitute_terms)


class RationalFunction:
    __slots__ = ("numerator", "denominator", "_hash")

    def __init__(self, numerator: Polynomial, denominator: Polynomial):
        numerator._check(denominator)
        if denominator.is_zero():
            raise ZeroDivisionError("zero denominator")
        num, den = _reduce(numerator, denominator)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def _make(cls, num: Polynomial, den: Polynomial) -> RationalFunction:
        """Internal: num/den must already be reduced with monic denominator."""
        f = object.__new__(cls)
        object.__setattr__(f, "numerator", num)
        object.__setattr__(f, "denominator", den)
        object.__setattr__(f, "_hash", None)
        return f

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> RationalFunction:
        return cls._make(p, Polynomial.one(p.variables))

    @classmethod
    def constant(cls, value: Fraction | int, variables: Iterable[str]) -> RationalFunction:
        vs = tuple(variables)
        return cls.from_polynomial(Polynomial.constant(value, vs))

    @classmethod
    def variable(cls, name: str, variables: Iterable[str]) -> RationalFunction:
        return cls.from_polynomial(Polynomial.variable(name, variables))

    # -- queries -----------------------------------------------------------

    @property
    def variables(self) -> tuple[str, ...]:
        return self.numerator.variables

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def is_unit_at_origin(self) -> bool:
        return (not self.is_zero()
                and self.numerator.is_unit_at_origin()
                and self.denominator.is_unit_at_origin())

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: RationalFunction) -> RationalFunction:
        a, b = self.numerator, self.denominator
        c, d = other.numerator, other.denominator
        return RationalFunction(a * d + c * b, b * d)

    def __sub__(self, other: RationalFunction) -> RationalFunction:
        return self + (-other)

    def __neg__(self) -> RationalFunction:
        return RationalFunction._make(-self.numerator, self.denominator)

    def __mul__(self, other: RationalFunction) -> RationalFunction:
        return RationalFunction(self.numerator * other.numerator,
                                self.denominator * other.denominator)

    def __truediv__(self, other: RationalFunction) -> RationalFunction:
        return self * other.inverse()

    def inverse(self) -> RationalFunction:
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RationalFunction._make(
            *_monic_denominator(self.denominator, self.numerator))

    def __pow__(self, n: int) -> RationalFunction:
        if n < 0:
            return self.inverse() ** (-n)
        return RationalFunction._make(self.numerator ** n,
                                      self.denominator ** n)

    def scale(self, c: Fraction | int) -> RationalFunction:
        c = Fraction(c)
        if c == 0:
            return RationalFunction._make(Polynomial.zero(self.variables),
                                          Polynomial.one(self.variables))
        return RationalFunction._make(self.numerator.scale(c), self.denominator)

    def substitute(self, images: Mapping[str, RationalFunction]) -> RationalFunction:
        """Substitute rational functions a_v/b_v for all variables (the
        field embedding of a birational step).

        Numerator and denominator are both multiplied by the product of
        b_v^top_v, top_v the highest power of v in either, so both stay
        polynomials; the quotient is then reduced once.  A denominator that
        maps to zero raises ZeroDivisionError.
        """
        imgs = [images[v] for v in self.variables]
        target = imgs[0].variables if imgs else self.variables
        num, den = self.numerator, self.denominator
        tops = [max(num.degree_in(i), den.degree_in(i))
                for i in range(len(imgs))]
        # exponents (e_i, top_i - e_i): powers of the a_i, then of the b_i
        num, den = substitute_terms(
            [[(e + tuple(t - k for t, k in zip(tops, e)), c)
              for e, c in p.terms.items()] for p in (num, den)],
            [g.numerator for g in imgs] + [g.denominator for g in imgs],
            target)
        return RationalFunction(num, den)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.numerator == other.numerator
                and self.denominator == other.denominator)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.numerator, self.denominator))
            object.__setattr__(self, "_hash", h)
        return h

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        if self.denominator.is_one():
            return str(self.numerator)
        num = str(self.numerator)
        if len(self.numerator.terms) > 1:
            num = f"({num})"
        den = str(self.denominator)
        if not _safe_as_divisor(self.denominator):
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self) -> str:
        return f"RationalFunction({str(self)!r})"


def _safe_as_divisor(p: Polynomial) -> bool:
    """True when `num/<str(p)>` reparses correctly without parentheses.

    That needs p to print as a single factor: a bare positive integer or a
    coefficient-one power of one variable.
    """
    if len(p.terms) != 1:
        return False
    (e, c), = p.terms.items()
    nonzero = [k for k in e if k]
    if not nonzero:
        return c == int(c) and c > 0
    return c == 1 and len(nonzero) == 1


def _reduce(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """The one canonicalisation: cancel the gcd, then make den monic."""
    if num.is_zero():
        return num, Polynomial.one(num.variables)
    g = poly_gcd(num, den)
    if not g.is_one():
        num, den = _exact(num, g), _exact(den, g)
    return _monic_denominator(num, den)


def _monic_denominator(num: Polynomial,
                       den: Polynomial) -> tuple[Polynomial, Polynomial]:
    _, lead = den.leading()
    if lead != 1:
        inv = Fraction(1) / lead
        num, den = num.scale(inv), den.scale(inv)
    return num, den


def ord_at_origin(f: RationalFunction) -> int:
    """Order of vanishing at the origin: minimal total degree of the
    numerator minus minimal total degree of the denominator."""
    if f.is_zero():
        raise ValueError("order of zero is undefined")
    return f.numerator.order() - f.denominator.order()


def monomial_unit_parts(
        f: RationalFunction) -> tuple[Exponents, Polynomial, Polynomial] | None:
    """Split f as monomial^e * (u/v) with u, v units at the origin.

    Returns (e, u, v) where e may have negative entries, or None when either
    the numerator or the denominator is not monomial-times-unit.
    """
    if f.is_zero():
        return None
    en = f.numerator.min_exponents()
    ed = f.denominator.min_exponents()
    u = Polynomial._make(
        f.variables,
        {tuple(i - j for i, j in zip(e, en)): c for e, c in f.numerator.terms.items()})
    v = Polynomial._make(
        f.variables,
        {tuple(i - j for i, j in zip(e, ed)): c for e, c in f.denominator.terms.items()})
    if not (u.is_unit_at_origin() and v.is_unit_at_origin()):
        return None
    return tuple(i - j for i, j in zip(en, ed)), u, v
