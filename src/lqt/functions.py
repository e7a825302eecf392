"""Rational functions in canonical form.

A RationalFunction is a reduced fraction of Polynomials: numerator and
denominator are coprime and the denominator is monic under graded lex.  That
makes equality structural, so values can be compared and hashed directly.

Gcds of the parts (Henrici's method, as in `Fraction`'s sum and product):
a sum or product of reduced a/b and c/d never takes the gcd of a full
product.  A product cancels the cross pairs (a, d) and (c, b), one
`cofactors` call each whose denominator is not one.  A sum with b = d
reduces (a + c)/b once; otherwise one call splits g = gcd(b, d) off both
denominators, and only when g is not constant does a second call cancel it
against the new numerator.  `cofactors` gives the gcd and both quotients by
it, with no polynomial division, and quotients of monic denominators by a
monic gcd are monic, so these results need no scaling.  The constructor
and `substitute` build one unreduced fraction and reduce it once
(`_reduce`).  Operations that cannot create a common factor take no gcd
and keep the reduced parts as they are: negation, powers, inverses,
scaling, and the sum or product of two polynomials (both denominators
one), whose result over one is reduced with a monic denominator already.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .polynomials import Polynomial, cofactors, substitute_terms


class RationalFunction:
    """A reduced fraction of two Polynomials over the same variables."""

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

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: RationalFunction) -> RationalFunction:
        a, b = self.numerator, self.denominator
        c, d = other.numerator, other.denominator
        if b == d:
            if b.is_one():
                # a sum of polynomials is reduced already
                return RationalFunction._make(a + c, b)
            return RationalFunction(a + c, b)
        # Henrici: with g = gcd(b, d), t = a*d/g + c*b/g is coprime to
        # b/g and d/g, so only g can share a factor with t
        g, b, d = cofactors(b, d)
        t = a * d + c * b
        if g.is_one():
            return RationalFunction._make(t, b * d)
        _, t, g = cofactors(t, g)
        return RationalFunction._make(t, b * d * g)

    def __sub__(self, other: RationalFunction) -> RationalFunction:
        return self + (-other)

    def __neg__(self) -> RationalFunction:
        return RationalFunction._make(-self.numerator, self.denominator)

    def __mul__(self, other: RationalFunction) -> RationalFunction:
        a, b = self.numerator, self.denominator
        c, d = other.numerator, other.denominator
        # Henrici: a/b and c/d are reduced, so only the cross pairs (a, d)
        # and (c, b) can share a factor
        if not d.is_one():
            _, a, d = cofactors(a, d)
        if not b.is_one():
            _, c, b = cofactors(c, b)
        return RationalFunction._make(a * c, b * d)

    def __truediv__(self, other: RationalFunction) -> RationalFunction:
        # the field check comes first, so a zero divisor from another
        # field is refused as foreign rather than as zero
        self.numerator._check(other.numerator)
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
        return RationalFunction(Polynomial._make(target, num),
                                Polynomial._make(target, den))

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


def _check_field(f: RationalFunction, bases: tuple[str, ...]) -> None:
    """Refuse an element of any field but the one over bases."""
    if f.variables != bases:
        raise ValueError(f"element over {f.variables} does not live in the "
                         f"field over {bases}")


def _safe_as_divisor(p: Polynomial) -> bool:
    """True when `num/<str(p)>` reparses correctly without parentheses.

    That needs p, a monic denominator other than one, to print as a single
    factor: one term, a power of one variable.
    """
    if len(p.terms) != 1:
        return False
    (e,) = p.terms
    return sum(1 for k in e if k) == 1


def _reduce(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Canonical form of any fraction, for the constructor and `substitute`:
    one `cofactors` call cancels the gcd, then den is made monic."""
    if num.is_zero():
        return num, Polynomial.one(num.variables)
    _, num, den = cofactors(num, den)
    return _monic_denominator(num, den)


def _monic_denominator(num: Polynomial,
                       den: Polynomial) -> tuple[Polynomial, Polynomial]:
    _, lead = den.leading()
    if lead != 1:
        inv = Fraction(1, lead)
        num, den = num.scale(inv), den.scale(inv)
    return num, den
