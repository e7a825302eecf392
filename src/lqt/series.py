"""Discrete rank-one valuations given by a power series substitution.

A SeriesDVR describes the valuation on k(x, y) obtained by sending y to a
power series tau(x) with zero constant term and reading off the x-adic order
of the result.  The series is a CoefficientStream, an infinite-support
coefficient sequence with computable gaps, which keeps every question about
truncations exact: series_value reads an exact value off a truncation of
degree at most MAX_PRECISION, or leaves it undecided.  A periodic series is
rational: an element on its curve has no order, and is left undecided too.

Such a valuation also fixes an infinite transform sequence: x always
pivots, and y is translated by the next series coefficient whenever that
coefficient is nonzero.  A SeriesDVR is that walk too, in the same shape a
ValuationProgram is, so the transform machinery follows it directly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .functions import RationalFunction, _check_field
from .parsing import parse_rational
from .polynomials import Coefficient, Polynomial, coefficient
from .programs import Directive

# Certification is monotone in the degree: an order certified at one
# truncation is certified, with the same value, at every larger one.  So the
# starting degree moves only the time an answer takes, never the answer.
START_PRECISION = 16
MAX_PRECISION = 1024


class StreamError(ValueError):
    """A series description that names no valid coefficient stream."""


class CoefficientStream:
    """Coefficients a_1, a_2, ... of a series sum(a_i x^i) with a_0 = 0."""

    def coefficient(self, i: int) -> Coefficient:
        """a_i: an int when it is whole, else a Fraction.  This default is
        for a gap stream, whose nonzero coefficients are all 1."""
        return 1 if i >= 1 and self.next_nonzero(i - 1) == i else 0

    def next_nonzero(self, after: int) -> int:
        """Smallest index > after with a nonzero coefficient."""
        raise NotImplementedError

    def truncate(self, cap: int) -> dict[int, Coefficient]:
        """Sparse coefficients of the truncation to degree <= cap, keyed by
        rising exponent; the early exit of _evaluate_truncated needs that."""
        out: dict[int, Coefficient] = {}
        i = self.next_nonzero(0)
        while i <= cap:
            out[i] = self.coefficient(i)
            i = self.next_nonzero(i)
        return out

    def describe(self) -> str:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoefficientStream):
            return NotImplemented
        return self.describe() == other.describe()

    def __hash__(self) -> int:
        return hash(self.describe())

    def __repr__(self) -> str:
        return f"CoefficientStream({self.describe()})"


class GeometricGaps(CoefficientStream):
    """Coefficient 1 at the powers of b: x + x^b + x^(b^2) + ..."""

    def __init__(self, base: int):
        if base < 2:
            raise StreamError(f"geometric gap base must be >= 2, got {base}")
        self.base = base

    def next_nonzero(self, after: int) -> int:
        e = 1
        while e <= after:
            e *= self.base
        return e

    def describe(self) -> str:
        return f"geometric({self.base})"


class FactorialGaps(CoefficientStream):
    """Coefficient 1 at the factorials: x + x^2 + x^6 + x^24 + ..."""

    def next_nonzero(self, after: int) -> int:
        e, k = 1, 1
        while e <= after:
            k += 1
            e *= k
        return e

    def describe(self) -> str:
        return "factorial"


class PeriodicCoefficients(CoefficientStream):
    """Coefficients cycling through a fixed tuple, starting at x^1."""

    def __init__(self, cycle: Iterable[Fraction]):
        cs = tuple(coefficient(c) for c in cycle)
        if not cs or all(c == 0 for c in cs):
            raise StreamError("periodic cycle needs a nonzero entry")
        self.cycle = cs

    def coefficient(self, i: int) -> Coefficient:
        if i < 1:
            return 0
        return self.cycle[(i - 1) % len(self.cycle)]

    def next_nonzero(self, after: int) -> int:
        i = max(after, 0) + 1
        while self.coefficient(i) == 0:
            i += 1
        return i

    def describe(self) -> str:
        return f"periodic({','.join(str(c) for c in self.cycle)})"


def parse_stream(text: str) -> CoefficientStream:
    """Parse a stream description: geometric(b), factorial, periodic(c,...)."""
    text = text.strip()
    if text == "factorial":
        return FactorialGaps()
    m_geo = _call_args(text, "geometric")
    if m_geo is not None:
        if len(m_geo) != 1:
            raise StreamError("geometric takes exactly one argument")
        try:
            base = int(m_geo[0])
        except ValueError:
            raise StreamError(f"bad geometric base {m_geo[0]!r}") from None
        return GeometricGaps(base)
    m_per = _call_args(text, "periodic")
    if m_per is not None:
        try:
            cycle = [parse_rational(a) for a in m_per]
        except ValueError as exc:
            raise StreamError(f"bad periodic cycle in {text!r}: "
                              f"{exc}") from None
        return PeriodicCoefficients(cycle)
    raise StreamError(f"unknown series form {text!r}")


def _call_args(text: str, name: str) -> list[str] | None:
    if not (text.startswith(name + "(") and text.endswith(")")):
        return None
    inner = text[len(name) + 1:-1].strip()
    if not inner:
        raise StreamError(f"{name} needs arguments")
    return [a.strip() for a in inner.split(",")]


class SeriesDVR:
    """The valuation on k(x, y) defined by y -> tau(x), and its walk.

    Every stage pivots on x; y is translated by coefficient a_n exactly when
    a_n is nonzero.  All stage multiplicities are 1, so the multiplicity sum
    diverges and the union of the stage rings is a valuation ring: this one,
    unless tau is rational and the walk follows the curve tau parametrizes.
    """

    __slots__ = ("bases", "stream", "_steps")

    def __init__(self, bases: Iterable[str], stream: CoefficientStream):
        bs = tuple(bases)
        if len(bs) != 2:
            raise StreamError(
                f"a series valuation needs exactly two variables, got {bs}")
        self.bases = bs
        self.stream = stream
        # one step per distinct coefficient, built when first asked for
        self._steps: dict[Coefficient, Directive] = {}

    def directive_at(self, n: int) -> Directive:
        if n < 1:
            raise ValueError(f"step index {n} out of range")
        a = self.stream.coefficient(n)
        step = self._steps.get(a)
        if step is None:
            step = self._steps[a] = Directive(0, [(1, a)] if a else ())
        return step

    def scaled_vector_at(self, n: int) -> tuple[tuple[int, int], int]:
        """Stage n over 1: (1, gap to the next nonzero coefficient)."""
        if n < 0:
            raise ValueError(f"stage {n} out of range")
        return (1, self.stream.next_nonzero(n) - n), 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeriesDVR):
            return NotImplemented
        return self.bases == other.bases and self.stream == other.stream

    def __repr__(self) -> str:
        return f"SeriesDVR({self.bases[1]} -> {self.stream.describe()})"


def series_value(dvr: SeriesDVR, f: RationalFunction) -> int | None:
    """The valuation of f, or None: undecided below the degree cap, or a
    part of f vanishes on a rational series' curve (see _certified_order).

    Substituting a degree-N truncation of the series perturbs the result
    only above degree N, so an order found at or below N is exact.  The
    numerator certifies first; the denominator is tried only once it has.
    """
    if f.is_zero():
        raise ValueError("the valuation of zero is undefined")
    _check_field(f, dvr.bases)
    num = _certified_order(f.numerator, dvr)
    den = None if num is None else _certified_order(f.denominator, dvr)
    return None if den is None else num - den


def _certified_order(p: Polynomial, dvr: SeriesDVR) -> int | None:
    """The order of p(x, tau(x)) at the first truncation, of degree
    START_PRECISION doubled up to MAX_PRECISION, that shows it; or None.

    A periodic series of cycle length k is P/Q, deg P, deg Q <= k, Q(0) = 1.
    If p has y-degree d, Q^d p(x, P/Q) is a polynomial of degree at most
    deg_x(p) + d k with p's order, so no order by that degree means p = 0
    on the curve Q y = P.
    """
    bound = MAX_PRECISION
    if isinstance(dvr.stream, PeriodicCoefficients):
        bound = (max(a for a, _ in p.terms)
                 + max(b for _, b in p.terms) * len(dvr.stream.cycle))
    cap = START_PRECISION
    while cap <= MAX_PRECISION:
        coeffs = _evaluate_truncated(p, dvr, cap)
        if coeffs:
            return min(coeffs)
        if cap >= bound:
            break
        cap *= 2
    return None


def _evaluate_truncated(p: Polynomial, dvr: SeriesDVR,
                        cap: int) -> dict[int, Coefficient]:
    """p(x, tau(x)) modulo x^(cap+1), by Horner's rule in y: its nonzero
    coefficients, whole ones as ints."""
    tau = dvr.stream.truncate(cap)
    rows: list[dict[int, Coefficient]] = [
        {} for _ in range(max(b for _, b in p.terms) + 1)]
    for (a, b), c in p.terms.items():
        if a <= cap:
            rows[b][a] = c
    out: dict[int, Coefficient] = {}
    for row in reversed(rows):
        for i, ci in out.items():
            for j, cj in tau.items():
                if i + j > cap:
                    break  # the keys of tau rise
                row[i + j] = row.get(i + j, 0) + ci * cj
        out = {k: coefficient(v) for k, v in row.items() if v}
    return out
