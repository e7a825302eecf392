"""Coordinate charts along a sequence of local quadratic transforms.

A Chart records, at each stage, polynomial expressions for the ambient
variables in terms of the current chart coordinates.  One transform step is
described by a Directive: a pivot coordinate and translation constants for
the other coordinates.  With pivot p and translation c_j, the step introduces
new coordinates via

    old_p = new_p,    old_j = new_p * (new_j + c_j)

so elements of the ambient function field can be rewritten in any chart by
substitution.  Stage-n coordinates are named ``<base>_<n>``; the stage-0
chart uses the plain ambient names.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .functions import RationalFunction, monomial_unit_parts, ord_at_origin
from .polynomials import Exponents, Polynomial


class Directive:
    """One transform step: which coordinate divides, which get translated."""

    __slots__ = ("pivot", "translations")

    def __init__(self, pivot: int,
                 translations: Iterable[tuple[int, Fraction]] = ()):
        if pivot < 0:
            raise ValueError(f"pivot index {pivot} out of range")
        trans = tuple(sorted((j, Fraction(c)) for j, c in translations))
        seen = set()
        for j, c in trans:
            if j == pivot:
                raise ValueError("cannot translate the pivot coordinate")
            if j < 0:
                raise ValueError(f"translation index {j} out of range")
            if j in seen:
                raise ValueError(f"coordinate {j} translated twice")
            if c == 0:
                raise ValueError("translation constant must be nonzero")
            seen.add(j)
        object.__setattr__(self, "pivot", pivot)
        object.__setattr__(self, "translations", trans)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Directive is immutable")

    def check_dimension(self, dimension: int) -> None:
        if self.pivot >= dimension:
            raise ValueError(f"pivot index {self.pivot} out of range for "
                             f"dimension {dimension}")
        for j, _ in self.translations:
            if j >= dimension:
                raise ValueError(f"translation index {j} out of range for "
                                 f"dimension {dimension}")

    def translation_of(self, j: int) -> Fraction:
        for k, c in self.translations:
            if k == j:
                return c
        return Fraction(0)

    def images(self, names: tuple[str, ...]) -> tuple[Polynomial, ...]:
        """Images of the step's coordinates, by position, over `names`:
        x_p for the pivot and x_p * (x_j + c_j) for every other j."""
        self.check_dimension(len(names))
        pivot = Polynomial.variable(names[self.pivot], names)
        return tuple(
            pivot if j == self.pivot else
            pivot * (Polynomial.variable(name, names)
                     + Polynomial.constant(self.translation_of(j), names))
            for j, name in enumerate(names))

    def describe(self, bases: tuple[str, ...]) -> str:
        parts = [f"pivot={bases[self.pivot]}"]
        for j, c in self.translations:
            parts.append(f"translate {bases[j]}:{c}")
        return " ".join(parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Directive):
            return NotImplemented
        return (self.pivot, self.translations) == (other.pivot,
                                                   other.translations)

    def __hash__(self) -> int:
        return hash((self.pivot, self.translations))

    def __repr__(self) -> str:
        return f"Directive(pivot={self.pivot}, translations={self.translations})"


class Chart:
    __slots__ = ("stage", "bases", "coords", "inverse_subst", "_cache")

    def __init__(self, stage: int, bases: tuple[str, ...],
                 coords: tuple[str, ...],
                 inverse_subst: dict[str, Polynomial]):
        self.stage = stage
        self.bases = bases
        self.coords = coords
        self.inverse_subst = inverse_subst
        self._cache: dict[RationalFunction, RationalFunction] = {}

    @classmethod
    def initial(cls, bases: Iterable[str]) -> Chart:
        bs = tuple(bases)
        if len(set(bs)) != len(bs):
            raise ValueError("duplicate variable names")
        subst = {b: Polynomial.variable(b, bs) for b in bs}
        return cls(0, bs, bs, subst)

    def __repr__(self) -> str:
        return f"Chart(stage={self.stage}, coords={self.coords})"


def apply_directive(chart: Chart, directive: Directive) -> Chart:
    next_stage = chart.stage + 1
    new_coords = tuple(f"{b}_{next_stage}" for b in chart.bases)
    step = dict(zip(chart.coords, directive.images(new_coords)))
    inverse = {b: p.substitute(step) for b, p in chart.inverse_subst.items()}
    return Chart(next_stage, chart.bases, new_coords, inverse)


def express_in_chart(f: RationalFunction, chart: Chart) -> RationalFunction:
    """Rewrite an ambient-field element in the chart's coordinates."""
    if f.variables != chart.bases:
        raise ValueError(f"element over {f.variables} does not live in a "
                         f"chart over {chart.bases}")
    if chart.stage == 0:
        return f
    cached = chart._cache.get(f)
    if cached is None:
        cached = RationalFunction(
            f.numerator.substitute(chart.inverse_subst),
            f.denominator.substitute(chart.inverse_subst))
        chart._cache[f] = cached
    return cached


def ord_n(f: RationalFunction, chart: Chart) -> int:
    """Order of vanishing at the origin of the chart."""
    if f.is_zero():
        raise ValueError("order of zero is undefined")
    return ord_at_origin(express_in_chart(f, chart))


def in_ring(f: RationalFunction, chart: Chart) -> bool:
    """Whether f lies in the local ring at the chart origin."""
    g = express_in_chart(f, chart)
    return g.denominator.is_unit_at_origin()


def monomial_unit_split(
        f: RationalFunction,
        chart: Chart) -> tuple[Exponents, RationalFunction] | None:
    """Split f as coords^e * u with u a unit at the chart origin.

    Returns (e, u), where e may have negative entries, or None when f has no
    such factorization in this chart.
    """
    g = express_in_chart(f, chart)
    parts = monomial_unit_parts(g)
    if parts is None:
        return None
    e, u, v = parts
    return e, RationalFunction(u, v)
