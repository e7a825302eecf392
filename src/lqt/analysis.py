"""Stage-by-stage analysis of the union ring of a transform sequence.

The queries here (membership, orders, limit approximants) only see an
element up to unit factors, which lets the per-stage state stay small.  An
ElementState writes the element as

    coords^e * num/den * (units dropped along the way)

where num and den are coprime, free of monomial factors, and each either
one or not a unit at the origin.  A unit at one stage stays a unit at every
later stage, so dropping it never changes a verdict.  One transform step
substitutes ``x_j -> x_p * (x_j + c_j)`` into num and den; that
substitution only ever creates monomial common factors, so stripping
monomials into the exponent vector keeps the pair coprime without any gcd
work.

A step is one pass per side.  The exponent vector moves by arithmetic
alone (every exponent adds to the pivot's; an untranslated coordinate also
keeps its own, and a translated one leaves only a unit).  Each side that is
not one is substituted to a term map; the map's componentwise minimum
moves into the exponent vector, and the shifted map becomes the side,
built once as a Polynomial, or the session's one when it has a constant
term.  The initial state is normalized the same way.  A monomial state,
num and den both one, thus advances with no substitution: x/z on
ex3.7-3d crosses hundreds of stages without one.

The iterated transforms behind ``e_approx`` differ from the element only by
a monomial in the stage coordinates, so they reuse the cached states and
track just that monomial's exponents: after ``w_approx`` or ``value_of`` on
the same element, ``e_approx`` substitutes nothing.

Directive sources are duck-typed: a ValuationProgram, a SeriesDVR or a
LiftedTrace, or anything with bases, directive_at and scaled_vector_at,
the one stage view every walk hands out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Protocol

from .polynomials import Polynomial, shift_terms, substitute_terms
from .functions import RationalFunction, _check_field
from .programs import Directive, Infinite, ScaledVector, read_values

DEFAULT_BUDGET = 24
STABLE_WINDOW = 5


class DirectiveSource(Protocol):
    """A transform sequence with values.

    directive_at(n) is the step taking stage n-1 to stage n: a Directive,
    hashable, equal only to a step that does the same, and shown by its
    `describe(bases)`.  A program's is a ProgramStep, whose assigned
    factors are part of the step.  scaled_vector_at(n) is stage n as
    programs.ScaledVector: integer numerators over one positive shared
    denominator, Infinite only for the prime coordinates of a lifted walk.
    programs.read_values reads it out as values; a program's
    value_vector_at does so too.
    """

    bases: tuple[str, ...]

    def directive_at(self, n: int) -> Directive: ...

    def scaled_vector_at(self, n: int) -> ScaledVector: ...


@dataclass(frozen=True, slots=True)
class MembershipVerdict:
    """Outcome of a membership search: In(stage) or NotWithinBudget(budget)."""

    stage: int | None
    budget: int

    @property
    def decided(self) -> bool:
        return self.stage is not None

    def __bool__(self) -> bool:
        return self.decided

    def __repr__(self) -> str:
        if self.decided:
            return f"In(stage={self.stage})"
        return f"NotWithinBudget(budget={self.budget})"


@dataclass(frozen=True, slots=True)
class LimitTrace:
    """Approximants of a limit quantity along the stages.

    `stabilized` means the last `window` approximants agree; the final
    approximant is then the natural candidate value, but it is still only an
    approximant.
    """

    quantity: str
    start: int
    approximants: list[int | Fraction]
    window: ClassVar[int] = STABLE_WINDOW

    @property
    def stabilized(self) -> bool:
        return (len(self.approximants) >= self.window
                and len(set(self.approximants[-self.window:])) == 1)

    @property
    def last(self) -> int | Fraction | None:
        return self.approximants[-1] if self.approximants else None


@dataclass(slots=True, eq=False)
class ElementState:
    exponents: tuple[int, ...]
    num: Polynomial
    den: Polynomial

    def order(self) -> int:
        return sum(self.exponents) + self.num.order() - self.den.order()

    def is_monomial(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def in_ring(self) -> bool:
        return self.den.is_one() and all(e >= 0 for e in self.exponents)


def _normalized(exponents: list[int], sides: tuple,
                one: Polynomial) -> ElementState:
    """The state coords^exponents * num/den from the term maps of its sides,
    a side that is `one` kept as it is.  Each map's monomial factor moves
    into exponents, in place, and the rest becomes `one` when it has a
    constant term, else a Polynomial built once."""
    zero = (0,) * len(exponents)
    out = []
    for sign, terms in zip((1, -1), sides):
        if terms is not one:
            m = tuple(map(min, zip(*terms)))
            if any(m):
                for j, k in enumerate(m):
                    exponents[j] += sign * k
                terms = shift_terms(terms, m)
            terms = one if zero in terms else Polynomial._make(one.variables,
                                                               terms)
        out.append(terms)
    return ElementState(tuple(exponents), *out)


def _moved(exponents, p: int, kept: tuple[int, ...]) -> list[int]:
    """The exponents after a step with pivot p and untranslated kept, before
    its sides are normalized."""
    e = [0] * len(exponents)
    e[p] = sum(exponents)
    for j in kept:
        e[j] = exponents[j]
    return e


class AnalysisSession:
    """Caches per-element descent states along one directive source."""

    def __init__(self, source: DirectiveSource):
        self.source = source
        self.bases = tuple(source.bases)
        # (pivot, untouched indices, images by position) of step n at
        # index n - 1
        self._steps: list[tuple[int, tuple[int, ...],
                                tuple[Polynomial, ...]]] = []
        self._states: dict[RationalFunction, list[ElementState]] = {}
        # the one every unit side becomes, compared by identity
        self._one = Polynomial.one(self.bases)

    # -- step bookkeeping --------------------------------------------------

    def _step(self, n: int) -> tuple[int, tuple[int, ...],
                                     tuple[Polynomial, ...]]:
        """The pivot, the indices neither pivot nor translated, and the
        coordinate images of step n, cached."""
        while len(self._steps) < n:
            directive = self.source.directive_at(len(self._steps) + 1)
            p = directive.pivot
            translated = {j for j, _ in directive.translations}
            kept = tuple(j for j in range(len(self.bases))
                         if j != p and j not in translated)
            self._steps.append((p, kept, directive.images(self.bases)))
        return self._steps[n - 1]

    def advance_state(self, state: ElementState, n: int) -> ElementState:
        """State at stage n from the state at stage n-1, in one pass per
        side (see the module docstring).

        A side counts as one when it is the session's one, which every unit
        becomes; a one built elsewhere is substituted and normalized like
        any other side, to the same state."""
        p, kept, images = self._step(n)
        e = _moved(state.exponents, p, kept)
        one = self._one
        sides = (state.num, state.den)
        if state.num is one and state.den is one:
            return ElementState(tuple(e), one, one)
        # one call, so numerator and denominator share the power cache
        done = iter(substitute_terms([q.terms.items() for q in sides
                                      if q is not one], images, self.bases))
        return _normalized(e, tuple(q if q is one else next(done)
                                    for q in sides), one)

    # -- element states ----------------------------------------------------

    def initial_state(self, f: RationalFunction) -> ElementState:
        if f.is_zero():
            raise ValueError("cannot analyze the zero element")
        _check_field(f, self.bases)
        return _normalized([0] * len(self.bases),
                           (f.numerator.terms, f.denominator.terms),
                           self._one)

    def state_at(self, f: RationalFunction, n: int) -> ElementState:
        states = self._states.get(f)
        if states is None:
            states = [self.initial_state(f)]
            self._states[f] = states
        while len(states) <= n:
            states.append(self.advance_state(states[-1], len(states)))
        return states[n]

    def ord_at(self, f: RationalFunction, n: int) -> int:
        return self.state_at(f, n).order()

    # -- queries -----------------------------------------------------------

    def member(self, f: RationalFunction, budget: int = DEFAULT_BUDGET) -> MembershipVerdict:
        """First stage whose local ring contains f, if within budget.

        The stage rings grow along the sequence, so the first containing
        stage answers membership in the whole union.
        """
        if f.is_zero():
            return MembershipVerdict(0, budget)
        for n in range(budget + 1):
            if self.state_at(f, n).in_ring():
                return MembershipVerdict(n, budget)
        return MembershipVerdict(None, budget)

    def value_of(self, f: RationalFunction,
                 budget: int = DEFAULT_BUDGET
                 ) -> tuple[int | Fraction | Infinite, int] | None:
        """Exact value of f under the source's values, with the deciding
        stage, or None when f never reduces to monomial form in budget.
        A whole value is an int, like every coefficient."""
        if f.is_zero():
            raise ValueError("the value of zero is undefined")
        for n in range(budget + 1):
            state = self.state_at(f, n)
            if state.is_monomial():
                nums, den = self.source.scaled_vector_at(n)
                total: int | Infinite = 0
                for ej, vj in zip(state.exponents, nums):
                    if ej:
                        total = total + ej * vj
                # total / den, read out like one coordinate of a stage
                return read_values((total,), den)[0], n
        return None

    def w_approx(self, f: RationalFunction, reference: RationalFunction,
                 budget: int = DEFAULT_BUDGET) -> LimitTrace:
        """Approximants ord_n(f)/ord_n(reference) for n = 0..budget."""
        if f.is_zero() or reference.is_zero():
            raise ValueError("approximants of zero are undefined")
        approx: list[int | Fraction] = []
        for n in range(budget + 1):
            ref_ord = self.ord_at(reference, n)
            if ref_ord == 0:
                raise ValueError(f"reference element has order 0 at stage "
                                 f"{n}; ratios are undefined")
            # a whole ratio is an int, as in e_approx
            o = self.ord_at(f, n)
            q, r = divmod(o, ref_ord)
            approx.append(Fraction(o, ref_ord) if r else q)
        return LimitTrace("w", 0, approx)

    def e_approx(self, f: RationalFunction,
                 budget: int = DEFAULT_BUDGET) -> LimitTrace | MembershipVerdict:
        """Orders of the iterated transforms of f, from its membership stage.

        Each step carries the element into the next stage ring and divides
        out the pivot raised to the previous order, so the transform at
        stage n is state_at(f, n) with exponents moved by d, which a step
        maps as it maps exponents.  Returns the membership verdict
        unchanged when f is not in the union within budget.
        """
        if f.is_zero():
            raise ValueError("approximants of zero are undefined")
        verdict = self.member(f, budget)
        if not verdict.decided:
            return verdict
        start = verdict.stage
        assert start is not None
        d = [0] * len(self.bases)
        approx: list[int | Fraction] = []
        for n in range(start, budget + 1):
            o = self.ord_at(f, n) + sum(d)
            approx.append(o)
            if n == budget:
                break
            p, kept, _ = self._step(n + 1)
            d = _moved(d, p, kept)
            d[p] -= o
        return LimitTrace("e", start, approx)

