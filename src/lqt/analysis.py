"""Stage-by-stage analysis of the union ring of a transform sequence.

The queries here (membership, orders, limit approximants) only see an
element up to unit factors, which lets the per-stage state stay small.  An
ElementState writes the element as

    coords^e * num/den * (units dropped along the way)

where num and den are coprime, free of monomial factors, and not units at
the origin.  A unit at one stage stays a unit at every later stage, so
dropping it never changes a verdict.  One transform step substitutes
``x_j -> x_p * (x_j + c_j)`` into num and den; that substitution only ever
creates monomial common factors, so stripping monomials into the exponent
vector keeps the pair coprime without any gcd work.

Directive sources are duck-typed: a ValuationProgram or a SeriesTrace, or
anything with bases, directive_at and value_vector_at.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Protocol

from .charts import Directive
from .polynomials import Polynomial, _strip_monomial
from .functions import RationalFunction
from .programs import Infinite

DEFAULT_BUDGET = 24
STABLE_WINDOW = 5


class DirectiveSource(Protocol):
    bases: tuple[str, ...]

    def directive_at(self, n: int) -> Directive: ...

    def value_vector_at(self, n: int) -> tuple[Fraction, ...]: ...


class MembershipVerdict:
    """Outcome of a membership search: In(stage) or NotWithinBudget(budget)."""

    __slots__ = ("stage", "budget")

    def __init__(self, stage: int | None, budget: int):
        self.stage = stage
        self.budget = budget

    @property
    def decided(self) -> bool:
        return self.stage is not None

    def __bool__(self) -> bool:
        return self.decided

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MembershipVerdict):
            return NotImplemented
        return (self.stage, self.budget) == (other.stage, other.budget)

    def __repr__(self) -> str:
        if self.decided:
            return f"In(stage={self.stage})"
        return f"NotWithinBudget(budget={self.budget})"


class LimitTrace:
    """Approximants of a limit quantity along the stages.

    `stabilized` means the last `window` approximants agree; the final
    approximant is then the natural candidate value, but it is still only an
    approximant.
    """

    __slots__ = ("quantity", "start", "approximants", "window", "stabilized")

    def __init__(self, quantity: str, start: int,
                 approximants: list[Fraction], window: int = STABLE_WINDOW):
        self.quantity = quantity
        self.start = start
        self.approximants = approximants
        self.window = window
        self.stabilized = (len(approximants) >= window
                           and len(set(approximants[-window:])) == 1)

    @property
    def last(self) -> Fraction | None:
        return self.approximants[-1] if self.approximants else None

    def __repr__(self) -> str:
        tail = self.approximants[-3:]
        return (f"LimitTrace({self.quantity}, start={self.start}, "
                f"...{tail}, stabilized={self.stabilized})")


class ElementState:
    __slots__ = ("exponents", "num", "den")

    def __init__(self, exponents: tuple[int, ...], num: Polynomial,
                 den: Polynomial):
        self.exponents = exponents
        self.num = num
        self.den = den

    def order(self) -> int:
        return sum(self.exponents) + self.num.order() - self.den.order()

    def is_monomial(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def in_ring(self) -> bool:
        return self.den.is_one() and all(e >= 0 for e in self.exponents)

    def __repr__(self) -> str:
        return (f"ElementState(e={self.exponents}, num={self.num}, "
                f"den={self.den})")


def _normalized(exponents: tuple[int, ...], num: Polynomial,
                den: Polynomial) -> ElementState:
    e = list(exponents)
    mn, num = _strip_monomial(num)
    md, den = _strip_monomial(den)
    for j in range(len(e)):
        e[j] += mn[j] - md[j]
    one = Polynomial.one(num.variables)
    if num.is_unit_at_origin() and not num.is_one():
        num = one
    if den.is_unit_at_origin() and not den.is_one():
        den = one
    return ElementState(tuple(e), num, den)


class AnalysisSession:
    """Caches per-element descent states along one directive source."""

    def __init__(self, source: DirectiveSource):
        self.source = source
        self.bases = tuple(source.bases)
        # (directive, substitution map) of step n at index n - 1
        self._steps: list[tuple[Directive, dict[str, Polynomial]]] = []
        self._states: dict[RationalFunction, list[ElementState]] = {}

    # -- step bookkeeping --------------------------------------------------

    def _step(self, n: int) -> tuple[Directive, dict[str, Polynomial]]:
        """The directive and substitution map of step n, cached."""
        while len(self._steps) < n:
            directive = self.source.directive_at(len(self._steps) + 1)
            images = directive.images(self.bases)
            self._steps.append((directive, dict(zip(self.bases, images))))
        return self._steps[n - 1]

    def advance_state(self, state: ElementState, n: int) -> ElementState:
        """State at stage n from the state at stage n-1."""
        directive, images = self._step(n)
        p = directive.pivot
        translated = {j for j, _ in directive.translations}
        e = [0] * len(self.bases)
        e[p] = sum(state.exponents)
        for j, ej in enumerate(state.exponents):
            if j != p and j not in translated:
                e[j] = ej
        num = state.num if state.num.is_one() else state.num.substitute(images)
        den = state.den if state.den.is_one() else state.den.substitute(images)
        return _normalized(tuple(e), num, den)

    # -- element states ----------------------------------------------------

    def initial_state(self, f: RationalFunction) -> ElementState:
        if f.is_zero():
            raise ValueError("cannot analyze the zero element")
        if f.variables != self.bases:
            raise ValueError(f"element over {f.variables} does not live in "
                             f"the field over {self.bases}")
        zero = (0,) * len(self.bases)
        return _normalized(zero, f.numerator, f.denominator)

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
                 budget: int = DEFAULT_BUDGET) -> tuple[Fraction | Infinite, int] | None:
        """Exact value of f under the source's values, with the deciding
        stage, or None when f never reduces to monomial form in budget."""
        if f.is_zero():
            raise ValueError("the value of zero is undefined")
        for n in range(budget + 1):
            state = self.state_at(f, n)
            if state.is_monomial():
                values = self.source.value_vector_at(n)
                total: Fraction | Infinite = Fraction(0)
                for ej, vj in zip(state.exponents, values):
                    if ej:
                        total = total + ej * vj
                return total, n
        return None

    def w_approx(self, f: RationalFunction, reference: RationalFunction,
                 budget: int = DEFAULT_BUDGET) -> LimitTrace:
        """Approximants ord_n(f)/ord_n(reference) for n = 0..budget."""
        if f.is_zero() or reference.is_zero():
            raise ValueError("approximants of zero are undefined")
        approx: list[Fraction] = []
        for n in range(budget + 1):
            ref_ord = self.ord_at(reference, n)
            if ref_ord == 0:
                raise ValueError(f"reference element has order 0 at stage "
                                 f"{n}; ratios are undefined")
            approx.append(Fraction(self.ord_at(f, n), ref_ord))
        return LimitTrace("w", 0, approx)

    def e_approx(self, f: RationalFunction,
                 budget: int = DEFAULT_BUDGET) -> LimitTrace | MembershipVerdict:
        """Orders of the iterated transforms of f, from its membership stage.

        Each step carries the element into the next stage ring and divides
        out the pivot raised to the previous order.  Returns the membership
        verdict unchanged when f is not in the union within budget.
        """
        if f.is_zero():
            raise ValueError("approximants of zero are undefined")
        verdict = self.member(f, budget)
        if not verdict.decided:
            return verdict
        start = verdict.stage
        assert start is not None
        state = self.state_at(f, start)
        approx: list[Fraction] = []
        for n in range(start, budget + 1):
            o = state.order()
            approx.append(Fraction(o))
            if n == budget:
                break
            state = self.advance_state(state, n + 1)
            if o:
                e = list(state.exponents)
                e[self._step(n + 1)[0].pivot] -= o
                state = ElementState(tuple(e), state.num, state.den)
        return LimitTrace("e", start, approx)
