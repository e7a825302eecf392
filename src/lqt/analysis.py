"""Stage-by-stage analysis of the union ring of a transform sequence.

The queries here (membership, orders, limit approximants) only see an
element up to unit factors, which lets the per-stage state stay small.  An
ElementState writes the element as

    coords^e * num/den * (units dropped along the way)

where num and den are coprime, free of monomial factors, and each either
one or not a unit at the origin.  A unit at one stage stays a unit at every
later stage, so dropping it never changes a verdict.  A step
``x_j -> x_p * (x_j + c_j)`` only ever creates monomial common factors, so
stripping monomials into e keeps the pair coprime without any gcd work.  A
step that translates some coordinate substitutes each side that is not one,
with the step's coordinate images built once per distinct directive.

A maximal run of steps that translate nothing and share the pivot p maps
x_j -> x_p^t * x_j after t of its steps, and is read in closed form.  With
s_k = |k| - k_p, a side's term x^k lands on the pivot exponent
k_p + t*s_k - U(t), where U(t) = min_k (k_p + t*s_k) is the order the side
gives up (0 for one); no two terms merge, and the side is one once U(t)
reaches its least pure pivot power.  The pivot's exponent is
e_p + t*(|e| - e_p) + U_num(t) - U_den(t), and the order at t is the
pivot's exponent at t + 1.  So the queries solve a run with integer
arithmetic: the first monomial stage is where both sides have become one,
and once den is one and the other exponents are nonnegative the pivot's
exponent does not decrease, so the first stage in the ring is a bisection.

Every query reads an element's stages through one generator, `_runs`: the
state at stage 0 and at the end of each run (a translated step is a run of
its own), kept up to the first monomial one, num and den both one.  Past
it each step moves only the exponents, so nothing more is kept.  Where a
run ends is read from the directives only when a query asks for the next
run.  `member` stops at a monomial state that lies in no stage ring: its
value is negative (see DirectiveSource), or a coordinate with a negative
exponent is moved by no step up to the budget, like z in x/z on ex3.7-3d.

The iterated transforms behind ``e_approx`` differ from the element only by
a monomial in the stage coordinates, so they reuse the element's states and
track just that monomial's exponents.

Directive sources are duck-typed: a ValuationProgram, a SeriesDVR or a
LiftedTrace, or anything with bases, directive_at and scaled_vector_at,
the one stage view every walk hands out.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import ClassVar, Protocol

from .polynomials import Polynomial, shift_terms, substitute_terms
from .functions import RationalFunction, _check_field
from .programs import (Directive, Infinite, ScaledVector, ValuationProgram,
                       read_values)
from .series import SeriesDVR

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

    On a ValuationProgram or a SeriesDVR, and on no other source, the
    session takes the stage values for those of one valuation, which is
    then nonnegative on every stage ring, since every stage's values are
    positive: `member` stops on a monomial state of negative value.  The
    values of a stand-in walk need not fit any valuation.
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


def _lift(k, p: int, t: int) -> int:
    """k_p + t*s_k, s_k = |k| - k_p: where the pivot exponent k_p lands t
    steps into a run with pivot p, before its side gives up U(t)."""
    return k[p] + t * (sum(k) - k[p])


def _pivot_exponent(state: ElementState, p: int):
    """The pivot's exponent t stages into a run with pivot p from state, as
    a function of t: e_p + t*(|e| - e_p) + U_num(t) - U_den(t), where U(t)
    is the order a side gives up (see the module docstring)."""
    e = state.exponents
    base, slope = e[p], sum(e) - e[p]
    sides = [(sign, [(k[p], sum(k) - k[p]) for k in q.terms])
             for sign, q in ((1, state.num), (-1, state.den))
             if not q.is_one()]
    return lambda t: base + t * slope + sum(
        sign * min([u + t * s for u, s in pairs]) for sign, pairs in sides)


def _one_after(q: Polynomial, p: int) -> int | None:
    """The first t >= 1 at which side q is one t stages into a run with
    pivot p, or None if never: U(t) has reached the least pure power."""
    pure = [k[p] for k in q.terms if sum(k) == k[p]]
    if not pure:
        return None
    u0 = min(pure)
    # ceil((u0 - k_p) / s_k) for every term with s_k > 0
    return max([1] + [-((k[p] - u0) // s) for k in q.terms
                      if (s := sum(k) - k[p])])


def _monomial_in_run(state: ElementState, p: int, hi: int) -> int | None:
    """The first t in 1..hi at which the run with pivot p from state reaches
    a monomial state, or None."""
    t = [_one_after(q, p) for q in (state.num, state.den)]
    return None if None in t or max(t) > hi else max(t)


def _ring_in_run(state: ElementState, p: int, hi: int) -> int | None:
    """The first t in 1..hi at which the run with pivot p from state lies in
    its stage ring, or None.  Once den is one and the other exponents are
    nonnegative, the pivot's exponent does not decrease."""
    if any(x < 0 for j, x in enumerate(state.exponents) if j != p):
        return None
    lo = _one_after(state.den, p)
    if lo is None or lo > hi:
        return None
    ts = range(lo, hi + 1)
    pivot = _pivot_exponent(state, p)
    i = bisect_left(ts, True, key=lambda t: pivot(t) >= 0)
    return ts[i] if i < len(ts) else None


class AnalysisSession:
    """Caches per-element descent states along one directive source."""

    def __init__(self, source: DirectiveSource):
        self.source = source
        self.bases = tuple(source.bases)
        # (pivot, untouched indices, directive) of step n at index n - 1
        self._steps: list[tuple[int, tuple[int, ...], Directive]] = []
        # the kept stages: 0 and the end of each run known so far
        self._bounds = [0]
        # per coordinate, the last step read that pivots or translates it
        self._touched = [0] * len(self.bases)
        self._images: dict[Directive, tuple[Polynomial, ...]] = {}
        # an element's states at the kept stages, by position in _bounds
        self._states: dict[RationalFunction, list[ElementState]] = {}
        # the one every unit side becomes, compared by identity
        self._one = Polynomial.one(self.bases)

    # -- step bookkeeping --------------------------------------------------

    def _step(self, n: int) -> tuple[int, tuple[int, ...], Directive]:
        """The pivot, the indices neither pivot nor translated, and the
        directive of step n, cached.  Reading a step marks the end of the
        run before it, and a translated step as a run of its own."""
        steps, bounds, touched = self._steps, self._bounds, self._touched
        while len(steps) < n:
            m = len(steps) + 1
            directive = self.source.directive_at(m)
            directive.check_dimension(len(self.bases))
            p = directive.pivot
            translated = {j for j, _ in directive.translations}
            if bounds[-1] < m - 1 and (translated or steps[-1][0] != p):
                bounds.append(m - 1)
            if translated:
                bounds.append(m)
            for j in (p, *translated):
                touched[j] = m
            steps.append((p, tuple(j for j in range(len(self.bases))
                                   if j != p and j not in translated),
                          directive))
        return steps[n - 1]

    def _run_end(self, i: int, limit: int) -> int:
        """The last stage up to limit of the run from the i-th kept stage,
        reading no step past limit."""
        bounds = self._bounds
        while len(bounds) == i + 1 and len(self._steps) < limit:
            self._step(len(self._steps) + 1)
        return min(bounds[i + 1], limit) if len(bounds) > i + 1 else limit

    def advance_state(self, state: ElementState, n: int,
                      last: int | None = None) -> ElementState:
        """State at stage `last` (n when None) from the state at stage n-1,
        in one pass per side (see the module docstring).  Steps n..last
        must lie in one run: a translated step is a run of its own.

        A run that translates nothing relies on every side that is not one
        having componentwise minimum exponents 0, as `_normalized` leaves
        it: only the pivot's minimum, U(t), can then move into the
        exponent vector.

        A side counts as one when it is the session's one, which every unit
        becomes; a one built elsewhere is moved or substituted like any
        other side, to the same state."""
        p, kept, directive = self._step(n)
        one = self._one
        sides = (state.num, state.den)
        if directive.translations:
            e = _moved(state.exponents, p, kept)
            images = self._images.get(directive)
            if images is None:
                images = self._images[directive] = directive.images(
                    self.bases)
            # one call, so numerator and denominator share the power cache
            done = iter(substitute_terms([q.terms.items() for q in sides
                                          if q is not one], images,
                                         self.bases))
            return _normalized(e, tuple(q if q is one else next(done)
                                        for q in sides), one)
        t = 1 if last is None else last - n + 1
        e = list(state.exponents)
        e[p] = _lift(e, p, t)
        zero = (0,) * len(e)
        out = []
        for sign, q in zip((1, -1), sides):
            if q is not one:
                terms = q.terms
                lifted = [_lift(k, p, t) for k in terms]
                o = min(lifted)
                e[p] += sign * o
                moved = {(*k[:p], u - o, *k[p + 1:]): c
                         for (k, c), u in zip(terms.items(), lifted)}
                q = (one if zero in moved
                     else Polynomial._make(self.bases, moved))
            out.append(q)
        return ElementState(tuple(e), *out)

    # -- element states ----------------------------------------------------

    def initial_state(self, f: RationalFunction) -> ElementState:
        if f.is_zero():
            raise ValueError("cannot analyze the zero element")
        _check_field(f, self.bases)
        return _normalized([0] * len(self.bases),
                           (f.numerator.terms, f.denominator.terms),
                           self._one)

    def _runs(self, f: RationalFunction, last: int):
        """(i, a, state, monomial) at each kept stage a = _bounds[i] <= last
        in turn: f's state there, and whether it is monomial.  States are
        built a run at a time and kept up to the first monomial one; past
        it the exponents move across each run (by `_moved`, then in closed
        form), and nothing is kept.  The end of a run is read only when the
        next one is asked for."""
        states = self._states.get(f)
        if states is None:
            states = self._states[f] = [self.initial_state(f)]
        bounds, one = self._bounds, self._one
        i, state = 0, states[0]
        while bounds[i] <= last:
            a = bounds[i]
            monomial = state.num is one and state.den is one
            yield i, a, state, monomial
            self._run_end(i, last)
            if len(bounds) == i + 1 or bounds[i + 1] > last:
                return
            b = bounds[i + 1]
            if monomial:
                p, kept, _ = self._steps[a]
                e = _moved(state.exponents, p, kept)
                e[p] = _lift(e, p, b - a - 1)
                state = ElementState(tuple(e), one, one)
            else:
                if len(states) == i + 1:
                    states.append(self.advance_state(state, a + 1, b))
                state = states[i + 1]
            i += 1

    def _walk(self, e, a: int, last: int):
        """The exponents of a monomial state at stages a..last in turn,
        from e at stage a; each step moves them by `_moved`."""
        yield e
        steps = self._steps
        for n in range(a, last):
            if n == len(steps):
                self._step(n + 1)
            p, kept, _ = steps[n]
            e = _moved(e, p, kept)
            yield e

    def state_at(self, f: RationalFunction, n: int) -> ElementState:
        """f's state at stage n: a kept one, or read from the last run
        before it, which builds a state that is not kept."""
        if n < 0:
            raise ValueError(f"stage {n} out of range")
        for _, a, state, _ in self._runs(f, n):
            pass
        return state if a == n else self.advance_state(state, a + 1, n)

    def ord_at(self, f: RationalFunction, n: int) -> int:
        if n < 0:
            raise ValueError(f"stage {n} out of range")
        return next(self._orders(f, n, n))

    def _first(self, f: RationalFunction, last: int, holds, in_run
               ) -> tuple[int, tuple[int, ...]] | None:
        """(n, exponents) at the first stage n <= last whose state holds,
        or None.  A kept stage's state is tested as it is, and
        in_run(state, p, hi) gives the first t in 1..hi at which the run
        with pivot p from it holds.  A monomial state holds for value_of,
        so only member gets to `_outside`."""
        bounds = self._bounds
        for i, a, state, monomial in self._runs(f, last):
            if holds(state):
                return a, state.exponents
            if a == last or monomial and self._outside(state.exponents, a,
                                                       last):
                return None
            self._run_end(i, a + 1)
            if bounds[i + 1:i + 2] == [a + 1]:
                continue  # a run of one step: its end is a kept stage
            p = self._steps[a][0]
            t = in_run(state, p, last - a)
            if t is not None and self._run_end(i, a + t) == a + t:
                e = list(state.exponents)
                e[p] = _pivot_exponent(state, p)(t)
                return a + t, tuple(e)
        return None

    def _outside(self, e: tuple[int, ...], a: int, last: int) -> bool:
        """Whether the monomial state with exponents e at stage a lies in
        no stage ring up to last: its value is negative on a source whose
        values are a valuation's (see DirectiveSource), or a step keeps
        the negative exponent of a coordinate it neither pivots nor
        translates and no step after a up to last moves it.  Steps are
        read only until each such coordinate is moved."""
        if isinstance(self.source, (ValuationProgram, SeriesDVR)):
            if sum(map(mul, e, self.source.scaled_vector_at(a)[0])) < 0:
                return True
        steps, touched = self._steps, self._touched
        negative = [j for j, x in enumerate(e) if x < 0]
        while len(steps) < last and any(touched[j] <= a for j in negative):
            self._step(len(steps) + 1)
        return any(touched[j] <= a for j in negative)

    def _orders(self, f: RationalFunction, first: int, last: int):
        """ord_n(f) for n = first..last in turn: at a kept stage from its
        state, inside a run in closed form, and from the first monomial
        state on from its exponents, by `_walk`."""
        bounds = self._bounds
        for i, a, state, monomial in self._runs(f, last):
            if monomial:
                yield from islice(map(sum, self._walk(state.exponents, a,
                                                      last)),
                                  max(first - a, 0), None)
                return
            if a >= first:
                yield state.order()
            self._run_end(i, last)
            end = min(bounds[i + 1] - 1, last) if len(bounds) > i + 1 else last
            n = max(first, a + 1)
            if n <= end:
                pivot = _pivot_exponent(state, self._steps[a][0])
                yield from (pivot(m - a + 1) for m in range(n, end + 1))

    # -- queries -----------------------------------------------------------

    def member(self, f: RationalFunction, budget: int = DEFAULT_BUDGET) -> MembershipVerdict:
        """First stage whose local ring contains f, if within budget.

        The stage rings grow along the sequence, so the first containing
        stage answers membership in the whole union.
        """
        if f.is_zero():
            return MembershipVerdict(0, budget)
        found = self._first(f, budget, ElementState.in_ring, _ring_in_run)
        return MembershipVerdict(None if found is None else found[0], budget)

    def value_of(self, f: RationalFunction,
                 budget: int = DEFAULT_BUDGET
                 ) -> tuple[int | Fraction | Infinite, int] | None:
        """Exact value of f under the source's values, with the deciding
        stage, or None when f never reduces to monomial form in budget.
        A whole value is an int, like every coefficient."""
        if f.is_zero():
            raise ValueError("the value of zero is undefined")
        found = self._first(f, budget, ElementState.is_monomial,
                            _monomial_in_run)
        if found is None:
            return None
        n, exponents = found
        nums, den = self.source.scaled_vector_at(n)
        total: int | Infinite = 0
        for ej, vj in zip(exponents, nums):
            if ej:
                total = total + ej * vj
        # total / den, read out like one coordinate of a stage
        return read_values((total,), den)[0], n

    def w_approx(self, f: RationalFunction, reference: RationalFunction,
                 budget: int = DEFAULT_BUDGET) -> LimitTrace:
        """Approximants ord_n(f)/ord_n(reference) for n = 0..budget."""
        if f.is_zero() or reference.is_zero():
            raise ValueError("approximants of zero are undefined")
        approx: list[int | Fraction] = []
        orders = self._orders(f, 0, budget)
        for n, ref_ord in enumerate(self._orders(reference, 0, budget)):
            if ref_ord == 0:
                raise ValueError(f"reference element has order 0 at stage "
                                 f"{n}; ratios are undefined")
            # a whole ratio is an int, as in e_approx
            o = next(orders)
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
        for n, o in zip(range(start, budget + 1),
                        self._orders(f, start, budget)):
            o += sum(d)
            approx.append(o)
            if n == budget:
                break
            p, kept, _ = self._step(n + 1)
            d = _moved(d, p, kept)
            d[p] -= o
        return LimitTrace("e", start, approx)

