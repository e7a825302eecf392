"""Valuations pulled back through a coordinate prime.

A CoordinatePrime is the prime ideal generated by a subset of the ambient
variables.  Localizing there and passing to the residue field k(remaining
variables) turns a valuation on the smaller field into a ring on the big
one: the pullback consists of the local elements whose residue the smaller
valuation accepts.  Composing with the order along the prime itself gives a
rank-two value, a lexicographic pair (prime order, residue value).

A quotient valuation, a ValuationProgram or a SeriesDVR, is itself a walk
of the residue field, and a LiftedTrace lifts it along the prime: the prime
coordinates are never pivoted or translated, and they carry an infinite
value in every stage vector.

classify_shannon sits here because it needs all three kinds of walk,
lifted ones included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Union

from .analysis import DEFAULT_BUDGET, AnalysisSession
from .functions import RationalFunction, _check_field
from .polynomials import Polynomial
from .programs import (POS_INF, Directive, Infinite, MultiplicityClass,
                       ScaledVector, ValuationProgram, classify_multiplicity)
from .series import (MAX_PRECISION, PeriodicCoefficients, SeriesDVR,
                     series_value)

QuotientValuation = Union[ValuationProgram, SeriesDVR]


class CoordinatePrime:
    """The prime ideal generated by a subset of the ambient variables."""

    __slots__ = ("bases", "generators", "indices", "residue_bases")

    def __init__(self, bases: Iterable[str], generators: Iterable[str]):
        bs = tuple(bases)
        gens = tuple(generators)
        if not gens:
            raise ValueError("a coordinate prime needs a generator")
        for g in gens:
            if g not in bs:
                raise ValueError(f"generator {g!r} is not a variable "
                                 f"(expected one of {', '.join(bs)})")
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate prime generators")
        if len(gens) == len(bs):
            raise ValueError("the prime must be proper: some variable has "
                             "to survive into the residue field")
        self.bases = bs
        self.generators = gens
        self.indices = tuple(i for i, b in enumerate(bs) if b in gens)
        self.residue_bases = tuple(b for b in bs if b not in gens)

    def poly_order(self, p: Polynomial) -> int:
        """Largest k with p in the k-th power of the prime."""
        if p.is_zero():
            raise ValueError("the order of zero is undefined")
        return min(sum(e[i] for i in self.indices) for e in p.terms)

    def contains_poly(self, p: Polynomial) -> bool:
        return not p.is_zero() and self.poly_order(p) >= 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoordinatePrime):
            return NotImplemented
        return (self.bases, self.generators) == (other.bases,
                                                 other.generators)

    def __repr__(self) -> str:
        return f"CoordinatePrime(({', '.join(self.generators)}))"


def member_RP(f: RationalFunction, prime: CoordinatePrime) -> bool:
    """Whether f lies in the localization at the prime."""
    _check_field(f, prime.bases)
    return not prime.contains_poly(f.denominator)


def residue(f: RationalFunction, prime: CoordinatePrime) -> RationalFunction:
    """The image of f in the residue field at the prime."""
    if not member_RP(f, prime):
        raise ValueError(f"{f} is not in the local ring at "
                         f"({', '.join(prime.generators)}); it has no residue")
    return _leading_part(f, prime, 0, 0)


def _leading_part(f: RationalFunction, prime: CoordinatePrime, kn: int,
                  kd: int) -> RationalFunction:
    """The terms of f's numerator of order kn along the prime over those of
    its denominator of order kd, in the residue field's variables."""
    gens = prime.indices
    keep = [i for i in range(len(prime.bases)) if i not in gens]
    # at order 0 or for one generator, the terms keep distinct exponents
    num, den = (Polynomial._make(prime.residue_bases, {
        tuple(e[i] for i in keep): c for e, c in p.terms.items()
        if sum(e[i] for i in gens) == k})
        for p, k in ((f.numerator, kn), (f.denominator, kd)))
    return RationalFunction(num, den)


# -- quotient values ---------------------------------------------------------

def quotient_value(quotient: QuotientValuation, r: RationalFunction,
                   budget: int = DEFAULT_BUDGET,
                   session: AnalysisSession | None = None
                   ) -> int | Fraction | None:
    """Value of a residue-field element under the quotient valuation, or
    None when undecided: within the budget for a program; for a series,
    below the truncation cap of series_value or on a rational series'
    curve, where the element has no order."""
    if isinstance(quotient, SeriesDVR):
        return series_value(quotient, r)
    if session is None:
        session = AnalysisSession(quotient)
    res = session.value_of(r, budget)
    if res is None:
        return None
    value, _ = res
    assert not isinstance(value, Infinite)
    return value


@dataclass(frozen=True, slots=True)
class PullbackVerdict:
    """Membership in the pullback ring: In, NotIn or Undecided."""

    status: str
    detail: str = ""

    @property
    def decided(self) -> bool:
        return self.status != "Undecided"


def member_pullback(f: RationalFunction, prime: CoordinatePrime,
                    quotient: QuotientValuation,
                    budget: int = DEFAULT_BUDGET,
                    session: AnalysisSession | None = None
                    ) -> PullbackVerdict:
    """Whether f lies in the pullback of the quotient valuation ring.

    f must be local at the prime and its residue must have nonnegative
    quotient value; a zero residue is always accepted.
    """
    if not member_RP(f, prime):
        return PullbackVerdict(
            "NotIn", "the denominator lies in the prime, so the element is "
                     "not local there")
    r = residue(f, prime)
    if r.is_zero():
        return PullbackVerdict("In", "the residue is zero")
    v = quotient_value(quotient, r, budget, session)
    if v is None:
        # the budget bounds a program's walk, never a series value
        if isinstance(quotient, SeriesDVR):
            return PullbackVerdict(
                "Undecided", f"no order of the residue was certified by "
                             f"series degree {MAX_PRECISION}, or a part of it "
                             f"vanishes on a rational series' curve")
        return PullbackVerdict(
            "Undecided", "the residue value did not resolve within budget")
    if v >= 0:
        return PullbackVerdict("In", f"the residue has value {v}")
    return PullbackVerdict("NotIn", f"the residue has value {v}")


# -- composite values --------------------------------------------------------

@total_ordering
@dataclass(frozen=True, slots=True)
class CompositeValue:
    """Lexicographic value (prime order, residue value).

    residue_value is None when the quotient side stayed undecided; such a
    value is only partially known."""

    prime_order: int
    residue_value: int | Fraction | None

    @property
    def decided(self) -> bool:
        return self.residue_value is not None

    def sort_key(self) -> tuple[int, int | Fraction]:
        if self.residue_value is None:
            raise ValueError("cannot order a partially known value")
        return (self.prime_order, self.residue_value)

    def __lt__(self, other: "CompositeValue") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        r = "?" if self.residue_value is None else str(self.residue_value)
        return f"({self.prime_order}, {r})"


def composite_value(f: RationalFunction, prime: CoordinatePrime,
                    quotient: QuotientValuation,
                    budget: int = DEFAULT_BUDGET,
                    session: AnalysisSession | None = None) -> CompositeValue:
    """The rank-two value of f: order along the prime, then the quotient
    value of what remains.  Needs a single-generator prime, since only there
    is the leading part along the prime a well-defined residue element.  The
    residue's term filter reads that part off at the prime orders of the
    numerator and the denominator, with no field arithmetic."""
    _check_field(f, prime.bases)
    if f.is_zero():
        raise ValueError("the value of zero is undefined")
    if len(prime.generators) != 1:
        raise ValueError("composite values need a single-generator prime")
    kn = prime.poly_order(f.numerator)
    kd = prime.poly_order(f.denominator)
    v = quotient_value(quotient, _leading_part(f, prime, kn, kd), budget,
                       session)
    return CompositeValue(kn - kd, v)


# -- lifted sequences ---------------------------------------------------------

class LiftedTrace:
    """A quotient valuation's walk viewed in the ambient field.

    Prime coordinates are never pivoted or translated and carry an infinite
    value at every stage.  This is deliberately not a ValuationProgram: its
    stage vectors contain infinities, which programs never hold.
    """

    __slots__ = ("quotient", "prime", "bases", "_ambient_index", "_steps")

    def __init__(self, quotient: QuotientValuation, prime: CoordinatePrime):
        if tuple(quotient.bases) != prime.residue_bases:
            raise ValueError(
                f"quotient sequence over {tuple(quotient.bases)} does not "
                f"match the residue field over {prime.residue_bases}")
        self.quotient = quotient
        self.prime = prime
        self.bases = prime.bases
        self._ambient_index = tuple(prime.bases.index(b)
                                    for b in quotient.bases)
        # the lifted step of each distinct quotient step, built when first
        # asked for; it assigns no values of its own
        self._steps: dict[Directive, Directive] = {}

    def directive_at(self, n: int) -> Directive:
        qd = self.quotient.directive_at(n)
        step = self._steps.get(qd)
        if step is None:
            amb = self._ambient_index
            step = self._steps[qd] = Directive(
                amb[qd.pivot], [(amb[j], c) for j, c in qd.translations])
        return step

    def scaled_vector_at(self, n: int) -> ScaledVector:
        """The quotient's scaled stage n, POS_INF on each prime coordinate."""
        qnums, den = self.quotient.scaled_vector_at(n)
        out: list[int | Infinite] = [POS_INF] * len(self.bases)
        for i, v in zip(self._ambient_index, qnums):
            out[i] = v
        return tuple(out), den

    def __repr__(self) -> str:
        return f"LiftedTrace({self.quotient!r} along {self.prime!r})"


# -- classification of the union ring -----------------------------------------

@dataclass(frozen=True, slots=True)
class ShannonClass:
    """Classification of the union ring, with a short reason.

    kind is "ValuationRing", "ArchimedeanNonValuation", "NonArchimedean" or
    "Unknown"; witness names a coordinate when one drives the verdict.
    multiplicity is the multiplicity class the verdict was read from (of the
    quotient walk for a lifted trace), and union_is_pullback says, for a
    lifted trace only, whether the union is the whole pullback.
    """

    kind: str
    reason: str
    witness: str | None = None
    multiplicity: MultiplicityClass | None = None
    union_is_pullback: bool | None = None


def classify_shannon(source) -> ShannonClass:
    """Classify the union ring of a ValuationProgram, a SeriesDVR or a
    LiftedTrace.

    A divergent multiplicity sum forces the union to be a valuation ring.  A
    convergent sum with a coordinate that stays away from every pivot keeps
    that coordinate's transforms at a positive value bound, so the union is
    archimedean but not a valuation ring.  Along a lifted trace, a divergent
    quotient sum makes the union the full pullback, which is not archimedean.
    Anything subtler stays Unknown, as does a program whose sum no pass
    ratio decides within programs.MAX_PASSES passes.
    """
    lifted = isinstance(source, LiftedTrace)
    walk = source.quotient if lifted else source
    if isinstance(walk, SeriesDVR):
        stage = "quotient stage" if lifted else "stage"
        outcome = MultiplicityClass(
            "Divergent", detail=f"every {stage} has multiplicity 1")
    elif isinstance(walk, ValuationProgram):
        outcome = classify_multiplicity(walk)
    else:
        raise TypeError(f"cannot classify {type(walk).__name__}")
    if lifted:
        prime = ", ".join(source.prime.generators)
        if outcome.kind == "Divergent":
            return ShannonClass(
                "NonArchimedean",
                f"the quotient multiplicity sum diverges, so the union is the "
                f"full pullback along ({prime}) and powers of the prime stay "
                f"below every unit multiple",
                multiplicity=outcome, union_is_pullback=True)
        return ShannonClass(
            "Unknown",
            f"the quotient multiplicity sum does not diverge, so the union "
            f"may be smaller than the pullback along ({prime})",
            multiplicity=outcome, union_is_pullback=False)
    if isinstance(source, SeriesDVR):
        union = ("a valuation ring; the series is rational, so the walk "
                 "follows the curve it parametrizes"
                 if isinstance(source.stream, PeriodicCoefficients)
                 else "the series valuation ring")
        return ShannonClass(
            "ValuationRing",
            f"{outcome.detail}, so the multiplicity sum diverges and the "
            f"union is {union}",
            multiplicity=outcome)
    if outcome.kind == "Divergent":
        return ShannonClass(
            "ValuationRing",
            f"the multiplicity sum diverges ({outcome.detail})",
            multiplicity=outcome)
    if outcome.kind == "Convergent":
        # classify_multiplicity names nonscaling coordinates only once it
        # has seen that no period step pivots them
        if outcome.nonscaling:
            spared = source.bases[outcome.nonscaling[0]]
            return ShannonClass(
                "ArchimedeanNonValuation",
                f"the multiplicity sum converges to {outcome.limit} while "
                f"{spared} is never a pivot, so its transforms keep a "
                f"positive limiting value",
                witness=spared, multiplicity=outcome)
        return ShannonClass(
            "Unknown",
            f"the multiplicity sum converges to {outcome.limit} and every "
            f"coordinate pivots; no implemented criterion applies",
            multiplicity=outcome)
    return ShannonClass("Unknown", outcome.detail, multiplicity=outcome)
