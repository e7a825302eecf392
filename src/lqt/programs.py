"""Transform steps and valuation programs, which attach values to them.

A Directive is one local quadratic transform step: a pivot coordinate and
translation constants for some of the others.  Every walk hands out its
steps as Directives through `directive_at(n)`.  A ValuationProgram's steps
are ProgramSteps: Directives that also assign the new value of every
translated coordinate as a positive multiple of the pivot value.
Untranslated coordinates lose the pivot value, the pivot keeps its own, so
a positive value vector evolves exactly at every stage.

The step list is a finite preperiod followed by a period repeated forever.
Programs are read from a small text format, one step per line, and a
step's `describe` writes its line back::

    [vars]
    x y
    [values]
    x = 1
    y = 1
    [period]
    pivot=x translate y:1->1/2
    pivot=y

A ``translate y:c->r`` clause translates y by the constant c and assigns the
new coordinate the value r times the pivot value.  Every rational is read
by `parsing.parse_rational`, so none passes the parser's MAX_BITS.

Values follow the rule polynomial coefficients do: a whole value is an
`int`, any other a `Fraction` whose denominator exceeds 1, and none is
ever a float.  Initial values and assigned factors keep it.  A stage is
kept scaled, as integer numerators over one shared denominator, so a step
is integer arithmetic.  Every walk hands out its stages that way, through
`scaled_vector_at(n)`; a program also reads a stage out under the rule,
through `value_vector_at(n)`.
Only a walk lifted along a prime (`pullback.LiftedTrace`) adds `Infinite`
values, as numerators.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import gcd, lcm
from typing import Iterable

from .parsing import parse_rational
from .polynomials import Coefficient, Polynomial, coefficient


class ProgramError(ValueError):
    """A step or program that breaks a rule of the format or of the walk."""


@total_ordering
@dataclass(frozen=True, slots=True)
class Infinite:
    """Signed infinite value, for coordinates inside a lifted prime.

    Supports just enough arithmetic and ordering to flow through value
    vectors: addition with finite values, scaling by nonzero integers, and
    comparisons.  Adding opposite infinities raises.
    """

    sign: int

    def __repr__(self) -> str:
        return "inf" if self.sign > 0 else "-inf"

    __str__ = __repr__

    def __neg__(self) -> "Infinite":
        return NEG_INF if self.sign > 0 else POS_INF

    def __add__(self, other: object) -> "Infinite":
        if isinstance(other, Infinite) and other.sign != self.sign:
            raise ArithmeticError("cannot add opposite infinite values")
        if isinstance(other, (int, Fraction, Infinite)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, other: object) -> "Infinite":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ArithmeticError("cannot scale an infinite value by 0")
            return self if other > 0 else -self
        return NotImplemented

    __rmul__ = __mul__

    def __lt__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.sign < 0
        if isinstance(other, Infinite):
            return self.sign < other.sign
        return NotImplemented


POS_INF = Infinite(1)
NEG_INF = Infinite(-1)


class ProgramFormatError(ProgramError):
    """A fault in program text, with the line it is on when there is one."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ProgramConsistencyError(ProgramError):
    """Stage values that a step's pivot and translations do not fit."""

    def __init__(self, stage: int, coordinate: str, message: str):
        super().__init__(f"stage {stage}, coordinate {coordinate}: {message}")
        self.stage = stage
        self.coordinate = coordinate


# A stage value vector: each value an int when whole, else a Fraction whose
# denominator exceeds 1, never a float (see the module docstring).
ValueVector = tuple[int | Fraction, ...]
# A stage as kept: (nums, den), den > 0 and gcd(den, *finite nums) == 1.
ScaledVector = tuple[tuple[int | Infinite, ...], int]


def read_values(nums: tuple[int | Infinite, ...],
                den: int) -> tuple[int | Fraction | Infinite, ...]:
    """A scaled stage read out under the value rule; Infinite stays as is."""
    if den == 1:
        return nums
    return tuple(v if type(v) is Infinite
                 else Fraction(v, den) if v % den else v // den
                 for v in nums)


class Directive:
    """One local quadratic transform step: a pivot coordinate p and nonzero
    translation constants c_j for some other coordinates.  The step
    introduces new coordinates by

        old_p = new_p,    old_j = new_p * (new_j + c_j)

    with c_j = 0 for a coordinate it does not translate.  translations
    holds (index, constant) pairs sorted by index, each constant an int
    when whole, like every coefficient.  A step is immutable, hashed once
    when built, and equal only to a step that does the same.
    """

    __slots__ = ("pivot", "translations", "_hash")

    def __init__(self, pivot: int,
                 translations: Iterable[tuple[int, Coefficient]] = ()):
        if pivot < 0:
            raise ProgramError(f"pivot index {pivot} out of range")
        trans = tuple(sorted((j, coefficient(c)) for j, c in translations))
        seen = set()
        for j, c in trans:
            if j == pivot:
                raise ProgramError("cannot translate the pivot coordinate")
            if j < 0:
                raise ProgramError(f"translation index {j} out of range")
            if j in seen:
                raise ProgramError(f"coordinate {j} translated twice")
            if c == 0:
                raise ProgramError("translation constant must be nonzero")
            seen.add(j)
        object.__setattr__(self, "pivot", pivot)
        object.__setattr__(self, "translations", trans)
        object.__setattr__(self, "_hash", hash(self._key()))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self) -> tuple:
        return (self.pivot, self.translations)

    def check_dimension(self, dimension: int) -> None:
        """Refuse a step that names a coordinate past `dimension`."""
        for j in (self.pivot, *(j for j, _ in self.translations)):
            if j >= dimension:
                raise ProgramError(f"index {j} out of range for dimension "
                                   f"{dimension}")

    def translation_of(self, j: int) -> Coefficient:
        """The constant coordinate j is translated by, 0 when it is not."""
        for k, c in self.translations:
            if k == j:
                return c
        return 0

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
        """The step as text, which is also how `lqt run` shows it."""
        parts = [f"pivot={bases[self.pivot]}"]
        for j, c in self.translations:
            parts.append(f"translate {bases[j]}:{c}")
        return " ".join(parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Directive):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._key()}"


class ProgramStep(Directive):
    """A step that also assigns values: each translated coordinate's new
    value is a positive factor times the pivot value.

    factors holds those factors, one per entry of translations and in the
    same order, each an int when whole, like every value.  A step is given
    as (index, constant, factor) triples, as a program line writes it.
    `_scaled` holds them times `_den`, the lcm of their denominators.
    """

    __slots__ = ("factors", "_den", "_scaled")

    def __init__(self, pivot: int,
                 translations: Iterable[tuple[int, Coefficient,
                                              Coefficient]] = ()):
        trans = sorted(translations, key=lambda t: t[0])
        factors = tuple(coefficient(r) for _, _, r in trans)
        den = lcm(*(r.denominator for r in factors))
        scaled = {}
        for (j, _, _), r in zip(trans, factors):
            if r <= 0:
                raise ProgramError(
                    f"assigned value factor for coordinate {j} must be "
                    f"positive, got {r}")
            scaled[j] = r.numerator * (den // r.denominator)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_scaled", scaled)
        super().__init__(pivot, [(j, c) for j, c, _ in trans])

    def _key(self) -> tuple:
        return (self.pivot, self.translations, self.factors)

    def next_values(self, nums: tuple[int, ...], den: int, stage: int,
                    bases: tuple[str, ...]) -> ScaledVector:
        """The scaled stage after this step, given the one entering it.

        `stage` is the stage the step produces, used in error messages.
        Each coordinate takes one integer comparison: a translated one must
        equal the pivot value and any other must exceed it.  Only when one
        fails are the values scanned for the error to report.
        """
        p = self.pivot
        vp = nums[p]
        # over den * _den the new numerators vp * _den, (vj - vp) * _den and
        # F_j * vp share just gcd(_den, vp), since gcd(den, *nums) == 1 and
        # gcd(_den, *F) == 1: dividing it out first keeps the stage reduced
        g = gcd(self._den, vp)
        m, q = self._den // g, vp // g
        scaled = self._scaled
        out = []
        for j, vj in enumerate(nums):
            if j == p:
                out.append(vp * m)
                continue
            r = scaled.get(j)
            if r is None:
                if not vj > vp:
                    break
                out.append((vj - vp) * m)
            elif vj == vp:
                out.append(r * q)
            else:
                break
        else:
            return tuple(out), den * m
        raise self._inconsistency(read_values(nums, den), stage, bases, j)

    def _inconsistency(self, values: ValueVector, stage: int,
                       bases: tuple[str, ...],
                       j: int) -> ProgramConsistencyError:
        """The error for values at which coordinate j fails its check.  A
        value below the pivot's comes first, wherever it lies; otherwise j
        is the first coordinate to fail, and its own check is the error."""
        p = self.pivot
        vp = values[p]
        for k, vk in enumerate(values):
            if vk < vp:
                return ProgramConsistencyError(
                    stage, bases[p],
                    f"pivot value {vp} is not minimal: {bases[k]} has value "
                    f"{vk}")
        if j in self._scaled:
            return ProgramConsistencyError(
                stage, bases[j],
                f"translated coordinate has value {values[j]}, which must "
                f"equal the pivot value {vp}")
        return ProgramConsistencyError(
            stage, bases[j],
            f"coordinate shares the pivot value {vp} and must be translated")

    def describe(self, bases: tuple[str, ...]) -> str:
        """The step as a program line: the assigned factors are part of
        the text."""
        parts = [f"pivot={bases[self.pivot]}"]
        for (j, c), r in zip(self.translations, self.factors):
            parts.append(f"translate {bases[j]}:{c}->{r}")
        return " ".join(parts)


class ValuationProgram:
    """An eventually periodic step list with initial coordinate values.

    `_stages` keeps the scaled stages computed so far, so reaching stage n
    costs n steps in all, however often it is asked for."""

    __slots__ = ("bases", "initial_values", "preperiod", "period", "_stages")

    def __init__(self, bases: Iterable[str],
                 initial_values: Iterable[Fraction],
                 preperiod: Iterable[ProgramStep],
                 period: Iterable[ProgramStep]):
        bs = tuple(bases)
        vals = tuple(coefficient(v) for v in initial_values)
        pre = tuple(preperiod)
        per = tuple(period)
        if len(set(bs)) != len(bs):
            raise ProgramError("duplicate variable names")
        if not bs:
            raise ProgramError("a program needs at least one variable")
        if len(vals) != len(bs):
            raise ProgramError(f"{len(bs)} variables but {len(vals)} values")
        for b, v in zip(bs, vals):
            if v <= 0:
                raise ProgramError(f"initial value of {b} must be positive, "
                                   f"got {v}")
        if not per:
            raise ProgramError("period must contain at least one step")
        for step in pre + per:
            step.check_dimension(len(bs))
        object.__setattr__(self, "bases", bs)
        object.__setattr__(self, "initial_values", vals)
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)
        den = lcm(*(v.denominator for v in vals))
        object.__setattr__(self, "_stages", [(
            tuple(v.numerator * (den // v.denominator) for v in vals), den)])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ValuationProgram is immutable")

    def directive_at(self, n: int) -> ProgramStep:
        """The step taking stage n-1 to stage n (n >= 1)."""
        if n < 1:
            raise ValueError(f"step index {n} out of range")
        p = len(self.preperiod)
        if n <= p:
            return self.preperiod[n - 1]
        return self.period[(n - 1 - p) % len(self.period)]

    def scaled_vector_at(self, n: int) -> ScaledVector:
        """Stage n, scaled, extending the kept stages to n."""
        if n < 0:
            raise ValueError(f"stage {n} out of range")
        stages = self._stages
        while len(stages) <= n:
            k = len(stages)
            stages.append(self.directive_at(k).next_values(
                *stages[-1], k, self.bases))
        return stages[n]

    def value_vector_at(self, n: int) -> ValueVector:
        """The value vector at stage n, read out of the scaled stage."""
        return read_values(*self.scaled_vector_at(n))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValuationProgram):
            return NotImplemented
        return (self.bases == other.bases
                and self.initial_values == other.initial_values
                and self.preperiod == other.preperiod
                and self.period == other.period)

    def __repr__(self) -> str:
        return (f"ValuationProgram(bases={self.bases}, "
                f"preperiod={len(self.preperiod)} steps, "
                f"period={len(self.period)} steps)")


def multiplicity_sequence(source, count: int) -> list[int | Fraction]:
    """The first `count` stage multiplicities of a walk: the least
    numerator of each scaled stage over its denominator, starting from
    stage 0.  Each is a value, so an int when it is whole.

    A ValuationProgram, a SeriesDVR and a LiftedTrace all work: a lifted
    walk's infinite prime coordinates never reach the minimum."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return [read_values((min(nums),), den)[0]
            for nums, den in map(source.scaled_vector_at, range(count))]


@dataclass(frozen=True, slots=True)
class MultiplicityClass:
    """Outcome of classifying the multiplicity sum of a program.

    kind is "Divergent", "Convergent" or "Undecided"; limit is the exact sum
    when convergent, None otherwise.  nonscaling lists the coordinates whose
    values do not shrink with the deciding pass ratio; it is filled only
    once no period step pivots or translates any of them.
    """

    kind: str
    limit: Fraction | None = None
    detail: str = ""
    nonscaling: tuple[int, ...] = ()


# Period passes classify_multiplicity looks at before it gives up.  Each
# pass only extends the program's kept stage vectors, and every builtin
# program or program quotient decides at pass 1.
MAX_PASSES = 8


def classify_multiplicity(program: ValuationProgram) -> MultiplicityClass:
    """Decide whether the multiplicity sum diverges, and its value if not.

    A period pass maps the value vector linearly, so once consecutive
    pass-end vectors are exact scalar multiples the ratio repeats forever and
    the tail of the sum is geometric.  When only some coordinates scale, the
    rest evolve by subtracting the stage multiplicities; if those stay
    strictly above every future scaled value they never pivot, the scaled
    part runs autonomously, and the subtraction stream itself is geometric,
    which keeps any one-off scaling coincidence self-sustaining.  Either way
    one observed scaling pass decides the sum; none within MAX_PASSES
    passes leaves it Undecided.
    """
    p = len(program.preperiod)
    length = len(program.period)
    at = program.value_vector_at

    head_sum = sum((min(at(n)) for n in range(p)), Fraction(0))
    prev = at(p)

    for k in range(1, MAX_PASSES + 1):
        start = p + (k - 1) * length
        vectors = [at(start + i) for i in range(1, length + 1)]
        end = vectors[-1]
        pass_sum = min(prev) + sum(min(v) for v in vectors[:-1])

        jmin = min(range(len(prev)), key=prev.__getitem__)
        # a Fraction even for two int values, which `/` would make a float
        ratio = Fraction(end[jmin], prev[jmin])
        scaled = [j for j in range(len(prev)) if end[j] == ratio * prev[j]]
        rest = [j for j in range(len(prev)) if end[j] != ratio * prev[j]]

        if not rest:
            if ratio >= 1:
                return MultiplicityClass(
                    "Divergent", detail=f"pass ratio {ratio} from pass {k}")
            return MultiplicityClass(
                "Convergent", head_sum + pass_sum / (1 - ratio),
                detail=f"pass ratio {ratio} from pass {k}")

        if ratio < 1 and _rest_stays_clear(program, scaled, rest, ratio,
                                           pass_sum, prev, vectors):
            return MultiplicityClass(
                "Convergent", head_sum + pass_sum / (1 - ratio),
                detail=f"pass ratio {ratio} on {len(scaled)} coordinates "
                       f"from pass {k}",
                nonscaling=tuple(rest))

        head_sum += pass_sum
        prev = end
    return MultiplicityClass(
        "Undecided", detail=f"no stable pass ratio within {MAX_PASSES} passes")


def _rest_stays_clear(program: ValuationProgram, scaled: list[int],
                      rest: list[int], ratio: Fraction, pass_sum: Fraction,
                      prev: ValueVector, vectors: list[ValueVector]) -> bool:
    """Whether the non-scaling coordinates provably never pivot again.

    They must not be pivoted or translated by the period itself, and their
    limiting values (current minus all future subtractions, a geometric
    series) must stay strictly above every future value of the scaling part.
    """
    for step in program.period:
        if step.pivot in rest:
            return False
        if any(j in rest for j, _ in step.translations):
            return False
    future_subtraction = pass_sum * ratio / (1 - ratio)
    floor = min(vectors[-1][j] for j in rest) - future_subtraction
    peak = max(v[j] for v in [prev, *vectors[:-1]] for j in scaled)
    return floor > ratio * peak


# -- text format -------------------------------------------------------------

PROGRAM_SECTIONS = ("vars", "values", "preperiod", "period")
_TRANSLATE = re.compile(
    r"translate\s+([A-Za-z_][A-Za-z_0-9]*)\s*:\s*(-?\d+(?:/\d+)?)\s*->\s*"
    r"(-?\d+(?:/\d+)?)")


def split_sections(text: str) -> dict[str, list[tuple[int, str]]]:
    """Split `[name]`-sectioned text into numbered, comment-stripped lines."""
    sections: dict[str, list[tuple[int, str]]] = {}
    current: list[tuple[int, str]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in sections:
                raise ProgramFormatError(f"duplicate section [{name}]", lineno)
            current = sections.setdefault(name, [])
            continue
        if current is None:
            raise ProgramFormatError(
                f"content before the first section: {line!r}", lineno)
        current.append((lineno, line))
    return sections


def _parse_fraction(text: str, lineno: int) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise ProgramFormatError(str(exc), lineno) from None


def parse_step(line: str, bases: tuple[str, ...], lineno: int) -> ProgramStep:
    m = re.match(r"pivot\s*=\s*([A-Za-z_][A-Za-z_0-9]*)\s*", line)
    if not m:
        raise ProgramFormatError(f"expected pivot=<var>, got {line!r}", lineno)
    pivot_name = m.group(1)
    if pivot_name not in bases:
        raise ProgramFormatError(f"unknown pivot variable {pivot_name!r}",
                                 lineno)
    rest = line[m.end():]
    translations = []
    pos = 0
    while pos < len(rest):
        t = _TRANSLATE.match(rest, pos)
        if not t:
            raise ProgramFormatError(
                f"expected translate <var>:<c>-><value>, got {rest[pos:]!r}",
                lineno)
        name = t.group(1)
        if name not in bases:
            raise ProgramFormatError(f"unknown variable {name!r}", lineno)
        c = _parse_fraction(t.group(2), lineno)
        r = _parse_fraction(t.group(3), lineno)
        translations.append((bases.index(name), c, r))
        pos = t.end()
        while pos < len(rest) and rest[pos].isspace():
            pos += 1
    try:
        return ProgramStep(bases.index(pivot_name), translations)
    except ProgramError as exc:
        raise ProgramFormatError(str(exc), lineno) from None


def read_vars(sections: dict[str, list[tuple[int, str]]]) -> tuple[str, ...]:
    """The variable names of a [vars] section, split at spaces and commas."""
    if "vars" not in sections:
        raise ProgramFormatError("missing section [vars]")
    return tuple(name for _, line in sections["vars"]
                 for name in line.replace(",", " ").split())


def program_from_sections(sections: dict[str, list[tuple[int, str]]],
                          bases: tuple[str, ...]) -> ValuationProgram:
    """The program the [values], [preperiod] and [period] sections describe
    over the variables `bases`; every other section is left unread."""
    for name in ("values", "period"):
        if name not in sections:
            raise ProgramFormatError(f"missing section [{name}]")
    values: dict[str, Fraction] = {}
    for lineno, line in sections["values"]:
        if "=" not in line:
            raise ProgramFormatError(f"expected <var> = <value>, got {line!r}",
                                     lineno)
        name, _, val = line.partition("=")
        name = name.strip()
        if name not in bases:
            raise ProgramFormatError(f"unknown variable {name!r}", lineno)
        if name in values:
            raise ProgramFormatError(f"value of {name} given twice", lineno)
        values[name] = _parse_fraction(val.strip(), lineno)
    missing = [b for b in bases if b not in values]
    if missing:
        raise ProgramFormatError(f"no value given for {', '.join(missing)}")

    def steps_of(section: str) -> list[ProgramStep]:
        return [parse_step(line, bases, lineno)
                for lineno, line in sections.get(section, [])]

    # a bad step keeps its line number; only the program's own check is wrapped
    preperiod, period = steps_of("preperiod"), steps_of("period")
    try:
        return ValuationProgram(bases, [values[b] for b in bases],
                                preperiod, period)
    except ProgramError as exc:
        raise ProgramFormatError(str(exc)) from None


def parse_program(text: str) -> ValuationProgram:
    """The program a text in the program format describes."""
    sections = split_sections(text)
    unknown = set(sections) - set(PROGRAM_SECTIONS)
    if unknown:
        raise ProgramFormatError(
            f"unknown section [{sorted(unknown)[0]}] in a program file")
    return program_from_sections(sections, read_vars(sections))
