"""Built-in examples and the runtime bundle the CLI works with.

An Example is a name, a description and a walk: a ValuationProgram, a
SeriesDVR, or a LiftedTrace, which also holds the prime and the quotient
valuation of a pullback construction.  Everything else a command needs is
read from the walk.  The builtins are built from values: their programs
from ProgramStep values, their series from coefficient streams.  No builtin
reads program text.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .analysis import AnalysisSession
from .programs import ProgramStep, ValuationProgram
from .pullback import CoordinatePrime, LiftedTrace
from .series import FactorialGaps, GeometricGaps, SeriesDVR


class Example:
    """A named, fully materialized analysis target."""

    __slots__ = ("name", "description", "kind", "ambient", "source",
                 "prime", "quotient", "_session")

    def __init__(self, name: str, description: str, source):
        self.name = name
        self.description = description
        self.ambient = tuple(source.bases)
        self.source = source
        lifted = isinstance(source, LiftedTrace)
        self.kind = ("pullback" if lifted else
                     "series" if isinstance(source, SeriesDVR) else "program")
        self.prime = source.prime if lifted else None
        self.quotient = source.quotient if lifted else None
        self._session: AnalysisSession | None = None

    @property
    def session(self) -> AnalysisSession:
        if self._session is None:
            self._session = AnalysisSession(self.source)
        return self._session

    @property
    def has_pullback(self) -> bool:
        return self.prime is not None

    def __repr__(self) -> str:
        return f"Example({self.name}, kind={self.kind})"


# Both ex3.7 programs use this period.  Steps are immutable, so the two can
# share it; each builder makes a fresh program, since its _stages cache
# grows as it is walked.
_HALVING = (ProgramStep(0, [(1, 1, Fraction(1, 2))]), ProgramStep(1))


# name -> (description, builder of a fresh walk)
REGISTRY: dict[str, tuple[str, Callable[[], object]]] = {
    "ex3.7-2d": (
        "two coordinates, alternating pivot with halving assigned values",
        lambda: ValuationProgram(("x", "y"), (1, 1), (), _HALVING)),
    "ex3.7-3d": (
        "the alternating pair plus a third coordinate that never pivots",
        lambda: ValuationProgram(("x", "y", "z"), (1, 1, 4), (), _HALVING)),
    "ex5.3-shape": (
        "series valuation with doubling exponent gaps, lifted along (z)",
        lambda: LiftedTrace(SeriesDVR(("x", "y"), GeometricGaps(2)),
                            CoordinatePrime(("x", "y", "z"), ("z",)))),
    "nonarch2d": (
        "the x-adic valuation lifted along (y); y is divided out forever",
        lambda: LiftedTrace(
            ValuationProgram(("x",), (1,), (), (ProgramStep(0),)),
            CoordinatePrime(("x", "y"), ("y",)))),
    "dvr-curve": (
        "series valuation with factorial exponent gaps, followed directly",
        lambda: SeriesDVR(("x", "y"), FactorialGaps())),
}

ALIASES = {"ex3.7": "ex3.7-3d"}


def example_names() -> list[str]:
    """The names of the builtin examples, in registry order."""
    return list(REGISTRY)


def get_example(name: str) -> Example:
    """A freshly built builtin example, by name or alias."""
    target = ALIASES.get(name, name)
    entry = REGISTRY.get(target)
    if entry is None:
        known = ", ".join(example_names())
        raise KeyError(f"unknown example {name!r} (available: {known})")
    description, build = entry
    return Example(target, description, build())
