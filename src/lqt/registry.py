"""Built-in examples and the runtime bundle the CLI works with.

An Example ties together everything a command needs: the ambient variables,
the directive source driving the union ring (a ValuationProgram, a
SeriesTrace or a LiftedTrace), and, for a pullback construction, the
prime/quotient pair.
"""

from __future__ import annotations

from typing import Callable

from .analysis import AnalysisSession
from .programs import ValuationProgram, parse_program
from .pullback import CoordinatePrime, LiftedTrace
from .series import FactorialGaps, GeometricGaps, SeriesDVR, SeriesTrace


class Example:
    """A named, fully materialized analysis target."""

    __slots__ = ("name", "description", "kind", "ambient", "source",
                 "prime", "quotient", "_session")

    def __init__(self, name: str, description: str, kind: str, source,
                 prime: CoordinatePrime | None = None, quotient=None):
        self.name = name
        self.description = description
        self.kind = kind
        self.ambient = tuple(source.bases)
        self.source = source
        self.prime = prime
        self.quotient = quotient
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


def make_program_example(name: str, description: str,
                         program: ValuationProgram) -> Example:
    return Example(name, description, "program", program)


def make_series_example(name: str, description: str,
                        dvr: SeriesDVR) -> Example:
    return Example(name, description, "series", SeriesTrace(dvr))


def make_pullback_example(name: str, description: str,
                          prime: CoordinatePrime, quotient) -> Example:
    if isinstance(quotient, SeriesDVR):
        walk = SeriesTrace(quotient)
    else:
        walk = quotient
    return Example(name, description, "pullback", LiftedTrace(walk, prime),
                   prime=prime, quotient=quotient)


_TWO_VAR = """\
[vars]
x y
[values]
x = 1
y = 1
[period]
pivot=x translate y:1->1/2
pivot=y
"""

_THREE_VAR = """\
[vars]
x y z
[values]
x = 1
y = 1
z = 4
[period]
pivot=x translate y:1->1/2
pivot=y
"""

_XADIC = """\
[vars]
x
[values]
x = 1
[period]
pivot=x
"""


def _build_ex37_2d() -> Example:
    return make_program_example(
        "ex3.7-2d",
        "two coordinates, alternating pivot with halving assigned values",
        parse_program(_TWO_VAR))


def _build_ex37_3d() -> Example:
    return make_program_example(
        "ex3.7-3d",
        "the alternating pair plus a third coordinate that never pivots",
        parse_program(_THREE_VAR))


def _build_ex53_shape() -> Example:
    prime = CoordinatePrime(("x", "y", "z"), ("z",))
    dvr = SeriesDVR(("x", "y"), GeometricGaps(2))
    return make_pullback_example(
        "ex5.3-shape",
        "series valuation with doubling exponent gaps, lifted along (z)",
        prime, dvr)


def _build_nonarch2d() -> Example:
    prime = CoordinatePrime(("x", "y"), ("y",))
    quotient = parse_program(_XADIC)
    return make_pullback_example(
        "nonarch2d",
        "the x-adic valuation lifted along (y); y is divided out forever",
        prime, quotient)


def _build_dvr_curve() -> Example:
    dvr = SeriesDVR(("x", "y"), FactorialGaps())
    return make_series_example(
        "dvr-curve",
        "series valuation with factorial exponent gaps, followed directly",
        dvr)


REGISTRY: dict[str, Callable[[], Example]] = {
    "ex3.7-2d": _build_ex37_2d,
    "ex3.7-3d": _build_ex37_3d,
    "ex5.3-shape": _build_ex53_shape,
    "nonarch2d": _build_nonarch2d,
    "dvr-curve": _build_dvr_curve,
}

ALIASES = {"ex3.7": "ex3.7-3d"}


def example_names() -> list[str]:
    """The names of the builtin examples, in registry order."""
    return list(REGISTRY)


def get_example(name: str) -> Example:
    """A freshly built builtin example, by name or alias."""
    target = ALIASES.get(name, name)
    build = REGISTRY.get(target)
    if build is None:
        known = ", ".join(example_names())
        raise KeyError(f"unknown example {name!r} (available: {known})")
    return build()
