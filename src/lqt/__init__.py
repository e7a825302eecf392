"""Exact arithmetic along iterated local quadratic transforms.

The pieces: polynomials and rational functions over the rationals with a
parser; transform steps (a pivot and translation constants) and valuation
programs (eventually periodic step sequences carrying values) with a
multiplicity-sum classifier; an analysis session answering membership,
value, and limit-approximant questions about the union of the stage rings;
series-defined valuations; and pullbacks of quotient valuations through
coordinate primes.
"""

from .polynomials import Polynomial, exact_div, poly_gcd
from .functions import RationalFunction
from .parsing import ParseError, parse_expr
from .programs import (Directive, Infinite, MultiplicityClass, NEG_INF,
                       POS_INF, ProgramConsistencyError, ProgramError,
                       ProgramFormatError, ProgramStep, ValuationProgram,
                       ValueVector, classify_multiplicity,
                       multiplicity_sequence, parse_program)
from .series import (CoefficientStream, FactorialGaps, GeometricGaps,
                     PeriodicCoefficients, SeriesDVR, StreamError,
                     parse_stream, series_value)
from .analysis import AnalysisSession, LimitTrace, MembershipVerdict
from .pullback import (CompositeValue, CoordinatePrime, LiftedTrace,
                       PullbackVerdict, ShannonClass, classify_shannon,
                       composite_value, member_RP, member_pullback,
                       quotient_value, residue)
from .registry import Example, example_names, get_example
from .config import ConfigError, load_config_file, load_config_text

__version__ = "0.1.0"

__all__ = [
    "AnalysisSession",
    "CoefficientStream",
    "CompositeValue",
    "ConfigError",
    "CoordinatePrime",
    "Directive",
    "Example",
    "FactorialGaps",
    "GeometricGaps",
    "Infinite",
    "LiftedTrace",
    "LimitTrace",
    "MembershipVerdict",
    "MultiplicityClass",
    "NEG_INF",
    "POS_INF",
    "ParseError",
    "PeriodicCoefficients",
    "Polynomial",
    "ProgramConsistencyError",
    "ProgramError",
    "ProgramFormatError",
    "ProgramStep",
    "PullbackVerdict",
    "RationalFunction",
    "SeriesDVR",
    "ShannonClass",
    "StreamError",
    "ValuationProgram",
    "ValueVector",
    "classify_multiplicity",
    "classify_shannon",
    "composite_value",
    "exact_div",
    "example_names",
    "get_example",
    "load_config_file",
    "load_config_text",
    "member_RP",
    "member_pullback",
    "multiplicity_sequence",
    "parse_expr",
    "parse_program",
    "parse_stream",
    "poly_gcd",
    "quotient_value",
    "residue",
    "series_value",
    "__version__",
]
