"""Exact arithmetic along iterated local quadratic transforms.

The pieces: polynomials and rational functions over the rationals with a
parser; coordinate charts driven by pivot/translate directives; valuation
programs (eventually periodic directive sequences carrying values) with a
multiplicity-sum classifier; an analysis session answering membership,
value, and limit-approximant questions about the union of the stage rings;
series-defined valuations; and pullbacks of quotient valuations through
coordinate primes.
"""

from .polynomials import Polynomial, exact_div, poly_gcd
from .functions import RationalFunction, monomial_unit_parts, ord_at_origin
from .parsing import ParseError, parse_expr
from .charts import (Chart, Directive, apply_directive, express_in_chart,
                     in_ring, monomial_unit_split, ord_n)
from .programs import (Infinite, MultiplicityClass, NEG_INF, POS_INF,
                       ProgramConsistencyError, ProgramError,
                       ProgramFormatError, ProgramStep, ValuationProgram,
                       ValueVector, classify_multiplicity,
                       multiplicity_sequence, parse_program,
                       serialize_program)
from .series import (CoefficientStream, FactorialGaps, GeometricGaps,
                     PeriodicCoefficients, SeriesDVR, SeriesTrace,
                     StreamError, parse_stream, series_value)
from .analysis import AnalysisSession, LimitTrace, MembershipVerdict
from .pullback import (CompositeValue, CoordinatePrime, LiftedTrace,
                       PullbackVerdict, ShannonClass, classify_shannon,
                       composite_value, induced_quotient_program, in_prime,
                       lift_along, member_RP, member_pullback, quotient_value,
                       residue)
from .registry import Example, example_names, get_example
from .config import ConfigError, load_config_file, load_config_text

__version__ = "0.1.0"

__all__ = [
    "AnalysisSession",
    "Chart",
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
    "SeriesTrace",
    "ShannonClass",
    "StreamError",
    "ValuationProgram",
    "ValueVector",
    "apply_directive",
    "classify_multiplicity",
    "classify_shannon",
    "composite_value",
    "exact_div",
    "example_names",
    "express_in_chart",
    "get_example",
    "in_prime",
    "in_ring",
    "induced_quotient_program",
    "lift_along",
    "load_config_file",
    "load_config_text",
    "member_RP",
    "member_pullback",
    "monomial_unit_parts",
    "monomial_unit_split",
    "multiplicity_sequence",
    "ord_at_origin",
    "ord_n",
    "parse_expr",
    "parse_program",
    "parse_stream",
    "poly_gcd",
    "quotient_value",
    "residue",
    "serialize_program",
    "series_value",
    "__version__",
]
