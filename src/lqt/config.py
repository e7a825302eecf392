"""Config files: user-supplied examples in the sectioned text format.

A plain config is a program file ([vars], [values], optional [preperiod],
[period]).  Two more shapes extend it:

* a [series] section with a single ``<var> = <form>`` line makes the example
  a series valuation over two variables;
* a [pullback] section with a ``prime = [<vars>]`` line lifts a quotient
  valuation along that prime.  The quotient is either a ``series <var> =
  <form>`` line in the same section, or the program sections themselves,
  which are then read over the residue variables.
"""

from __future__ import annotations

import os
import re

from .programs import (PROGRAM_SECTIONS, ProgramFormatError,
                       program_from_sections, read_vars, split_sections)
from .pullback import CoordinatePrime, LiftedTrace
from .registry import Example
from .series import SeriesDVR, parse_stream

# configs are short hand-written files; anything longer is refused unread
MAX_CONFIG_BYTES = 1 << 20

_SERIES_LINE = re.compile(
    r"(?:series\s+)?([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(.+)")
_PRIME_LINE = re.compile(r"prime\s*=\s*\[([^\]]*)\]\s*$")


class ConfigError(ValueError):
    """A config file that describes no example, with the reason."""


def load_config_text(text: str, name: str) -> Example:
    """The example a config text describes, named `name`."""
    try:
        sections = split_sections(text)
    except ProgramFormatError as exc:
        raise ConfigError(str(exc)) from None
    unknown = set(sections) - {*PROGRAM_SECTIONS, "pullback", "series"}
    if unknown:
        raise ConfigError(f"unknown section [{sorted(unknown)[0]}]")
    if "pullback" in sections and "series" in sections:
        raise ConfigError("[pullback] and [series] cannot be combined; put "
                          "the series line inside [pullback]")
    try:
        ambient = read_vars(sections)
        if "pullback" in sections:
            return _pullback_example(sections, ambient, name)
        if "series" in sections:
            return _series_example(sections, ambient, name)
        return Example(name, f"program from config {name}",
                       program_from_sections(sections, ambient))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config_file(path: str) -> Example:
    """Load a UTF-8 config file of at most MAX_CONFIG_BYTES bytes; no more
    than one byte past the cap is read, so an endless file (/dev/zero) is
    refused at once."""
    with open(path, "rb") as handle:
        data = handle.read(MAX_CONFIG_BYTES + 1)
    if len(data) > MAX_CONFIG_BYTES:
        raise ConfigError(f"config of more than {MAX_CONFIG_BYTES} bytes")
    text = data.decode("utf-8")
    name = os.path.splitext(os.path.basename(path))[0]
    return load_config_text(text, name)


def _series_example(sections, ambient, name: str) -> Example:
    lines = sections["series"]
    if len(lines) != 1:
        raise ConfigError("[series] needs exactly one <var> = <form> line")
    for key in ("values", "preperiod", "period"):
        if key in sections:
            raise ConfigError(f"[{key}] does not belong in a series config")
    return Example(name, f"series valuation from config {name}",
                   _parse_series(lines[0], ambient))


def _pullback_example(sections, ambient, name: str) -> Example:
    prime: CoordinatePrime | None = None
    series_line = None
    for lineno, line in sections["pullback"]:
        m = _PRIME_LINE.match(line)
        if m:
            if prime is not None:
                raise ConfigError(f"line {lineno}: prime given twice")
            gens = [g.strip() for g in m.group(1).split(",") if g.strip()]
            prime = CoordinatePrime(ambient, gens)
            continue
        if line.startswith("series"):
            if series_line is not None:
                raise ConfigError(f"line {lineno}: series given twice")
            series_line = (lineno, line)
            continue
        raise ConfigError(f"line {lineno}: expected prime = [...] or "
                          f"series <var> = <form>, got {line!r}")
    if prime is None:
        raise ConfigError("[pullback] needs a prime = [...] line")

    has_program = any(k in sections for k in ("values", "preperiod", "period"))
    if series_line is not None and has_program:
        raise ConfigError("give either a quotient series or quotient program "
                          "sections, not both")

    if series_line is not None:
        quotient = _parse_series(series_line, prime.residue_bases)
    elif has_program:
        quotient = program_from_sections(sections, prime.residue_bases)
    else:
        raise ConfigError("a pullback config needs a quotient: a series line "
                          "or program sections over the residue variables")
    return Example(name, f"pullback from config {name}",
                   LiftedTrace(quotient, prime))


def _parse_series(line_info, bases) -> SeriesDVR:
    lineno, line = line_info
    m = _SERIES_LINE.match(line)
    if not m:
        raise ConfigError(f"line {lineno}: expected <var> = <form>, "
                          f"got {line!r}")
    var, form = m.group(1), m.group(2).strip()
    if len(bases) != 2:
        raise ConfigError(f"line {lineno}: a series valuation needs exactly "
                          f"two variables, got {', '.join(bases)}")
    if var != bases[1]:
        raise ConfigError(f"line {lineno}: the series variable must be the "
                          f"last one ({bases[1]}), got {var!r}")
    return SeriesDVR(bases, parse_stream(form))
