"""Tests for the command line interface: golden outputs, exit codes, the
table format, and config handling."""

import argparse
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from lqt import cli, example_names, get_example
from lqt.cli import (MAX_BUDGET, MAX_STEPS, Reporter, _agreement,
                     build_parser, enc, enc_scaled, main)
from lqt.config import MAX_CONFIG_BYTES, load_config_file
from lqt.analysis import MembershipVerdict
from lqt.programs import (POS_INF, ProgramConsistencyError, ProgramStep,
                          ValuationProgram)
from lqt.pullback import CoordinatePrime, LiftedTrace, PullbackVerdict
from lqt.registry import Example
from golden_cases import GOLDEN_CASES
from helpers import BAD_STEP_LINES, bad_step_program, record_calls

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

PROGRAM_TEXT = """\
[vars]
u v
[values]
u = 1
v = 2
[period]
pivot=u
pivot=u translate v:1->2
"""

INCONSISTENT_TEXT = """\
[vars]
u v
[values]
u = 1
v = 3/2
[period]
pivot=u
"""


COMMANDS = {name[len("cmd_"):] for name in vars(cli)
            if name.startswith("cmd_")}
# the commands that require at least one -e EXPR
ELEMENT_COMMANDS = {"member", "value", "wapprox", "eapprox", "composite"}


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- golden outputs -------------------------------------------------------------------

@pytest.mark.parametrize("filename, argv", GOLDEN_CASES,
                         ids=[name for name, _ in GOLDEN_CASES])
def test_golden_output(capsys, filename, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""
    with open(os.path.join(GOLDEN_DIR, filename), encoding="utf-8") as handle:
        assert out == handle.read()


def test_golden_lines_are_valid_json():
    for filename, _ in GOLDEN_CASES:
        with open(os.path.join(GOLDEN_DIR, filename),
                  encoding="utf-8") as handle:
            for line in handle:
                obj = json.loads(line)
                assert "schema" in obj


# -- the direct run.stage writer ------------------------------------------------------

ALT3 = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                    "configs", "alt3.cfg")


def emitted_run(example: Example, steps: int,
                fmt: str) -> tuple[str, str | None]:
    """`lqt run`'s output with every record printed by Reporter.emit, and
    the message of the inconsistency that stops the walk, if one does: the
    oracle for the stage lines cmd_run writes directly."""
    source = example.source
    bases = tuple(source.bases)
    rep = Reporter(fmt, False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rep.emit({"schema": "run.header", "example": example.name,
                  "kind": example.kind, "bases": list(example.ambient),
                  "description": example.description})
        try:
            for n in range(steps + 1):
                nums, den = source.scaled_vector_at(n)
                rep.emit({"schema": "run.stage", "stage": n,
                          "directive": (source.directive_at(n).describe(bases)
                                        if n else None),
                          "values": [enc_scaled(v, den) for v in nums],
                          "multiplicity": enc_scaled(min(nums), den)})
        except ProgramConsistencyError as exc:
            return out.getvalue(), str(exc)
    return out.getvalue(), None


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("source", [
    *(("--example", name) for name in example_names()),
    ("--config", ALT3)], ids=[*example_names(), "alt3.cfg"])
def test_run_stage_lines_equal_the_general_encoder(capsys, source, fmt):
    code, out, err = run_cli(capsys, "run", *source, "--steps", "300",
                             "--format", fmt)
    assert (code, err) == (0, "")
    flag, name = source
    example = get_example(name) if flag == "--example" else (
        load_config_file(name))
    assert out == emitted_run(example, 300, fmt)[0]
    assert out.count("\n") == 302


_NAME = st.text(min_size=1, max_size=3)
_NONZERO = st.builds(lambda n, sign, d: Fraction(sign * n, d),
                     st.integers(1, 5), st.sampled_from([1, -1]),
                     st.integers(1, 4))
_POSITIVE = st.builds(Fraction, st.integers(1, 5), st.integers(1, 4))


@st.composite
def drawn_walks(draw):
    """A builder of fresh copies of one small program over 2 or 3
    variables with any names, whose steps translate by fractional and
    negative constants; lifted along a prime whose generator comes first,
    or not.  Half the programs draw each step to fit the values it meets,
    so they run until a later pass of the period breaks, if one does; the
    rest mostly break within a stage or two."""
    dim = draw(st.integers(2, 3))
    names = draw(st.lists(_NAME, min_size=dim + 1, max_size=dim + 1,
                          unique=True))
    values = draw(st.lists(_POSITIVE, min_size=dim, max_size=dim))
    at = list(values) if draw(st.booleans()) else None

    def step() -> ProgramStep:
        if at is None:
            pivot = draw(st.integers(0, dim - 1))
            others = draw(st.lists(st.sampled_from(
                [j for j in range(dim) if j != pivot]), unique=True))
        else:
            low = min(at)
            pivot = draw(st.sampled_from(
                [j for j in range(dim) if at[j] == low]))
            others = [j for j in range(dim) if j != pivot and at[j] == low]
        trans = [(j, draw(_NONZERO), draw(_POSITIVE)) for j in others]
        if at is not None:
            low = at[pivot]
            at[:] = [v if j == pivot else v - low for j, v in enumerate(at)]
            for j, _, factor in trans:
                at[j] = factor * low
        return ProgramStep(pivot, trans)

    preperiod = [step() for _ in range(draw(st.integers(0, 2)))]
    period = [step() for _ in range(draw(st.integers(1, 3)))]
    lifted = draw(st.booleans())

    def build() -> Example:
        program = ValuationProgram(names[:dim], values, preperiod, period)
        if not lifted:
            return Example("drawn", "drawn program", program)
        prime = CoordinatePrime((names[dim], *names[:dim]), (names[dim],))
        return Example("drawn", "drawn lifted program",
                       LiftedTrace(program, prime))
    return build


@settings(deadline=None, max_examples=80)
@given(drawn_walks(), st.integers(0, 40), st.sampled_from(["json", "table"]))
def test_drawn_run_stage_lines_equal_the_general_encoder(build, steps, fmt):
    """Names with quotes, backslashes or other characters JSON escapes
    reach the directive text, and the lines before an inconsistency are
    the oracle's too.  The oracle walks a fresh copy of the walk."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            cli.cmd_run(build(), argparse.Namespace(steps=steps),
                        Reporter(fmt, False))
        except ProgramConsistencyError as exc:
            failure = str(exc)
        else:
            failure = None
    assert (out.getvalue(), failure) == emitted_run(build(), steps, fmt)


# -- usage errors (exit 2) ------------------------------------------------------------

@pytest.mark.parametrize("argv, fragment", [
    (["run", "--example", "ex3.7-2d", "--config", "x.vp"],
     "either --example or --config"),
    (["run"], "an example is required"),
    (["run", "--example", "nope"], "unknown example 'nope'"),
    (["value", "--example", "ex3.7-2d", "-e", "w + 1"], "bad element"),
    (["value", "--example", "ex3.7-2d", "-e", "x", "--budget", "-1"],
     "--budget must be nonnegative"),
    (["member", "--example", "ex3.7-2d", "--mode", "both", "-e", "x"],
     "--mode both does not apply"),
    (["run", "--example", "ex3.7-2d", "--steps", "-2"],
     "--steps must be nonnegative"),
    (["member", "--example", "ex3.7-2d", "--mode", "pullback", "-e", "x"],
     "no pullback side"),
    (["composite", "--example", "ex3.7-2d", "-e", "x"],
     "no prime/quotient pair"),
    (["run", "--config", "/no/such/file.vp"], "config file not found"),
    (["value", "--example", "ex3.7-2d", "-e", "0"],
     "the value of zero is undefined"),
    (["wapprox", "--example", "ex3.7-2d", "-e", "y - x", "--ref", "1 + x"],
     "order 0 at stage 0"),
])
def test_usage_errors(capsys, argv, fragment):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert fragment in err


def test_deep_nesting_is_a_one_line_usage_error(capsys):
    deep = "(" * 3000 + "x" + ")" * 3000
    code, out, err = run_cli(capsys, "value", "--example", "ex3.7-2d",
                             "-e", deep)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: bad element")
    assert "nested too deeply" in err
    assert len(err) < 200


def test_oversized_power_is_a_prompt_one_line_usage_error(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "value", "--example", "ex3.7-2d",
                             "-e", "(1+x+y)^3000")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "too large" in err


def test_huge_constant_power_is_a_prompt_one_line_usage_error(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "value", "--example", "ex3.7-2d",
                             "-e", "3^100000000*x")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "bits" in err


EIGHT_FRACTIONS = ("x/(y+z+1) + y/(x+z+2) + z/(x+y+3) + (x+1)/(x+y+z+4)"
                   " + x*y/(x-y+5) + (y+2)/(x+2*z+6) + z^2/(y-z+7)"
                   " + (x-z)/(2*x+y+8)")


@pytest.mark.parametrize("element", [
    EIGHT_FRACTIONS,
    EIGHT_FRACTIONS + " + 1/(x*z+9) + y/(y*z+x+10)",
], ids=["eight-fractions", "ten-fractions"])
def test_short_sums_of_fractions_are_prompt(element):
    # a gcd of the full product of the denominators made these take seconds
    # (eight fractions) and minutes (ten); the subprocess timeout stops a
    # regression well before the suite would stall
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "lqt.cli", "value", "--example", "ex3.7-3d",
         "-e", element], capture_output=True, text=True, env=env, timeout=30)
    assert time.perf_counter() - start < 5
    assert done.returncode == 0, done.stderr
    line, = done.stdout.splitlines()
    assert json.loads(line)["element"] == element


PRODUCT_PROBE = ("((x+y+z+1)^{k} + x)/((x+2*y+z+3)^{k} + y)"
                 " * ((x-y+z+2)^{k}+z)/((x+y-z+1)^{k}+1)")


@pytest.mark.parametrize("example, element", [
    ("ex3.7-3d", PRODUCT_PROBE.format(k=6)),
    ("ex3.7-3d", PRODUCT_PROBE.format(k=8)),
    ("ex3.7-2d", "((x+y)/(x-y+1))^20 + ((x-y)/(x+y+1))^20"),
    ("ex3.7-2d", "(x^400000+1)/(x+2)"),
    ("ex3.7-2d", "(x^99999999999+y)/(x+y)"),
], ids=["product-k6", "product-k8", "power-20-sum", "sparse-power",
        "huge-sparse-power"])
def test_coprime_dense_parts_are_prompt(example, element):
    # the subresultant sequence took 25.8 s (k = 6), over 170 s (k = 8),
    # 9.3 s (the sum) and 9.0 s (x^400000) to prove these parts coprime;
    # the certificate's division loop never ended on x^99999999999
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "lqt.cli", "value", "--example", example,
         "-e", element], capture_output=True, text=True, env=env, timeout=30)
    assert time.perf_counter() - start < 5
    assert done.returncode == 0, done.stderr
    line, = done.stdout.splitlines()
    assert json.loads(line)["element"] == element


ON_THE_CURVE = "(y*(1-x^2) - x + x^2/2)^{}"


@pytest.mark.parametrize("argv, keys, want", [
    (["composite", "-e", ON_THE_CURVE.format(3)], ["decided"], False),
    (["composite", "-e", ON_THE_CURVE.format(8)], ["decided"], False),
    (["member", "--mode", "pullback", "-e", ON_THE_CURVE.format(8)],
     ["pullback", "status"], "Undecided"),
], ids=["composite-cube", "composite-eighth", "member-eighth"])
def test_elements_on_a_rational_series_curve_are_prompt(tmp_path, argv, keys,
                                                        want):
    # the series periodic(1,-1/2) is x(1 - x/2)/(1 - x^2), so these residues
    # vanish on its curve; dense truncations up to degree 1024 made them
    # take 6 s (cube) and over 20 s (eighth power)
    path = tmp_path / "curve.cfg"
    path.write_text("[vars]\nx y z\n[pullback]\nprime = [z]\n"
                    "series y = periodic(1,-1/2)\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "lqt.cli", argv[0], "--config", str(path),
         *argv[1:]], capture_output=True, text=True, env=env, timeout=30)
    assert time.perf_counter() - start < 5
    assert done.returncode == 0, done.stderr
    line, = done.stdout.splitlines()
    record = json.loads(line)
    for key in keys:
        record = record[key]
    assert record == want


@pytest.mark.parametrize("argv, flag, cap", [
    (["run", "--example", "ex3.7-2d"], "--steps", MAX_STEPS),
    (["value", "--example", "ex3.7-2d", "-e", "y - x"], "--budget",
     MAX_BUDGET),
])
def test_walk_flags_are_capped(capsys, argv, flag, cap):
    code, out, err = run_cli(capsys, *argv, flag, str(cap))
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    if flag == "--steps":
        assert len(lines) == cap + 2
    else:
        assert json.loads(lines[0])["decided"] is True
    code, out, err = run_cli(capsys, *argv, flag, str(cap + 1))
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be at most {cap}\n"


# config texts that describe the builtins walk for walk
BUILTIN_CONFIGS = {
    "ex3.7-2d": "[vars]\nx y\n[values]\nx = 1\ny = 1\n[period]\n"
                "pivot=x translate y:1->1/2\npivot=y\n",
    "ex3.7-3d": "[vars]\nx y z\n[values]\nx = 1\ny = 1\nz = 4\n[period]\n"
                "pivot=x translate y:1->1/2\npivot=y\n",
    "ex5.3-shape": "[vars]\nx y z\n[pullback]\nprime = [z]\n"
                   "series y = geometric(2)\n",
    "nonarch2d": "[vars]\nx y\n[pullback]\nprime = [y]\n"
                 "[values]\nx = 1\n[period]\npivot=x\n",
}


@pytest.mark.parametrize("name", sorted(BUILTIN_CONFIGS))
def test_configs_build_the_builtin_walks(capsys, tmp_path, name):
    """A config describing a builtin gives the same walk, and the same
    `run` and `classify` lines apart from the example's name and
    description."""
    path = tmp_path / "same.cfg"
    path.write_text(BUILTIN_CONFIGS[name], encoding="utf-8")
    config, builtin = load_config_file(str(path)), get_example(name)
    if builtin.has_pullback:
        assert config.prime.generators == builtin.prime.generators
        assert config.quotient == builtin.quotient
    else:
        assert config.source == builtin.source

    def lines(*argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        records = [json.loads(line) for line in out.splitlines()]
        for record in records:
            record.pop("example", None)
            record.pop("description", None)
        return records

    for command in (["run", "--steps", "40"], ["classify"]):
        expected = lines(*command, "--example", name)
        assert lines(*command, "--config", str(path)) == expected
        assert len(expected) == (42 if command[0] == "run" else 1)


def test_bad_config_reports_the_path(capsys, tmp_path):
    path = tmp_path / "broken.vp"
    path.write_text("[vars]\nx\n[period]\npivot=x\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2
    assert "bad config" in err
    assert "missing section [values]" in err


@pytest.mark.parametrize("line, message", BAD_STEP_LINES)
def test_bad_config_step_reports_its_line(capsys, tmp_path, line, message):
    path = tmp_path / "bad.cfg"
    path.write_text(bad_step_program(line), encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: bad config {path}: line 7: {message}\n"


def test_argparse_rejects_missing_pieces(capsys):
    with pytest.raises(SystemExit) as info:
        main(["member", "--example", "ex3.7-2d"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv, fragment", [
    (["value", "--example", "ex3.7-2d"], "required: -e/--element"),
    (["run", "--example", "ex3.7-2d", "--bogus"],
     "unrecognized arguments: --bogus"),
    (["run", "--example", "ex3.7-2d", "--format", "xml"],
     "invalid choice: 'xml'"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    (["composite", "--example", "ex5.3-shape", "-e", "x", "--precision",
      "16"], "unrecognized arguments: --precision 16"),
    (["run", "--example", "ex3.7-2d", "--budget", "5"],
     "unrecognized arguments: --budget 5"),
    (["multiplicity", "--example", "ex3.7-2d", "--strict"],
     "unrecognized arguments: --strict"),
    (["classify", "--example", "ex3.7-2d", "--budget", "5"],
     "unrecognized arguments: --budget 5"),
])
def test_argparse_usage_errors_are_one_line(capsys, argv, fragment):
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
    assert fragment in captured.err


def test_unreadable_config_is_a_one_line_usage_error(capsys, tmp_path):
    binary = tmp_path / "binary.vp"
    binary.write_bytes(b"\xff\xfe\x00[vars]\n")
    for path in (tmp_path, binary):
        code, out, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"error: cannot read config {path}: ")


def test_long_argparse_arguments_are_echoed_shortened(capsys):
    long = "z" * 5000
    for argv in ([long], ["run", "--example", "ex3.7-2d", "--steps", long],
                 ["run", "--example", "ex3.7-2d"] + ["q"] * 300):
        with pytest.raises(SystemExit) as info:
            main(argv)
        captured = capsys.readouterr()
        assert info.value.code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")
        assert len(captured.err) < 200


def test_oversized_config_is_a_prompt_one_line_usage_error(capsys, tmp_path):
    fits = tmp_path / "fits.vp"
    fits.write_bytes(PROGRAM_TEXT.encode().ljust(MAX_CONFIG_BYTES, b"#"))
    code, _, err = run_cli(capsys, "run", "--config", str(fits))
    assert (code, err) == (0, "")
    big = tmp_path / "big.vp"
    big.write_bytes(PROGRAM_TEXT.encode().ljust(MAX_CONFIG_BYTES + 1, b"#"))
    for path in (big, "/dev/zero"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "run", "--config", str(path))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err == (f"error: bad config {path}: config of more than "
                       f"{MAX_CONFIG_BYTES} bytes\n")


@pytest.mark.parametrize("text, fragment", [
    ("[vars]\nx y\n[values]\nx = 1\ny = 1e99999\n[period]\npivot=x\n",
     "line 5: rational literal of more than"),
    ("[vars]\nx y\n[values]\nx = 1\ny = 1e1300\n[period]\npivot=x\n",
     "line 5: rational of more than"),
    (f"[vars]\nx y\n[values]\nx = 1\ny = 1\n[period]\n"
     f"pivot=x translate y:1->{'9' * 5000}\n",
     "line 7: rational literal of more"),
    ("[vars]\nx y\n[series]\ny = periodic(1, 1e99999)\n",
     "bad periodic cycle"),
], ids=["value-digits", "value-bits", "translate-digits", "periodic-digits"])
def test_huge_config_rationals_are_a_prompt_one_line_usage_error(
        capsys, tmp_path, text, fragment):
    path = tmp_path / "huge.vp"
    path.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "run", "--config", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert fragment in err
    assert len(err) < 200


def test_repeated_calls_share_no_parser_state(capsys):
    def elements(out: str) -> list[str]:
        return [json.loads(line)["element"] for line in out.splitlines()]

    code, out, _ = run_cli(capsys, "value", "--example", "ex3.7-2d",
                           "-e", "x", "-e", "y")
    assert (code, elements(out)) == (0, ["x", "y"])
    code, out, _ = run_cli(capsys, "value", "--example", "ex3.7-2d",
                           "-e", "y - x")
    assert (code, elements(out)) == (0, ["y - x"])

    code, out, _ = run_cli(capsys, "run", "--example", "ex3.7-2d",
                           "--steps", "3", "--format", "table")
    assert code == 0
    assert len(out.splitlines()) == 5
    assert not out.startswith("{")
    code, out, _ = run_cli(capsys, "run", "--example", "ex3.7-2d")
    assert code == 0
    stages = [json.loads(line) for line in out.splitlines()][1:]
    assert [row["stage"] for row in stages] == list(range(9))

    with pytest.raises(SystemExit):
        main(["member", "--example", "ex3.7-2d", "--mode", "both"])
    assert run_cli(capsys, "run", "--example", "nope")[0] == 2
    for filename, argv in GOLDEN_CASES:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        with open(os.path.join(GOLDEN_DIR, filename),
                  encoding="utf-8") as handle:
            assert out == handle.read(), filename


# -- consistency failures (exit 3) ----------------------------------------------------

def _lifted(text: str) -> str:
    """The program over (u, v) as the quotient of a pullback along w."""
    return text.replace("u v\n", "u v w\n[pullback]\nprime = [w]\n", 1)


INCONSISTENT_LIFTED_TEXT = _lifted(INCONSISTENT_TEXT)
# u grows past the pivot value in the first pass, so stage 2 fails
GROWING_TEXT = """\
[vars]
u v
[values]
u = 1
v = 1
[period]
pivot=v translate u:1->3/2
"""


@pytest.mark.parametrize("argv, text", [
    (["run", "--steps", "2"], INCONSISTENT_TEXT),
    (["multiplicity", "--steps", "3"], INCONSISTENT_TEXT),
    (["classify"], INCONSISTENT_TEXT),
    (["value", "-e", "v - u^2"], INCONSISTENT_TEXT),
    (["member", "--mode", "pullback", "-e", "v - u^2"],
     INCONSISTENT_LIFTED_TEXT),
    (["composite", "-e", "v - u^2"], INCONSISTENT_LIFTED_TEXT),
    (["classify"], GROWING_TEXT),
    (["classify"], _lifted(GROWING_TEXT)),
], ids=["run", "multiplicity", "classify", "value", "member-pullback",
        "composite", "classify-growing", "classify-growing-lifted"])
def test_inconsistent_program_stops_with_exit_3(capsys, tmp_path, argv, text):
    """Whichever command reaches the inconsistent stage exits 3."""
    path = tmp_path / "drift.vp"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, *argv, "--config", str(path))
    assert code == 3
    assert err.startswith("inconsistent: stage 2, coordinate u")
    assert err.count("\n") == 1


def test_inconsistent_program_runs_clean_before_stage_2(capsys, tmp_path):
    path = tmp_path / "drift.vp"
    path.write_text(INCONSISTENT_TEXT, encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--config", str(path),
                             "--steps", "1")
    assert code == 0
    assert err == ""


def test_run_prints_each_stage_before_an_inconsistency(capsys, tmp_path):
    """run steps one stage at a time and prints as it goes: the stages
    before the failing one are on stdout, and the message shows values
    read out of the scaled stage, not its numerators."""
    path = tmp_path / "drift.vp"
    path.write_text("[vars]\nu v\n[values]\nu = 1\nv = 1\n[period]\n"
                    "pivot=u translate v:1->1/2\npivot=u\n",
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--config", str(path),
                             "--steps", "5")
    assert code == 3
    assert out == (
        '{"bases":["u","v"],"description":"program from config drift",'
        '"example":"drift","kind":"program","schema":"run.header"}\n'
        '{"directive":null,"multiplicity":"1","schema":"run.stage",'
        '"stage":0,"values":["1","1"]}\n'
        '{"directive":"pivot=u translate v:1->1/2","multiplicity":"1/2",'
        '"schema":"run.stage","stage":1,"values":["1","1/2"]}\n')
    assert err == ("inconsistent: stage 2, coordinate u: pivot value 1 is "
                   "not minimal: v has value 1/2\n")


def test_opposite_infinite_values_are_a_one_line_usage_error(capsys,
                                                             tmp_path):
    """y/z along the prime (y, z) carries +inf - inf at stage 0: the
    ArithmeticError from Infinite ends in exit 2 like any other fault."""
    path = tmp_path / "two-prime.vp"
    path.write_text("[vars]\nx y z\n[pullback]\nprime = [y, z]\n"
                    "[values]\nx = 1\n[period]\npivot=x\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "value", "--config", str(path),
                             "-e", "y/z")
    assert (code, out) == (2, "")
    assert err == "error: cannot add opposite infinite values\n"


# -- main alone maps a fault to its exit code ----------------------------------------

@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("fault, expected", [
    (ValueError("bad input"), "error: bad input"),
    (ArithmeticError("no answer"), "error: no answer"),
    (ProgramConsistencyError(1, "x", "drift"),
     "inconsistent: stage 1, coordinate x: drift"),
], ids=["ValueError", "ArithmeticError", "ProgramConsistencyError"])
def test_main_maps_every_commands_faults(capsys, monkeypatch, command, fault,
                                        expected):
    def fail(example, args, rep):
        raise fault

    monkeypatch.setattr(cli, f"cmd_{command}", fail)
    argv = [command, "--example", "ex3.7-2d"]
    if command in ELEMENT_COMMANDS:
        argv += ["-e", "x"]
    code, out, err = run_cli(capsys, *argv)
    assert code == (3 if isinstance(fault, ProgramConsistencyError) else 2)
    assert err == expected + "\n"


README_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme_examples() -> list[tuple[str, list[str]]]:
    """Each `$ lqt ...` line of README.md with the output lines under it."""
    with open(README_PATH, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ lqt "):
            rest = lines[i + 1:]
            end = next(k for k, out in enumerate(rest)
                       if out.startswith(("$ ", "```")))
            examples.append((line[len("$ lqt "):], rest[:end]))
    return examples


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("command, expected", README_EXAMPLES,
                         ids=[command for command, _ in README_EXAMPLES])
def test_readme_examples_print_what_they_show(capsys, command, expected):
    code, out, err = run_cli(capsys, *shlex.split(command))
    assert (code, err) == (0, "")
    assert out.splitlines() == expected


def _readme_python_blocks() -> list[list[str]]:
    """The lines of each ```python block of README.md, in order."""
    with open(README_PATH, encoding="utf-8") as handle:
        text = handle.read()
    return [block.splitlines()
            for block in re.findall(r"```python\n(.*?)```", text, re.S)]


def test_readme_python_examples_show_their_results():
    """The ```python blocks of README.md run in order in one namespace, and
    every `expr  # result` line shows `repr(expr)`."""
    checked = re.compile(r"(.*\S)\s{2,}# (.+)")
    namespace: dict = {}
    shown = 0
    for block in _readme_python_blocks():
        pending = []
        for line in block:
            m = checked.fullmatch(line)
            if m is None:
                pending.append(line)
                continue
            exec("\n".join(pending), namespace)
            pending = []
            assert repr(eval(m.group(1), namespace)) == m.group(2), line
            shown += 1
        exec("\n".join(pending), namespace)
    assert shown >= 8


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    return next(action.choices for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))


def test_every_subcommand_has_its_function():
    """main dispatches to cmd_<name> through the module globals, so a
    subcommand without its function would end in a KeyError traceback."""
    assert set(_subparsers()) == COMMANDS


def test_readme_and_parser_name_the_same_flags():
    """Every option of every subcommand (bar --help) is named in an inline
    code span of README.md, by one of its spellings, and every --flag such
    a span names is one of those options."""
    with open(README_PATH, encoding="utf-8") as handle:
        text = re.sub(r"```.*?```", "", handle.read(), flags=re.S)
    words = {word for span in re.findall(r"`([^`\n]+)`", text)
             for word in span.split()}
    options = {tuple(action.option_strings)
               for parser in _subparsers().values()
               for action in parser._actions
               if action.option_strings and "--help" not in
               action.option_strings}
    assert sorted(spellings[-1] for spellings in options
                  if not words & set(spellings)) == []
    known = {flag for spellings in options for flag in spellings}
    assert sorted(word for word in words
                  if word.startswith("--") and word not in known) == []


def test_each_command_takes_the_flags_it_reads():
    """--strict goes only with a command that can leave an answer
    undecided, and --budget and -e only with one asked about elements."""
    common = {"--example", "--config", "--format"}
    elements = common | {"--strict", "--budget", "-e", "--element"}
    assert {name: {flag for action in parser._actions
                   for flag in action.option_strings} - {"-h", "--help"}
            for name, parser in _subparsers().items()} == {
        "run": common | {"--steps"},
        "member": elements | {"--mode"},
        "classify": common | {"--strict"},
        "multiplicity": common | {"--steps", "--sum"},
        "value": elements,
        "wapprox": elements | {"--ref"},
        "eapprox": elements,
        "composite": elements | {"--diagnostic"},
    }


# -- the walk primitive --------------------------------------------------------------

def test_run_takes_one_program_step_per_stage(capsys, monkeypatch):
    calls = record_calls(monkeypatch, ProgramStep, "next_values")
    code, out, err = run_cli(capsys, "run", "--example", "ex3.7-2d",
                             "--steps", "300")
    assert code == 0
    assert len(out.splitlines()) == 302
    # the integer step: next_values(self, nums, den, stage, bases)
    assert [args[3] for args in calls] == list(range(1, 301))


@pytest.mark.parametrize("argv", [
    ["run", "--steps", "300"],
    ["multiplicity", "--steps", "300", "--sum"],
], ids=["run", "multiplicity-sum"])
def test_walk_commands_build_no_fraction(capsys, monkeypatch, argv):
    """Once the example is built, run and multiplicity work on the
    integer stages alone: printing a value takes a gcd, not a Fraction."""
    example = get_example("ex3.7-2d")
    monkeypatch.setattr(cli, "_resolve_example", lambda args: example)
    built = record_calls(monkeypatch, Fraction, "__new__")
    code, out, err = run_cli(capsys, *argv, "--example", "ex3.7-2d")
    assert (code, err) == (0, "")
    assert built == []
    assert len(out.splitlines()) == (302 if argv[0] == "run" else 1)


def test_run_prints_each_steps_own_factors(capsys, tmp_path):
    """Two steps with the same pivot and translation constants differ in
    their assigned factors, and each stage shows its own."""
    path = tmp_path / "factors.vp"
    path.write_text("[vars]\nu v\n[values]\nu = 1\nv = 1\n[period]\n"
                    "pivot=u translate v:1->1\npivot=u translate v:1->2\n"
                    "pivot=u\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--config", str(path),
                             "--steps", "6")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()[1:]]
    cycle = ["pivot=u translate v:1->1", "pivot=u translate v:1->2",
             "pivot=u"]
    assert [row["directive"] for row in rows] == [None] + cycle * 2
    assert [row["values"] for row in rows] == (
        [["1", "1"]] + [["1", "1"], ["1", "2"], ["1", "1"]] * 2)


def test_enc_writes_exact_values_and_refuses_floats():
    assert enc(None) is None
    assert [enc(v) for v in (3, Fraction(-3, 4), Fraction(6, 3), POS_INF,
                             -POS_INF)] == ["3", "-3/4", "2", "inf", "-inf"]
    with pytest.raises(TypeError, match="cannot serialize 0.5"):
        enc(0.5)


# -- undecided under --strict (exit 4) ------------------------------------------------

def test_strict_flags_undecided_values(capsys):
    args = ["value", "--example", "dvr-curve", "-e", "y - x - x^2",
            "--budget", "1"]
    code, out, err = run_cli(capsys, *args)
    assert code == 0
    assert json.loads(out)["decided"] is False
    code, out, err = run_cli(capsys, *args, "--strict")
    assert code == 4
    assert err == "undecided: 1 answer(s) under --strict\n"


def test_strict_flags_exhausted_membership(capsys):
    code, out, err = run_cli(capsys, "member", "--example", "ex3.7-2d",
                             "-e", "y/x^2", "--budget", "4", "--strict")
    assert code == 4
    assert json.loads(out)["union"]["verdict"] == "NotWithinBudget"
    assert err == "undecided: 1 answer(s) under --strict\n"


def test_an_idle_negative_exponent_ends_membership_at_once(capsys):
    """z never pivots nor is translated on ex3.7-3d, so x/z and
    x^3*(1 + 2*y)/z^2 lie in no stage ring, which member answers without
    stepping through the budget."""
    args = ["member", "--example", "ex3.7-3d", "-e", "x/z",
            "-e", "x^3*(1 + 2*y)/z^2", "--budget", "1000"]
    code, out, err = run_cli(capsys, *args)
    assert code == 0
    assert err == ""
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["union"] for r in records] == [
        {"budget": 1000, "verdict": "NotWithinBudget"}] * 2
    code, out, err = run_cli(capsys, *args, "--strict")
    assert code == 4
    assert err == "undecided: 2 answer(s) under --strict\n"


def test_a_negative_value_ends_membership_at_once(capsys):
    """y^3/x^5 on ex3.7-2d has value -2, so it lies in no stage ring, and
    member answers without stepping through the budget, though every
    coordinate keeps being moved."""
    args = ["member", "--example", "ex3.7-2d", "-e", "y^3/x^5",
            "--budget", "1000"]
    code, out, err = run_cli(capsys, *args)
    assert code == 0
    assert err == ""
    record = json.loads(out)
    assert record["union"] == {"budget": 1000, "verdict": "NotWithinBudget"}
    code, strict_out, err = run_cli(capsys, *args, "--strict")
    assert code == 4
    assert strict_out == out
    assert err == "undecided: 1 answer(s) under --strict\n"


def test_strict_passes_decided_results(capsys):
    code, out, err = run_cli(capsys, "value", "--example", "ex3.7-2d",
                             "-e", "y - x", "--strict")
    assert code == 0
    assert err == ""


def test_strict_flags_unstabilized_eapprox(capsys):
    code, out, err = run_cli(capsys, "eapprox", "--example", "ex3.7-2d",
                             "-e", "y/x^2", "--budget", "4", "--strict")
    assert code == 4
    assert err == "undecided: 1 answer(s) under --strict\n"


# the ex3.7-2d walk over (u, v), as the quotient of a pullback along w
HALVING_LIFTED_TEXT = """\
[vars]
u v w
[pullback]
prime = [w]
[values]
u = 1
v = 1
[period]
pivot=u translate v:1->1/2
pivot=v
"""


@pytest.mark.parametrize("argv, key, want", [
    (["member", "--mode", "pullback", "-e", "v - u"], "pullback",
     {"status": "Undecided",
      "detail": "the residue value did not resolve within budget"}),
    (["member", "--mode", "both", "-e", "v - u"], "agreement", "undecided"),
    (["composite", "-e", "w*(v - u)"], "decided", False),
    (["wapprox", "-e", "v - u"], "approximants", ["1", "2"]),
    (["eapprox", "-e", "v - u"], "approximants", ["1", "1"]),
], ids=["member-pullback", "member-both", "composite", "wapprox",
        "eapprox-decided"])
def test_strict_flags_every_undecided_answer(capsys, tmp_path, argv, key,
                                             want):
    """Each command's undecided answer exits 4 under --strict and 0
    without it; the budgets are too short for any of them to resolve."""
    path = tmp_path / "halving.vp"
    path.write_text(HALVING_LIFTED_TEXT, encoding="utf-8")
    budget = "0" if argv[0] in ("member", "composite") else "1"
    args = [*argv, "--config", str(path), "--budget", budget]
    code, out, err = run_cli(capsys, *args)
    assert (code, err) == (0, "")
    line = json.loads(out)
    assert line[key] == want
    if argv[0] == "member" and argv[2] == "both":
        assert line["union"] == {"verdict": "In", "stage": 0}
    if argv[0] == "eapprox":
        assert (line["start"], line["stabilized"]) == (0, False)
    code, _, err = run_cli(capsys, *args, "--strict")
    assert code == 4
    assert err == "undecided: 1 answer(s) under --strict\n"


# -- agreement bookkeeping ------------------------------------------------------------

def test_agreement_semantics():
    found = MembershipVerdict(2, 8)
    missed = MembershipVerdict(None, 8)
    assert _agreement(found, PullbackVerdict("In")) == "agree"
    assert _agreement(missed, PullbackVerdict("NotIn")) == "agree"
    assert _agreement(found, PullbackVerdict("NotIn")) == "disagree"
    assert _agreement(missed, PullbackVerdict("In")) == "undecided"
    assert _agreement(found, PullbackVerdict("Undecided")) == "undecided"


def test_a_disagreement_exits_3_with_one_stderr_line(capsys, monkeypatch):
    """A pullback oracle forced to contradict the union search: the record
    says so, and main writes one line for the exit code 3 it sets."""
    monkeypatch.setattr(cli, "member_pullback",
                        lambda *args: PullbackVerdict("NotIn", "forced"))
    code, out, err = run_cli(capsys, "member", "--example", "ex5.3-shape",
                             "--mode", "both", "-e", "y - x")
    assert code == 3
    assert '"agreement":"disagree"' in out
    assert json.loads(out)["union"]["verdict"] == "In"
    assert err == ("inconsistent: union and pullback disagree on 1 "
                   "element(s)\n")


def test_disagreement_beats_undecided_in_the_exit_code():
    rep = Reporter("json", strict=True)
    rep.undecided = 2
    assert rep.exit_code() == 4
    rep.disagreements = 1
    assert rep.exit_code() == 3
    lax = Reporter("json", strict=False)
    lax.undecided = 2
    assert lax.exit_code() == 0


# -- table format ---------------------------------------------------------------------

def test_table_format_flattens_scalars(capsys):
    code, out, err = run_cli(capsys, "value", "--example", "ex3.7-2d",
                             "-e", "y - x", "--format", "table")
    assert code == 0
    assert out == ("budget: 24  decided: True  element: y - x  "
                   "example: ex3.7-2d  stage: 1  value: 3/2\n")


def test_table_format_brackets_nested_objects(capsys):
    code, out, err = run_cli(capsys, "member", "--example", "ex5.3-shape",
                             "--mode", "both", "-e", "y - x",
                             "--budget", "12", "--format", "table")
    assert code == 0
    assert out == ("agreement: agree  budget: 12  element: y - x  "
                   "example: ex5.3-shape  mode: both  "
                   "pullback: [detail=the residue has value 2 status=In]  "
                   "union: [stage=0 verdict=In]\n")


# -- configs on the full path ---------------------------------------------------------

def test_config_example_runs_end_to_end(capsys, tmp_path):
    path = tmp_path / "walk.vp"
    path.write_text(PROGRAM_TEXT, encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--config", str(path),
                             "--steps", "2")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0]["example"] == "walk"
    assert lines[0]["kind"] == "program"
    assert [row["values"] for row in lines[1:]] == [
        ["1", "2"], ["1", "1"], ["1", "2"]]


def test_pullback_config_supports_member_mode_both(capsys, tmp_path):
    path = tmp_path / "lifted.vp"
    path.write_text("[vars]\nx y\n[pullback]\nprime = [y]\n"
                    "[values]\nx = 1\n[period]\npivot=x\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "member", "--config", str(path),
                             "--mode", "both", "-e", "y/x^3",
                             "--budget", "8")
    assert code == 0
    line = json.loads(out)
    assert line["union"] == {"verdict": "In", "stage": 3}
    assert line["pullback"]["status"] == "In"
    assert line["agreement"] == "agree"
