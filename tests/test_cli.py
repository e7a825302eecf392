"""Tests for the command line interface: golden outputs, exit codes, the
table format, and config handling."""

import json
import os

import pytest

from lqt.cli import MAX_BUDGET, MAX_STEPS, Reporter, _agreement, main
from lqt.series import MAX_PRECISION
from lqt.analysis import MembershipVerdict
from lqt.programs import ProgramStep
from lqt.pullback import PullbackVerdict
from golden_cases import GOLDEN_CASES

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


# -- usage errors (exit 2) ------------------------------------------------------------

@pytest.mark.parametrize("argv, fragment", [
    (["run", "--example", "ex3.7-2d", "--config", "x.vp"],
     "either --example or --config"),
    (["run"], "an example is required"),
    (["run", "--example", "nope"], "unknown example 'nope'"),
    (["value", "--example", "ex3.7-2d", "-e", "w + 1"], "bad element"),
    (["run", "--example", "ex3.7-2d", "--budget", "-1"],
     "--budget must be nonnegative"),
    (["run", "--example", "ex3.7-2d", "--precision", "0"],
     "--precision must be positive"),
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


@pytest.mark.parametrize("argv, flag, cap", [
    (["run", "--example", "ex3.7-2d"], "--steps", MAX_STEPS),
    (["value", "--example", "ex3.7-2d", "-e", "y - x"], "--budget",
     MAX_BUDGET),
    (["composite", "--example", "ex5.3-shape", "-e", "(y - x)/z"],
     "--precision", MAX_PRECISION),
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


def test_bad_config_reports_the_path(capsys, tmp_path):
    path = tmp_path / "broken.vp"
    path.write_text("[vars]\nx\n[period]\npivot=x\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2
    assert "bad config" in err
    assert "missing section [values]" in err


def test_argparse_rejects_missing_pieces(capsys):
    with pytest.raises(SystemExit) as info:
        main(["member", "--example", "ex3.7-2d"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


# -- consistency failures (exit 3) ----------------------------------------------------

def test_inconsistent_program_stops_with_exit_3(capsys, tmp_path):
    path = tmp_path / "drift.vp"
    path.write_text(INCONSISTENT_TEXT, encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--config", str(path),
                             "--steps", "2")
    assert code == 3
    assert err.startswith("inconsistent: stage 2, coordinate u")
    code, out, err = run_cli(capsys, "run", "--config", str(path),
                             "--steps", "1")
    assert code == 0


# -- the walk primitive --------------------------------------------------------------

def test_run_takes_one_program_step_per_stage(capsys, monkeypatch):
    calls = []
    next_values = ProgramStep.next_values

    def counted(self, *args):
        calls.append(args[1])
        return next_values(self, *args)

    monkeypatch.setattr(ProgramStep, "next_values", counted)
    code, out, err = run_cli(capsys, "run", "--example", "ex3.7-2d",
                             "--steps", "300")
    assert code == 0
    assert len(out.splitlines()) == 302
    assert calls == list(range(1, 301))


# -- undecided under --strict (exit 4) ------------------------------------------------

def test_strict_flags_undecided_values(capsys):
    args = ["value", "--example", "dvr-curve", "-e", "y - x - x^2",
            "--budget", "1"]
    code, out, err = run_cli(capsys, *args)
    assert code == 0
    assert json.loads(out)["decided"] is False
    code, out, err = run_cli(capsys, *args, "--strict")
    assert code == 4


def test_strict_flags_exhausted_membership(capsys):
    code, out, err = run_cli(capsys, "member", "--example", "ex3.7-2d",
                             "-e", "y/x^2", "--budget", "4", "--strict")
    assert code == 4
    assert json.loads(out)["union"]["verdict"] == "NotWithinBudget"


def test_strict_passes_decided_results(capsys):
    code, out, err = run_cli(capsys, "value", "--example", "ex3.7-2d",
                             "-e", "y - x", "--strict")
    assert code == 0


def test_strict_flags_unstabilized_eapprox(capsys):
    code, out, err = run_cli(capsys, "eapprox", "--example", "ex3.7-2d",
                             "-e", "y/x^2", "--budget", "4", "--strict")
    assert code == 4


# -- agreement bookkeeping ------------------------------------------------------------

def test_agreement_semantics():
    found = MembershipVerdict(2, 8)
    missed = MembershipVerdict(None, 8)
    assert _agreement(found, PullbackVerdict("In")) == "agree"
    assert _agreement(missed, PullbackVerdict("NotIn")) == "agree"
    assert _agreement(found, PullbackVerdict("NotIn")) == "disagree"
    assert _agreement(missed, PullbackVerdict("In")) == "undecided"
    assert _agreement(found, PullbackVerdict("Undecided")) == "undecided"


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
