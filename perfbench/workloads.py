"""The three workloads: seeded inputs, rounds of operations, checks.

A workload is built once per process (its set-up) and then hands out rounds.
Every round holds the same operations in the same order; the seed only picks
their parameters (elements, stages, step counts), and the costly choices
alternate by round number so that no seed draws an unusually heavy run.
Each operation carries a check that runs after it, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction
from pathlib import Path

import lqt
from lqt import cli, parsing

import checks

ROOT = Path(__file__).resolve().parent.parent
CONFIG = Path(__file__).resolve().parent / "configs" / "alt3.cfg"
EXAMPLES = ("ex3.7-2d", "ex3.7-3d", "ex5.3-shape", "nonarch2d", "dvr-curve")


class Op:
    """One timed operation.  ``run`` returns the answer; ``failed`` says
    whether the answer is a failure of the operation itself; ``check``
    lists what is wrong with an answer that did not fail."""

    __slots__ = ("run", "check", "failed")

    def __init__(self, run, check, failed=None):
        self.run = run
        self.check = check
        self.failed = failed or (lambda answer: False)


def _nothing(answer) -> list[str]:
    """The check of an operation whose answer a later operation checks, or
    that has no answer known apart from the program."""
    return []


# -- field-roundtrip ------------------------------------------------------------

def _random_poly_terms(rng: random.Random, nvars: int, lo: int,
                       hi: int) -> dict:
    terms: dict = {}
    count = rng.randint(lo, hi)
    while len(terms) < count:
        exps = tuple(rng.randint(0, 2) for _ in range(nvars))
        terms[exps] = Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]),
                               rng.randint(1, 3))
    return terms


def _step_maps(example, n: int):
    """Forward and backward coordinate changes of walk step n, over the same
    names so they compose."""
    RF = lqt.RationalFunction
    bases = example.ambient
    directive = example.source.directive_at(n)
    pivot = RF.variable(bases[directive.pivot], bases)
    forward, backward = {}, {}
    for j, b in enumerate(bases):
        var = RF.variable(b, bases)
        if j == directive.pivot:
            forward[b] = backward[b] = var
        else:
            shift = RF.constant(directive.translation_of(j), bases)
            forward[b] = var / pivot - shift
            backward[b] = pivot * (var + shift)
    return forward, backward


class FieldRoundtrip:
    """Rational functions through one walk step and back, and the field
    identities (f*g)/g = f and (f+g)-g = f.

    Elements have 2 to 3 numerator terms and 1 to 2 denominator terms with
    exponents up to 2.  Two-term denominators on both sides already put
    single sums above a second (multivariate gcd), which would leave a run's
    figures to the few such draws it happens to make."""

    # A few elements cost 50 to 200 ms against a median of 3 ms; with 400
    # per example, how many a seed's pool held moved ops_per_s by up to
    # 0.3 from seed to seed.
    POOL = 2000
    ROUND_TRIPS = 4
    SAMPLE = 24

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.pools = {}
        self.maps = {}
        self.samples = []
        for name in ("ex3.7-2d", "ex3.7-3d"):
            example = lqt.get_example(name)
            bases = example.ambient
            pool = []
            while len(pool) < self.POOL:
                num = _random_poly_terms(self.rng, len(bases), 2, 3)
                den = _random_poly_terms(self.rng, len(bases), 1, 2)
                f = lqt.RationalFunction(lqt.Polynomial(bases, num),
                                         lqt.Polynomial(bases, den))
                if not f.is_zero():
                    pool.append(f)
                    self.samples.append((num, den, bases, f))
            self.pools[name] = pool
            # the examples' periods have length 2, so two maps cover a walk
            self.maps[name] = {n: _step_maps(example, n) for n in (1, 2)}

    def next_round(self) -> list[Op]:
        rng = self.rng
        ops = []
        for name, pool in self.pools.items():
            for _ in range(self.ROUND_TRIPS):
                f = rng.choice(pool)
                n = rng.randint(1, 50)
                forward, backward = self.maps[name][2 - n % 2]
                ops.append(Op(
                    lambda f=f, b=backward, fw=forward:
                        f.substitute(b).substitute(fw),
                    lambda got, f=f, n=n, name=name: checks.check_equal(
                        f"round trip of {f} through step {n} of {name}",
                        got, f)))
            f, g = rng.sample(pool, 2)
            ops.append(Op(lambda f=f, g=g: (f * g) / g,
                          lambda got, f=f, g=g: checks.check_equal(
                              f"({f})*({g})/({g})", got, f)))
            ops.append(Op(lambda f=f, g=g: (f + g) - g,
                          lambda got, f=f, g=g: checks.check_equal(
                              f"({f})+({g})-({g})", got, f)))
        return ops

    def final_checks(self) -> list[str]:
        sample = random.Random(len(self.samples)).sample(self.samples,
                                                          self.SAMPLE)
        return checks.check_canonical_with_sympy(sample)


# -- walk-queries ---------------------------------------------------------------

def _truncation(exponents) -> str:
    return "y - " + " - ".join("x" if e == 1 else f"x^{e}" for e in exponents)


class WalkQueries:
    """Library queries through one long-lived session per example, with
    every element parsed from text inside the operation.

    The sessions' state caches grow with every element they see, so peak
    memory would track how many rounds a run gets through.  Every
    SESSION_ROUNDS rounds the sessions are replaced and the seeded stream of
    elements starts over, so every generation of sessions does the same
    work, and peak_rss_mib shows the caches of that fixed amount of work."""

    SESSION_ROUNDS = 40

    def __init__(self, seed: int):
        self.seed = seed
        self.examples = {name: lqt.get_example(name) for name in EXAMPLES}
        self.round_index = 0
        self._new_generation()

    def _new_generation(self) -> None:
        self.rng = random.Random(self.seed)
        self.sessions = {name: lqt.AnalysisSession(ex.source)
                         for name, ex in self.examples.items()}
        self.quotient_session = lqt.AnalysisSession(
            self.examples["nonarch2d"].quotient)

    def _parse(self, name: str, text: str):
        return parsing.parse_expr(text, self.examples[name].ambient)

    def _unit(self, c: int | None = None) -> str:
        """A unit factor, which makes each element a new cache key without
        changing its value."""
        return f"(1 + {c or self.rng.randint(2, 999)}*x)"

    def _product_text(self, atoms, unit: int | None = None) -> str:
        rng = self.rng
        parts = [str(rng.choice([-3, -2, -1, 1, 2, 3]))]
        for atom, lowest in atoms:
            e = rng.randint(lowest, 2)
            if e:
                parts.append(f"({atom})^{e}")
        parts.append(self._unit(unit))
        return "*".join(parts)

    def _pair_ops(self, name: str, f: str, g: str,
                  with_sum: bool) -> list[Op]:
        """value_of on f, g and f*g, and on f+g when with_sum; the last
        operation checks that values add on products and obey the
        ultrametric bound."""
        session = self.sessions[name]
        texts = {"f": f, "g": g, "fg": f"({f})*({g})", "sum": f"({f}) + ({g})"}
        answers: dict = {"sum": None}

        def value(key, budget):
            def run():
                answers[key] = session.value_of(self._parse(name, texts[key]),
                                                budget)
                return answers[key]
            return run

        def check_pair(_answer):
            return checks.check_additive(f"{name} f={f} g={g}", answers["f"],
                                         answers["g"], answers["fg"],
                                         answers["sum"])

        keys = ["f", "g", "fg"] + (["sum"] if with_sum else [])
        return [Op(value(key, 8 if key == "sum" else 24),
                   check_pair if key == keys[-1] else _nothing)
                for key in keys]

    def _two_var_ops(self) -> list[Op]:
        """Products and sums on two coordinates, the other queries on one
        factor, and a monomial.  Distinct unit factors keep f+g from
        vanishing."""
        name = "ex3.7-2d"
        session = self.sessions[name]
        atoms = [("x", -2), ("y", -2), ("y - x", -2)]
        u, v = self.rng.sample(range(2, 1000), 2)
        f = self._product_text(atoms, u)
        g = self._product_text(atoms, v)
        return self._pair_ops(name, f, g, with_sum=True) + [
            Op(lambda: session.member(self._parse(name, f), 24),
               _nothing),
            Op(lambda: session.w_approx(
                self._parse(name, f), self._parse(name, "x"), 14), _nothing),
            Op(lambda: session.e_approx(self._parse(name, f), 12),
               _nothing),
            self._monomial_op(name),
        ]

    def _monomial_op(self, name: str) -> Op:
        rng = self.rng
        example = self.examples[name]
        exps = [rng.randint(-2, 3) for _ in example.ambient]
        if not any(exps):
            exps[0] = 1
        coeff = rng.choice([-5, -2, 1, 3, 7])
        text = "*".join([str(coeff)] + [f"{v}^{e}" for v, e in
                                         zip(example.ambient, exps) if e])
        want = checks.value_of_monomial(name, exps)
        session = self.sessions[name]
        return Op(lambda: session.value_of(self._parse(name, text), 24),
                  lambda got: checks.check_value(f"{name} {text}", got, want))

    def next_round(self) -> list[Op]:
        r = self.round_index
        self.round_index += 1
        if r and r % self.SESSION_ROUNDS == 0:
            self._new_generation()
        return (self._two_var_ops() + self._three_var_ops(r)
                + self._shape_ops(r)
                + self._nonarch_ops() + self._curve_ops(r))

    def _three_var_ops(self, r: int) -> list[Op]:
        """Products on three coordinates, and x^a/z^b, which stays outside
        every stage ring, at a budget in the hundreds.  Sums are left to
        ex3.7-2d: with z among the factors a single f+g took up to 0.7 s,
        and the few such draws decided a run's figures."""
        rng = self.rng
        name = "ex3.7-3d"
        session = self.sessions[name]
        atoms = [("x", -2), ("y", -2), ("y - x", -2), ("z", 0)]
        u, v = self.rng.sample(range(2, 1000), 2)
        ops = self._pair_ops(name, self._product_text(atoms, u),
                             self._product_text(atoms, v), with_sum=False)
        ops.append(self._monomial_op(name))
        far = (f"x^{rng.randint(1, 3)}*(1 + {rng.randint(2, 999)}*y)"
               f"/z^{rng.randint(1, 2)}")
        budget = 200 + 100 * (r % 2) + rng.randint(0, 9)
        ops.append(Op(lambda: session.member(self._parse(name, far), budget),
                      lambda got: checks.check_never_not_in(
                          f"{name} {far}", got, budget)))
        return ops

    def _shape_ops(self, r: int) -> list[Op]:
        """Truncation differences of the lifted series, 32 or 64 stages
        deep, and union against pullback membership on mixed elements."""
        rng = self.rng
        name = "ex5.3-shape"
        example = self.examples[name]
        session = self.sessions[name]
        last = 32 if r % 2 == 0 else 64
        a = rng.randint(0, 1)
        gap = checks.next_exponent("geometric", last)
        deep = (f"z^{a}*({_truncation(checks.power_exponents(last))})"
                f"*{self._unit()}")
        mixed = self._corpus_text()
        union = []

        def member():
            union.append(session.member(self._parse(name, mixed), 40))
            return union[0]

        return [
            Op(lambda: lqt.composite_value(
                self._parse(name, deep), example.prime, example.quotient,
                130),
               lambda got: checks.check_composite(f"{name} {deep}", got, a,
                                                  gap)),
            Op(lambda: session.value_of(
                self._parse(name, deep), 130),
               lambda got: checks.check_value(f"{name} {deep}", got,
                                              "inf" if a else gap)),
            Op(member, _nothing),
            Op(lambda: lqt.member_pullback(
                self._parse(name, mixed), example.prime, example.quotient,
                40),
               lambda got: checks.check_agreement(f"{name} {mixed}",
                                                  union[0], got)),
        ]

    def _nonarch_ops(self) -> list[Op]:
        """y/x^k on the lifted x-adic example enters at stage k."""
        name = "nonarch2d"
        example = self.examples[name]
        session = self.sessions[name]
        k = self.rng.randint(1, 80)
        entering = f"y*{self._unit()}/x^{k}"
        union = []

        def member():
            union.append(session.member(self._parse(name, entering), k + 10))
            return union[0]

        return [
            Op(member,
               lambda got: checks.check_stage(f"{name} {entering}", got, k)),
            Op(lambda: lqt.member_pullback(
                self._parse(name, entering), example.prime, example.quotient,
                k + 10, session=self.quotient_session),
               lambda got: checks.check_agreement(f"{name} {entering}",
                                                  union[0], got)),
            Op(lambda: lqt.composite_value(
                self._parse(name, entering), example.prime, example.quotient,
                k + 10, session=self.quotient_session),
               lambda got: checks.check_composite(f"{name} {entering}", got,
                                                  1, -k)),
        ]

    def _curve_ops(self, r: int) -> list[Op]:
        """Truncation differences of the factorial series, 24 or 120 stages
        deep, asked three queries each so the state cache gets hits."""
        name = "dvr-curve"
        session = self.sessions[name]
        last = 24 if r % 2 == 0 else 120
        curve = (f"({_truncation(checks.factorial_exponents(last))})"
                 f"*{self._unit()}")
        want = checks.next_exponent("factorial", last)
        return [
            Op(lambda: session.value_of(
                self._parse(name, curve), 130),
               lambda got: checks.check_value(f"{name} {curve}", got, want)),
            Op(lambda: session.w_approx(
                self._parse(name, curve), self._parse(name, "x"), 30),
               _nothing),
            Op(lambda: session.e_approx(
                self._parse(name, curve), 30), _nothing),
        ]

    def _corpus_text(self) -> str:
        """Elements of ex5.3-shape of mixed membership: polynomials, prime
        multiples over the translated difference, unit denominators, and
        elements with the prime in the denominator."""
        rng = self.rng
        kind = rng.randrange(4)
        p = self._product_text([("x", 0), ("y", 0), ("y - x", 0)])
        if kind == 0:
            return p
        if kind == 1:
            return f"z^{rng.randint(1, 2)}*{p}/(y - x)^{rng.randint(1, 2)}"
        if kind == 2:
            return f"{p}/(1 + {rng.randint(1, 9)}*x*y)"
        return f"{p}/z"

    def final_checks(self) -> list[str]:
        return []


# -- cli-walk -------------------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """lqt.cli.main in-process, with the exit code a shell would see: an
    uncaught exception ends the interpreter with status 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught error is a traceback, status 1
            err.write(f"{type(exc).__name__}: {exc}\n")
            code = 1
    return code, out.getvalue(), err.getvalue()


def _load_golden():
    tests = ROOT / "tests"
    namespace: dict = {}
    exec((tests / "golden_cases.py").read_text(), namespace)
    return [(name, argv, (tests / "golden" / name).read_text())
            for name, argv in namespace["GOLDEN_CASES"]]


DEEP_NESTING = 3000


class CliWalk:
    """Whole lqt commands, each building its example and session afresh."""

    # The step counts put three runs (ex3.7-3d, nonarch2d, alt3) at about
    # the same cost, second only to ex3.7-2d.  With the failing operation
    # on top, the 90th percentile of a 28-operation round falls inside that
    # group rather than on the edge between two costs, where it would jump
    # with the host's speed.
    RUNS = (("ex3.7-2d", 200, "json"), ("ex3.7-3d", 110, "table"),
            ("nonarch2d", 250, "json"), ("ex5.3-shape", 300, "table"),
            ("alt3", 130, "json"))
    MULTIPLICITIES = (("ex3.7-2d", "json"), ("ex3.7-3d", "table"),
                      ("ex5.3-shape", "json"), ("nonarch2d", "table"))

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.golden = _load_golden()
        self.classify = {}
        for name, argv, text in self.golden:
            if argv[0] == "classify":
                self.classify[argv[2]] = text
        self.deep = "(" * DEEP_NESTING + "x" + ")" * DEEP_NESTING

    @staticmethod
    def _cli_op(argv, check, want_code=0) -> Op:
        return Op(lambda: run_cli(argv),
                  lambda answer: check(answer[1]),
                  lambda answer: answer[0] != want_code)

    def next_round(self) -> list[Op]:
        rng = self.rng
        ops = []
        for name, base, fmt in self.RUNS:
            steps = base + rng.randint(0, 19)
            source = (["--config", str(CONFIG)] if name == "alt3"
                      else ["--example", name])
            ops.append(self._cli_op(
                ["run", *source, "--steps", str(steps), "--format", fmt],
                lambda out, n=name, s=steps, f=fmt:
                    checks.check_run(n, s, f, out)))
        for name, fmt in self.MULTIPLICITIES:
            steps = rng.randint(100, 400)
            ops.append(self._cli_op(
                ["multiplicity", "--example", name, "--steps", str(steps),
                 "--sum", "--format", fmt],
                lambda out, n=name, s=steps, f=fmt:
                    checks.check_multiplicity(n, s, f, out)))
        for name in EXAMPLES:
            golden = self.classify[name]
            ops.append(self._cli_op(
                ["classify", "--example", name, "--format", "table"],
                lambda out, n=name, g=golden: checks.check_table(n, out, g)))
        for name, argv, expected in self.golden:
            ops.append(self._cli_op(
                list(argv),
                lambda out, n=name, e=expected:
                    checks.check_golden(n, out, e)))
        ops.append(Op(lambda: run_cli(["value", "--example", "ex3.7-2d",
                                       "-e", self.deep]),
                      _nothing,
                      lambda answer: (answer[0] != cli.EXIT_USAGE
                                      or answer[2].count("\n") != 1)))
        return ops

    def final_checks(self) -> list[str]:
        return []


WORKLOADS = {"field-roundtrip": FieldRoundtrip, "walk-queries": WalkQueries,
             "cli-walk": CliWalk}
