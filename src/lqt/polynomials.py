"""Sparse multivariate polynomials with exact rational coefficients.

Terms are stored as a map from exponent tuples to nonzero Fractions, over a
fixed ordered variable list.  The graded lexicographic order on exponent
tuples is used for canonical printing and leading-term normalization only;
it carries no semantic weight.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Mapping, Sequence

Exponents = tuple[int, ...]


def _grlex(e: Exponents) -> tuple[int, Exponents]:
    return (sum(e), e)


class Polynomial:
    """Immutable sparse polynomial over the rationals.

    Construction normalizes: zero coefficients are dropped and all
    coefficients are coerced to Fraction.  Instances hash by value, so they
    can key memoization tables.
    """

    __slots__ = ("variables", "terms", "_hash")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponents, Fraction | int]):
        vs = tuple(variables)
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in terms.items():
            if len(exps) != len(vs):
                raise ValueError(f"exponent vector {exps} does not match {len(vs)} variables")
            c = Fraction(coeff)
            if c != 0:
                clean[tuple(exps)] = c
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _make(cls, variables: tuple[str, ...],
              terms: dict[Exponents, Fraction]) -> Polynomial:
        """Internal constructor: terms must already be clean (nonzero Fractions)."""
        p = object.__new__(cls)
        object.__setattr__(p, "variables", variables)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "_hash", None)
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str]) -> Polynomial:
        return cls(variables, {})

    @classmethod
    def one(cls, variables: Iterable[str]) -> Polynomial:
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): Fraction(1)})

    @classmethod
    def constant(cls, value: Fraction | int, variables: Iterable[str]) -> Polynomial:
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): Fraction(value)})

    @classmethod
    def variable(cls, name: str, variables: Iterable[str]) -> Polynomial:
        vs = tuple(variables)
        i = vs.index(name)
        e = [0] * len(vs)
        e[i] = 1
        return cls(vs, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, exps: Exponents, variables: Iterable[str],
                 coeff: Fraction | int = 1) -> Polynomial:
        return cls(variables, {tuple(exps): Fraction(coeff)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        n = len(self.variables)
        return self.terms == {(0,) * n: Fraction(1)}

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.variables), Fraction(0))

    def is_unit_at_origin(self) -> bool:
        """True iff the constant term is nonzero (unit of the local ring)."""
        return self.constant_term() != 0

    def total_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(sum(e) for e in self.terms)

    def order(self) -> int:
        """Minimal total degree of a term (order of vanishing at the origin)."""
        if not self.terms:
            raise ValueError("zero polynomial has no order")
        return min(sum(e) for e in self.terms)

    def degree_in(self, index: int) -> int:
        if not self.terms:
            return -1
        return max(e[index] for e in self.terms)

    def min_exponents(self) -> Exponents:
        """Componentwise minimum exponent vector over all terms."""
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        mins = None
        for e in self.terms:
            mins = e if mins is None else tuple(min(a, b) for a, b in zip(mins, e))
        return mins  # type: ignore[return-value]

    def leading(self) -> tuple[Exponents, Fraction]:
        """Leading (exponents, coefficient) under graded lex."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex)
        return e, self.terms[e]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: Polynomial) -> None:
        if self.variables != other.variables:
            raise ValueError(
                f"variable lists differ: {self.variables} vs {other.variables}")

    def __add__(self, other: Polynomial) -> Polynomial:
        self._check(other)
        res = dict(self.terms)
        for e, c in other.terms.items():
            s = res.get(e, Fraction(0)) + c
            if s:
                res[e] = s
            elif e in res:
                del res[e]
        return Polynomial._make(self.variables, res)

    def __sub__(self, other: Polynomial) -> Polynomial:
        self._check(other)
        res = dict(self.terms)
        for e, c in other.terms.items():
            s = res.get(e, Fraction(0)) - c
            if s:
                res[e] = s
            elif e in res:
                del res[e]
        return Polynomial._make(self.variables, res)

    def __neg__(self) -> Polynomial:
        return Polynomial._make(self.variables,
                                {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: Polynomial) -> Polynomial:
        self._check(other)
        # multiply the smaller term set into the larger
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        res: dict[Exponents, Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(i + j for i, j in zip(e1, e2))
                s = res.get(e, Fraction(0)) + c1 * c2
                if s:
                    res[e] = s
                elif e in res:
                    del res[e]
        return Polynomial._make(self.variables, res)

    def scale(self, c: Fraction | int) -> Polynomial:
        c = Fraction(c)
        if c == 0:
            return Polynomial.zero(self.variables)
        return Polynomial._make(self.variables,
                                {e: k * c for e, k in self.terms.items()})

    def mul_monomial(self, exps: Exponents, coeff: Fraction | int = 1) -> Polynomial:
        c = Fraction(coeff)
        if c == 0:
            return Polynomial.zero(self.variables)
        return Polynomial._make(self.variables,
                                {tuple(i + j for i, j in zip(e, exps)): k * c
                                 for e, k in self.terms.items()})

    def __pow__(self, n: int) -> Polynomial:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.one(self.variables)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def substitute(self, images: Mapping[str, Polynomial]) -> Polynomial:
        """Substitute polynomials for all variables at once; every image
        must live over one variable list (the target ring)."""
        imgs = [images[v] for v in self.variables]
        target = imgs[0].variables if imgs else self.variables
        return substitute_terms([self.terms.items()], imgs, target)[0]

    def rename(self, variables: Iterable[str]) -> Polynomial:
        """Reinterpret over a same-length variable list (e.g. next chart)."""
        vs = tuple(variables)
        if len(vs) != len(self.variables):
            raise ValueError("variable count mismatch in rename")
        return Polynomial(vs, self.terms)

    def restrict(self, keep: Iterable[str]) -> Polynomial:
        """Project onto a variable subset; dropped variables must not occur."""
        ks = tuple(keep)
        idx = [self.variables.index(v) for v in ks]
        dropped = [i for i in range(len(self.variables)) if i not in idx]
        res: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            if any(e[i] for i in dropped):
                raise ValueError("polynomial involves a dropped variable")
            res[tuple(e[i] for i in idx)] = c
        return Polynomial(ks, res)

    def set_zero(self, names: Iterable[str]) -> Polynomial:
        """Set the named variables to zero, staying in the same ring."""
        drop = {self.variables.index(v) for v in names}
        res: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            if any(e[i] for i in drop):
                continue
            res[e] = res.get(e, Fraction(0)) + c
        return Polynomial(self.variables, res)

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.variables, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- printing ----------------------------------------------------------

    def sorted_terms(self) -> Iterator[tuple[Exponents, Fraction]]:
        for e in sorted(self.terms, key=_grlex, reverse=True):
            yield e, self.terms[e]

    def _monomial_str(self, e: Exponents) -> str:
        parts = []
        for v, k in zip(self.variables, e):
            if k == 1:
                parts.append(v)
            elif k > 1:
                parts.append(f"{v}^{k}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for e, c in self.sorted_terms():
            mono = self._monomial_str(e)
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


def substitute_terms(termsets: Iterable[Iterable[tuple[Exponents, Fraction]]],
                     images: Sequence[Polynomial],
                     target: tuple[str, ...]) -> list[Polynomial]:
    """Evaluate term sets at images given by position.

    Entry i of a term's exponent tuple is the power of images[i]; images
    equal to one are skipped.  The powers are built once and shared by all
    term sets, and each result is a polynomial over `target`.
    """
    if any(img.variables != target for img in images):
        raise ValueError(f"images do not all live in the ring over {target}")
    powers = [[Polynomial.one(target), img] for img in images]
    skip = [img.is_one() for img in images]
    results = []
    for terms in termsets:
        res: dict[Exponents, Fraction] = {}
        for e, c in terms:
            prod = None
            for i, k in enumerate(e):
                if k and not skip[i]:
                    cache = powers[i]
                    while len(cache) <= k:
                        cache.append(cache[-1] * images[i])
                    prod = cache[k] if prod is None else prod * cache[k]
            for f, d in (prod.terms.items() if prod is not None
                         else (((0,) * len(target), 1),)):
                s = res.get(f, 0) + c * d
                if s:
                    res[f] = s
                else:
                    del res[f]
        results.append(Polynomial._make(target, res))
    return results


# -- division and gcd ------------------------------------------------------

def exact_div(a: Polynomial, b: Polynomial) -> Polynomial | None:
    """Exact quotient a/b, or None when b does not divide a."""
    a._check(b)
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return a
    lead_e, lead_c = b.leading()
    quo: dict[Exponents, Fraction] = {}
    rem = a
    while not rem.is_zero():
        re, rc = rem.leading()
        qe = tuple(i - j for i, j in zip(re, lead_e))
        if any(k < 0 for k in qe):
            return None
        qc = rc / lead_c
        quo[qe] = qc
        rem = rem - b.mul_monomial(qe, qc)
    return Polynomial(a.variables, quo)


def divides(b: Polynomial, a: Polynomial) -> bool:
    return exact_div(a, b) is not None


def _monic(p: Polynomial) -> Polynomial:
    _, c = p.leading()
    return p.scale(Fraction(1) / c)


def _integerize(p: Polynomial) -> Polynomial:
    """Scale to integer coefficients with trivial common factor.

    Any constant rescaling leaves divisibility and gcds unchanged; integer
    coefficients keep the remainder sequences far cheaper than rationals
    with growing denominators.
    """
    mult = 1
    for c in p.terms.values():
        mult = mult * c.denominator // gcd(mult, c.denominator)
    ints = {e: int(c * mult) for e, c in p.terms.items()}
    cont = 0
    for v in ints.values():
        cont = gcd(cont, v)
    if cont > 1:
        ints = {e: v // cont for e, v in ints.items()}
    return Polynomial._make(p.variables,
                            {e: Fraction(v) for e, v in ints.items()})


def _strip_monomial(p: Polynomial) -> tuple[Exponents, Polynomial]:
    """Factor out the largest monomial dividing every term."""
    m = p.min_exponents()
    if not any(m):
        return m, p
    stripped = Polynomial(p.variables,
                          {tuple(i - j for i, j in zip(e, m)): c
                           for e, c in p.terms.items()})
    return m, stripped


def _occurring(p: Polynomial) -> set[int]:
    occ: set[int] = set()
    for e in p.terms:
        for i, k in enumerate(e):
            if k:
                occ.add(i)
    return occ


def _as_univar(p: Polynomial, main: int) -> dict[int, Polynomial]:
    """View p as univariate in the main variable with polynomial coefficients."""
    coeffs: dict[int, dict[Exponents, Fraction]] = {}
    for e, c in p.terms.items():
        d = e[main]
        rest = list(e)
        rest[main] = 0
        coeffs.setdefault(d, {})[tuple(rest)] = c
    return {d: Polynomial(p.variables, t) for d, t in coeffs.items()}


def _from_univar(coeffs: Mapping[int, Polynomial], main: int,
                 variables: tuple[str, ...]) -> Polynomial:
    terms: dict[Exponents, Fraction] = {}
    for d, poly in coeffs.items():
        for e, c in poly.terms.items():
            ee = list(e)
            ee[main] += d
            terms[tuple(ee)] = c
    return Polynomial(variables, terms)


class _UPoly:
    """Dense-in-main-variable view used by the subresultant remainder loop."""

    __slots__ = ("coeffs", "main", "variables")

    def __init__(self, coeffs: dict[int, Polynomial], main: int,
                 variables: tuple[str, ...]):
        self.coeffs = {d: c for d, c in coeffs.items() if not c.is_zero()}
        self.main = main
        self.variables = variables

    @property
    def deg(self) -> int:
        return max(self.coeffs) if self.coeffs else -1

    def lc(self) -> Polynomial:
        return self.coeffs[self.deg]

    def is_zero(self) -> bool:
        return not self.coeffs

    def mul_coeff(self, k: Polynomial) -> _UPoly:
        return _UPoly({d: c * k for d, c in self.coeffs.items()},
                      self.main, self.variables)

    def shift(self, n: int) -> _UPoly:
        return _UPoly({d + n: c for d, c in self.coeffs.items()},
                      self.main, self.variables)

    def sub(self, other: _UPoly) -> _UPoly:
        res = dict(self.coeffs)
        for d, c in other.coeffs.items():
            s = res.get(d, Polynomial.zero(self.variables)) - c
            if s.is_zero():
                res.pop(d, None)
            else:
                res[d] = s
        return _UPoly(res, self.main, self.variables)

    def div_coeff_exact(self, k: Polynomial) -> _UPoly:
        out: dict[int, Polynomial] = {}
        for d, c in self.coeffs.items():
            q = exact_div(c, k)
            assert q is not None, "subresultant division was not exact"
            out[d] = q
        return _UPoly(out, self.main, self.variables)


def _pseudo_rem(a: _UPoly, b: _UPoly) -> _UPoly:
    """Pseudo-remainder of a by b in the main variable: prem(a, b)."""
    lb = b.lc()
    n = a.deg - b.deg + 1
    r = a
    while not r.is_zero() and r.deg >= b.deg:
        t = r.lc()
        r = r.mul_coeff(lb).sub(b.mul_coeff(t).shift(r.deg - b.deg))
        n -= 1
    if n > 0:
        r = r.mul_coeff(lb ** n)
    return r


def _univar_content(coeffs: dict[int, Polynomial]) -> Polynomial:
    g = None
    for c in coeffs.values():
        g = c if g is None else poly_gcd(g, c)
        if g.is_one():
            break
    assert g is not None
    return g


def _gcd_univar_rational(a: Polynomial, b: Polynomial, main: int) -> Polynomial:
    """Primitive remainder sequence over the integers, one variable."""
    def as_ints(p: Polynomial) -> dict[int, int]:
        q = _integerize(p)
        return {e[main]: int(c) for e, c in q.terms.items()}

    def primitive(u: dict[int, int]) -> dict[int, int]:
        g = 0
        for c in u.values():
            g = gcd(g, c)
        return u if g == 1 else {d: c // g for d, c in u.items()}

    def prem(x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
        x = dict(x)
        dy = max(y)
        ly = y[dy]
        while x and max(x) >= dy:
            dx = max(x)
            lx = x[dx]
            shift = dx - dy
            for d in list(x):
                x[d] *= ly
            for d, c in y.items():
                nd = d + shift
                s = x.get(nd, 0) - lx * c
                if s:
                    x[nd] = s
                else:
                    x.pop(nd, None)
        return x

    ua, ub = primitive(as_ints(a)), primitive(as_ints(b))
    while ub:
        ua, ub = ub, primitive(prem(ua, ub))
    lead = ua[max(ua)]
    terms: dict[Exponents, Fraction] = {}
    n = len(a.variables)
    for d, c in ua.items():
        e = [0] * n
        e[main] = d
        terms[tuple(e)] = Fraction(c, lead)
    return Polynomial(a.variables, terms)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Greatest common divisor, monic under graded lex.

    Subresultant pseudo-remainder sequence on primitive parts, recursing on
    the coefficient ring through content extraction.  Monomial and univariate
    inputs take direct fast paths.
    """
    a._check(b)
    if a.is_zero() and b.is_zero():
        return a
    if a.is_zero():
        return _monic(b)
    if b.is_zero():
        return _monic(a)
    if a.is_constant() or b.is_constant():
        return Polynomial.one(a.variables)
    if a == b:
        return _monic(a)

    ma, pa = _strip_monomial(a)
    mb, pb = _strip_monomial(b)
    common = tuple(min(i, j) for i, j in zip(ma, mb))
    if pa.is_monomial() or pb.is_monomial():
        # the stripped parts contribute nothing beyond the common monomial
        return Polynomial.monomial(common, a.variables)

    occ = _occurring(pa) | _occurring(pb)
    mono_part = Polynomial.monomial(common, a.variables)
    if len(occ) == 1:
        core = _gcd_univar_rational(pa, pb, occ.pop())
        return mono_part * core if any(common) else core

    main = min(occ)
    pa, pb = _integerize(pa), _integerize(pb)
    ua, ub = _as_univar(pa, main), _as_univar(pb, main)
    ca, cb = _univar_content(ua), _univar_content(ub)
    cont = poly_gcd(ca, cb)
    ppa = _UPoly({d: _exact(c, ca) for d, c in ua.items()}, main, a.variables)
    ppb = _UPoly({d: _exact(c, cb) for d, c in ub.items()}, main, a.variables)
    if ppa.deg < ppb.deg:
        ppa, ppb = ppb, ppa

    g = Polynomial.one(a.variables)
    h = Polynomial.one(a.variables)
    while True:
        delta = ppa.deg - ppb.deg
        r = _pseudo_rem(ppa, ppb)
        if r.is_zero():
            break
        if r.deg == 0:
            # constant-in-main remainder: the primitive gcd is trivial
            ppb = _UPoly({0: Polynomial.one(a.variables)}, main, a.variables)
            break
        divisor = g * h ** delta
        ppa, ppb = ppb, r.div_coeff_exact(divisor)
        g = ppa.lc()
        if delta >= 1:
            hq = exact_div(g ** delta, h ** (delta - 1))
            assert hq is not None
            h = hq
    core = _from_univar(ppb.coeffs, main, a.variables)
    core_cont = _univar_content(_as_univar(core, main))
    core = _exact(core, core_cont)
    result = _monic(cont * core)
    return mono_part * result if any(common) else result


def _exact(a: Polynomial, b: Polynomial) -> Polynomial:
    q = exact_div(a, b)
    assert q is not None, "expected exact divisibility"
    return q
