"""Sparse multivariate polynomials with exact rational coefficients.

Terms are stored as a map from exponent tuples to nonzero coefficients, over
a fixed ordered variable list.  A whole coefficient is a Python int and any
other one a Fraction with denominator > 1 (never a float, never a whole
Fraction), so walk steps and integer input run on machine-word ints; an int
compares and hashes equal to the whole Fraction it stands for.  The graded
lexicographic order on exponent tuples is used for canonical printing and
leading-term normalization only; it carries no semantic weight.

`add_terms`, `mul_terms`, `shift_terms`, `pow_terms` and `substitute_terms`
are the term-map kernel: the sum, product, monomial quotient, power and
substitution of term maps, behind `Polynomial`'s arithmetic.  The first
four assume no sign of the exponents, so the parser runs them on Laurent
term maps too, and a power of one term may be negative.

Substitution (`substitute_terms`, behind `Polynomial.substitute`,
`RationalFunction.substitute` and every translated walk step) returns
term maps, so a caller that reshapes the result builds its `Polynomial`
once.  It splits every image into a monomial and a cofactor: the monomials
become exponent shifts, constant cofactors become coefficient factors, and
only the powers of non-constant cofactors are multiplied out, once per
distinct combination of powers rather than once per term.

The gcd and its cofactors (`cofactors`, with `poly_gcd` its first entry)
are taken after the common monomial is split off.  `_coprime` first
tries to prove the parts coprime from images modulo p = 2^61 - 1.  A
common factor has positive degree only in a variable v in which both
parts do; for each such v, every other variable is put at a fixed nonzero
residue (`_point`, by index, so answers and timings repeat) and the
Euclidean remainder sequence of the sparse images in v runs over Z/p; a
degree far above the divisor's is reduced term by term, by squaring, so
x^99999999999 costs its bits rather than its size.  If
both images keep their degree in v and their gcd is constant, no common
factor g has positive degree in v: g, primitive over the integers,
divides each part scaled to integers (Gauss's lemma), so its image divides
both images and, as its leading coefficient in v divides theirs, which do
not vanish, keeps a positive degree.  A degree that drops, a denominator
that p divides or an image gcd that is not constant proves nothing.  Then
one subresultant pseudo-remainder sequence gives the gcd for every number
of variables.  Its inputs are scaled to integer coefficients and nested
over the n variables that occur: level 0 is an int and level k a dict from
exponents of the k-th variable to nonzero level k-1 values (zero is 0 or
{}).  `_gcd` at level k takes contents with itself at level k-1, and the
cofactors are exact quotients (`_quo`) at the same level, so no division
of `Polynomial`s is made.  No package module calls `exact_div`; it stays
as the tests' division oracle while the benchmark's tracer still wraps it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import add, sub
from typing import Iterable, Iterator, Mapping, Sequence

Exponents = tuple[int, ...]
Coefficient = int | Fraction


def coefficient(c) -> Coefficient:
    """c as a coefficient: an int when it is whole, else a Fraction.  A
    float is refused, since it is rarely the rational it was meant to be."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"float coefficient {c!r}; use an int or a Fraction")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _wholes(terms: dict) -> dict:
    """terms, with every whole Fraction value made an int in place."""
    for e, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[e] = c.numerator
    return terms


def add_terms(a: Mapping[Exponents, Coefficient],
              b: Mapping[Exponents, Coefficient]) -> dict:
    """The term map of the sum of two term maps."""
    res = dict(a)
    for e, c in b.items():
        s = res.get(e)
        if s is None:
            res[e] = c
        elif s := s + c:
            res[e] = s
        else:
            del res[e]
    return _wholes(res)


def mul_terms(a: Mapping[Exponents, Coefficient],
              b: Mapping[Exponents, Coefficient]) -> dict:
    """The term map of the product of two term maps."""
    # multiply the smaller term set into the larger
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        # a monomial shifts and scales the other's terms; none collide
        (e1, c1), = a.items()
        return _wholes({tuple(map(add, e1, e2)): c1 * c2
                        for e2, c2 in b.items()})
    return _wholes(_mul_into({}, a, b))


def _mul_into(res: dict, a: Mapping[Exponents, Coefficient],
              b: Mapping[Exponents, Coefficient]) -> dict:
    """res + a*b, accumulated into res in place; whole Fractions are left
    for the caller to make ints."""
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            s = res.get(e)
            if s is None:
                res[e] = c1 * c2
            elif s := s + c1 * c2:
                res[e] = s
            else:
                del res[e]
    return res


def shift_terms(a: Mapping[Exponents, Coefficient], m: Exponents) -> dict:
    """The term map of a divided by the monomial with exponents m, which
    must divide every term."""
    return {tuple(map(sub, e, m)): c for e, c in a.items()}


def pow_terms(a: Mapping[Exponents, Coefficient], n: int,
              one: Exponents) -> Mapping[Exponents, Coefficient]:
    """The term map of a ** n, for `one` the exponents of a constant; it may
    be a itself.  One term scales its exponents and takes any n, as Laurent
    maps need; other maps take n >= 0, and are squared and multiplied."""
    if not n:
        return {one: 1}
    if len(a) == 1:
        (e, c), = a.items()
        c = c ** n if n > 0 else Fraction(1, c) ** -n
        return {tuple(k * n for k in e): coefficient(c)}
    if n < 0:
        raise ValueError("negative power of zero or of several terms")
    result = a
    if a:  # zero's exponent may be huge, and each power of it is zero
        for bit in f"{n:b}"[1:]:
            result = mul_terms(result, result)
            if bit == "1":
                result = mul_terms(result, a)
    return result


def _grlex(e: Exponents) -> tuple[int, Exponents]:
    return (sum(e), e)


class Polynomial:
    """Immutable sparse polynomial over the rationals.

    Construction normalizes: zero coefficients are dropped, whole ones
    become ints and the others Fractions.  Instances hash by value, so they
    can key memoization tables.
    """

    __slots__ = ("variables", "terms", "_hash")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponents, Fraction | int]):
        vs = tuple(variables)
        clean: dict[Exponents, Coefficient] = {}
        for exps, coeff in terms.items():
            if len(exps) != len(vs):
                raise ValueError(f"exponent vector {exps} does not match {len(vs)} variables")
            c = coefficient(coeff)
            if c:
                clean[tuple(exps)] = c
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _make(cls, variables: tuple[str, ...],
              terms: dict[Exponents, Coefficient]) -> Polynomial:
        """Internal constructor: terms must already be clean (nonzero, whole
        coefficients ints)."""
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
        return cls._make(vs, {(0,) * len(vs): 1})

    @classmethod
    def constant(cls, value: Fraction | int, variables: Iterable[str]) -> Polynomial:
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): value})

    @classmethod
    def variable(cls, name: str, variables: Iterable[str]) -> Polynomial:
        vs = tuple(variables)
        i = vs.index(name)
        e = [0] * len(vs)
        e[i] = 1
        return cls._make(vs, {tuple(e): 1})

    @classmethod
    def monomial(cls, exps: Exponents, variables: Iterable[str],
                 coeff: Fraction | int = 1) -> Polynomial:
        return cls(variables, {tuple(exps): coeff})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        if len(self.terms) != 1:
            return False
        (e, c), = self.terms.items()
        return c == 1 and not any(e)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_term(self) -> Coefficient:
        return self.terms.get((0,) * len(self.variables), 0)

    def is_unit_at_origin(self) -> bool:
        """True iff the constant term is nonzero (unit of the local ring)."""
        return self.constant_term() != 0

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
        return tuple(map(min, zip(*self.terms)))

    def leading(self) -> tuple[Exponents, Coefficient]:
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
        return Polynomial._make(self.variables,
                                add_terms(self.terms, other.terms))

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + -other

    def __neg__(self) -> Polynomial:
        return Polynomial._make(self.variables,
                                {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: Polynomial) -> Polynomial:
        self._check(other)
        if self.is_one():
            return other
        if other.is_one():
            return self
        return Polynomial._make(self.variables,
                                mul_terms(self.terms, other.terms))

    def scale(self, c: Fraction | int) -> Polynomial:
        c = coefficient(c)
        if not c:
            return Polynomial.zero(self.variables)
        return Polynomial._make(self.variables,
                                _wholes({e: k * c for e, k in self.terms.items()}))

    def __pow__(self, n: int) -> Polynomial:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return Polynomial._make(self.variables, pow_terms(
            self.terms, n, (0,) * len(self.variables)))

    def substitute(self, images: Mapping[str, Polynomial]) -> Polynomial:
        """Substitute polynomials for all variables at once; every image
        must live over one variable list (the target ring)."""
        imgs = [images[v] for v in self.variables]
        target = imgs[0].variables if imgs else self.variables
        return Polynomial._make(
            target, substitute_terms([self.terms.items()], imgs, target)[0])

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

    def sorted_terms(self) -> Iterator[tuple[Exponents, Coefficient]]:
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


def substitute_terms(termsets: Iterable[Iterable[tuple[Exponents, Coefficient]]],
                     images: Sequence[Polynomial],
                     target: tuple[str, ...]) -> list[dict]:
    """The term maps of term sets evaluated at images given by position.

    Entry i of a term's exponent tuple is the power of images[i].  Each
    image is split as monomial m_i times cofactor r_i, and no polynomial
    product is built per term:

    - a zero image kills every term that uses it;
    - a constant cofactor c folds into the term's coefficient as c^k;
    - a term prod x_i^k_i adds the exponent shift sum k_i*m_i;
    - terms are grouped by their powers of the non-constant cofactors, and
      each group's product prod r_i^k_i is built once from a power cache,
      then spread over the group's shifted coefficients.

    The power cache and the group products are shared by all term sets, so
    passing a numerator and a denominator together builds each once.  Each
    result is a clean term map (nonzero coefficients, whole ones ints) over
    `target`, ready for `Polynomial._make`.
    """
    if any(img.variables != target for img in images):
        raise ValueError(f"images do not all live in the ring over {target}")
    # per image: the monomial as sparse (index, exponent) pairs, or None for
    # a zero image, and the constant cofactor, or None when it is not constant
    monos: list[list[tuple[int, int]] | None] = []
    scalars: list[Coefficient | None] = []
    powers: dict[int, list[dict]] = {}
    for i, img in enumerate(images):
        if img.is_zero():
            monos.append(None)
            scalars.append(None)
            continue
        if img.is_monomial():
            (m, c), = img.terms.items()
            scalars.append(c)
        else:
            # several terms stay several after the monomial is stripped
            m = img.min_exponents()
            scalars.append(None)
            powers[i] = [{(0,) * len(target): 1},
                         shift_terms(img.terms, m)]
        monos.append([(j, k) for j, k in enumerate(m) if k])
    products: dict[tuple[tuple[int, int], ...], dict] = {}
    results = []
    for terms in termsets:
        groups: dict[tuple[tuple[int, int], ...], dict[Exponents, Coefficient]] = {}
        for e, c in terms:
            shift = [0] * len(target)
            key = []
            for i, k in enumerate(e):
                if not k:
                    continue
                mono = monos[i]
                if mono is None:
                    break
                for j, mj in mono:
                    shift[j] += k * mj
                r = scalars[i]
                if r is None:
                    key.append((i, k))
                elif r != 1:
                    c = c * r ** k
            else:
                group = groups.setdefault(tuple(key), {})
                t = tuple(shift)
                s = group.get(t, 0) + c
                if s:
                    group[t] = s
                else:
                    del group[t]
        res = groups.pop((), {})
        for key, group in groups.items():
            prod = products.get(key)
            if prod is None:
                for i, k in key:
                    cache = powers[i]
                    while len(cache) <= k:
                        cache.append(mul_terms(cache[-1], cache[1]))
                    prod = cache[k] if prod is None else mul_terms(prod,
                                                                   cache[k])
                products[key] = prod
            _mul_into(res, group, prod)
        results.append(_wholes(res))
    return results


# -- division and gcd ------------------------------------------------------

def exact_div(a: Polynomial, b: Polynomial) -> Polynomial | None:
    """Exact quotient a/b, or None when b does not divide a."""
    a._check(b)
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    lead_e, lead_c = b.leading()
    quo: dict[Exponents, Coefficient] = {}
    rem = a.terms
    while rem:
        re = max(rem, key=_grlex)
        qe = tuple(map(sub, re, lead_e))
        if any(k < 0 for k in qe):
            return None
        quo[qe] = qc = Fraction(rem[re], lead_c)
        rem = add_terms(rem, mul_terms({qe: -qc}, b.terms))
    return Polynomial(a.variables, quo)


def _shift(p: Polynomial, m: Exponents) -> Polynomial:
    """p divided by the monomial with exponents m, which must divide it."""
    if not any(m):
        return p
    return Polynomial._make(p.variables, shift_terms(p.terms, m))


_NESTED_ONES: list = [1]


def _one(k: int):
    """One at level k.  The value is shared, so no caller may mutate it:
    every nested operation builds its result in a fresh dict."""
    while len(_NESTED_ONES) <= k:
        _NESTED_ONES.append({0: _NESTED_ONES[-1]})
    return _NESTED_ONES[k]


def _acc(r: dict, d: int, c, k: int) -> None:
    """r[d] += c in place, for r at level k and c at level k-1."""
    s = _add(r[d], c, k - 1) if d in r else c
    if s:
        r[d] = s
    else:
        del r[d]


def _add(a, b, k: int):
    if not k:
        return a + b
    r = dict(a)
    for d, c in b.items():
        _acc(r, d, c, k)
    return r


def _neg(a, k: int):
    return {d: _neg(c, k - 1) for d, c in a.items()} if k else -a


def _mul(a, b, k: int):
    if not k:
        return a * b
    r: dict = {}
    for d, c in a.items():
        for e, f in b.items():
            _acc(r, d + e, _mul(c, f, k - 1), k)
    return r


def _pow(a, n: int, k: int):
    r = _one(k)
    for _ in range(n):
        r = _mul(r, a, k)
    return r


def _quo(a, b, k: int):
    """Exact quotient a/b at level k."""
    if not k:
        q, r = divmod(a, b)
        assert not r, "nested division was not exact"
        return q
    db = max(b)
    lb = b[db]
    r, q = dict(a), {}
    while r:
        dr = max(r)
        assert dr >= db, "nested division was not exact"
        q[dr - db] = t = _quo(r.pop(dr), lb, k - 1)
        t = _neg(t, k - 1)
        for d, c in b.items():
            if d != db:
                _acc(r, d + dr - db, _mul(t, c, k - 1), k)
    return q


def _prem(a: dict, b: dict, k: int) -> dict:
    """Full pseudo-remainder of a by b in the level-k variable:
    lc(b)^(deg a - deg b + 1) * a reduced modulo b."""
    db = max(b)
    lb = b[db]
    r = a
    n = max(a) - db + 1
    while r and max(r) >= db:
        dr = max(r)
        t = _neg(r[dr], k - 1)
        r = _mul(r, {0: lb}, k)
        del r[dr]
        for d, c in b.items():
            if d != db:
                _acc(r, d + dr - db, _mul(t, c, k - 1), k)
        n -= 1
    return _mul(r, {0: _pow(lb, n, k - 1)}, k) if n > 0 and r else r


def _primitive(a: dict, k: int) -> tuple:
    """The content of a (the gcd of its level k-1 coefficients) and its
    primitive part."""
    one = _one(k - 1)
    values = iter(a.values())
    c = next(values)
    for x in values:
        if c == one:
            break
        c = _gcd(c, x, k - 1)
    return c, _div_coeffs(a, c, k)


def _div_coeffs(a: dict, c, k: int) -> dict:
    """a with every coefficient divided exactly by c (level k-1)."""
    if c == _one(k - 1):
        return a
    return {d: _quo(x, c, k - 1) for d, x in a.items()}


def _gcd(a, b, k: int):
    """gcd of nonzero a and b at level k, up to sign: the gcd of the
    contents times the primitive part of the last nonzero subresultant."""
    if not k:
        return gcd(a, b)
    ca, a = _primitive(a, k)
    cb, b = _primitive(b, k)
    cont = _gcd(ca, cb, k - 1)
    if max(a) < max(b):
        a, b = b, a
    g = h = _one(k - 1)
    while max(b):
        delta = max(a) - max(b)
        r = _prem(a, b, k)
        if not r:
            return _mul(_primitive(b, k)[1], {0: cont}, k)
        a, b = b, _div_coeffs(r, _mul(g, _pow(h, delta, k - 1), k - 1), k)
        g = a[max(a)]
        if delta == 1:
            h = g
        elif delta:
            h = _quo(_pow(g, delta, k - 1), _pow(h, delta - 1, k - 1), k - 1)
    # a remainder constant in the level-k variable: the primitive gcd is one
    return {0: cont}


def _nest(terms: Mapping[Exponents, Coefficient],
          order: Sequence[int]) -> tuple[int, dict]:
    """A term map scaled to integer coefficients, nested over the variables
    at the indices in order (innermost first), with the integer scale."""
    mult = 1
    for c in terms.values():
        mult = lcm(mult, c.denominator)
    outer = order[:0:-1]
    root: dict = {}
    for e, c in terms.items():
        node = root
        for i in outer:
            node = node.setdefault(e[i], {})
        node[e[order[0]]] = c.numerator * (mult // c.denominator)
    return mult, root


def _unnest(root: dict, order: Sequence[int],
            base: Exponents) -> list[tuple[Exponents, int]]:
    """The terms of root, nested over the variables at the indices in
    order, with their exponents shifted by base."""
    terms = [(base, root)]
    for i in reversed(order):
        terms = [(e[:i] + (e[i] + d,) + e[i + 1:], x)
                 for e, c in terms for d, x in c.items()]
    return terms


def _scaled(variables: tuple[str, ...], terms: list[tuple[Exponents, int]],
            num: int, den: int) -> Polynomial:
    """The integer terms times num/den."""
    out: dict[Exponents, Coefficient] = {}
    for e, c in terms:
        q, r = divmod(c * num, den)
        out[e] = Fraction(c * num, den) if r else q
    return Polynomial._make(variables, out)


# the Mersenne prime 2^61 - 1, modulo which the coprimality certificate works
_P = (1 << 61) - 1


@cache
def _point(i: int) -> int:
    """The fixed nonzero residue for the i-th variable: a splitmix64 hash
    of i, so no simple relation such as y = 2x holds between points."""
    z = (i + 1) * 0x9E3779B97F4A7C15 % (1 << 64)
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 % (1 << 64)
    z = (z ^ z >> 27) * 0x94D049BB133111EB % (1 << 64)
    return (z ^ z >> 31) % (_P - 1) + 1


def _image(terms: Mapping[Exponents, Coefficient], v: int,
           points: Sequence[int]) -> dict[int, int]:
    """terms modulo _P with every variable but the v-th at its point: a
    sparse map from degrees in v to nonzero residues.  A denominator that
    _P divides makes `pow` raise ValueError."""
    img: dict[int, int] = {}
    for e, r in terms.items():
        if type(r) is not int:
            r = r.numerator * pow(r.denominator, -1, _P)
        for j, k in enumerate(e):
            if k and j != v:
                r *= pow(points[j], k, _P)
        img[e[v]] = img.get(e[v], 0) + r
    return {d: s for d, r in img.items() if (s := r % _P)}


def _rem_by_squaring(r: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """r modulo nonzero b, both sparse images modulo _P: each term x^d
    becomes x^d mod b, found by squaring in O(deg(b)^2 log d) steps, so a
    huge sparse degree costs its bits, not its size."""
    db = max(b)
    inv = pow(b[db], -1, _P)
    # x^db modulo b, as (degree, coefficient) pairs
    low = [(d, -c * inv % _P) for d, c in b.items() if d != db]

    def reduced(w: list[int]) -> list[int]:
        for k in range(len(w) - 1, db - 1, -1):
            if t := w[k] % _P:
                for d, c in low:
                    w[k - db + d] += t * c
        return [s % _P for s in w[:db]]

    def times(u: list[int], v: list[int]) -> list[int]:
        w = [0] * (len(u) + len(v))
        for i, a in enumerate(u):
            if a:
                for j, c in enumerate(v):
                    w[i + j] += a * c
        return reduced(w)

    rem = [0] * db
    squares = [reduced([0, 1])]  # x^(2^i) modulo b at index i
    for d, c in r.items():
        if d < db:
            rem[d] += c
            continue
        term = reduced([c])
        for i in range(d.bit_length()):
            if i == len(squares):
                squares.append(times(squares[-1], squares[-1]))
            if d >> i & 1:
                term = times(term, squares[i])
        for k, t in enumerate(term):
            rem[k] += t
    return {d: s for d, t in enumerate(rem) if (s := t % _P)}


def _rem_mod(r: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """r reduced modulo nonzero b, both sparse images modulo _P, up to a
    unit.  Each step of the division loop scales r in place by lc(b), so
    nothing is inverted, and takes off one degree; a degree far above b's
    goes to `_rem_by_squaring` instead."""
    db = max(b)
    lb = b[db]
    # b's lower terms as (degree below its leading one, coefficient)
    tail = [(d - db, c) for d, c in b.items() if d != db]
    # the loop takes up to max(r) steps of about db + len(r) terms each,
    # squaring about len(r) * log max(r) products of db^2 terms each
    far = 64 * len(r) * (db + 1)
    while r and (dr := max(r)) >= db:
        if dr > far:
            return _rem_by_squaring(r, b)
        q = r.pop(dr)
        for d in r:
            r[d] = r[d] * lb % _P
        for d, c in tail:
            d += dr
            if s := (r.get(d, 0) - q * c) % _P:
                r[d] = s
            else:
                r.pop(d, None)
    return r


def _coprime(ta: Mapping[Exponents, Coefficient],
             tb: Mapping[Exponents, Coefficient]) -> bool:
    """True when images modulo _P prove the nonzero term maps ta and tb
    coprime.  False proves nothing: an image lost a degree, a denominator
    had no residue or an image gcd was not constant."""
    da, db = list(map(max, zip(*ta))), list(map(max, zip(*tb)))
    shared = [v for v, (m, n) in enumerate(zip(da, db)) if m and n]
    points = [_point(i) for i in range(len(da))]
    for v in shared:
        try:
            a, b = _image(ta, v, points), _image(tb, v, points)
        except ValueError:
            return False
        if max(a, default=-1) != da[v] or max(b, default=-1) != db[v]:
            return False
        while max(b, default=0):
            a, b = b, _rem_mod(a, b)
        if not b and max(a):
            return False
    return True


def cofactors(a: Polynomial,
              b: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """(g, a/g, b/g) for g the greatest common divisor, monic under graded
    lex; gcd(0, 0) is 0, with cofactors 0.

    Zero, constant, equal and monomial inputs are answered directly, and
    the common monomial factor is split off as exponent shifts of the term
    maps.  The gcd is that monomial when a part left is a monomial or
    `_coprime` proves the parts coprime.  Otherwise both are scaled to
    integers and nested over their n occurring variables, and one
    subresultant pseudo-remainder sequence (`_gcd` at level n) gives their
    integer gcd h.  The cofactors are exact quotients by h at the same
    level, skipped when h is one, and each result is un-nested once.
    """
    a._check(b)
    vs = a.variables
    if not a.terms or not b.terms or a == b:
        # gcd(a, 0) = gcd(a, a) = a made monic; each cofactor is 0 or lc(a)
        p = a if a.terms else b
        if not p.terms:
            return p, p, p
        _, lead = p.leading()
        lc = Polynomial.constant(lead, vs)
        return (p.scale(Fraction(1, lead)), lc if a.terms else a,
                lc if b.terms else b)
    if a.is_constant() or b.is_constant():
        return Polynomial.one(vs), a, b

    # the largest monomials dividing a and b, and what is left of each
    ma, mb = a.min_exponents(), b.min_exponents()
    ta = shift_terms(a.terms, ma) if any(ma) else a.terms
    tb = shift_terms(b.terms, mb) if any(mb) else b.terms
    common = tuple(map(min, ma, mb))
    # a stripped part that is a monomial contributes nothing to the gcd
    if len(ta) > 1 and len(tb) > 1 and not _coprime(ta, tb):
        order = sorted({i for t in (ta, tb) for e in t
                        for i, k in enumerate(e) if k})
        n = len(order)
        sa, na = _nest(ta, order)
        sb, nb = _nest(tb, order)
        h = _gcd(na, nb, n)
        if h != _one(n):
            g = _unnest(h, order, common)
            _, lead = max(g, key=lambda t: _grlex(t[0]))
            fa = _unnest(_quo(na, h, n), order, tuple(map(sub, ma, common)))
            fb = _unnest(_quo(nb, h, n), order, tuple(map(sub, mb, common)))
            return (_scaled(vs, g, 1, lead), _scaled(vs, fa, lead, sa),
                    _scaled(vs, fb, lead, sb))
    return (Polynomial._make(vs, {common: 1}), _shift(a, common),
            _shift(b, common))


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Greatest common divisor, monic under graded lex: the first entry of
    `cofactors`."""
    return cofactors(a, b)[0]
