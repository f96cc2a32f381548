"""Exact scalars: rationals and multivariate rational functions.

The ground field is the rationals extended by named indeterminates,
represented as quotients of integer-coefficient sparse polynomials.
Every value is immutable and kept in a canonical form, so ``==`` is exact
equality of rational functions and ``is_zero`` is a decision procedure,
not a tolerance check.

Canonical form of a quotient num/den:

* num and den have integer coefficients and no common polynomial factor,
* the gcd of their integer contents is 1,
* the graded-lex leading coefficient of den is positive,
* zero is always 0/1.

Monomials are ordered graded-lexicographically over alphabetically sorted
indeterminate names, which makes string output reproducible bit for bit.
A monomial is a tuple of (name, exponent) pairs sorted by name, and its sort
key is ``(-degree, ((name, -exponent), ...))``. Plain tuple comparison of
these keys is graded lex with the leading term first: a higher degree gives
a smaller first entry; at equal degree the first pair that differs decides,
and either the names agree and the larger exponent is the smaller -exponent,
or the names differ, in which case the monomial with the alphabetically
earlier name has that indeterminate and the other lacks it, so the earlier
name, the smaller one, marks the larger monomial. Hence ``leading()`` is a
``min`` and ``str`` sorts ascending.

Exact division works in integer arithmetic throughout: a division by an
integer content divides each coefficient, and ``Poly.divexact`` keeps the
remainder's monomials in a heap. ``poly_gcd`` first splits each operand
with ``_primitive`` into its integer content, its monomial content and a
primitive rest, and answers 1 at once when either rest is a single term or
when the two share no indeterminate. Otherwise the indeterminates that
only one operand has divide out together through that operand's content
in them. When both operands have the same indeterminates, the gcd is the
smaller one if it divides the other, or else the heuristic gcd GCDHEU
finds it from integer evaluations; only if that gives up does the
subresultant remainder sequence run. Contents are gcds of coefficients,
taken smallest first, so that a trivial gcd shows early. The gcd is the
gcd of the integer contents times a primitive polynomial, so num and den
divided by it have coprime contents (Gauss's lemma). ``factor_base``
splits a product of elimination pivots into factors certified irreducible
and a rest, so that the elimination in ``tensor`` reduces its entries by
trial divisions, with a gcd only on that rest.

Monomials stay tuples here. The elimination in ``tensor`` packs them into
ints for the length of one call; packing per operation in ``Poly.__mul__``
or ``divexact`` costs more than it saves.
"""

from __future__ import annotations

import heapq
import math
import operator
import re
from fractions import Fraction
from functools import partial
from typing import Mapping, Sequence, Union

ScalarLike = Union["ParamScalar", int, Fraction, str]


class YbxError(Exception):
    """Base of every error that ybx raises for bad input or a failed axiom."""


class InputError(ValueError, YbxError):
    """Bad input that no narrower error names: a dimension, a matrix shape,
    an option value, an operator file, or a command line's input."""


def _check_operand(value, *classes) -> None:
    """Refuse a value of none of the given classes, before code that
    expects one fails on it with an error that is no YbxError."""
    if not isinstance(value, classes):
        names = " or ".join(cls.__name__ for cls in classes)
        raise InputError(f"expected {names}, not {type(value).__name__}")


def _check_dim(dim, error=InputError) -> None:
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise error(f"dim must be an int, not {dim!r}")
    if dim < 1:
        raise error("dim must be >= 1")


def _shaped(value, n: int, depth: int) -> bool:
    """Whether value nests Sequences of length n, depth deep."""
    return isinstance(value, Sequence) and len(value) == n and (
        depth == 1 or all(_shaped(v, n, depth - 1) for v in value))


class FrozenRecord:
    """An immutable record over the __slots__ of its subclass, built from
    positional values, equal and hashed by the fields that _key names."""

    __slots__ = ()
    _key = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _fields(self):
        return tuple(getattr(self, name) for name in self._key)

    def __eq__(self, other):
        return (isinstance(other, type(self))
                and other._fields() == self._fields())

    def __hash__(self):
        return hash(self._fields())


class MalformedScalarError(ValueError, YbxError):
    """Raised when a scalar would have an identically zero denominator."""


class IncompleteAssignmentError(ValueError, YbxError):
    """Raised by evaluate() when indeterminates are left unassigned."""

    def __init__(self, missing):
        self.missing = tuple(sorted(missing))
        super().__init__("no value assigned for: " + ", ".join(self.missing))


class PoleError(ZeroDivisionError, YbxError):
    """Raised when a denominator vanishes: at the point in evaluate(),
    under substitute(), or identically, in a division by zero."""


class ScalarParseError(ValueError, YbxError):
    """Raised when a scalar expression string does not parse."""


# ---------------------------------------------------------------------------
# monomials: sorted tuples of (name, exponent) pairs, exponents >= 1
# ---------------------------------------------------------------------------

Mono = tuple  # tuple[tuple[str, int], ...]

_EMPTY_MONO: Mono = ()


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def _mono_div(a: Mono, b: Mono):
    """a / b, or None when b does not divide a."""
    exps = dict(a)
    for name, e in b:
        r = exps.get(name, 0) - e
        if r < 0:
            return None
        if r == 0:
            del exps[name]
        else:
            exps[name] = r
    return tuple(sorted(exps.items()))


def _mono_gcd(a: Mono, b: Mono) -> Mono:
    if not a or not b:
        return _EMPTY_MONO
    bexps = dict(b)
    out = []
    for name, e in a:
        eb = bexps.get(name, 0)
        if eb:
            out.append((name, min(e, eb)))
    return tuple(out)


def _mono_key(m: Mono) -> tuple:
    """Sort key under which ascending order is descending graded lex."""
    degree = 0
    pairs = []
    for name, e in m:
        degree += e
        pairs.append((name, -e))
    return -degree, tuple(pairs)


# ---------------------------------------------------------------------------
# sparse integer-coefficient polynomials
# ---------------------------------------------------------------------------

class Poly:
    """Sparse multivariate polynomial with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms maps monomial -> nonzero int coefficient
        self.terms = {} if terms is None else terms

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, c: int) -> "Poly":
        return cls({} if c == 0 else {_EMPTY_MONO: int(c)})

    @classmethod
    def variable(cls, name: str) -> "Poly":
        return cls({((name, 1),): 1})

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def names(self) -> frozenset:
        out = set()
        for mono in self.terms:
            for name, _ in mono:
                out.add(name)
        return frozenset(out)

    def leading(self):
        """(monomial, coefficient) of the graded-lex leading term."""
        mono = min(self.terms, key=_mono_key)
        return mono, self.terms[mono]

    def int_content(self) -> int:
        """gcd of the coefficients (0 for the zero polynomial)."""
        c = 0
        for v in self.terms.values():
            c = math.gcd(c, v)
            if c == 1:
                break
        return c

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            s = terms.get(mono, 0) + c
            if s:
                terms[mono] = s
            elif mono in terms:
                del terms[mono]
        return Poly(terms)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return _P_ZERO
        # a product with 1 shares the other factor, which is immutable
        if other.terms == _P_ONE.terms:
            return self
        if self.terms == _P_ONE.terms:
            return other
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = terms.get(m, 0) + c1 * c2
                if s:
                    terms[m] = s
                elif m in terms:
                    del terms[m]
        return Poly(terms)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = _P_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def scale(self, c: int) -> "Poly":
        if c == 0:
            return _P_ZERO
        if c == 1:
            return self
        return Poly({m: v * c for m, v in self.terms.items()})

    def mul_mono(self, mono: Mono) -> "Poly":
        if not mono:
            return self
        return Poly({_mono_mul(m, mono): c for m, c in self.terms.items()})

    def div_int(self, k: int) -> "Poly":
        """Division by a nonzero integer that divides every coefficient."""
        if k == 1:
            return self
        return Poly({m: c // k for m, c in self.terms.items()})

    def divexact(self, g: "Poly") -> "Poly":
        """Exact multivariate division; raises ArithmeticError if not exact.

        The remainder's monomials wait in a heap ordered by _mono_key, so
        each step pops the leading one instead of rescanning the remainder.
        Each step only adds terms below the one it removes, so a monomial
        popped once never returns; a monomial cancelled to zero and added
        again may sit in the heap twice, and the stale entry finds no
        coefficient left in the remainder when popped.
        """
        if g.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return _P_ZERO
        gmono, gc = g.leading()
        tail = [(m, c) for m, c in g.terms.items() if m != gmono]
        r = dict(self.terms)
        heap = [(_mono_key(m), m) for m in r]
        heapq.heapify(heap)
        q: dict = {}
        while heap:
            m = heapq.heappop(heap)[1]
            rc = r.pop(m, 0)
            if not rc:
                continue
            qm = _mono_div(m, gmono)
            if qm is None:
                raise ArithmeticError("inexact polynomial division")
            qc, rem = divmod(rc, gc)
            if rem:
                raise ArithmeticError("inexact polynomial division")
            q[qm] = qc
            for tm, tc in tail:
                t = _mono_mul(qm, tm)
                s = r.get(t)
                if s is None:
                    r[t] = -qc * tc
                    heapq.heappush(heap, (_mono_key(t), t))
                elif s == qc * tc:
                    del r[t]
                else:
                    r[t] = s - qc * tc
        return Poly(q)

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        total = Fraction(0)
        for mono, c in self.terms.items():
            term = Fraction(c)
            for name, e in mono:
                term *= Fraction(assignment[name]) ** e
            total += term
        return total

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- output -------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=_mono_key):
            c = self.terms[mono]
            factors = []
            if abs(c) != 1 or not mono:
                factors.append(str(abs(c)))
            for name, e in mono:
                factors.append(name if e == 1 else f"{name}^{e}")
            body = "*".join(factors)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


_P_ZERO = Poly()
_P_ONE = Poly.const(1)


# ---------------------------------------------------------------------------
# multivariate gcd
# ---------------------------------------------------------------------------

def _split(p: Poly, names) -> dict:
    """View p as a polynomial in the given indeterminates with Poly
    coefficients: {monomial in names: coefficient}."""
    coeffs: dict = {}
    for mono, c in p.terms.items():
        key = []
        rest = []
        for pair in mono:
            (key if pair[0] in names else rest).append(pair)
        # distinct monomials give distinct (key, rest) pairs: nothing merges
        coeffs.setdefault(tuple(key), {})[tuple(rest)] = c
    return {k: Poly(t) for k, t in coeffs.items()}


def _univar(p: Poly, v: str) -> dict:
    """View p as a univariate polynomial in v: {degree: Poly coefficient}."""
    return {k[0][1] if k else 0: q for k, q in _split(p, (v,)).items()}


def _from_univar(coeffs: dict, v: str) -> Poly:
    terms: dict = {}
    for deg, poly in coeffs.items():
        for mono, c in poly.terms.items():
            m = _mono_mul(mono, ((v, deg),)) if deg else mono
            terms[m] = terms.get(m, 0) + c
    return Poly({m: c for m, c in terms.items() if c})


def _coeff_content(coeffs: dict) -> Poly:
    g = _P_ZERO
    for poly in sorted(coeffs.values(), key=lambda p: len(p.terms)):
        g = poly_gcd(g, poly)
        if g == _P_ONE:
            break
    return g


def _coeff_divexact(coeffs: dict, g: Poly) -> dict:
    if g == _P_ONE:
        return coeffs
    return {d: p.divexact(g) for d, p in coeffs.items()}


def _prem(f: dict, g: dict) -> dict:
    """Pseudo-remainder of univariate polynomials with Poly coefficients:
    the remainder of lc(g)^(d+1)*f on division by g, for d = deg f - deg g.
    Each reduction step multiplies by lc(g) once, and the steps that a
    vanishing coefficient skips are made up at the end."""
    dg = max(g)
    lg = g[dg]
    r = dict(f)
    missing = max(f) - dg + 1
    while r and max(r) >= dg:
        dr = max(r)
        lr = r[dr]
        k = dr - dg
        nr: dict = {}
        for d, p in r.items():
            nr[d] = p * lg
        for d, p in g.items():
            q = nr.get(d + k, _P_ZERO) - p * lr
            nr[d + k] = q
        r = {d: p for d, p in nr.items() if not p.is_zero and d != dr}
        missing -= 1
    if missing > 0 and r:
        scale = lg ** missing
        r = {d: p * scale for d, p in r.items()}
    return r


def _normalize_sign(p: Poly) -> Poly:
    if p.is_zero:
        return p
    _, c = p.leading()
    return p.scale(-1) if c < 0 else p


def _primitive(p: Poly):
    """(c, mono, q) with p = c * mono * q, for p nonzero: c > 0 the integer
    content, mono the monomial content, the largest monomial dividing every
    term, and q primitive with no monomial content."""
    c = p.int_content()
    monos = iter(p.terms)
    mono = next(monos)
    for m in monos:
        mono = _mono_gcd(mono, m)
        if not mono:
            break
    if not mono:
        return c, mono, p.div_int(c)
    return c, mono, Poly({_mono_div(m, mono): v // c
                          for m, v in p.terms.items()})


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Full gcd over the integers (content times primitive part), with a
    positive graded-lex leading coefficient."""
    if f.is_zero:
        return _normalize_sign(g)
    if g.is_zero:
        return _normalize_sign(f)
    cf, mf, pf = _primitive(f)
    cg, mg, pg = _primitive(g)
    c = math.gcd(cf, cg)
    mc = _mono_gcd(mf, mg)
    # With the contents removed, a single term is a unit, and so is a
    # common divisor of two operands that share no indeterminate: it can
    # only involve indeterminates both have.
    fnames, gnames = pf.names, pg.names
    if len(pf.terms) == 1 or len(pg.terms) == 1 or fnames.isdisjoint(gnames):
        return _P_ONE if c == 1 and not mc else Poly({mc: c})
    only_f, only_g = fnames - gnames, gnames - fnames
    if only_f or only_g:
        # a common divisor has none of the indeterminates that only one
        # operand has, so they divide out in one step through that operand's
        # content in them: gcd(f, g) = gcd(cont_E(f), g)
        if only_f:
            pf = _coeff_content(_split(pf, only_f))
        if only_g:
            pg = _coeff_content(_split(pg, only_g))
        h = poly_gcd(pf, pg)
    else:
        small, big = sorted((pf, pg), key=lambda p: len(p.terms))
        v = min(fnames)
        h = small if _divides(small, big) else (
            _gcd_heuristic(pf, pg, v) or _gcd_subresultant(pf, pg, v))
    return _normalize_sign(h.scale(c).mul_mono(mc))


def _divides(d: Poly, p: Poly) -> bool:
    try:
        p.divexact(d)
    except ArithmeticError:
        return False
    return True


# evaluation points the heuristic gcd tries before it gives up
_HEURISTIC_TRIES = 6


def _gcd_heuristic(f: Poly, g: Poly, v: str):
    """gcd of the primitive f and g by GCDHEU (Char, Geddes & Gonnet 1989),
    or None when it finds none: the gcd of f and g at v = xi, read back as
    digits of base xi in (-xi/2, xi/2], is a candidate in v, kept if its
    primitive part divides both. With xi >= 2 + 2*min(|f|, |g|), where |f|
    is the largest absolute value of a coefficient of f, a primitive common
    divisor found that way is the gcd: every root of a divisor lies below
    xi/2 in modulus, so a cofactor of degree >= 1 would be larger at xi
    than the gcd of the digits, which it divides."""
    norm = min(max(map(abs, f.terms.values())),
               max(map(abs, g.terms.values())))
    xi = 2 * norm + 29
    F, G = _univar(f, v), _univar(g, v)
    for _ in range(_HEURISTIC_TRIES):
        at_f, at_g = _evaluate_univar(F, xi), _evaluate_univar(G, xi)
        if at_f and at_g:
            h = _xi_adic(poly_gcd(at_f, at_g), v, xi)
            if not h.names:
                return _P_ONE
            h = h.div_int(h.int_content())
            if _divides(h, f) and _divides(h, g):
                return h
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _evaluate_univar(coeffs: dict, xi: int) -> Poly:
    """The polynomial {degree: coefficient} in v at v = xi."""
    out = _P_ZERO
    for d, p in coeffs.items():
        out = out + p.scale(xi ** d)
    return out


def _xi_adic(h: Poly, v: str, xi: int) -> Poly:
    """The polynomial in v whose coefficients are the base-xi digits, in
    (-xi/2, xi/2], of the coefficients of h, which lacks v."""
    terms: dict = {}
    for mono, c in h.terms.items():
        k = 0
        while c:
            d = c % xi
            if d > xi // 2:
                d -= xi
            if d:
                terms[_mono_mul(mono, ((v, k),)) if k else mono] = d
            c = (c - d) // xi
            k += 1
    return Poly(terms)


def _gcd_subresultant(f: Poly, g: Poly, v: str) -> Poly:
    """gcd of f and g by the subresultant remainder sequence in v, which
    both contain (Collins 1967; Brown & Traub 1971); the result is
    primitive up to its sign. Each pseudo-remainder is divided exactly by
    lc*h^d, for d the drop in degree, lc the leading coefficient of the
    previous divisor and h = lc^d / h^(d-1) carried along, which keeps the
    coefficients as small as the subresultants, where a primitive sequence
    pays a content gcd at every step."""
    F = _univar(f, v)
    G = _univar(g, v)
    contF = _coeff_content(F)
    contG = _coeff_content(G)
    d = poly_gcd(contF, contG)
    F = _coeff_divexact(F, contF)
    G = _coeff_divexact(G, contG)
    if max(F) < max(G):
        F, G = G, F
    lc = h = _P_ONE
    while True:
        delta = max(F) - max(G)
        r = _prem(F, G)
        if not r:
            G = _coeff_divexact(G, _coeff_content(G))
            return _from_univar(G, v) * d
        if max(r) == 0:
            # nontrivial constant (in v) remainder: the pp-gcd is trivial
            return d
        F, G = G, _coeff_divexact(r, lc * h ** delta)
        lc = F[max(F)]
        if delta:
            h = lc if delta == 1 else (lc ** delta).divexact(h ** (delta - 1))


def factor_base(pivots):
    """(c, atoms, R) with c * prod(a**m for a, m in atoms) * R equal to
    the product of the pivots, nonzero polynomials: c an int, each atom a,
    with its multiplicity m, certified irreducible, and the atoms and R
    primitive with positive leading coefficients.

    Each pivot splits into its signed integer content, its monomial
    content, whose names are atoms, and its primitive rest. The rests,
    lowest degree first, are divided by each atom found so far as often as
    it goes; what is left is an atom if it is certified irreducible, and
    otherwise a factor of R. The certificate is degree 1 in some name v
    with coefficients in v whose gcd is 1: of any two factors of such a
    piece one lacks v, so it divides both coefficients and is a unit. A
    gcd g other than 1 is a factor of the piece, so the first name of
    degree 1 decides.

    >>> u, v = Poly.variable("u"), Poly.variable("v")
    >>> c, atoms, R = factor_base([(u + v).scale(-2) * u,
    ...                            (u + v) * (u * u + v * v)])
    >>> c, [(str(a), m) for a, m in atoms], str(R)
    (-2, [('u', 1), ('u + v', 2)], 'u^2 + v^2')
    """
    c, names, pieces = 1, {}, []
    for p in pivots:
        # dividing by a monomial keeps the leading term, so q has p's sign
        k, mono, p = _primitive(p)
        if p.leading()[1] < 0:
            k, p = -k, -p
        c *= k
        for name, e in mono:
            names[name] = names.get(name, 0) + e
        if p != _P_ONE:
            pieces.append(p)
    atoms = [[Poly.variable(name), m] for name, m in sorted(names.items())]
    found, R = [], _P_ONE
    for p in sorted(pieces, key=lambda p: (_degree(p), len(p.terms))):
        for atom in found:
            while p != _P_ONE:
                try:
                    p = p.divexact(atom[0])
                except ArithmeticError:
                    break
                atom[1] += 1
        if p == _P_ONE:
            continue
        if _certified(p):
            found.append([p, 1])
        else:
            R = R * p
    return c, [(a, m) for a, m in atoms + found], R


def _degree(p: Poly) -> int:
    return max(sum(e for _, e in m) for m in p.terms)


def _certified(p: Poly) -> bool:
    """Whether p, primitive and free of monomial content, has degree 1 in
    its first such name v and coprime coefficients in v."""
    for v in sorted(p.names):
        coeffs = _univar(p, v)
        if max(coeffs) == 1:
            return poly_gcd(coeffs[1], coeffs.get(0, _P_ZERO)) == _P_ONE
    return False


# ---------------------------------------------------------------------------
# the field: quotients of polynomials
# ---------------------------------------------------------------------------

class ParamScalar:
    """An exact multivariate rational function over the rationals.

    Instances are immutable and always canonical; use ``var``, ``const``,
    ``parse_scalar`` or arithmetic to build them.

    >>> p, u, v = var("p"), var("u"), var("v")
    >>> str(p * (u - v))
    'p*u - p*v'
    >>> (u - v) / (u - v) == const(1)
    True
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = _P_ONE):
        _check_operand(num, Poly)
        _check_operand(den, Poly)
        num, den = _canonical(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("ParamScalar is immutable")

    # -- basic structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_one(self) -> bool:
        return self.num == _P_ONE and self.den == _P_ONE

    @property
    def names(self) -> frozenset:
        return self.num.names | self.den.names

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: ScalarLike) -> "ParamScalar":
        other = as_scalar(other)
        if self.den == _P_ONE and other.den == _P_ONE:
            return ParamScalar(self.num + other.num)
        # Henrici's sum of canonical quotients (Knuth, TAOCP 4.5.1): with
        # g = gcd of the denominators, only a factor of g can cancel
        g = poly_gcd(self.den, other.den)
        if g == _P_ONE:
            return _reduced(self.num * other.den + other.num * self.den,
                            self.den * other.den)
        b = self.den.divexact(g)
        t = self.num * other.den.divexact(g) + other.num * b
        if t.is_zero:
            return ZERO
        h = poly_gcd(t, g)
        if h == _P_ONE:
            return _reduced(t, b * other.den)
        return _reduced(t.divexact(h), b * other.den.divexact(h))

    __radd__ = __add__

    def __neg__(self) -> "ParamScalar":
        return _reduced(-self.num, self.den)

    def __sub__(self, other: ScalarLike) -> "ParamScalar":
        return self + (-as_scalar(other))

    def __rsub__(self, other: ScalarLike) -> "ParamScalar":
        return as_scalar(other) + (-self)

    def __mul__(self, other: ScalarLike) -> "ParamScalar":
        other = as_scalar(other)
        if self.num.is_zero or other.num.is_zero:
            return ZERO
        if self.den == _P_ONE and other.den == _P_ONE:
            return ParamScalar(self.num * other.num)
        # canonical inputs: after cross-cancelling nothing else can cancel
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        n1 = self.num.divexact(g1) if g1 != _P_ONE else self.num
        d2 = other.den.divexact(g1) if g1 != _P_ONE else other.den
        n2 = other.num.divexact(g2) if g2 != _P_ONE else other.num
        d1 = self.den.divexact(g2) if g2 != _P_ONE else self.den
        return _reduced(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def reciprocal(self) -> "ParamScalar":
        if self.num.is_zero:
            raise PoleError("reciprocal of zero")
        if self.num.leading()[1] < 0:
            return _reduced(-self.den, -self.num)
        return _reduced(self.den, self.num)

    def __truediv__(self, other: ScalarLike) -> "ParamScalar":
        return self * as_scalar(other).reciprocal()

    def __rtruediv__(self, other: ScalarLike) -> "ParamScalar":
        return as_scalar(other) * self.reciprocal()

    def __pow__(self, n: int) -> "ParamScalar":
        _check_operand(n, int)
        if n < 0:
            return self.reciprocal() ** (-n)
        return _reduced(self.num ** n, self.den ** n)

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, assignment: Mapping[str, Union[int, Fraction]]) -> Fraction:
        """Exact value at a point; every indeterminate must be assigned,
        and every value of the point must be an int or a Fraction."""
        _check_operand(assignment, Mapping)
        missing = self.names - set(assignment)
        if missing:
            raise IncompleteAssignmentError(missing)
        for name, value in assignment.items():
            if not isinstance(value, (int, Fraction)):
                raise InputError(f"the value of {name} must be an int or a "
                                 f"Fraction, not {type(value).__name__}")
        den = self.den.evaluate(assignment)
        if den == 0:
            raise PoleError(f"denominator {self.den} vanishes at the point")
        return self.num.evaluate(assignment) / den

    def substitute(self, mapping: Mapping[str, ScalarLike]) -> "ParamScalar":
        """Replace some indeterminates by scalars, leaving the rest free."""
        _check_operand(mapping, Mapping)
        values = {k: as_scalar(v) for k, v in mapping.items()}

        def sub_poly(p: Poly) -> "ParamScalar":
            total = ZERO
            for mono, c in p.terms.items():
                term = const(c)
                for name, e in mono:
                    base = values.get(name)
                    if base is None:
                        base = var(name)
                    term = term * base ** e
                total = total + term
            return total

        den = sub_poly(self.den)
        if den.is_zero:
            raise PoleError(f"denominator {self.den} vanishes under substitution")
        return sub_poly(self.num) / den

    # -- comparisons, hashing, output ---------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, str)):
            try:
                other = as_scalar(other)
            except (ScalarParseError, MalformedScalarError):
                return False  # text that names no scalar equals none
        if not isinstance(other, ParamScalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __str__(self) -> str:
        if self.den == _P_ONE:
            return str(self.num)
        num_s = str(self.num)
        if len(self.num.terms) > 1:
            num_s = f"({num_s})"
        den_s = str(self.den)
        if len(self.den.terms) > 1 or "*" in den_s:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"<scalar {self}>"


def _reduced(num: Poly, den: Poly) -> ParamScalar:
    """num/den as it stands, for callers that know num and den share no
    factor and den has a positive leading coefficient."""
    if num.is_zero:
        return ZERO
    out = object.__new__(ParamScalar)
    object.__setattr__(out, "num", num)
    object.__setattr__(out, "den", den)
    return out


def _canonical(num: Poly, den: Poly):
    if den.is_zero:
        raise MalformedScalarError("zero denominator")
    if num.is_zero:
        return _P_ZERO, _P_ONE
    if den == _P_ONE:
        # already canonical: its content gcd with 1 is 1 and 1 is positive
        return num, den
    # the gcd carries the gcd of the integer contents, and its polynomial
    # part is primitive, so by Gauss's lemma the cofactors' contents are
    # coprime: no content pass follows
    g = poly_gcd(num, den)
    if g != _P_ONE:
        num = num.divexact(g)
        den = den.divexact(g)
    if den.leading()[1] < 0:
        num = num.scale(-1)
        den = den.scale(-1)
    return num, den


# -- public constructors ----------------------------------------------------

def var(name: str) -> ParamScalar:
    """The indeterminate with the given name, as a scalar."""
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise ScalarParseError(f"bad indeterminate name: {name!r}")
    return ParamScalar(Poly.variable(name))


def const(value: Union[int, Fraction]) -> ParamScalar:
    """Embed a rational constant into the scalar field."""
    _check_operand(value, int, Fraction)
    f = Fraction(value)
    return ParamScalar(Poly.const(f.numerator), Poly.const(f.denominator))


def clear_row(row):
    """(s, [e*s as a Poly for e in row]) for s the lcm of the denominators
    of the ParamScalars in row. The distinct denominators other than 1 are
    folded into s once each, in row order, and each one's cofactor s/d is
    formed once; no gcd runs unless two distinct denominators are not 1."""
    cofactors = dict.fromkeys(e.den for e in row)
    cofactors.pop(_P_ONE, None)
    dens = iter(cofactors)
    scale = next(dens, _P_ONE)
    for d in dens:
        scale = scale * d.divexact(poly_gcd(scale, d))
    if scale == _P_ONE:
        return scale, [e.num for e in row]
    for d in cofactors:
        cofactors[d] = scale.divexact(d)
    cofactors[_P_ONE] = scale
    return scale, [e.num * cofactors[e.den] for e in row]


def as_scalar(value: ScalarLike) -> ParamScalar:
    if isinstance(value, ParamScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return const(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise InputError(f"cannot interpret {value!r} as a scalar")


ZERO = const(0)
ONE = const(1)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------
#
# expr   := term (('+' | '-') term)*
# term   := unary (('*' | '/') unary)*
# unary  := ('-' | '+') unary | power
# power  := atom (('^' | '**') INT)?
# atom   := INT | NAME | '(' expr ')'

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()]))"
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ScalarParseError(
                    f"unexpected character {text[pos:].strip()[0]!r} in {text!r}"
                )
            break
        if m.group("int") is not None:
            out.append(("int", bounded_int(m.group("int"))))
        elif m.group("name") is not None:
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    return out


# Each level of parentheses costs the recursive descent six frames, so an
# explicit bound keeps hostile input far from the interpreter's limit.
_MAX_NESTING = 100

# Bounds on a power p^e in an expression, checked before it is computed, on
# the numerator and the denominator of p^e alike: its total degree, the bit
# length of its coefficients, at most e*log2 of the sum of the absolute
# coefficients of p, and its number of terms, at most the number of
# multisets of e of the t terms of p. The bit and term bounds hold for
# products and quotients too (see _check_product), and the bit bound for
# integer literals, which are at most 2^_MAX_POWER_BITS.
_MAX_POWER_DEGREE = 1000
_MAX_POWER_BITS = 10_000
_MAX_TERMS = 2_000
_MAX_LITERAL = 1 << _MAX_POWER_BITS
_MAX_LITERAL_DIGITS = int(_MAX_POWER_BITS * math.log10(2)) + 1  # its digits


def bounded_int(digits: str) -> int:
    """The decimal integer digits, with an optional sign, refused past
    2^_MAX_POWER_BITS in absolute value before a long conversion runs."""
    magnitude = digits.lstrip("-").lstrip("0") or "0"
    if len(magnitude) > _MAX_LITERAL_DIGITS or int(magnitude) > _MAX_LITERAL:
        raise ScalarParseError(
            f"integer literal larger than 2^{_MAX_POWER_BITS}")
    return -int(magnitude) if digits[0] == "-" else int(magnitude)


def _bits(p: Poly) -> int:
    """ceil(log2) of the sum of the absolute coefficients of p (0 for p = 0):
    a coefficient of p^e has at most e*_bits(p) bits, and one of p*q at most
    _bits(p) + _bits(q)."""
    return max(sum(map(abs, p.terms.values())) - 1, 0).bit_length()


def _check_power(base: ParamScalar, e: int, text: str) -> None:
    for p in (base.num, base.den):
        t = len(p.terms)
        if not t:
            continue
        degree = max(sum(k for _, k in m) for m in p.terms)
        if e * degree > _MAX_POWER_DEGREE:
            bound = f"total degree above {_MAX_POWER_DEGREE}"
        elif e * _bits(p) > _MAX_POWER_BITS:
            bound = f"coefficients longer than {_MAX_POWER_BITS} bits"
        elif math.comb(e + t - 1, t - 1) > _MAX_TERMS:
            bound = f"more than {_MAX_TERMS} terms"
        else:
            continue
        raise ScalarParseError(f"power too large in {text!r}: {bound}")


def _product_terms(p: Poly, q: Poly) -> int:
    """An upper bound on the number of terms of p*q: the product of their
    term counts, or the number of monomials in their indeterminates with a
    total degree between the sums of their lowest and of their highest
    degrees, whichever is smaller."""
    t = len(p.terms) * len(q.terms)
    if t <= _MAX_TERMS:
        return t
    v = len(p.names | q.names)
    low = high = 0
    for f in (p, q):
        degrees = [sum(k for _, k in m) for m in f.terms]
        low += min(degrees)
        high += max(degrees)
    return min(t, math.comb(high + v, v) - math.comb(low - 1 + v, v))


def _check_product(a: ParamScalar, b: ParamScalar, divide: bool,
                   text: str) -> None:
    """Refuse a*b (a/b when divide) before it is computed when, on its
    numerator or denominator, the bound of _product_terms passes _MAX_TERMS
    or the sum of the factors' _bits passes _MAX_POWER_BITS."""
    pairs = ((a.num, b.den), (a.den, b.num)) if divide else \
        ((a.num, b.num), (a.den, b.den))
    if any(_product_terms(p, q) > _MAX_TERMS for p, q in pairs):
        bound = f"more than {_MAX_TERMS} terms"
    elif any(_bits(p) + _bits(q) > _MAX_POWER_BITS for p, q in pairs):
        bound = f"coefficients longer than {_MAX_POWER_BITS} bits"
    else:
        return
    raise ScalarParseError(f"product too large in {text!r}: {bound}")


_BINARY = {"+": operator.add, "-": operator.sub,
           "*": operator.mul, "/": operator.truediv}


class _Parser:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.text = text

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ScalarParseError(f"expected {op!r} in {self.text!r}")

    def parse(self) -> ParamScalar:
        value = self.expr()
        if self.pos != len(self.tokens):
            raise ScalarParseError(f"trailing input in {self.text!r}")
        return value

    def chain(self, ops, operand) -> ParamScalar:
        """operand (op operand)* for op in ops, folded left to right."""
        value = operand()
        while True:
            kind, val = self.peek()
            if kind != "op" or val not in ops:
                return value
            self.take()
            rhs = operand()
            if val in ("*", "/"):
                if val == "/" and rhs.is_zero:
                    raise MalformedScalarError("division by zero in expression")
                _check_product(value, rhs, val == "/", self.text)
            value = _BINARY[val](value, rhs)

    def expr(self) -> ParamScalar:
        # a partial adds no frame, where a term method would add one per
        # level of parentheses
        return self.chain(("+", "-"), partial(self.chain, ("*", "/"),
                                              self.unary))

    def unary(self) -> ParamScalar:
        negate = False
        kind, val = self.peek()
        while kind == "op" and val in ("+", "-"):
            self.take()
            negate ^= val == "-"
            kind, val = self.peek()
        value = self.power()
        return -value if negate else value

    def power(self) -> ParamScalar:
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val in ("^", "**"):
            self.take()
            k, v = self.take()
            neg = False
            if k == "op" and v == "-":
                neg = True
                k, v = self.take()
            if k != "int":
                raise ScalarParseError(f"expected integer exponent in {self.text!r}")
            e = v
            if neg and base.is_zero:
                raise MalformedScalarError("zero to a negative power")
            _check_power(base, e, self.text)
            return base ** (-e if neg else e)
        return base

    def atom(self) -> ParamScalar:
        kind, val = self.take()
        if kind == "int":
            return const(val)
        if kind == "name":
            return ParamScalar(Poly.variable(val))
        if kind == "op" and val == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ScalarParseError(
                    f"parentheses nested more than {_MAX_NESTING} deep")
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ScalarParseError(f"unexpected end of expression in {self.text!r}")


def parse_scalar(text: str) -> ParamScalar:
    """Parse the textual scalar grammar (the same one ``str`` emits)."""
    _check_operand(text, str)
    tokens = _tokenize(text)
    if not tokens:
        raise ScalarParseError("empty scalar expression")
    return _Parser(tokens, text).parse()


def fresh_name(base: str, taken) -> str:
    """base, or base_1, base_2, ... -- the first not in taken."""
    if base not in taken:
        return base
    i = 1
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"
