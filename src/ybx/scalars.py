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

Exact division (``Poly.divexact``) and the gcd (``poly_gcd``) are
written in ``gcd``, which a process compiles only when it first divides
a polynomial or takes a gcd; the two names here call into it. A rational
constant is built without either: ``rational`` reduces n/d by the integer
gcd. ``fractions`` is imported only by the code that is given or returns
a ``Fraction``: ``const`` and ``as_scalar`` of one, ``==`` with one, and
``evaluate``.

Monomials stay tuples here. The elimination packs them into ints for the
length of one call; packing per operation in ``Poly.__mul__`` or
``divexact`` costs more than it saves.
"""

from __future__ import annotations

import copyreg
import math
import operator
import re
from typing import Mapping, Sequence, Union

from . import gcd

ScalarLike = Union["ParamScalar", int, "Fraction", str]


class YbxError(Exception):
    """Base of every error that ybx raises for bad input or a failed axiom."""

    def __reduce__(self):
        # rebuilt without __init__, whose arguments (a witness, ...) are not
        # args, so that pickle and copy keep the message and every attribute
        return (copyreg.__newobj__, (type(self),),
                {**vars(self), "args": self.args})


class InputError(ValueError, YbxError):
    """Bad input that no narrower error names: a dimension, a matrix shape,
    an option value, an operator file, or a command line's input."""


def _check_operand(value, *classes) -> None:
    """Refuse a value of none of the given classes, or a str unless str is
    one of them (a str is one scalar, never a Sequence), before code that
    expects one fails on it with an error that is no YbxError."""
    if not isinstance(value, classes) or (
            isinstance(value, str) and str not in classes):
        names = " or ".join(cls.__name__ for cls in classes)
        raise InputError(f"expected {names}, not {type(value).__name__}")


def _check_dim(dim, error=InputError) -> None:
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise error(f"dim must be an int, not {dim!r}")
    if dim < 1:
        raise error("dim must be >= 1")


def _shaped(value, n: int, depth: int) -> bool:
    """Whether value nests Sequences of length n, depth deep, none a str."""
    return isinstance(value, Sequence) and not isinstance(value, str) and (
        len(value) == n and (
            depth == 1 or all(_shaped(v, n, depth - 1) for v in value)))


class FrozenRecord:
    """An immutable record over the __slots__ of its subclass, built from
    positional values, equal and hashed by the fields that _key names."""

    __slots__ = ()
    _key = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    @classmethod
    def _make(cls, *values):
        """The record with the given slot values, taken as they are,
        without the subclass's __init__ and its checks."""
        record = object.__new__(cls)
        FrozenRecord.__init__(record, *values)
        return record

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # rebuilt from its slots as they are, so that pickle (whose
        # protocols 0 and 1 cannot save __slots__ on their own) and copy
        # never call the __setattr__ it refuses
        return self._make, tuple(getattr(self, name)
                                 for name in self.__slots__)

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
    """Sparse multivariate polynomial with integer coefficients.

    A Poly is immutable: no code mutates its terms after it is built, so
    its hash is computed on the first call and kept (``_hash``, filled
    lazily, so that building a Poly costs nothing extra)."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        # terms maps monomial -> nonzero int coefficient
        self.terms = {} if terms is None else terms

    def __reduce__(self):
        # protocols 0 and 1 cannot save __slots__ on their own
        return Poly, (self.terms,)

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
        """Exact multivariate division; raises ArithmeticError if not exact
        (``gcd.divexact``)."""
        return gcd.divexact(self, g)

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        from fractions import Fraction
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
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset(self.terms.items()))
            return self._hash

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


def _degree(p: Poly) -> int:
    """The total degree of a nonzero Poly."""
    return max(sum(e for _, e in m) for m in p.terms)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Full gcd over the integers (content times primitive part), with a
    positive graded-lex leading coefficient (``gcd.poly_gcd``)."""
    return gcd.poly_gcd(f, g)


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

    def __reduce__(self):
        # rebuilt as it is, canonical, without the __setattr__ it refuses
        return _reduced, (self.num, self.den)

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
            return _reduced(self.num + other.num, _P_ONE)
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
            return _reduced(self.num * other.num, _P_ONE)
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
        from fractions import Fraction
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
        if isinstance(other, (int, str)):
            try:
                other = as_scalar(other)
            except (ScalarParseError, MalformedScalarError):
                return False  # text that names no scalar equals none
        elif not isinstance(other, ParamScalar):
            from fractions import Fraction
            if not isinstance(other, Fraction):
                return NotImplemented
            other = const(other)
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
    if isinstance(value, int):
        return ParamScalar(Poly.const(value))
    from fractions import Fraction
    _check_operand(value, int, Fraction)
    return rational(value.numerator, value.denominator)


def rational(n: int, d: int) -> ParamScalar:
    """The canonical n/d, for ints n and d > 0."""
    g = math.gcd(n, d)
    return _reduced(Poly.const(n // g),
                    Poly.const(d // g) if d != g else _P_ONE)


def clear_row(row):
    """(s, [e*s as a Poly for e in row]) for s the lcm of the denominators
    of the ParamScalars in row. The distinct denominators other than 1 are
    folded into s once each, highest total degree first (row order among
    equals), and each one's cofactor s/d is formed once. A denominator is
    first tried by one exact division of s so far, so one that divides it
    costs no gcd; a product of denominators comes before its factors. The
    lcm is unique, with a positive leading coefficient and content the lcm
    of the contents, so the order changes no result."""
    cofactors = dict.fromkeys(e.den for e in row)
    cofactors.pop(_P_ONE, None)
    dens = iter(sorted(cofactors, key=_degree, reverse=True))
    scale = next(dens, _P_ONE)
    for d in dens:
        try:
            scale.divexact(d)
        except ArithmeticError:
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
    if isinstance(value, int):
        return const(value)
    if isinstance(value, str):
        return parse_scalar(value)
    from fractions import Fraction
    if isinstance(value, Fraction):
        return const(value)
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
# power  := atom (('^' | '**') '-'? INT)?
# atom   := INT | NAME | '(' expr ')'
# INT and NAME are ASCII: \d would also match the digits of other scripts.
# Any other non-blank character is a bad token; a blank tail matches nothing.

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()])|(?P<bad>\S))"
)


def _tokenize(text: str):
    out = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ScalarParseError(
                f"unexpected character {m[kind]!r} in {text!r}")
        out.append((kind, bounded_int(m[kind]) if kind == "int" else m[kind]))
    return out


# The parser keeps one stack entry per open parenthesis and recurses at no
# depth, so this is a bound on the input, not a guard for the call stack.
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
        if e * _degree(p) > _MAX_POWER_DEGREE:
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


def parse_scalar(text: str) -> ParamScalar:
    """Parse the textual scalar grammar (the same one ``str`` emits).

    One loop reads the tokens left to right and folds each operator as soon
    as its right operand is complete, as a recursive descent would. The sum
    and the product pending at each open parenthesis, with the sign of the
    operand that it starts, wait on a stack, so no input recurses."""
    _check_operand(text, str)
    tokens = _tokenize(text)
    if not tokens:
        raise ScalarParseError("empty scalar expression")
    # (None, None) marks the end; both loops take tokens from one iterator
    tokens = iter(tokens + [(None, None)])
    stack = []
    # the pending sum and product as (left operand, operator), and the sign
    # of the next operand
    total, product, negate = None, None, False
    for kind, val in tokens:
        if val in ("+", "-"):
            negate ^= val == "-"
            continue
        if val == "(":
            if len(stack) == _MAX_NESTING:
                raise ScalarParseError(
                    f"parentheses nested more than {_MAX_NESTING} deep")
            stack.append((total, product, negate))
            total, product, negate = None, None, False
            continue
        if kind == "int":
            value = const(val)
        elif kind == "name":
            value = ParamScalar(Poly.variable(val))
        else:
            raise ScalarParseError(
                f"unexpected end of expression in {text!r}")
        while True:   # value is an atom: a literal, a name or (expr)
            kind, val = next(tokens)
            if val in ("^", "**"):
                kind, e = next(tokens)
                if neg := (kind, e) == ("op", "-"):
                    kind, e = next(tokens)
                if kind != "int":
                    raise ScalarParseError(
                        f"expected integer exponent in {text!r}")
                if neg and e and value.is_zero:
                    raise MalformedScalarError("zero to a negative power")
                _check_power(value, e, text)
                value = value ** (-e if neg else e)
                kind, val = next(tokens)
            if negate:
                value, negate = -value, False
            if product:
                (left, op), product = product, None
                if op == "/" and value.is_zero:
                    raise MalformedScalarError("division by zero in expression")
                _check_product(left, value, op == "/", text)
                value = _BINARY[op](left, value)
            if val in ("*", "/"):
                product = value, val
                break
            if total:
                value = _BINARY[total[1]](total[0], value)
            if val in ("+", "-"):
                total = value, val
                break
            if val == ")" and stack:
                total, product, negate = stack.pop()
            elif stack:
                raise ScalarParseError(f"expected ')' in {text!r}")
            elif kind is None:
                return value
            else:
                raise ScalarParseError(f"trailing input in {text!r}")


def fresh_name(base: str, taken) -> str:
    """base, or base_1, base_2, ... -- the first not in taken."""
    if base not in taken:
        return base
    i = 1
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"
