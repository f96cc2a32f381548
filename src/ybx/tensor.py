"""Endomorphisms of V⊗V and V⊗V⊗V over exact scalars.

Conventions, fixed globally:

* basis vector e_i ⊗ e_j of V⊗V has flat index i*n + j (0-based), and
  e_i ⊗ e_j ⊗ e_k has flat index i*n^2 + j*n + k;
* matrices act on coordinate columns: column = input basis index, row =
  output basis index, so (A@B) means "apply B, then A".

Operator entries are ParamScalar. An operator whose entries are all
rational constants has an integer form: one denominator d and the ints of
d times each row (``_Operator``). Only the operators that
``constructors._product_map`` builds from a table are born with it, and
build their ParamScalar rows when first read; every other operator is its
rows, cleared again each time it enters a product. Products (``@``, the
defects, the round trips A∘B - I, and associativity and graded Jacobi of
a structure table, ``first_failing_triple``) run on integer forms when
every factor has one, and otherwise on each matrix times the lcm of its
denominators in integer-coefficient polynomials; the elimination, in
``elimination``, runs on the polynomials of each row times the lcm of its
denominators. Polynomials have each monomial packed into one int
(``_Packing``), once per product or elimination, so that a product of
monomials is an int addition. A
round trip is compared with d times the identity, d the product of the
two operators' denominators, so every zero test below is exact and no
entry is canonicalised until it leaves the kernel; an axiom
canonicalises only the two sides of its first failing triple.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from fractions import Fraction
from itertools import chain, product
from typing import Sequence

from .scalars import (ONE, ZERO, FrozenRecord, InputError, ParamScalar,
                      Poly, YbxError, _P_ONE, _check_dim, _check_operand,
                      _shaped, as_scalar, clear_row, const)


# the packed 1 and -1 under every _Packing; never mutated
_ONE_TERMS, _MINUS_ONE_TERMS = {0: 1}, {0: -1}


class DimensionMismatch(ValueError, YbxError):
    """Operands live on tensor powers of different spaces."""


class _Operator(FrozenRecord):
    """Shared machinery for square operators on a tensor power of V.

    An operator whose entries are all rational constants has an integer
    form (d, cleared): d > 0, and cleared[i] lists the nonzero (column, int)
    pairs of row i of d times the matrix, sorted by column. Only
    ``constructors._product_map`` makes operators with it, and no rows;
    ``rows``, the matrix of canonical ParamScalars that equality, hashing,
    output, ``evaluate`` and ``substitute`` read, is then built on first
    read and kept. Every other operator holds only its rows, and
    ``int_form`` computes its form from them each time it is asked: no
    operator keeps a computed form."""

    __slots__ = ("dim", "_rows", "_form")
    _key = ("dim", "rows")
    legs: int = 0

    def __init__(self, dim: int, rows: Sequence[Sequence]):
        _check_dim(dim)
        size = dim ** self.legs
        if not _shaped(rows, size, 2):
            raise InputError(f"expected a {size}x{size} matrix for dim {dim}")
        super().__init__(
            dim, tuple(tuple(as_scalar(e) for e in r) for r in rows), None)

    @classmethod
    def _make(cls, dim: int, rows, form):
        """The operator with the given rows and born integer form, taken as
        they are: rows None is built from the form on first read, and form
        None means the operator has no born form."""
        op = object.__new__(cls)
        FrozenRecord.__init__(op, dim, rows, form)
        return op

    @property
    def size(self) -> int:
        return self.dim ** self.legs

    @property
    def rows(self) -> tuple:
        """The matrix, as tuples of canonical ParamScalars."""
        if self._rows is None:
            d, cleared = self._form
            rows = [[ZERO] * self.size for _ in cleared]
            for row, pairs in zip(rows, cleared):
                for c, e in pairs:
                    row[c] = const(Fraction(e, d))
            object.__setattr__(self, "_rows", tuple(map(tuple, rows)))
        return self._rows

    @property
    def int_form(self):
        """The integer form (d, cleared), or None when some entry is not a
        rational constant: the born form, or else one computed from
        ``rows`` on each call and not kept."""
        return self._form or _int_form(self._rows)

    @classmethod
    def from_columns(cls, dim: int, columns):
        """The operator whose column c is the sum of the (row, ParamScalar)
        pairs in columns[c]; zero terms are dropped and missing columns are
        zero. Unlike the constructor, which converts outside input, this
        takes the entries as they are, so they must be ParamScalars."""
        _check_dim(dim)
        size = dim ** cls.legs
        rows = [[ZERO] * size for _ in range(size)]
        try:
            for c, column in enumerate(columns):
                for r, e in column:
                    if not e.is_zero:
                        row = rows[r]
                        row[c] = e if row[c].is_zero else row[c] + e
        except (TypeError, AttributeError, IndexError) as exc:
            raise InputError("columns must list (row, ParamScalar) pairs "
                             f"of a {size}x{size} matrix") from exc
        return cls._make(dim, tuple(map(tuple, rows)), None)

    @classmethod
    def _from_rows(cls, dim: int, rows, scalar):
        """The operator with scalar(e) at (y, c) for each (y, {c: e}) in
        rows, and zero elsewhere: the last step of every product. A kernel
        entry that is 0 (falsy in either lane) is skipped, so a cancelled
        entry of the int lane never becomes a scalar."""
        columns = [[] for _ in range(dim ** cls.legs)]
        for y, row in rows:
            for c, e in row.items():
                if e:
                    columns[c].append((y, scalar(e)))
        return cls.from_columns(dim, columns)

    @classmethod
    def identity(cls, dim: int):
        _check_dim(dim)     # range() below runs before from_columns checks dim
        return cls.from_columns(dim, ([(c, ONE)]
                                      for c in range(dim ** cls.legs)))

    @classmethod
    def zero(cls, dim: int):
        return cls.from_columns(dim, ())

    # -- algebra ------------------------------------------------------------

    def _require_same(self, other):
        if type(other) is not type(self) or other.dim != self.dim:
            raise DimensionMismatch(
                f"cannot combine {type(self).__name__}(dim={self.dim}) with "
                f"{type(other).__name__}(dim={getattr(other, 'dim', '?')})"
            )

    def __matmul__(self, other):
        """Row y of A @ B is e_y pushed through the rows of A, then of B."""
        self._require_same(other)
        rows, (apply, _), _, scalar = _clear((self, other), (0, 1))
        return type(self)._from_rows(
            self.dim, ((y, apply(rows, y)) for y in range(self.size)),
            scalar)

    def _map(self, f, *others):
        """The operator of the same type and dim with f of the entries of
        self and of the others at each place."""
        return type(self)(self.dim, [
            [f(*entries) for entries in zip(*rows)]
            for rows in zip(self.rows, *(o.rows for o in others))
        ])

    def __add__(self, other):
        self._require_same(other)
        return self._map(operator.add, other)

    def __sub__(self, other):
        self._require_same(other)
        return self + (-other)

    def __neg__(self):
        return self._map(operator.neg)

    def scale(self, c) -> "_Operator":
        c = as_scalar(c)
        return self._map(lambda a: c * a)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return all(e.is_zero for r in self.rows for e in r)

    def is_identity(self) -> bool:
        return self == type(self).identity(self.dim)

    def first_nonzero(self):
        """(row, col, entry) of the first nonzero entry, or None."""
        for i, row in enumerate(self.rows):
            for j, e in enumerate(row):
                if not e.is_zero:
                    return i, j, e
        return None

    # -- point evaluation and substitution ----------------------------------

    def evaluate(self, assignment):
        """Specialize every entry at a point (entries become constants)."""
        return self._map(lambda e: const(e.evaluate(assignment)))

    def substitute(self, mapping):
        return self._map(lambda e: e.substitute(mapping))

    # -- serialization ------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "format": "ybx-operator-v1",
            "dim": self.dim,
            "legs": self.legs,
            "matrix": [[str(e) for e in r] for r in self.rows],
        }

    def to_text(self) -> str:
        """Aligned plain-text matrix."""
        cells = [[str(e) for e in r] for r in self.rows]
        widths = [max(len(cells[i][j]) for i in range(self.size))
                  for j in range(self.size)]
        lines = []
        for row in cells:
            body = "  ".join(c.rjust(w) for c, w in zip(row, widths))
            lines.append(f"[ {body} ]")
        return "\n".join(lines)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class Operator2(_Operator):
    """Linear endomorphism of V⊗V as an n^2 x n^2 matrix."""

    legs = 2


class Operator3(_Operator):
    """Linear endomorphism of V⊗V⊗V as an n^3 x n^3 matrix."""

    legs = 3


def operator_from_json_obj(obj: dict):
    """The operator of a ``ybx-operator-v1`` object, as ``to_json_obj``
    writes it; anything else raises InputError. Types are compared exactly,
    since a bool is an int."""
    if type(obj) is not dict or obj.get("format") != "ybx-operator-v1":
        raise InputError("not a ybx-operator-v1 object")
    dim, legs, matrix = obj.get("dim"), obj.get("legs", 2), obj.get("matrix")
    if type(legs) is not int or legs not in (2, 3):
        raise InputError(f"unsupported legs value {legs!r}")
    if type(matrix) is not list or not all(
            type(row) is list and {*map(type, row)} <= {str, int}
            for row in matrix):
        raise InputError("matrix must be a list of rows of strings or ints")
    return (Operator2 if legs == 2 else Operator3)(dim, matrix)


def bilinear(table, x, y) -> tuple:
    """sum_ij x_i y_j table[i][j]: the bilinear extension of an n x n x n
    structure table to two coordinate vectors of ParamScalars."""
    out = [ZERO] * len(table)
    for i, xi in enumerate(x):
        if xi.is_zero:
            continue
        for j, yj in enumerate(y):
            if yj.is_zero:
                continue
            coeff = xi * yj
            for k, t in enumerate(table[i][j]):
                if not t.is_zero:
                    out[k] = out[k] + coeff * t
    return tuple(out)


# ---------------------------------------------------------------------------
# the basic operators and leg embeddings
# ---------------------------------------------------------------------------

def twist(n: int) -> Operator2:
    """The flip v⊗w -> w⊗v as a permutation matrix."""
    _check_dim(n)       # range(n) below runs before from_columns checks n
    return Operator2.from_columns(n, ([(j * n + i, ONE)]
                                      for i in range(n) for j in range(n)))


# positions in (i, j, k) of R's first leg, R's second leg and the spectator
_LEG_POSITIONS = {12: (0, 1, 2), 23: (1, 2, 0), 13: (0, 2, 1)}


def _leg_action(rows, n: int, legs: int):
    """The rows of R's embedding on the chosen pair of tensor factors of
    V⊗V⊗V, for R an n^2 x n^2 matrix given as the nonzero (column, entry)
    pairs of each row, and listed the same way. Fed R's columns as (row,
    entry) pairs, it gives the columns of the embedding.

    Row (a*n + b) of R, moved onto the legs, and the spectator's shift
    c*sc give the embedding's row a*sa + b*sb + c*sc; each leg pair lists
    these in index order, so no row index is computed."""
    if legs not in (12, 23, 13):    # a tuple: unhashable legs are refused
        raise InputError("legs must be one of 12, 23, 13")
    sa, sb, sc = (n ** (2 - pos) for pos in _LEG_POSITIONS[legs])
    index = [r // n * sa + r % n * sb for r in range(n * n)]
    moved = [[(index[c], e) for c, e in row] for row in rows]
    shifts = range(0, n * sc, sc)
    if legs == 12:      # row (a*n + b)*n + c
        return [[(y + s, e) for y, e in m] for m in moved for s in shifts]
    if legs == 23:      # row c*n^2 + (a*n + b)
        return [[(y + s, e) for y, e in m] for s in shifts for m in moved]
    # legs 13: row a*n^2 + c*n + b
    return [[(y + s, e) for y, e in m] for a in range(0, n * n, n)
            for s in shifts for m in moved[a:a + n]]


def embed(R: Operator2, legs: int) -> Operator3:
    """Lift R to V⊗V⊗V acting on the chosen pair of tensor factors: legs 12
    is R⊗I, legs 23 is I⊗R, and legs 13 puts R on the outer pair."""
    _check_operand(R, Operator2)
    columns = [[(r, e) for r, e in enumerate(col) if e]
               for col in zip(*R.rows)]
    return Operator3.from_columns(R.dim, _leg_action(columns, R.dim, legs))


# ---------------------------------------------------------------------------
# products: @, the round trips and the defects, LHS - RHS of the identities
# ---------------------------------------------------------------------------

_CONSTANT = {()}.issuperset


def _int_form(rows):
    """(d, cleared) for the matrix with the given rows of ParamScalars, when
    every entry is a rational constant: d is the lcm of the denominators,
    and cleared[i] lists the nonzero (column, int) pairs of row i of d times
    the matrix, sorted by column. None, found before any list is built,
    when some entry is not a rational constant. Operators compute their
    ``int_form`` with it, and ``first_failing_triple`` and
    ``Algebra.product_table`` clear a structure table with it."""
    # a denominator is never empty, so the two tests leave only constants
    if not all(_CONSTANT(e.num.terms) and _CONSTANT(e.den.terms)
               for row in rows for e in row):
        return None
    terms = [[(c, e.num.terms[()], e.den.terms[()])
              for c, e in enumerate(row) if e.num.terms] for row in rows]
    d = math.lcm(*(den for row in terms for _, _, den in row))
    return d, [[(c, num * (d // den)) for c, num, den in row]
               for row in terms]


def _clear(ops, side):
    """(rows, kernel, d, scalar) for a product whose factors are ops[i] for
    i in side. For each operator X, rows lists the nonzero (column, entry)
    pairs of each row of d_X*X for a common multiple d_X of its entries'
    denominators; d is the product of the factors' d_X, and scalar(e) is
    the canonical e/d. kernel is the (apply, minus) pair of the lane, as
    _defect_rows takes it: the int lane when every operator has an integer
    form, and then d_X is its d, or else the packed lane. Each distinct
    operator is cleared once, however often it occurs in ops."""
    distinct = {id(op): op for op in ops}
    forms = {k: op.int_form for k, op in distinct.items()}
    if all(forms.values()):
        return _int_lane([forms[id(op)] for op in ops], side)
    return _packed_lane([op.rows for op in ops], side)


def _int_lane(forms, side):
    """_clear's result on integer forms."""
    d = math.prod(forms[i][0] for i in side)
    return ([cleared for _, cleared in forms], _INT_KERNEL, d,
            lambda e: const(Fraction(e, d)))


def _packed_lane(mats, side):
    """_clear's result on matrices given by their rows of ParamScalars: an
    operator's ``rows``, or the n^2 rows (i, j) -> table[i][j] of an n x n x
    n structure table. d_X is the lcm of X's denominators, and the entries
    are polynomials packed by one _Packing whose rows are the factors, each
    its matrix's cleared entries and d_X, so that S bounds the degree of d
    and of every entry the product forms: each takes at most one entry from
    each factor."""
    cleared = {}
    for m in mats:
        flat = list(chain.from_iterable(m))
        nonzero = [i for i, e in enumerate(flat) if e.num.terms]
        cleared[id(m)] = (m, nonzero, *clear_row([flat[i] for i in nonzero]))
    factors = [cleared[id(mats[i])] for i in side]
    packing = _Packing([values + [s] for _, _, s, values in factors])
    den = math.prod((s for _, _, s, _ in factors), start=_P_ONE)
    for k, (m, nonzero, _, values) in cleared.items():
        width = len(m[0])
        rows = [[] for _ in m]
        for i, e in zip(nonzero, values):
            rows[i // width].append((i % width, packing.pack(e)))
        cleared[k] = rows
    return ([cleared[id(m)] for m in mats], _PACKED_KERNEL, packing.pack(den),
            lambda e: ParamScalar(packing.unpack(e), den))


def _apply(actions, x: int) -> dict:
    """e_x pushed through the row actions, first to last (each lists the
    nonzero (column, entry) pairs of each row, adding on a repeated column):
    row x of their product, as a sparse {column: entry} map. The int lane;
    an entry that cancels to 0 is carried along and may be returned, so
    its callers drop zeros only where they matter: ``_defect_rows`` from
    the difference of two rows, ``_from_rows`` from a product's rows."""
    vec = actions[0][x]
    for action in actions[1:]:
        out = {}
        for x, s in vec:
            for y, e in action[x]:
                out[y] = out.get(y, 0) + s * e
        vec = out.items()
    return out if len(actions) > 1 else dict(vec)


def _apply_packed(actions, x: int) -> dict:
    """As _apply, on packed polynomials: each entry of a step is one _dot
    of the products that land on its column."""
    vec = actions[0][x]
    for action in actions[1:]:
        pairs = defaultdict(list)
        for x, s in vec:
            for y, e in action[x]:
                pairs[y].append((s, e))
        vec = [(y, p) for y, terms in pairs.items() if (p := _dot(terms))]
    return dict(vec)


def _minus(left: dict, right: dict) -> dict:
    """left - right for two sparse rows of ints, without its zeros; reuses
    left."""
    for c, e in right.items():
        left[c] = left[c] - e if c in left else -e
    return {c: e for c, e in left.items() if e}


def _minus_packed(left: dict, right: dict) -> dict:
    """As _minus, on packed polynomials."""
    for c, e in right.items():
        left[c] = (_dot(((left[c], _ONE_TERMS), (e, _MINUS_ONE_TERMS)))
                   if c in left else _neg(e))
    return {c: e for c, e in left.items() if e}


# the two lanes of every product, as _clear returns them
_INT_KERNEL = (_apply, _minus)
_PACKED_KERNEL = (_apply_packed, _minus_packed)


def _defect_rows(size: int, lhs, rhs, kernel):
    """(row, {col: nonzero entry}) for each nonzero row of lhs - rhs, in
    order, for size x size products; lhs and rhs list the row actions of
    the two products from the left, so applying them to e_y gives row y.
    The int lane's rows may hold a cancelled 0, so two raw rows that differ
    can still be equal: a row counts only if its difference, from which
    the kernel's minus drops the zeros, is nonempty. Most equal rows are
    equal as they come, and pay one dict comparison."""
    apply, minus = kernel
    for y in range(size):
        left, right = apply(lhs, y), apply(rhs, y)
        if left != right and (row := minus(left, right)):
            yield y, row


class Defect:
    """LHS - RHS of an identity between operators of one class, scanned
    when it is built: the scan stops at the first nonzero row and keeps its
    first nonzero entry. The full matrix is recomputed on demand by
    ``dense``."""

    __slots__ = ("dim", "_cls", "_rows", "_scalar", "_first")

    def __init__(self, cls, dim: int, rows, scalar):
        # rows() yields the nonzero rows as in _defect_rows; scalar turns
        # one of their entries into the defect's ParamScalar entry, as
        # _clear returns it
        self._cls = cls
        self.dim = dim
        self._rows = rows
        self._scalar = scalar
        found = next(rows(), None)
        if found is None:
            self._first = None
        else:
            y, row = found
            col = min(row)
            self._first = (y, col, scalar(row[col]))

    def is_zero(self) -> bool:
        return self._first is None

    def first_nonzero(self):
        """(row, col, entry) of the first nonzero entry in row-major order,
        or None."""
        return self._first

    def dense(self):
        """The whole defect as an operator of its operands' class."""
        return self._cls._from_rows(self.dim, self._rows(), self._scalar)

    def __repr__(self):
        return f"Defect(dim={self.dim}, first_nonzero={self._first})"


def _defect(ops, legs, lhs, rhs) -> Defect:
    """ops[i] on the leg pair legs[i]; lhs and rhs index the three factors
    of each product, leftmost first. The kernel runs on the cleared
    operators, so its entries are over the product of the d of one side."""
    for op in ops:
        _check_operand(op, Operator2)
    n = ops[0].dim
    if any(op.dim != n for op in ops):
        raise DimensionMismatch("yb_commutator needs equal dims")
    rows, kernel, _, scalar = _clear(ops, lhs)
    actions = [_leg_action(r, n, leg) for r, leg in zip(rows, legs)]
    lhs = [actions[i] for i in lhs]
    rhs = [actions[i] for i in rhs]
    return Defect(Operator3, n,
                  lambda: _defect_rows(n ** 3, lhs, rhs, kernel), scalar)


def first_failing_triple(table, steps):
    """The first basis triple (i, j, k), in row-major order, on which two
    products differ, or None: each is a first step, then m, the table's
    n^2 x n matrix, on the product kernel. steps(i, j, k, m) gives the two
    first steps' rows, as (column, entry) pairs of m's cleared rows."""
    n = len(table)
    triples = list(product(range(n), repeat=3))
    rows = list(chain.from_iterable(table))
    form = _int_form(rows)
    (m,), kernel, _, _ = (_int_lane([form], (0, 0)) if form
                          else _packed_lane([rows], (0, 0)))
    lhs, rhs = zip(*(steps(i, j, k, m) for i, j, k in triples))
    found = next(_defect_rows(n ** 3, [lhs, m], [rhs, m], kernel), None)
    return None if found is None else triples[found[0]]


def roundtrip_defect(A: _Operator, B: _Operator) -> Defect:
    """Defect of A∘B = I, that is A @ B minus the identity. The kernel
    compares row y of the cleared product with d*e_y, for d the product of
    the two operators' denominators, so the product is never
    canonicalised."""
    _check_operand(A, Operator2, Operator3)
    A._require_same(B)
    rows, kernel, d, scalar = _clear((A, B), (0, 1))
    identity = [[(y, d)] for y in range(A.size)]
    return Defect(type(A), A.dim,
                  lambda: _defect_rows(A.size, rows, [identity], kernel),
                  scalar)


def yb_commutator(R: Operator2, S: Operator2, T: Operator2) -> Defect:
    """R^12 S^13 T^23 - T^23 S^13 R^12."""
    return _defect((R, S, T), (12, 13, 23), (0, 1, 2), (2, 1, 0))


def braid_defect(R: Operator2) -> Defect:
    """Defect of R^12 R^23 R^12 = R^23 R^12 R^23."""
    return _defect((R, R), (12, 23), (0, 1, 0), (1, 0, 1))


def qybe_defect(R: Operator2) -> Defect:
    """Defect of R^12 R^13 R^23 = R^23 R^13 R^12 (the constant QYBE)."""
    return yb_commutator(R, R, R)


def colored_defect(Rxy: Operator2, Rxz: Operator2, Ryz: Operator2) -> Defect:
    """Defect of the two-parameter QYBE for the three given specializations
    R(u,v), R(u,w), R(v,w)."""
    return yb_commutator(Rxy, Rxz, Ryz)


# ---------------------------------------------------------------------------
# exact elimination: determinant, inverse, nullspace, run by ``elimination``,
# which each of them imports when called
# ---------------------------------------------------------------------------

class InverseResult(FrozenRecord):
    """Outcome of an exact inversion: (invertible, the inverse operator or
    None, determinant). Non-invertibility is a result, not an error, and
    carries the vanishing determinant."""

    __slots__ = _key = ("invertible", "operator", "determinant")


class _Packing:
    """Monomials of one matrix of Polys packed into ints (Monagan & Pearce
    2007, "Polynomial division using dynamic arrays, heaps, and packed
    exponent vectors").

    The names are the sorted union of the matrix's indeterminates. A
    monomial becomes one int with W-bit fields: its total degree in the top
    field, then one field per exponent, the first name highest. The top bit
    of each field is a guard bit that no exponent or degree reaches. Then a
    product of monomials is the sum of their ints; int comparison is graded
    lex, the order of ``Poly``, so the leading term is the ``max``; and m is
    divisible by g exactly when no field of m - g borrows, that is when
    (m - g) & guard == 0 (the lowest field that borrows sets its guard bit).

    W is (2*S).bit_length() + 1 for S the sum over rows of the largest
    total degree in the row. That is enough for every monomial that the
    elimination forms. Each Bareiss entry of block k is a minor of block
    k's rows, so of the matrix; D, the product of the blocks' last pivots,
    is the determinant up to sign, and each unknown of the back-substitution
    is, by Cramer's rule, D times a quotient of minors, itself a minor up to
    sign. A minor takes at most one entry from each row, so its degree is at
    most S. Each product formed is a product of two of them, of degree at
    most 2*S, and a division, exact or not, forms only monomials of degree
    at most its dividend's: every term it adds is a quotient monomial times
    a term of the divisor no higher than the divisor's leading one. A field
    is at most the total degree, so it stays at most 2*S < 2^(W - 1), below
    its guard bit. For a product (``_clear``) the rows are its factors, so
    S bounds every entry it forms, and the same W leaves room to spare.
    """

    __slots__ = ("fields", "units", "mask", "guard", "monos", "pairs")

    def __init__(self, M):
        names = sorted(set().union(*(p.names for row in M for p in row)))
        S = sum(max((sum(e for _, e in m) for p in row for m in p.terms),
                    default=0) for row in M)
        W = (2 * S).bit_length() + 1
        n = len(names)
        self.fields = [(name, (n - 1 - i) * W) for i, name in enumerate(names)]
        # the unit of a name adds 1 to its field and 1 to the degree
        self.units = {name: 1 << shift | 1 << n * W
                      for name, shift in self.fields}
        self.mask = (1 << W) - 1
        self.guard = sum(1 << (i * W + W - 1) for i in range(n + 1))
        self.monos, self.pairs = {}, {}

    def pack(self, p: Poly) -> dict:
        units = self.units
        return {sum(e * units[name] for name, e in m): c
                for m, c in p.terms.items()}

    def unpack(self, terms: dict) -> Poly:
        """The Poly of packed terms. Each monomial and each (name,
        exponent) pair is built once per packing, so the entries of one
        result share them."""
        monos, pairs = self.monos, self.pairs
        fields, mask = self.fields, self.mask
        out = {}
        for k, c in terms.items():
            mono = monos.get(k)
            if mono is None:
                mono = monos[k] = tuple(
                    pairs.setdefault((name, e), (name, e))
                    for name, shift in fields if (e := k >> shift & mask))
            out[mono] = c
        return Poly(out)


def _dot(pairs) -> dict:
    """The sum of a*b over the (a, b) pairs of packed polynomials."""
    out: dict = {}
    get = out.get
    for a, b in pairs:
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _neg(a: dict) -> dict:
    return {k: -c for k, c in a.items()}


def determinant(op: _Operator) -> ParamScalar:
    """Exact determinant of the operator's matrix."""
    from . import elimination
    return elimination.determinant(op)


def invert(op: _Operator) -> InverseResult:
    """Exact inverse over the rational-function field, via fraction-free
    elimination over Z[params]; reports the determinant either way."""
    from . import elimination
    return elimination.invert(op)


def nullspace(rows: Sequence[Sequence[ParamScalar]]):
    """A basis of the right nullspace of a rectangular scalar matrix.

    Returns a list of coordinate tuples, one per non-pivot column fc, with
    1 at fc and 0 at the other non-pivot columns; exact over the
    rational-function field."""
    from . import elimination
    return elimination.nullspace(rows)
