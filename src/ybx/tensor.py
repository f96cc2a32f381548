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
defects and the round trips A∘B - I) clear their factors here
(``_clear``) and run on the product kernel, ``kernel``.
"""

from __future__ import annotations

import operator
from typing import Sequence

from . import elimination
from .kernel import (_defect_rows, _int_form, _int_lane, _packed_lane,
                     _shared_rows)
from .scalars import (ONE, ZERO, FrozenRecord, InputError, ParamScalar,
                      YbxError, _check_dim, _check_operand, _shaped,
                      as_scalar, const, rational)


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
    operator keeps a computed form. ``_make(dim, rows, form)`` takes both
    as they are: rows None is built from the form on first read, and form
    None means the operator has no born form."""

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
                    row[c] = rational(e, d)
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
        pairs in columns[c], each row in range(size); zero terms are dropped
        and missing columns are zero. Unlike the constructor, which converts
        outside input, this takes the entries as they are, so they must be
        ParamScalars."""
        _check_dim(dim)
        size = dim ** cls.legs
        rows = [[ZERO] * size for _ in range(size)]
        try:
            for c, column in enumerate(columns):
                for r, e in column:
                    # rows[r] would take a negative r from the end
                    if not 0 <= r < size:
                        raise IndexError(f"row {r} of column {c}")
                    if not e.is_zero:
                        row = rows[r]
                        row[c] = e if row[c].is_zero else row[c] + e
        except (TypeError, ValueError, AttributeError, IndexError) as exc:
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
    these in index order, so no row index is computed. The rows are not
    copied where they need no change: legs 23 move no index, and shift 0
    moves no row, so the result may hold the given row lists themselves,
    and neither it nor they may be mutated."""
    if legs not in (12, 23, 13):    # a tuple: unhashable legs are refused
        raise InputError("legs must be one of 12, 23, 13")
    sa, sb, sc = (n ** (2 - pos) for pos in _LEG_POSITIONS[legs])
    index = [r // n * sa + r % n * sb for r in range(n * n)]
    # legs 23 move each column r to r, so R's rows serve as they are
    moved = rows if legs == 23 else [[(index[c], e) for c, e in row]
                                     for row in rows]
    shifts = range(0, n * sc, sc)
    if legs == 12:      # row (a*n + b)*n + c
        return [[(y + s, e) for y, e in m] if s else m
                for m in moved for s in shifts]
    if legs == 23:      # row c*n^2 + (a*n + b)
        return [[(y + s, e) for y, e in m] if s else m
                for s in shifts for m in moved]
    # legs 13: row a*n^2 + c*n + b
    return [[(y + s, e) for y, e in m] if s else m
            for a in range(0, n * n, n) for s in shifts
            for m in moved[a:a + n]]


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
    operators, so its entries are over the product of the d of one side.
    When the last two factors of lhs are the first two of rhs, as in the
    braid equation, both sides read their product M, and the scan forms
    each row of M once, when it first reads it (``_shared_rows``)."""
    for op in ops:
        _check_operand(op, Operator2)
    n = ops[0].dim
    if any(op.dim != n for op in ops):
        raise DimensionMismatch("the defect's operands need equal dims, got "
                                + ", ".join(str(op.dim) for op in ops))
    rows, kernel, _, scalar = _clear(ops, lhs)
    actions = [_leg_action(r, n, leg) for r, leg in zip(rows, legs)]
    if lhs[1:] == rhs[:-1]:
        a, b = actions[lhs[0]], actions[rhs[-1]]
        mid = [actions[i] for i in lhs[1:]]
        return Defect(Operator3, n,
                      lambda: _shared_rows(n ** 3, a, mid, b, kernel), scalar)
    lhs = [actions[i] for i in lhs]
    rhs = [actions[i] for i in rhs]
    return Defect(Operator3, n,
                  lambda: _defect_rows(n ** 3, lhs, rhs, kernel), scalar)


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
# which loads when one of them is first called
# ---------------------------------------------------------------------------

class InverseResult(FrozenRecord):
    """Outcome of an exact inversion: (invertible, the inverse operator or
    None, determinant). Non-invertibility is a result, not an error, and
    carries the vanishing determinant."""

    __slots__ = _key = ("invertible", "operator", "determinant")


def determinant(op: _Operator) -> ParamScalar:
    """Exact determinant of the operator's matrix."""
    return elimination.determinant(op)


def invert(op: _Operator) -> InverseResult:
    """Exact inverse over the rational-function field, via fraction-free
    elimination over Z[params]; reports the determinant either way."""
    return elimination.invert(op)


def nullspace(rows: Sequence[Sequence[ParamScalar]]):
    """A basis of the right nullspace of a rectangular scalar matrix.

    Returns a list of coordinate tuples, one per non-pivot column fc, with
    1 at fc and 0 at the other non-pivot columns; exact over the
    rational-function field."""
    return elimination.nullspace(rows)
