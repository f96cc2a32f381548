"""Finite-dimensional unital associative algebras by structure constants.

An algebra is stored as the 3-index table c with e_i * e_j = sum_k
c[i][j][k] e_k, together with the coordinates of the unit. Validation is
eager: every Algebra that exists has passed the associativity and unit
checks, so downstream constructions never need to re-ask.
"""

from __future__ import annotations

import json
import os
from typing import Optional, Sequence

from .scalars import (ONE, ZERO, FrozenRecord, InputError, YbxError,
                      _check_dim, _check_operand, _shaped, as_scalar,
                      bounded_int)
from .kernel import _int_form, combine, first_failing_triple


class AlgebraError(ValueError, YbxError):
    """Base for structure-table rejections."""


class ShapeError(AlgebraError):
    pass


class AssociativityError(AlgebraError):
    """Carries the basis triple on which the two association orders differ."""

    def __init__(self, witness, lhs, rhs):
        i, j, k = witness
        super().__init__(
            f"(e{i}*e{j})*e{k} != e{i}*(e{j}*e{k}): "
            f"{_fmt_vec(lhs)} vs {_fmt_vec(rhs)}"
        )
        self.witness = witness
        self.lhs = lhs
        self.rhs = rhs


class UnitError(AlgebraError):
    """Carries the basis index on which the unit law fails."""

    def __init__(self, witness, side, got):
        super().__init__(
            f"unit law fails at e{witness} ({side}): got {_fmt_vec(got)}"
        )
        self.witness = witness
        self.side = side


class FieldTypeError(ValueError, YbxError):
    """A structure file field has the wrong JSON type. This is bad input,
    not a violated axiom, so it is deliberately not an AlgebraError."""


def _check_nested(name, value, depth) -> None:
    if depth == 0:
        if type(value) not in (int, str):
            raise FieldTypeError(
                f"{name} entries must be integers or strings, got {value!r}")
    elif not isinstance(value, list):
        raise FieldTypeError(f"{name} must be a list, got {value!r}")
    else:
        for item in value:
            _check_nested(name, item, depth - 1)


def _fmt_vec(v) -> str:
    return "(" + ", ".join(str(c) for c in v) + ")"


class TableRecord(FrozenRecord):
    """A structure-constant table and its fields, taken by position; the
    last slot, _index, keeps product_table outside _key. _table names the
    field that holds the table, _vector the per-basis-vector field written
    beside it, and _shape_error the error for operands of the wrong shape."""

    __slots__ = ()

    def __init__(self, *fields):
        super().__init__(*fields, None)

    def product_table(self):
        """(entries, values, ints), computed on first call and kept:
        entries[i][j] lists (k, t) for each nonzero c_ijk, which is
        values[t], the t-th distinct nonzero constant; ints is (d_T, the
        ints d_T*values[t]) for d_T the lcm of their denominators, or None
        when some constant is not rational."""
        if self._index is None:
            index = {}
            entries = [[[(k, index.setdefault(e, len(index)))
                         for k, e in enumerate(row) if e] for row in plane]
                       for plane in getattr(self, self._table)]
            values = list(index)
            form = _int_form([values])
            ints = form and (form[0], [e for _, e in form[1][0]])
            object.__setattr__(self, "_index", (entries, values, ints))
        return self._index

    @property
    def names(self) -> frozenset:
        return frozenset().union(*(e.names for plane in getattr(
            self, self._table) for row in plane for e in row))

    def to_json_obj(self) -> dict:
        return {
            "dim": self.dim,
            self._vector: [e if isinstance(e, int) else str(e)
                           for e in getattr(self, self._vector)],
            "labels": list(self.labels),
            "structure": [[[str(e) for e in row] for row in plane]
                          for plane in getattr(self, self._table)],
        }

    def _elements(self, a, b):
        """The product of two coordinate vectors through the table."""
        n = self.dim
        if not (_shaped(a, n, 1) and _shaped(b, n, 1)):
            raise self._shape_error(
                f"expected coordinate vectors of length {n}")
        a, b = [as_scalar(x) for x in a], [as_scalar(x) for x in b]
        return combine(a, [combine(b, plane)
                           for plane in getattr(self, self._table)])


class Algebra(TableRecord):
    """Validated unital associative algebra. Immutable."""

    __slots__ = ("dim", "structure", "unit", "labels", "_index")
    _key = ("dim", "structure", "unit")
    _table = "structure"
    _vector = "unit"
    _shape_error = ShapeError

    def __repr__(self):
        return f"Algebra(dim={self.dim}, labels={list(self.labels)})"

    def substitute(self, mapping) -> "Algebra":
        """Specialize symbolic structure constants; the result is re-validated
        (specialization can only preserve the axioms, but cheap is cheap)."""
        return make_algebra(
            self.dim,
            [[[e.substitute(mapping) for e in row] for row in plane]
             for plane in self.structure],
            [e.substitute(mapping) for e in self.unit],
            list(self.labels),
        )


def mul_elements(A: Algebra, a: Sequence, b: Sequence):
    """Product of two coordinate vectors through the structure constants."""
    _check_operand(A, Algebra)
    return A._elements(a, b)


def freeze_table(dim, table, vector, vector_error, convert, labels, error,
                 noun):
    """The dim x dim x dim table with scalar entries, the vector (unit or
    degrees) through convert, and the labels as strings, defaulting to
    e0, e1, ... Equal entries of the table become one shared object, and
    each distinct raw entry is converted once.
    Raises error on the first of: dim below 1, a table of the wrong shape,
    vector_error (a message, or None for a good vector), and labels of the
    wrong length."""
    _check_dim(dim, error)
    if not _shaped(table, dim, 3):
        raise error(f"{noun} table must be {dim}x{dim}x{dim}")
    if vector_error is not None:
        raise error(vector_error)
    pool, seen = {}, {}

    def entry(raw):
        # each distinct raw value is converted once; the key holds its type
        # because 1, True, 1.0 and Fraction(1) are equal, and only the int
        # and the Fraction are scalars
        try:
            return seen[type(raw), raw]
        except KeyError:
            s = as_scalar(raw)
            seen[type(raw), raw] = s = pool.setdefault(s, s)
            return s
        except TypeError:   # unhashable, so as_scalar refuses it
            return as_scalar(raw)

    frozen = tuple(tuple(tuple(map(entry, row)) for row in plane)
                   for plane in table)
    vector = tuple(convert(e) for e in vector)
    if labels is None:
        labels = [f"e{i}" for i in range(dim)]
    elif not _shaped(labels, dim, 1):
        raise error(f"labels must have length {dim}")
    return frozen, vector, tuple(str(s) for s in labels)


def make_algebra(dim: int, structure, unit, labels: Optional[Sequence[str]] = None) -> Algebra:
    """Validate and freeze a structure-constant table.

    Rejections carry a witness: the basis triple where associativity breaks,
    or the basis index where the unit law breaks.
    """
    c, u, labels = freeze_table(
        dim, structure, unit,
        None if _shaped(unit, dim, 1) else
        f"unit vector must have length {dim}",
        as_scalar, labels, ShapeError, "structure")

    # unit law, both sides: u*e_i sums u over column i, e_i*u over row i
    columns = tuple(zip(*c))
    for i, (row, column) in enumerate(zip(c, columns)):
        for side, got in (("unit*e", combine(u, column)),
                          ("e*unit", combine(u, row))):
            if got[i] != ONE or any(got[:i]) or any(got[i + 1:]):
                raise UnitError(i, side, got)

    # associativity: m∘(m⊗1) = m∘(1⊗m) on every basis triple
    def sides(i, j, k, m):
        return ([(l * dim + k, e) for l, e in m[i * dim + j]],
                [(i * dim + l, e) for l, e in m[j * dim + k]])
    if failing := first_failing_triple(c, sides):
        i, j, k = failing
        raise AssociativityError(failing, combine(c[i][j], columns[k]),
                                 combine(c[j][k], c[i]))

    return Algebra(dim, c, u, labels)


def quadratic_quotient_algebra(m, n) -> Algebra:
    """The dim-2 quotient of a polynomial ring by X^2 - m*X - n, with
    basis {1, x}; m = 0 specializes to the x^2 = sigma family."""
    m = as_scalar(m)
    n = as_scalar(n)
    structure = [
        [[ONE, ZERO], [ZERO, ONE]],
        [[ZERO, ONE], [n, m]],
    ]
    return make_algebra(2, structure, [ONE, ZERO], ["1", "x"])


def read_structure(obj, what: str, error, fields: dict) -> tuple:
    """(dim, the required fields in the order given, labels or None) of a
    structure file's object. fields maps each required field to its list
    depth. A missing field raises error; a wrong JSON type, FieldTypeError."""
    if not isinstance(obj, dict):
        raise FieldTypeError(
            f"{what} must be a JSON object, got {type(obj).__name__}")
    try:
        dim, *values = [obj[name] for name in ("dim", *fields)]
    except KeyError as exc:
        raise error(f"{what} object is missing field {exc}") from None
    if type(dim) is not int:
        raise FieldTypeError(f"dim must be an integer, got {dim!r}")
    for (name, depth), value in zip(fields.items(), values):
        _check_nested(name, value, depth)
    labels = obj.get("labels")
    if labels is not None:
        _check_nested("labels", labels, 1)
    return (dim, *values, labels)


def load_structure(path, from_json_obj):
    """Read a structure file with from_json_obj, its integers bounded. A
    file that is missing, cannot be read or is not UTF-8 JSON raises
    InputError naming path."""
    _check_operand(path, str, os.PathLike)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, parse_int=bounded_int)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # json raises RecursionError on arrays nested past the stack limit
        raise InputError(f"not valid JSON: {path}: {exc}") from exc
    return from_json_obj(obj)


def algebra_from_json_obj(obj: dict) -> Algebra:
    return make_algebra(*read_structure(
        obj, "algebra", ShapeError, {"structure": 3, "unit": 1}))


def load_algebra(path) -> Algebra:
    return load_structure(path, algebra_from_json_obj)
