"""Finite-dimensional unital associative algebras by structure constants.

An algebra is stored as the 3-index table c with e_i * e_j = sum_k
c[i][j][k] e_k, together with the coordinates of the unit. Validation is
eager: every Algebra that exists has passed the associativity and unit
checks, so downstream constructions never need to re-ask.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from .scalars import ONE, ZERO, as_scalar
from .tensor import bilinear


class AlgebraError(ValueError):
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


class FieldTypeError(ValueError):
    """A structure file field has the wrong JSON type. This is bad input,
    not a violated axiom, so it is deliberately not an AlgebraError."""


def check_field_types(dim, fields) -> None:
    """Reject a structure object whose dim is not an integer, or whose
    fields (name -> (value, depth); None means absent) are not lists
    nested depth deep with integer or string entries."""
    if type(dim) is not int:
        raise FieldTypeError(f"dim must be an integer, got {dim!r}")
    for name, (value, depth) in fields.items():
        if value is not None:
            _check_nested(name, value, depth)


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


class Algebra:
    """Validated unital associative algebra. Immutable."""

    __slots__ = ("dim", "structure", "unit", "labels")

    def __init__(self, dim, structure, unit, labels):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, *_):
        raise AttributeError("Algebra is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and other.dim == self.dim
            and other.structure == self.structure
            and other.unit == self.unit
        )

    def __hash__(self):
        return hash((self.dim, self.structure, self.unit))

    def __repr__(self):
        return f"Algebra(dim={self.dim}, labels={list(self.labels)})"

    @property
    def names(self) -> frozenset:
        out = frozenset()
        for plane in self.structure:
            for row in plane:
                for e in row:
                    out = out | e.names
        return out

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

    def to_json_obj(self) -> dict:
        return {
            "dim": self.dim,
            "unit": [str(e) for e in self.unit],
            "labels": list(self.labels),
            "structure": [[[str(e) for e in row] for row in plane]
                          for plane in self.structure],
        }


def mul_elements(A: Algebra, a: Sequence, b: Sequence):
    """Product of two coordinate vectors through the structure constants."""
    n = A.dim
    if len(a) != n or len(b) != n:
        raise ShapeError(f"expected coordinate vectors of length {n}")
    return bilinear(A.structure, [as_scalar(x) for x in a],
                    [as_scalar(x) for x in b])


def make_algebra(dim: int, structure, unit, labels: Optional[Sequence[str]] = None) -> Algebra:
    """Validate and freeze a structure-constant table.

    Rejections carry a witness: the basis triple where associativity breaks,
    or the basis index where the unit law breaks.
    """
    if dim < 1:
        raise ShapeError("dim must be >= 1")
    if len(structure) != dim or any(
        len(plane) != dim or any(len(row) != dim for row in plane)
        for plane in structure
    ):
        raise ShapeError(f"structure table must be {dim}x{dim}x{dim}")
    if len(unit) != dim:
        raise ShapeError(f"unit vector must have length {dim}")
    c = tuple(
        tuple(tuple(as_scalar(e) for e in row) for row in plane)
        for plane in structure
    )
    u = tuple(as_scalar(e) for e in unit)
    if labels is None:
        labels = [f"e{i}" for i in range(dim)]
    elif len(labels) != dim:
        raise ShapeError(f"labels must have length {dim}")

    basis = [tuple(ONE if k == i else ZERO for k in range(dim))
             for i in range(dim)]

    # unit law on every basis vector, both sides
    for i, e in enumerate(basis):
        left = bilinear(c, u, e)
        if left != e:
            raise UnitError(i, "unit*e", left)
        right = bilinear(c, e, u)
        if right != e:
            raise UnitError(i, "e*unit", right)

    # associativity on every basis triple
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lhs = bilinear(c, c[i][j], basis[k])
                rhs = bilinear(c, basis[i], c[j][k])
                if lhs != rhs:
                    raise AssociativityError((i, j, k), lhs, rhs)

    return Algebra(dim, c, u, tuple(str(s) for s in labels))


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


def check_json_object(obj, what: str) -> None:
    """Reject a structure file whose top-level value is not an object."""
    if not isinstance(obj, dict):
        raise FieldTypeError(
            f"{what} must be a JSON object, got {type(obj).__name__}")


def algebra_from_json_obj(obj: dict) -> Algebra:
    check_json_object(obj, "algebra")
    try:
        dim = obj["dim"]
        structure = obj["structure"]
        unit = obj["unit"]
    except KeyError as exc:
        raise ShapeError(f"algebra object is missing field {exc}") from None
    labels = obj.get("labels")
    check_field_types(dim, {"structure": (structure, 3), "unit": (unit, 1),
                            "labels": (labels, 1)})
    return make_algebra(dim, structure, unit, labels)


def load_algebra(path) -> Algebra:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return algebra_from_json_obj(obj)
