"""Finite-dimensional Lie superalgebras over exact scalars.

A superalgebra is a Z2-graded basis (degree 0 or 1 per basis vector) with
a bracket table b, [e_i, e_j] = sum_k b[i][j][k] e_k. Construction
validates the graded axioms and rejections carry a witness naming the
axiom and the basis indices. The graded sign (-1)^{|x||y|} only makes
sense on homogeneous elements, so everything sign-dependent downstream is
defined on the basis and extended bilinearly.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .algebra import (TableRecord, freeze_table, load_structure,
                      read_structure)
from .scalars import ZERO, YbxError, as_scalar
from .tensor import bilinear, first_failing_triple, nullspace


class SuperalgebraError(ValueError, YbxError):
    """Base for bracket-table rejections; subclasses carry a witness."""


class ShapeError(SuperalgebraError):
    pass


class GradingError(SuperalgebraError):
    def __init__(self, witness):
        i, j, k = witness
        super().__init__(
            f"[e{i}, e{j}] has a component on e{k} of the wrong parity"
        )
        self.witness = witness


class AntisymmetryError(SuperalgebraError):
    def __init__(self, witness):
        i, j = witness
        super().__init__(
            f"[e{i}, e{j}] != -(-1)^(|e{i}||e{j}|) [e{j}, e{i}]"
        )
        self.witness = witness


class JacobiError(SuperalgebraError):
    def __init__(self, witness):
        i, j, k = witness
        super().__init__(
            f"graded Jacobi identity fails on the basis triple "
            f"(e{i}, e{j}, e{k})"
        )
        self.witness = witness


class LieSuperalgebra(TableRecord):
    """Validated Lie superalgebra. Immutable."""

    __slots__ = ("dim", "degree", "bracket", "labels", "_index")
    _key = ("dim", "degree", "bracket")
    _table = "bracket"

    def __repr__(self):
        return f"LieSuperalgebra(dim={self.dim}, degree={list(self.degree)})"

    def even_indices(self):
        return [i for i in range(self.dim) if self.degree[i] == 0]

    def to_json_obj(self) -> dict:
        return {
            "dim": self.dim,
            "degree": list(self.degree),
            "labels": list(self.labels),
            "structure": [[[str(e) for e in row] for row in plane]
                          for plane in self.bracket],
        }


def bracket_elements(L: LieSuperalgebra, x: Sequence, y: Sequence):
    """Bilinear extension of the bracket table to coordinate vectors."""
    n = L.dim
    if len(x) != n or len(y) != n:
        raise ShapeError(f"expected coordinate vectors of length {n}")
    return bilinear(L.bracket, [as_scalar(c) for c in x],
                    [as_scalar(c) for c in y])


def make_superalgebra(dim: int, degree, bracket,
                      labels: Optional[Sequence[str]] = None) -> LieSuperalgebra:
    """Validate and freeze a graded bracket table."""
    bad_degree = len(degree) != dim or any(d not in (0, 1) for d in degree)
    b, deg, labels = freeze_table(
        dim, bracket, degree,
        "degree must list one of 0, 1 per basis vector" if bad_degree
        else None, int, labels, ShapeError, "bracket")

    # grading: [e_i, e_j] must be homogeneous of degree |e_i| + |e_j|
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if not b[i][j][k].is_zero and deg[k] != (deg[i] + deg[j]) % 2:
                    raise GradingError((i, j, k))

    # super antisymmetry: [e_i, e_j] = -(-1)^{|e_i||e_j|} [e_j, e_i]
    for i in range(dim):
        for j in range(i, dim):
            flip = deg[i] * deg[j] == 0
            for k in range(dim):
                other = -b[j][i][k] if flip else b[j][i][k]
                if b[i][j][k] != other:
                    raise AntisymmetryError((i, j))

    # graded Jacobi on basis triples: the cyclic terms
    # (-1)^{|x||z|}[e_x,[e_y,e_z]] of sign + equal those of sign -
    def cyclic_terms(i, j, k, m):
        sides = ([], [])
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            sides[deg[x] * deg[z]].extend(
                (x * dim + l, e) for l, e in m[y * dim + z])
        return sides
    if failing := first_failing_triple(b, cyclic_terms):
        raise JacobiError(failing)

    return LieSuperalgebra(dim, deg, b, labels)


def even_center(L: LieSuperalgebra):
    """Basis of the even central elements, as full coordinate vectors.

    Solves [z, e_j] = 0 for all basis e_j with z supported on the even
    basis vectors; an exact nullspace over the scalar field.
    """
    even = L.even_indices()
    # rows: one equation per (probe basis vector j, output coordinate k)
    rows = [[L.bracket[i][j][k] for i in even]
            for j in range(L.dim) for k in range(L.dim)]
    return [tuple(full.get(i, ZERO) for i in range(L.dim))
            for full in (dict(zip(even, vec)) for vec in nullspace(rows))]


def superalgebra_from_json_obj(obj: dict) -> LieSuperalgebra:
    return make_superalgebra(*read_structure(
        obj, "superalgebra", ShapeError, {"degree": 1, "structure": 3}))


def load_superalgebra(path) -> LieSuperalgebra:
    return load_structure(path, superalgebra_from_json_obj)
