"""Finite-dimensional Lie superalgebras over exact scalars.

A superalgebra is a Z2-graded basis (degree 0 or 1 per basis vector) with
a bracket table b, [e_i, e_j] = sum_k b[i][j][k] e_k. Construction
validates the graded axioms and rejections carry a witness naming the
axiom and the basis indices. The graded sign (-1)^{|x||y|} only makes
sense on homogeneous elements, so everything sign-dependent downstream is
defined on the basis and extended bilinearly.
"""

from __future__ import annotations

from itertools import product
from typing import Optional, Sequence

from . import tensor
from .algebra import (TableRecord, freeze_table, load_structure,
                      read_structure)
from .kernel import first_failing_triple
from .scalars import ZERO, YbxError, _check_operand, _shaped


class SuperalgebraError(ValueError, YbxError):
    """Base for bracket-table rejections; subclasses carry a witness."""


class ShapeError(SuperalgebraError):
    pass


class _AxiomError(SuperalgebraError):
    """A failed axiom, its message the class's _message formatted with the
    basis indices of the witness in order."""

    def __init__(self, witness):
        super().__init__(self._message.format(*witness))
        self.witness = witness


class GradingError(_AxiomError):
    _message = "[e{0}, e{1}] has a component on e{2} of the wrong parity"


class AntisymmetryError(_AxiomError):
    _message = "[e{0}, e{1}] != -(-1)^(|e{0}||e{1}|) [e{1}, e{0}]"


class JacobiError(_AxiomError):
    _message = ("graded Jacobi identity fails on the basis triple "
                "(e{0}, e{1}, e{2})")


class LieSuperalgebra(TableRecord):
    """Validated Lie superalgebra. Immutable."""

    __slots__ = ("dim", "degree", "bracket", "labels", "_index")
    _key = ("dim", "degree", "bracket")
    _table = "bracket"
    _vector = "degree"
    _shape_error = ShapeError

    def __repr__(self):
        return f"LieSuperalgebra(dim={self.dim}, degree={list(self.degree)})"


def bracket_elements(L: LieSuperalgebra, x: Sequence, y: Sequence):
    """Bilinear extension of the bracket table to coordinate vectors."""
    _check_operand(L, LieSuperalgebra)
    return L._elements(x, y)


def make_superalgebra(dim: int, degree, bracket,
                      labels: Optional[Sequence[str]] = None) -> LieSuperalgebra:
    """Validate and freeze a graded bracket table."""
    bad_degree = not _shaped(degree, dim, 1) or any(
        d not in (0, 1) for d in degree)
    b, deg, labels = freeze_table(
        dim, bracket, degree,
        "degree must list one of 0, 1 per basis vector" if bad_degree
        else None, int, labels, ShapeError, "bracket")

    # grading: [e_i, e_j] must be homogeneous of degree |e_i| + |e_j|
    for i, j, k in product(range(dim), repeat=3):
        if b[i][j][k] and deg[k] != (deg[i] + deg[j]) % 2:
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
    _check_operand(L, LieSuperalgebra)
    even = [i for i in range(L.dim) if L.degree[i] == 0]
    # rows: one equation per (probe basis vector j, output coordinate k)
    rows = [[L.bracket[i][j][k] for i in even]
            for j in range(L.dim) for k in range(L.dim)]
    return [tuple(full.get(i, ZERO) for i in range(L.dim))
            for full in (dict(zip(even, vec)) for vec in tensor.nullspace(rows))]


def superalgebra_from_json_obj(obj: dict) -> LieSuperalgebra:
    return make_superalgebra(*read_structure(
        obj, "superalgebra", ShapeError, {"degree": 1, "structure": 3}))


def load_superalgebra(path) -> LieSuperalgebra:
    return load_structure(path, superalgebra_from_json_obj)
