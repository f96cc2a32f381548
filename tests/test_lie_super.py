"""Tests for graded bracket tables and the even-centre computation."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybx.algebra import Algebra, FieldTypeError, load_algebra
from ybx.lie_super import (
    AntisymmetryError,
    even_center,
    GradingError,
    JacobiError,
    LieSuperalgebra,
    ShapeError,
    SuperalgebraError,
    bracket_elements,
    load_superalgebra,
    make_superalgebra,
    superalgebra_from_json_obj,
)
from ybx.scalars import ONE, ZERO, as_scalar, const
from ybx import fixture_path


def matrix_unit_oracle():
    """Bracket table of the 2x2 matrix units, computed from matrices.

    Basis order E11, E22, E12, E21 with parities 0, 0, 1, 1; the bracket is
    AB - (-1)^(|A||B|) BA over Fraction matrices, re-expanded entrywise.
    """
    units = [
        ((0, 0), 0),
        ((1, 1), 0),
        ((0, 1), 1),
        ((1, 0), 1),
    ]
    pos = {p: i for i, (p, _) in enumerate(units)}

    def mat(p):
        M = [[Fraction(0)] * 2 for _ in range(2)]
        M[p[0]][p[1]] = Fraction(1)
        return M

    def mul(A, B):
        return [
            [sum(A[r][t] * B[t][c] for t in range(2)) for c in range(2)]
            for r in range(2)
        ]

    table = [[[Fraction(0)] * 4 for _ in range(4)] for _ in range(4)]
    for i, (pi, di) in enumerate(units):
        for j, (pj, dj) in enumerate(units):
            AB = mul(mat(pi), mat(pj))
            BA = mul(mat(pj), mat(pi))
            sign = -1 if (di * dj) % 2 else 1
            comm = [
                [AB[r][c] - sign * BA[r][c] for c in range(2)]
                for r in range(2)
            ]
            for r in range(2):
                for c in range(2):
                    if comm[r][c]:
                        table[i][j][pos[(r, c)]] = comm[r][c]
    return table


def load_structure(name):
    obj = json.loads(Path(fixture_path(name)).read_text())
    table = [
        [[as_scalar(e) for e in row] for row in plane]
        for plane in obj["structure"]
    ]
    return obj, table


class TestMakeSuperalgebra:
    def test_gl11_fixture_matches_matrix_oracle(self):
        L = load_superalgebra(fixture_path("gl11.json"))
        assert L.degree == (0, 0, 1, 1)
        oracle = matrix_unit_oracle()
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    assert L.bracket[i][j][k] == as_scalar(oracle[i][j][k]), (
                        i, j, k,
                    )

    def test_abelian_fixture(self):
        L = load_superalgebra(fixture_path("abelian-super.json"))
        assert L.dim == 3
        assert all(
            e.is_zero
            for plane in L.bracket for row in plane for e in row
        )

    def test_heisenberg_fixture(self):
        L = load_superalgebra(fixture_path("heisenberg-super.json"))
        assert L.degree == (1, 1, 0)
        assert L.bracket[0][1][2] == ONE
        assert L.bracket[1][0][2] == ONE

    def test_antisymmetry_corruption_rejected(self):
        obj, b = load_structure("gl11.json")
        b[2][3][0] = const(2)
        try:
            make_superalgebra(4, obj["degree"], b)
        except AntisymmetryError as exc:
            assert exc.witness == (2, 3)
        else:
            raise AssertionError("antisymmetry corruption accepted")

    def test_jacobi_only_corruption_rejected(self):
        # Symmetric change on an odd-odd pair keeps antisymmetry intact,
        # so the failure must surface as a Jacobi witness.
        obj, b = load_structure("gl11.json")
        b[2][3] = [ONE, const(2), ZERO, ZERO]
        b[3][2] = [ONE, const(2), ZERO, ZERO]
        try:
            make_superalgebra(4, obj["degree"], b)
        except JacobiError as exc:
            assert exc.witness == (2, 2, 3)
        else:
            raise AssertionError("Jacobi corruption accepted")

    def test_grading_corruption_rejected(self):
        b = [[[ZERO] * 3 for _ in range(3)] for _ in range(3)]
        b[0][0][2] = ONE
        try:
            make_superalgebra(3, [0, 0, 1], b)
        except GradingError as exc:
            assert exc.witness == (0, 0, 2)
        else:
            raise AssertionError("grading corruption accepted")

    def test_bad_degree_values_rejected(self):
        b = [[[ZERO]]]
        try:
            make_superalgebra(1, [2], b)
        except ShapeError:
            pass
        else:
            raise AssertionError("degree 2 accepted")

    def test_ragged_table_rejected(self):
        try:
            make_superalgebra(2, [0, 0], [[[ZERO, ZERO]]])
        except ShapeError:
            pass
        else:
            raise AssertionError("ragged table accepted")

    # a str is one scalar, never a vector
    @pytest.mark.parametrize("call, message", [
        (lambda: make_superalgebra(1, "0", [[[0]]]), "degree must list"),
        (lambda: make_superalgebra(1, [0], [[[0]]], "a"), "labels must have"),
        (lambda: make_superalgebra(2, [0, 0], [["00", "00"], ["00", "00"]]),
         "bracket table must be 2x2x2"),
        (lambda: bracket_elements(load_superalgebra(
            fixture_path("heisenberg-super.json")), "100", "010"),
         "coordinate vectors of length 3"),
    ])
    def test_a_str_is_no_vector(self, call, message):
        with pytest.raises(ShapeError, match=message):
            call()

    # each of these equals 0 or 1, but only an int is a degree
    @pytest.mark.parametrize("d", [1 + 0j, 1.0, Fraction(1), True, False,
                                   0.0, 0j], ids=repr)
    def test_a_degree_is_an_int(self, d):
        with pytest.raises(ShapeError, match="degree must list"):
            make_superalgebra(1, [d], [[[0]]])


class TestBracketElements:
    def test_wrong_length_refused(self):
        L = load_superalgebra(fixture_path("abelian-super.json"))
        with pytest.raises(SuperalgebraError, match="length 3"):
            bracket_elements(L, (ONE, ZERO, ZERO), (ONE,))

    def test_abelian_brackets_vanish(self):
        L = load_superalgebra(fixture_path("abelian-super.json"))
        a = (ONE, const(2), const(-1))
        b = (ZERO, ONE, const(5))
        assert bracket_elements(L, a, b) == (ZERO, ZERO, ZERO)

    def test_gl11_basis_brackets(self):
        L = load_superalgebra(fixture_path("gl11.json"))
        e11 = (ONE, ZERO, ZERO, ZERO)
        e22 = (ZERO, ONE, ZERO, ZERO)
        e12 = (ZERO, ZERO, ONE, ZERO)
        e21 = (ZERO, ZERO, ZERO, ONE)
        assert bracket_elements(L, e11, e12) == e12
        assert bracket_elements(L, e22, e12) == (ZERO, ZERO, -ONE, ZERO)
        assert bracket_elements(L, e12, e21) == (ONE, ONE, ZERO, ZERO)
        assert bracket_elements(L, e21, e12) == (ONE, ONE, ZERO, ZERO)

    def test_heisenberg_bracket(self):
        L = load_superalgebra(fixture_path("heisenberg-super.json"))
        x = (ONE, ZERO, ZERO)
        y = (ZERO, ONE, ZERO)
        assert bracket_elements(L, x, y) == (ZERO, ZERO, ONE)
        assert bracket_elements(L, y, x) == (ZERO, ZERO, ONE)


class TestEvenCenter:
    def test_gl11_center_is_the_identity_line(self):
        L = load_superalgebra(fixture_path("gl11.json"))
        basis = even_center(L)
        assert len(basis) == 1
        z = basis[0]
        assert z == (ONE, ONE, ZERO, ZERO)

    def test_abelian_center_spans_even_part(self):
        L = load_superalgebra(fixture_path("abelian-super.json"))
        basis = even_center(L)
        assert len(basis) == 2
        for z in basis:
            assert z[2].is_zero

    def test_heisenberg_center(self):
        L = load_superalgebra(fixture_path("heisenberg-super.json"))
        basis = even_center(L)
        assert basis == [(ZERO, ZERO, ONE)]

    def test_no_even_part_gives_empty_center(self):
        L = make_superalgebra(1, [1], [[[ZERO]]])
        assert even_center(L) == []

    def test_center_members_annihilate(self):
        for name in (
            "gl11.json",
            "abelian-super.json",
            "heisenberg-super.json",
        ):
            L = load_superalgebra(fixture_path(name))
            basis_vectors = [
                tuple(ONE if t == s else ZERO for t in range(L.dim))
                for s in range(L.dim)
            ]
            for z in even_center(L):
                for e in basis_vectors:
                    out = bracket_elements(L, z, e)
                    assert all(c.is_zero for c in out)


class TestSerialization:
    def test_round_trip(self):
        for name in (
            "gl11.json",
            "abelian-super.json",
            "heisenberg-super.json",
        ):
            L = load_superalgebra(fixture_path(name))
            M = superalgebra_from_json_obj(L.to_json_obj())
            assert L == M
            assert L.labels == M.labels

    def test_field_types_checked_before_axioms(self):
        good = json.loads(Path(fixture_path("gl11.json")).read_text())
        bad_objects = [
            dict(good, dim="3"),
            dict(good, dim=False),
            dict(good, degree=[0, 1.0, 1, 0]),
            dict(good, degree=1),
            dict(good, structure=[[[2.5] * 4] * 4] * 4),
            dict(good, structure={"0": 1}),
            dict(good, degree=None),
            dict(good, structure=None),
            [good],
            "gl11",
        ]
        for obj in bad_objects:
            with pytest.raises(FieldTypeError) as info:
                superalgebra_from_json_obj(obj)
            assert not isinstance(info.value, SuperalgebraError)
        L = superalgebra_from_json_obj(dict(good, labels=None))
        assert L.labels == ("e0", "e1", "e2", "e3")

    def test_missing_degree_rejected(self):
        obj = json.loads(Path(fixture_path("gl11.json")).read_text())
        del obj["degree"]
        try:
            superalgebra_from_json_obj(obj)
        except ShapeError:
            pass
        else:
            raise AssertionError("missing degree accepted")


# the text and witness of the three axiom errors, and the key order of both
# kinds of structure file
@pytest.mark.parametrize("make, expected", [
    (lambda: GradingError((1, 2, 3)),
     ("[e1, e2] has a component on e3 of the wrong parity", (1, 2, 3))),
    (lambda: AntisymmetryError((0, 4)),
     ("[e0, e4] != -(-1)^(|e0||e4|) [e4, e0]", (0, 4))),
    (lambda: JacobiError((5, 6, 7)),
     ("graded Jacobi identity fails on the basis triple (e5, e6, e7)",
      (5, 6, 7))),
    (lambda: load_algebra(fixture_path("sigma.json")),
     '{"dim": 2, "unit": ["1", "0"], "labels": ["1", "x"], "structure": '
     '[[["1", "0"], ["0", "1"]], [["0", "1"], ["sigma", "0"]]]}'),
    (lambda: load_superalgebra(fixture_path("heisenberg-super.json")),
     '{"dim": 3, "degree": [1, 1, 0], "labels": ["x", "y", "z"], '
     '"structure": [[["0", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]], '
     '[["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]], '
     '[["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]]}'),
])
def test_error_and_record_text(make, expected):
    value = make()
    if isinstance(value, SuperalgebraError):
        assert (str(value), value.witness) == expected
    else:
        assert json.dumps(value.to_json_obj()) == expected


class TestRecords:
    """Algebra and LieSuperalgebra share one frozen-record base."""

    def test_equal_by_table_not_labels(self):
        A = load_algebra(fixture_path("quadratic.json"))
        B = Algebra(A.dim, A.structure, A.unit, ("one", "ex"))
        assert A == B and hash(A) == hash(B)
        L = load_superalgebra(fixture_path("gl11.json"))
        M = LieSuperalgebra(L.dim, L.degree, L.bracket, ())
        assert L == M and hash(L) == hash(M)
        assert A != L and L != A
        assert L != LieSuperalgebra(L.dim, (0, 0, 0, 0), L.bracket, ())

    def test_immutable(self):
        A = load_algebra(fixture_path("quadratic.json"))
        L = load_superalgebra(fixture_path("gl11.json"))
        for record, name in ((A, "Algebra"), (L, "LieSuperalgebra")):
            with pytest.raises(AttributeError, match=f"^{name} is immutable"):
                record.dim = 3
            assert record.dim in (2, 4)

    def test_positional_fields_must_all_be_given(self):
        with pytest.raises(ValueError):
            LieSuperalgebra(1, (0,), ((((ZERO,),),)))


@given(
    a=st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    b=st.lists(st.integers(-3, 3), min_size=4, max_size=4),
)
@settings(max_examples=30, deadline=None)
def test_gl11_bracket_bilinear_in_first_slot(a, b):
    L = load_superalgebra(fixture_path("gl11.json"))
    c = (ONE, ZERO, ONE, ZERO)
    av = tuple(const(x) for x in a)
    bv = tuple(const(x) for x in b)
    s = tuple(x + y for x, y in zip(av, bv))
    lhs = bracket_elements(L, s, c)
    rhs = tuple(
        x + y
        for x, y in zip(bracket_elements(L, av, c), bracket_elements(L, bv, c))
    )
    assert lhs == rhs
