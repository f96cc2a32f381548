"""Tests for finite-dimensional associative algebra tables."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybx import algebra
from ybx.algebra import (
    Algebra,
    AlgebraError,
    AssociativityError,
    FieldTypeError,
    ShapeError,
    UnitError,
    algebra_from_json_obj,
    freeze_table,
    load_algebra,
    make_algebra,
    mul_elements,
    quadratic_quotient_algebra,
)
from ybx.lie_super import (JacobiError, SuperalgebraError, load_superalgebra,
                           make_superalgebra)
from ybx.scalars import ONE, ZERO, InputError, ParamScalar, as_scalar, const, var
from ybx import fixture_path

import oracles
from pathlib import Path


def assoc_violations(dim, c):
    # Brute-force loop kept independent of the library's validator.
    out = []
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lhs = [ZERO] * dim
                rhs = [ZERO] * dim
                for l in range(dim):
                    for m in range(dim):
                        lhs[m] = lhs[m] + c[i][j][l] * c[l][k][m]
                        rhs[m] = rhs[m] + c[j][k][l] * c[i][l][m]
                if lhs != rhs:
                    out.append((i, j, k))
    return out


def load_structure(name):
    obj = json.loads(Path(fixture_path(name)).read_text())
    return [[[as_scalar(e) for e in row] for row in plane] for plane in obj["structure"]]


class TestMakeAlgebra:
    def test_one_dimensional_field(self):
        A = make_algebra(1, [[[ONE]]], [ONE])
        assert A.dim == 1
        assert A.structure[0][0][0] == ONE

    def test_quadratic_symbolic_accepted(self):
        m, n = var("m"), var("n")
        A = quadratic_quotient_algebra(m, n)
        assert A.dim == 2
        assert A.structure[1][1] == (n, m)
        assert assoc_violations(2, A.structure) == []

    def test_quadratic_association_closed_form(self):
        # (x*x)*x and x*(x*x) both expand to m*n + (n + m^2) x.
        m, n = var("m"), var("n")
        A = quadratic_quotient_algebra(m, n)
        x = (ZERO, ONE)
        xx = mul_elements(A, x, x)
        left = mul_elements(A, xx, x)
        right = mul_elements(A, x, xx)
        expected = (m * n, n + m * m)
        assert left == expected
        assert right == expected

    def test_shifted_quadratic_table_is_still_associative(self):
        # Bumping the constant term of x*x yields the quotient at n+1,
        # which is a valid algebra; the validator must accept it.
        m, n = var("m"), var("n")
        base = quadratic_quotient_algebra(m, n)
        c = [[list(row) for row in plane] for plane in base.structure]
        c[1][1][0] = c[1][1][0] + ONE
        A = make_algebra(2, c, base.unit)
        assert A.structure == quadratic_quotient_algebra(m, n + ONE).structure

    def test_cubic_corruption_rejected_with_witness(self):
        c = load_structure("cubic.json")
        c[1][2][0] = ONE
        violations = assoc_violations(3, c)
        assert violations[0] == (1, 1, 1)
        try:
            make_algebra(3, c, [ONE, ZERO, ZERO])
        except AssociativityError as exc:
            assert exc.witness == violations[0]
            assert exc.lhs != exc.rhs
        else:
            raise AssertionError("corrupted table accepted")

    def test_unit_corruption_rejected(self):
        m, n = var("m"), var("n")
        base = quadratic_quotient_algebra(m, n)
        c = [[list(row) for row in plane] for plane in base.structure]
        c[0][1] = [ONE, ONE]
        try:
            make_algebra(2, c, base.unit)
        except UnitError as exc:
            assert exc.witness == 1
            assert exc.side == "unit*e"
        else:
            raise AssertionError("broken unit accepted")

    def test_shape_errors(self):
        try:
            make_algebra(2, [[[ONE, ZERO]]], [ONE, ZERO])
        except ShapeError:
            pass
        else:
            raise AssertionError("ragged table accepted")
        try:
            make_algebra(2, [[[ONE, ZERO], [ZERO, ONE]]] * 2, [ONE])
        except ShapeError:
            pass
        else:
            raise AssertionError("short unit accepted")

    # a str is one scalar, never a vector: as a unit, as labels, as a table
    # row or as an operand it is a wrong shape, not a run of characters
    @pytest.mark.parametrize("call, message", [
        (lambda: make_algebra(1, [[["1"]]], "1"), "unit vector must have"),
        (lambda: make_algebra(1, [[["1"]]], ["1"], "a"), "labels must have"),
        (lambda: make_algebra(2, [["10", "01"], ["01", "00"]], [1, 0]),
         "structure table must be 2x2x2"),
        (lambda: mul_elements(load_algebra(fixture_path("quadratic.json")),
                              "10", "01"), "coordinate vectors of length 2"),
    ])
    def test_a_str_is_no_vector(self, call, message):
        with pytest.raises(ShapeError, match=message):
            call()

    def test_dim_and_labels_refused(self):
        with pytest.raises(ShapeError, match="dim must be >= 1"):
            make_algebra(0, [], [])
        with pytest.raises(ShapeError, match="labels must have length 2"):
            make_algebra(2, [[[ONE, ZERO], [ZERO, ONE]], [[ZERO, ONE],
                                                          [ZERO, ZERO]]],
                         [ONE, ZERO], ["1"])

    def test_accepted_tables_reverify(self):
        fixtures = ["quadratic.json", "sigma.json", "cubic.json"]
        for name in fixtures:
            A = load_algebra(fixture_path(name))
            assert assoc_violations(A.dim, A.structure) == []


class TestMulElements:
    def test_generator_square(self):
        m, n = var("m"), var("n")
        A = quadratic_quotient_algebra(m, n)
        assert mul_elements(A, (ZERO, ONE), (ZERO, ONE)) == (n, m)

    def test_unit_is_neutral(self):
        A = load_algebra(fixture_path("cubic.json"))
        b = (const(3), const(-1), const(5))
        u = tuple(A.unit)
        assert mul_elements(A, u, b) == b
        assert mul_elements(A, b, u) == b

    def test_sigma_square(self):
        A = load_algebra(fixture_path("sigma.json"))
        prod = mul_elements(A, (ZERO, ONE), (ZERO, ONE))
        assert prod == (var("sigma"), ZERO)

    def test_bilinearity_sample(self):
        A = load_algebra(fixture_path("cubic.json"))
        a = (ONE, const(2), ZERO)
        b = (ZERO, ONE, const(-1))
        c = (const(4), ZERO, ONE)
        ab = tuple(x + y for x, y in zip(a, b))
        lhs = mul_elements(A, ab, c)
        rhs = tuple(
            x + y
            for x, y in zip(mul_elements(A, a, c), mul_elements(A, b, c))
        )
        assert lhs == rhs

    def test_wrong_length_refused(self):
        A = load_algebra(fixture_path("cubic.json"))
        with pytest.raises(ShapeError, match="length 3"):
            mul_elements(A, (ONE, ZERO), (ONE, ZERO, ZERO))


class TestQuadraticQuotient:
    def test_structure_entries(self):
        m, n = var("m"), var("n")
        A = quadratic_quotient_algebra(m, n)
        assert A.structure[0][0] == (ONE, ZERO)
        assert A.structure[0][1] == (ZERO, ONE)
        assert A.structure[1][0] == (ZERO, ONE)
        assert A.structure[1][1] == (n, m)
        assert A.labels == ("1", "x")

    def test_dual_numbers(self):
        A = quadratic_quotient_algebra(ZERO, ZERO)
        x = (ZERO, ONE)
        assert mul_elements(A, x, x) == (ZERO, ZERO)

    def test_commutative(self):
        m, n = var("m"), var("n")
        A = quadratic_quotient_algebra(m, n)
        for i in range(2):
            for j in range(2):
                assert A.structure[i][j] == A.structure[j][i]


class TestSubstitute:
    def test_specialize_to_sigma_table(self):
        m, n = var("m"), var("n")
        A = quadratic_quotient_algebra(m, n)
        B = A.substitute({"m": ZERO, "n": var("sigma")})
        S = load_algebra(fixture_path("sigma.json"))
        assert B.structure == S.structure

    def test_substitute_revalidates(self):
        m, n = var("m"), var("n")
        A = quadratic_quotient_algebra(m, n)
        B = A.substitute({"m": const(1), "n": const(1)})
        assert B.names == frozenset()
        assert assoc_violations(2, B.structure) == []


def frozen(table):
    """freeze_table's table of a dim-2 table given in full."""
    return freeze_table(2, table, (), None, as_scalar, None, ShapeError,
                        "structure")[0]


class TestFreezeTable:
    """freeze_table converts each distinct raw entry once, keyed by its type
    and value, and accepts or refuses every entry as as_scalar does."""

    RAW = [1, 0, "1", "2/4", Fraction(1), Fraction(1, 2),
           ONE, const(Fraction(1, 2)), var("m"), "m", 2, "2"]

    @staticmethod
    def table(entries):
        it = iter(entries)
        return [[[next(it) for _ in range(2)] for _ in range(2)]
                for _ in range(2)]

    def test_one_conversion_per_distinct_raw_value(self, monkeypatch):
        rng = random.Random(17)
        entries = [rng.choice(self.RAW) for _ in range(8)]
        calls = []

        def counted(raw):
            calls.append(raw)
            return as_scalar(raw)

        monkeypatch.setattr(algebra, "as_scalar", counted)
        out = frozen(self.table(entries))
        assert len(calls) == len({(type(e), e) for e in entries})
        got = [e for plane in out for row in plane for e in row]
        assert got == [as_scalar(e) for e in entries]

    @pytest.mark.parametrize("seed", range(6))
    def test_equal_values_are_one_object(self, seed):
        rng = random.Random(seed)
        entries = [rng.choice(self.RAW) for _ in range(8)]
        got = [e for plane in frozen(self.table(entries)) for row in plane
               for e in row]
        assert all(type(e) is ParamScalar for e in got)
        first = {}
        for e in got:
            assert first.setdefault(e, e) is e

    @pytest.mark.parametrize("bad", [1.0, 0.5, float("nan"), "1/0", "x +",
                                     [1], None, True, False])
    def test_refusals_match_as_scalar(self, bad):
        # 1.0 and True follow the equal 1 and Fraction(1), and are still
        # refused
        with pytest.raises(Exception) as want:
            as_scalar(bad)
        table = self.table([1, 0, Fraction(1), ONE, bad, 1, 1, 1])
        with pytest.raises(want.type) as got:
            frozen(table)
        assert str(got.value) == str(want.value)


class TestSerialization:
    def test_fixture_round_trip(self):
        for name in ("quadratic.json", "sigma.json", "cubic.json"):
            A = load_algebra(fixture_path(name))
            B = algebra_from_json_obj(A.to_json_obj())
            assert A == B
            assert A.labels == B.labels

    @pytest.mark.parametrize("load", [load_algebra, load_superalgebra])
    @pytest.mark.parametrize("content, message", [
        (None, "no such file: {}"),
        (b"\xff", "not valid JSON: {}: 'utf-8' codec can't decode byte 0xff"),
        (b"{not json", "not valid JSON: {}: Expecting property name"),
        (b"[" * 100000, "not valid JSON: {}: maximum recursion depth")],
        ids=["missing", "not-utf8", "not-json", "too-deep"])
    def test_a_bad_file_raises_input_error(self, tmp_path, load, content,
                                           message):
        path = tmp_path / "structure.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(InputError) as info:
            load(str(path))
        assert str(info.value).startswith(message.format(path))

    def test_a_directory_raises_input_error(self, tmp_path):
        for load in (load_algebra, load_superalgebra):
            with pytest.raises(InputError, match="^cannot read .*: Is a d"):
                load(tmp_path)

    def test_deep_callers_load_nested_entries(self, tmp_path,
                                              near_recursion_limit):
        obj = json.loads(Path(fixture_path("quadratic.json")).read_text())
        obj["unit"][0] = "(" * 100 + "1" + ")" * 100
        path = tmp_path / "nested.json"
        path.write_text(json.dumps(obj))
        assert near_recursion_limit(lambda: load_algebra(path)) == \
            load_algebra(fixture_path("quadratic.json"))

    def test_missing_key_rejected(self):
        obj = json.loads(Path(fixture_path("quadratic.json")).read_text())
        del obj["unit"]
        try:
            algebra_from_json_obj(obj)
        except ShapeError:
            pass
        else:
            raise AssertionError("missing unit accepted")

    def test_field_types_checked_before_axioms(self):
        good = json.loads(Path(fixture_path("quadratic.json")).read_text())
        bad_objects = [
            dict(good, dim="2"),
            dict(good, dim=True),
            dict(good, dim=2.0),
            dict(good, unit=[1.5, 0]),
            dict(good, unit=[None, 0]),
            dict(good, unit="10"),
            dict(good, unit=None),
            dict(good, structure=None),
            dict(good, structure=[[["1", "0"], ["0", "1"]], [["0", "1"], 7]]),
            dict(good, structure=[[["1", "0"], ["0", "1"]],
                                  [["0", "1"], ["n", False]]]),
            dict(good, labels=3),
            [1, 2],
            "x",
        ]
        for obj in bad_objects:
            with pytest.raises(FieldTypeError) as info:
                algebra_from_json_obj(obj)
            # bad input, not a failed axiom check
            assert not isinstance(info.value, AlgebraError)
        A = algebra_from_json_obj(dict(good, unit=[1, 0], labels=[1, "x"]))
        assert A == load_algebra(fixture_path("quadratic.json"))

    def test_bad_dim_rejected(self):
        obj = json.loads(Path(fixture_path("quadratic.json")).read_text())
        obj["dim"] = 3
        try:
            algebra_from_json_obj(obj)
        except ShapeError:
            pass
        else:
            raise AssertionError("dim mismatch accepted")


@given(
    m=st.integers(min_value=-5, max_value=5),
    n=st.integers(min_value=-5, max_value=5),
)
@settings(max_examples=40, deadline=None)
def test_quadratic_always_associative(m, n):
    A = quadratic_quotient_algebra(const(m), const(n))
    assert assoc_violations(2, A.structure) == []


@given(
    a0=st.integers(min_value=-3, max_value=3),
    a1=st.integers(min_value=-3, max_value=3),
    b0=st.integers(min_value=-3, max_value=3),
    b1=st.integers(min_value=-3, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_quadratic_product_commutes(a0, a1, b0, b1):
    A = quadratic_quotient_algebra(var("m"), var("n"))
    a = (const(a0), const(a1))
    b = (const(b0), const(b1))
    assert mul_elements(A, a, b) == mul_elements(A, b, a)


# -- the structure axioms on the product kernel, against the triple loops --

T2_UNITS = [(0, 0), (1, 1), (0, 1)]
M2_UNITS = [(0, 0), (1, 1), (0, 1), (1, 0)]

# unital matrix-unit algebras: every diagonal unit is present, first
ALGEBRA_UNITS = [
    [(0, 0), (1, 1)],
    T2_UNITS,
    M2_UNITS,
    [(0, 0), (1, 1), (2, 2), (0, 1)],
    [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)],
    [(0, 0), (1, 1), (2, 2), (0, 2), (1, 2)],
]

# matrix-unit Lie superalgebras: (units, parity of each index)
SUPER_UNITS = [
    ([(0, 0), (0, 1)], (0, 1)),
    ([(0, 0), (1, 1), (0, 1)], (0, 1)),
    (M2_UNITS, (0, 1)),
    (M2_UNITS, (0, 0)),
    ([(0, 0), (0, 1), (0, 2), (1, 2)], (0, 1, 1)),
    ([(0, 0), (1, 1), (0, 1), (0, 2), (1, 2)], (0, 0, 1)),
]


def osp12_borel():
    """The Borel subalgebra of osp(1|2) on h, q, e with |q| = 1: [h, q] = q,
    [q, q] = e, [h, e] = 2e. [[q, q], h] = -2e is not zero, so a graded
    Jacobi identity with a wrong Koszul sign on an (odd, odd, even) triple
    fails here, unlike on the matrix-unit tables above."""
    table = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k, c in ((0, 1, 1, 1), (1, 0, 1, -1), (1, 1, 2, 1),
                       (0, 2, 2, 2), (2, 0, 2, -2)):
        table[i][j][k] = c
    return table, (0, 1, 0)


# per kind: the basis scales t_i, the quotients' coefficients and the
# corruptions added to one entry
KINDS = {
    "integer": (["1", "-1"], ["0", "1", "-2", "3"], ["1", "-1", "2"]),
    "symbolic": (["1"], ["0", "a", "b", "a*b - 1"], ["a", "a - b", "2*b^2"]),
    "rational": (["1", "2", "m", "n/m^2", "1/(m + 1)"], ["0", "1", "-1/2"],
                 ["n/m^2", "1/(m + 1)", "m"]),
}


def quotient_table(coeffs):
    """k[x]/(x^n - sum_i coeffs[i] x^i) on the basis 1, x, ..., x^(n-1)."""
    n = len(coeffs)
    powers = [tuple(ONE if k == i else ZERO for k in range(n))
              for i in range(n)]
    while len(powers) < 2 * n - 1:
        top = powers[-1]
        powers.append(tuple(s + top[-1] * a for s, a in
                            zip((ZERO,) + top[:-1], coeffs)))
    return [[list(powers[i + j]) for j in range(n)] for i in range(n)]


def rescaled(table, t):
    """The table on the basis t_i e_i."""
    n = len(table)
    return [[[t[i] * t[j] / t[k] * as_scalar(table[i][j][k])
              for k in range(n)] for j in range(n)] for i in range(n)]


def described(exc):
    return None if exc is None else (
        type(exc), str(exc), exc.witness,
        getattr(exc, "lhs", None), getattr(exc, "rhs", None))


def library_error(build, *args):
    try:
        build(*args)
    except (AlgebraError, SuperalgebraError) as exc:
        return exc
    return None


def corpus_algebra(rng, kind):
    """(table, unit, entries that keep the unit law) of a random algebra."""
    scales, coeffs, _ = KINDS[kind]
    if rng.random() < 0.5:
        n = rng.randint(2, 5)
        table = quotient_table([as_scalar(rng.choice(coeffs))
                                for _ in range(n)])
        unit, diagonal = [ONE] + [ZERO] * (n - 1), 1
    else:
        units = rng.choice(ALGEBRA_UNITS)
        table, _ = oracles.matrix_unit_table(units)
        n, diagonal = len(units), 1 + max(a for a, _ in units)
        unit = [ONE] * diagonal + [ZERO] * (n - diagonal)
    t = [as_scalar(rng.choice(scales)) for _ in range(n)]
    return (rescaled(table, t), [u / s for u, s in zip(unit, t)],
            range(diagonal, n) or range(n))


def corpus_superalgebra(rng, kind):
    choice = rng.randrange(len(SUPER_UNITS) + 1)
    table, degree = (oracles.matrix_unit_table(*SUPER_UNITS[choice])
                     if choice < len(SUPER_UNITS) else osp12_borel())
    t = [as_scalar(rng.choice(KINDS[kind][0])) for _ in table]
    return rescaled(table, t), degree


def corrupt_superalgebra(rng, table, degree, delta):
    """Add delta to one entry. Three times in four, when i != j or e_i is
    odd, the entry keeps the grading and its mirror changes with it, so
    that antisymmetry still holds."""
    n = len(table)
    i, j, k = (rng.randrange(n) for _ in range(3))
    if rng.random() < 0.75 and (i != j or degree[i]):
        k = rng.choice([l for l in range(n)
                        if degree[l] == (degree[i] + degree[j]) % 2] or [k])
        if i != j:
            odd = degree[i] * degree[j]
            table[j][i][k] = table[j][i][k] + (delta if odd else -delta)
    table[i][j][k] = table[i][j][k] + delta


class TestStructureAxiomsAgainstTripleLoops:
    """make_algebra and make_superalgebra run associativity and graded
    Jacobi on the product kernel; the loops in oracles are the reference."""

    def test_noncommutative_tables_accepted(self):
        for units in (T2_UNITS, M2_UNITS):
            table, _ = oracles.matrix_unit_table(units)
            n = len(units)
            A = make_algebra(n, table, [ONE, ONE] + [ZERO] * (n - 2))
            assert A.structure[0][2] != A.structure[2][0]
            assert oracles.algebra_error(table, A.unit) is None

    def test_odd_bracket_that_is_not_central(self):
        table, degree = osp12_borel()
        assert oracles.superalgebra_error(degree, table) is None
        make_superalgebra(3, degree, table)
        table[0][2][2], table[2][0][2] = 1, -1
        exc = library_error(make_superalgebra, 3, degree, table)
        assert isinstance(exc, JacobiError)
        assert described(exc) == described(
            oracles.superalgebra_error(degree, table))

    @pytest.mark.parametrize("units, entry, witness", [
        # E12*E12 = E12: (E12*E11)*E12 = 0 but E12*(E11*E12) = E12
        (T2_UNITS, (2, 2, 2), (2, 0, 2)),
        # E12*E21 = E11 + E22: (E11*E12)*E21 = E11 + E22 but
        # E11*(E12*E21) = E11
        (M2_UNITS, (2, 3, 1), (0, 2, 3)),
    ])
    def test_noncommutative_corruption_gives_the_oracle_witness(
            self, units, entry, witness):
        table, _ = oracles.matrix_unit_table(units)
        i, j, k = entry
        table[i][j][k] += 1
        unit = [ONE, ONE] + [ZERO] * (len(units) - 2)
        exc = library_error(make_algebra, len(units), table, unit)
        assert isinstance(exc, AssociativityError)
        assert exc.witness == witness
        assert described(exc) == described(oracles.algebra_error(table, unit))

    def test_seeded_corrupted_tables(self):
        counts = {}
        for seed in range(160):
            rng = random.Random(seed)
            kind = rng.choice(sorted(KINDS))
            delta = as_scalar(rng.choice(KINDS[kind][2]))
            if seed % 2:
                table, unit, free = corpus_algebra(rng, kind)
                n = len(table)
                assert library_error(make_algebra, n, table, unit) is None
                assert oracles.algebra_error(table, unit) is None
                i, j = (rng.choice(free) if rng.random() < 0.75
                        else rng.randrange(n) for _ in range(2))
                k = rng.randrange(n)
                table[i][j][k] = table[i][j][k] + delta
                got = library_error(make_algebra, n, table, unit)
                want = oracles.algebra_error(table, unit)
            else:
                table, degree = corpus_superalgebra(rng, kind)
                n = len(table)
                assert library_error(
                    make_superalgebra, n, degree, table) is None
                assert oracles.superalgebra_error(degree, table) is None
                corrupt_superalgebra(rng, table, degree, delta)
                got = library_error(make_superalgebra, n, degree, table)
                want = oracles.superalgebra_error(degree, table)
            assert described(got) == described(want), (seed, kind)
            counts[type(want)] = counts.get(type(want), 0) + 1
        assert counts[AssociativityError] >= 40
        assert counts[JacobiError] >= 20
