"""Integer forms. Only the builders that multiply out a structure table
(an algebra's product or a Lie superalgebra's bracket, through
``constructors._product_map``) make operators born with one: they keep
their entries as ints over one denominator and build ``rows`` on first
read. Every other operator, ``@`` and ``Defect.dense()`` of constant
operators included, is its canonical rows, keeps no form, and is cleared
again each time it enters a product. Each is compared with the operator
that the constructor builds from the canonical entries of a Fraction
oracle, and its verdicts and witnesses with the oracles'."""

import random
from fractions import Fraction

import pytest

import oracles
from ybx import elimination, fixture_path, tensor
from ybx.algebra import Algebra, load_algebra
from ybx.constructors import (SplitSpace, colored_inverse, colored_operator,
                              dn_inverse, dn_operator, split_center_operator,
                              super_phi, super_phi_inverse, wxz_system)
from ybx.lie_super import LieSuperalgebra, even_center, load_superalgebra
from ybx.scalars import ONE, ZERO, const, var
from ybx.tensor import (Operator2, braid_defect, determinant, embed, invert,
                        qybe_defect, roundtrip_defect, twist, yb_commutator)
from ybx.verify import (verify_colored_family, verify_constant,
                        verify_inverse_pair, verify_wxz)

HALF_AND_THIRDS = {"m": "1/2", "n": "-2/3"}


def rational_quadratic():
    """k[x]/(x^2 - x/2 + 2/3): a validated table with d_T = 6."""
    return load_algebra(fixture_path("quadratic.json")).substitute(
        HALF_AND_THIRDS)


def quadratic_table():
    m, n = (Fraction(HALF_AND_THIRDS[k]) for k in "mn")
    return [[[1, 0], [0, 1]], [[0, 1], [n, m]]], [1, 0]


def direct_algebra(seed):
    """A random dim-3 table with rational constants and a unit with two
    nonzero coordinates, built without validation: (Algebra, Fraction
    table, Fraction unit)."""
    rng = random.Random(seed)
    choices = [Fraction(k, q) for k in range(-2, 3) for q in (1, 2, 3)]
    table = [[[rng.choice(choices) for _ in range(3)] for _ in range(3)]
             for _ in range(3)]
    unit = [Fraction(1), Fraction(-1, 2), Fraction(0)]
    A = Algebra(3, tuple(tuple(tuple(map(const, row)) for row in plane)
                         for plane in table), tuple(map(const, unit)), ())
    return A, table, unit


a, b, g = Fraction(-3, 2), Fraction(2), Fraction(5, 3)
p, q, u, v = Fraction(-3, 2), Fraction(2), Fraction(1), Fraction(3)
lam, mu = Fraction(-3, 2), Fraction(1, 3)


def born_cases():
    """(id, build, oracle): build() returns a new constant operator, born
    with its integer form for the builders and as rows for the products
    and for colored_inverse, which divides its entries after the build,
    and oracle() its Fraction matrix from tests/oracles.py."""
    cases = []
    for name, make in (("quadratic", lambda: (rational_quadratic(),
                                              *quadratic_table())),
                       ("direct", lambda: direct_algebra(7))):
        A, T, U = make()
        cases += [
            (f"dn-{name}", lambda A=A: dn_operator(A, a, b, g),
             lambda T=T, U=U: oracles.dn_matrix(T, U, a, b, g)),
            (f"dn_inverse-{name}", lambda A=A: dn_inverse(A, a, b, a),
             lambda T=T, U=U: oracles.dn_matrix(T, U, 1 / b, 1 / a, 1 / a)),
            (f"colored-{name}", lambda A=A: colored_operator(A, p, q, u, v),
             lambda T=T, U=U: oracles.colored_matrix(T, U, p, q, u, v)),
            (f"colored_inverse-{name}",
             lambda A=A: colored_inverse(A, p, q, u, v),
             lambda T=T, U=U: oracles.colored_inverse_matrix(
                 T, U, p, q, u, v)),
        ]
        for k, which in enumerate("WXZ"):
            cases.append((
                f"wxz-{which}-{name}",
                lambda A=A, which=which: getattr(wxz_system(A, lam, mu),
                                                 which),
                lambda T=T, U=U, k=k: oracles.wxz_matrices(T, U, lam, mu)[k]))
        cases += [
            (f"matmul-{name}",
             lambda A=A: (dn_operator(A, a, b, g)
                          @ colored_operator(A, p, q, u, v)),
             lambda T=T, U=U: oracles.matmul(
                 oracles.dn_matrix(T, U, a, b, g),
                 oracles.colored_matrix(T, U, p, q, u, v))),
            (f"braid_dense-{name}",
             lambda A=A: braid_defect(dn_operator(A, a, b, g)).dense(),
             lambda T=T, U=U: oracles.braid_defect_matrix(
                 oracles.dn_matrix(T, U, a, b, g), len(U))),
            (f"commutator_dense-{name}",
             lambda A=A: yb_commutator(
                 colored_operator(A, p, q, u, v),
                 colored_operator(A, p, q, u, 2 * v),
                 colored_operator(A, p, q, v, 2 * v)).dense(),
             lambda T=T, U=U: oracles.commutator_matrix(
                 oracles.colored_matrix(T, U, p, q, u, v),
                 oracles.colored_matrix(T, U, p, q, u, 2 * v),
                 oracles.colored_matrix(T, U, p, q, v, 2 * v), len(U))),
        ]
    return cases


CASES = born_cases()


def born(build):
    """A newly built operator, checked to be born with its integer form
    and no rows."""
    op = build()
    assert op._rows is None and op._form is not None
    return op


def made(build):
    """A newly built operator of CASES, checked to be born with its integer
    form when a builder made it, and otherwise to be its rows with no form
    kept before or after its integer form is computed."""
    op = build()
    if op._form is not None:
        return born(lambda: op)
    assert op._rows is not None and op.int_form is not None
    assert op._form is None
    return op


def canonical(op, matrix):
    """The operator of op's class that the constructor builds from the
    entries of a Fraction matrix."""
    return type(op)(op.dim, [[const(x) for x in row] for row in matrix])


class TestBornOperators:

    @pytest.mark.parametrize("build, oracle", [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_reads_equal_those_of_the_canonical_operator(self, build,
                                                         oracle):
        ref = canonical(build(), oracle())
        # each read on a new operator, whose rows were not built yet when
        # a builder made it
        assert made(build) == ref
        assert ref == made(build)
        assert hash(made(build)) == hash(ref)
        assert made(build).rows == ref.rows
        assert made(build).to_json_obj() == ref.to_json_obj()
        assert made(build).to_text() == ref.to_text()
        assert made(build).first_nonzero() == ref.first_nonzero()
        assert oracles.frac_matrix(made(build)) == oracle()

    @pytest.mark.parametrize("build", [c[1] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_integer_form_is_canonical_for_its_denominator(self, build):
        d, cleared = made(build).int_form
        op = build()
        assert type(d) is int and d > 0
        assert len(cleared) == op.size
        for row in cleared:
            assert [c for c, _ in row] == sorted({c for c, _ in row})
            assert all(0 <= c < op.size and type(e) is int and e
                       for c, e in row)

    @pytest.mark.parametrize("case", ["dn-quadratic", "dn-direct",
                                      "colored-quadratic", "wxz-W-direct"])
    def test_rational_inputs_clear_to_a_denominator_above_one(self, case):
        # -3/2 and 5/3 as scales, 1/2 and -2/3 in the quadratic table, and
        # halves and thirds in the direct one
        build = next(c[1] for c in CASES if c[0] == case)
        assert born(build).int_form[0] > 1

    def test_table_denominator_reaches_a_scale_free_operator(self):
        # X of wxz has integer scales, so only the table's d_T clears it
        A = rational_quadratic()
        X = wxz_system(A, 1, 1).X
        T, U = quadratic_table()
        assert X.int_form[0] % 6 == 0
        assert oracles.frac_matrix(X) == oracles.wxz_matrices(T, U, 1, 1)[1]

    def test_integer_table_and_scales_clear_to_one(self):
        A, T, U = direct_algebra(8)
        A = Algebra(3, tuple(tuple(tuple(const(int(6 * x)) for x in row)
                                   for row in plane) for plane in T),
                    (ONE, ZERO, ZERO), ())
        R = dn_operator(A, 2, -1, 3)
        assert R.int_form[0] == 1
        assert oracles.frac_matrix(R) == oracles.dn_matrix(
            [[[6 * x for x in row] for row in plane] for plane in T],
            [1, 0, 0], 2, -1, 3)

    def test_evaluate_and_substitute_read_the_view(self):
        R = dn_operator(rational_quadratic(), a, b, g)
        ref = canonical(R, oracles.dn_matrix(*quadratic_table(), a, b, g))
        assert dn_operator(rational_quadratic(), a, b, g).evaluate({}) == ref
        assert dn_operator(rational_quadratic(), a, b, g).substitute(
            {"m": 1}) == ref


class TestElimination:
    """determinant and invert of a constant operator, born with its
    integer form and its rows built on first read or built as rows, agree
    with the fraction oracle."""

    @pytest.mark.parametrize("build, oracle", [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_against_the_fraction_oracle(self, build, oracle):
        det, inverse, _ = oracles.frac_solve(oracle())
        op = made(build)
        assert determinant(op) == const(det)
        res = invert(op)
        assert res.determinant == const(det)
        assert res.invertible == (inverse is not None)
        if inverse is not None:
            assert oracles.frac_matrix(res.operator) == inverse

    def test_singular(self):
        A, T, U = direct_algebra(13)
        R = born(lambda: dn_operator(A, 0, 0, 0))
        assert determinant(R) == ZERO
        assert not invert(R).invertible


    def test_constant_rows_are_cleared_from_their_integer_form(
            self, monkeypatch):
        # an operator of constants that carries only rows is cleared from
        # its int_form as a born one is, never row by row: with the row
        # clearing refused, each gives the born operators' results
        A = rational_quadratic()
        R = born(lambda: colored_operator(A, p, q, u, v))
        S = born(lambda: dn_operator(A, a, b, g))
        inv_R, inv_S = invert(R), invert(S)
        assert inv_R.invertible and inv_S.invertible
        det_R, det_S = determinant(R), determinant(S)
        cases = [
            (Operator2(R.dim, R.rows), det_R, inv_R.operator),
            (R @ S, det_R * det_S, inv_S.operator @ inv_R.operator),
            (colored_inverse(A, p, q, u, v), ONE / det_R, R),
        ]

        def refused(rows):
            raise AssertionError("cleared row by row")

        monkeypatch.setattr(elimination, "_cleared", refused)
        with pytest.raises(AssertionError, match="row by row"):
            determinant(colored_operator(A, var("p"), q, u, v))
        for op, det, inverse in cases:
            assert op._form is None and op._rows is not None
            assert str(determinant(op)) == str(det)
            res = invert(op)
            assert res.invertible and str(res.determinant) == str(det)
            assert res.operator.to_json_obj() == inverse.to_json_obj()

    @pytest.mark.parametrize("build", [
        lambda A: dn_operator(A, 2, 3, 2),
        lambda A: dn_operator(A, a, b, g),
        lambda A: colored_operator(A, p, q, u, v),
        lambda A: dn_operator(A, 0, 0, 0),
    ], ids=["dn-ints", "dn", "colored", "singular"])
    def test_born_operator_is_eliminated_from_its_form(self, build):
        # a dense dim-4 table: every row of the operator has several
        # denominators, and no row of it is built
        rng = random.Random(4)
        choices = [Fraction(k, q) for k in range(-3, 4) for q in (1, 2, 5)]
        table = tuple(tuple(tuple(const(rng.choice(choices))
                                  for _ in range(4)) for _ in range(4))
                      for _ in range(4))
        A = Algebra(4, table, tuple(map(const, (1, Fraction(-1, 3), 0, 2))),
                    ())
        R = born(lambda: build(A))
        det, res = determinant(R), invert(R)
        assert R._rows is None
        rows = Operator2(R.dim, R.rows)
        assert str(det) == str(determinant(rows))
        want = invert(rows)
        assert res.invertible == want.invertible
        assert str(res.determinant) == str(want.determinant)
        if want.invertible:
            assert (res.operator.to_json_obj()
                    == want.operator.to_json_obj())
        # both take the integer path, so the Fraction oracle checks it
        frac_det, inverse, _ = oracles.frac_solve(oracles.frac_matrix(R))
        assert det == const(frac_det)
        assert res.invertible == (inverse is not None)
        if inverse is not None:
            assert oracles.frac_matrix(res.operator) == inverse


class TestLanes:
    """A born operator keeps its integer form once its rows are read, any
    other operator keeps none, and a product of an integer-form operator
    with a symbolic one runs on polynomials."""

    @staticmethod
    def refuse_packed(monkeypatch):
        def refused(*_):
            raise AssertionError("the packed lane ran")
        monkeypatch.setattr(tensor, "_packed_lane", refused)

    def test_defect_after_rows_were_read(self, monkeypatch):
        A = rational_quadratic()
        T, U = quadratic_table()
        R = dn_operator(A, a, b, g)
        form = R.int_form
        text = R.to_text()
        assert R._rows is not None and R.int_form is form
        self.refuse_packed(monkeypatch)
        M = oracles.dn_matrix(T, U, a, b, g)
        assert oracles.frac_matrix(braid_defect(R).dense()) == \
            oracles.braid_defect_matrix(M, 2)
        assert R.to_text() == text

    @staticmethod
    def row_built():
        """A constant Operator2 built from rows, and its Fraction matrix."""
        rng = random.Random(3)
        M = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 4)))
              for _ in range(4)] for _ in range(4)]
        return Operator2(2, [[str(x) for x in row] for row in M]), M

    @staticmethod
    def count_clearing(monkeypatch):
        """The list that each call of tensor._int_form appends to."""
        calls = []
        clear = tensor._int_form

        def counted(rows):
            calls.append(rows)
            return clear(rows)
        monkeypatch.setattr(tensor, "_int_form", counted)
        return calls

    def test_constant_input_is_cleared_in_each_product(self):
        R, M = self.row_built()
        assert R._form is None
        defect = qybe_defect(R)
        assert R._form is None
        d, _ = R.int_form
        assert d > 1 and R._form is None
        assert oracles.frac_matrix(defect.dense()) == \
            oracles.qybe_defect_matrix(M, 2)

    def test_each_distinct_operand_is_cleared_once(self, monkeypatch):
        R, M = self.row_built()
        calls = self.count_clearing(monkeypatch)
        # R is each of the three factors of both sides
        assert qybe_defect(R).is_zero() == oracles.is_zero_matrix(
            oracles.qybe_defect_matrix(M, 2))
        assert len(calls) == 1
        # nothing is kept, so the next product clears R again
        braid_defect(R)
        assert len(calls) == 2
        roundtrip_defect(R, Operator2.identity(2))
        assert len(calls) == 4
        # a born operator enters with its own form
        born_R = born(lambda: dn_operator(rational_quadratic(), a, b, g))
        calls.clear()
        qybe_defect(born_R)
        assert calls == []

    def test_only_the_table_builders_give_birth(self):
        A = rational_quadratic()
        R = born(lambda: dn_operator(A, a, b, g))
        Rinv = born(lambda: dn_inverse(A, a, b, a))
        f = Operator2(2, [[0] * 4, [0] * 4, [0] * 4, [0, 0, 0, 1]])
        others = [
            Operator2(2, [[1, 0, 0, 0]] * 4),
            Operator2.identity(2), Operator2.zero(2), twist(2),
            R @ Rinv, braid_defect(R).dense(),
            roundtrip_defect(R, Rinv).dense(), invert(R).operator,
            embed(R, 13), R.evaluate({}), R.substitute({"m": 1}),
            -R, R + R, R - R, R.scale(2),
            split_center_operator(SplitSpace(2, 0), f, f),
            # a symbolic scale, and a symbolic table read by a side scale
            dn_operator(A, var("a"), b, g),
            dn_operator(load_algebra(fixture_path("quadratic.json")),
                        0, 2, g),
        ]
        for op in others:
            assert op._form is None
            if op.legs == 2:
                qybe_defect(op)
            assert op._form is None

    def test_case_iii_on_a_symbolic_table_is_born_in_ints(self):
        # alpha = beta = 0 leaves no scale that reads the table
        A = load_algebra(fixture_path("quadratic.json"))
        assert A.product_table()[2] is None
        for build, s in ((lambda: dn_operator(A, 0, 0, g), g),
                         (lambda: dn_inverse(A, 0, 0, g), 1 / g)):
            assert born(build) == Operator2(
                2, [[-s * (i == j) for j in range(4)] for i in range(4)])
        # one nonzero side scale reads the table, which is symbolic
        assert dn_operator(A, 0, 2, g)._rows is not None

    def test_symbolic_operator_keeps_no_cleared_copy(self):
        R = dn_operator(rational_quadratic(), var("a"), 2, 3)
        assert R._rows is not None and R._form is None
        braid_defect(R)
        assert R._form is None and R.int_form is None

    @pytest.mark.parametrize("A, T, U", [
        (rational_quadratic(), *quadratic_table()), direct_algebra(9)],
        ids=["quadratic", "direct"])
    def test_wxz_with_a_symbolic_lambda(self, A, T, U):
        t = wxz_system(A, var("l"), mu)
        assert t.W.int_form is None
        assert t.X.int_form is not None and t.Z.int_form is not None
        # the oracle with lambda = l: ab(x)1 - b(x)a plus l times 1(x)ab
        _, one_ab, _ = oracles._product_terms(T, U)
        W = [[const(x) + var("l") * const(y) for x, y in zip(r1, r2)]
             for r1, r2 in zip(oracles.wxz_matrices(T, U, 0, mu)[0],
                               one_ab)]
        X, Z = ([list(map(const, row)) for row in M]
                for M in oracles.wxz_matrices(T, U, 0, mu)[1:])
        n = len(U)
        report = verify_wxz(t)
        for cond, ops in (("[W,W,W]", (W, W, W)), ("[Z,Z,Z]", (Z, Z, Z)),
                          ("[W,X,X]", (W, X, X)), ("[X,X,Z]", (X, X, Z))):
            want = oracles.commutator_matrix(*ops, n, ONE, ZERO)
            assert report.detail[cond] == (
                "zero" if oracles.is_zero_matrix(want) else "nonzero")
        got = yb_commutator(t.W, t.X, t.X)
        want = oracles.commutator_matrix(W, X, X, n, ONE, ZERO)
        assert oracles.symbolic_matrix(got.dense()) == want
        assert got.first_nonzero() == first_nonzero(want)


def first_nonzero(matrix):
    return next(((i, j, const(e) if isinstance(e, Fraction) else e)
                 for i, row in enumerate(matrix)
                 for j, e in enumerate(row) if e), None)


class TestVerdictsAgainstOracles:

    @pytest.mark.parametrize("params", [(a, b, g), (a, b, a), (0, 0, g),
                                        (a, g, g)])
    @pytest.mark.parametrize("which", ["braid", "qybe"])
    @pytest.mark.parametrize("algebra", ["quadratic", "direct"])
    def test_constant(self, algebra, which, params):
        A, T, U = ((rational_quadratic(), *quadratic_table())
                   if algebra == "quadratic" else direct_algebra(11))
        M = oracles.dn_matrix(T, U, *params)
        want = (oracles.braid_defect_matrix(M, len(U)) if which == "braid"
                else oracles.qybe_defect_matrix(M, len(U)))
        found = first_nonzero(want)
        witness = verify_constant(dn_operator(A, *params), which).witness
        if found is None:
            assert witness is None
        else:
            row, col, entry = found
            assert witness == {"row": row, "col": col, "entry": str(entry)}

    @pytest.mark.parametrize("algebra", ["quadratic", "direct"])
    def test_colored_sampled(self, algebra):
        A, T, U = ((rational_quadratic(), *quadratic_table())
                   if algebra == "quadratic" else direct_algebra(12))
        seed, samples = 5, 4
        report = verify_colored_family(A, p, q, mode="sampled",
                                       samples=samples, seed=seed)
        rng = random.Random(seed)
        witness = None
        for _ in range(samples):
            x, y, z = (rng.randint(-9, 9) for _ in range(3))
            if any(p * s == q * t or q * s == p * t
                   for s, t in ((x, y), (x, z), (y, z))):
                continue
            found = first_nonzero(oracles.commutator_matrix(
                *(oracles.colored_matrix(T, U, p, q, s, t)
                  for s, t in ((x, y), (x, z), (y, z))), len(U)))
            if found is not None:
                row, col, entry = found
                witness = {"row": row, "col": col, "entry": str(entry),
                           "point": {"u": x, "v": y, "w": z}}
                break
        assert report.witness == witness
        assert (algebra == "quadratic") == report.passed



def direct_superalgebra(seed):
    """A random dim-3 bracket table with rational constants in which the
    even e0 brackets to zero with everything, built without validation:
    (LieSuperalgebra, Fraction table, degree)."""
    rng = random.Random(seed)
    choices = [Fraction(k, q) for k in range(-2, 3) for q in (1, 2, 3)]
    degree = [0, 0, 1]
    table = [[[Fraction(0) if 0 in (i, j) else rng.choice(choices)
               for _ in range(3)] for j in range(3)] for i in range(3)]
    L = LieSuperalgebra(3, tuple(degree), tuple(
        tuple(tuple(map(const, row)) for row in plane) for plane in table),
        ())
    return L, table, degree


def super_case(name):
    """(L, Fraction table, degree, Fraction z): gl(1|1) with z = 1/3 times
    its even central element, or the direct table with z = 1/3 e0."""
    if name == "direct":
        return (*direct_superalgebra(5), [Fraction(1, 3), 0, 0])
    L = load_superalgebra(fixture_path("gl11.json"))
    table = [[[Fraction(str(e)) for e in row] for row in plane]
             for plane in L.bracket]
    z = [Fraction(1, 3) * Fraction(str(c)) for c in even_center(L)[0]]
    return L, table, list(L.degree), z


class TestSuperFamily:
    """super_phi and super_phi_inverse at a constant alpha and a rational z
    are born in ints, and read, verify and fail like the operator built
    from the entries of oracles.super_phi_matrix."""

    alpha = Fraction(-3, 2)

    @staticmethod
    def build(name, z_first, alpha=alpha):
        L, T, degree, z = super_case(name)
        op = (super_phi_inverse if z_first else super_phi)(
            L, tuple(map(const, z)), alpha)
        return op, oracles.super_phi_matrix(T, degree, z, alpha, z_first)

    @pytest.mark.parametrize("z_first", [False, True])
    @pytest.mark.parametrize("name", ["gl11", "direct"])
    def test_reads_equal_those_of_the_oracle_operator(self, name, z_first):
        ref = canonical(*self.build(name, z_first))
        fresh = lambda: born(lambda: self.build(name, z_first)[0])
        assert fresh().int_form[0] > 1
        assert fresh().rows == ref.rows
        assert fresh().to_json_obj() == ref.to_json_obj()
        assert fresh().to_text() == ref.to_text()
        assert fresh() == ref and hash(fresh()) == hash(ref)

    def verdicts(self, name, operator):
        """The reports of braid, QYBE and two inverse pairs, phi with its
        inverse and with the inverse at 2*alpha, as JSON objects, for the
        operators that operator(op, matrix) makes of the built ones."""
        phi, inv, off = (operator(*self.build(name, z_first, alpha))
                         for z_first, alpha in ((False, self.alpha),
                                                (True, self.alpha),
                                                (True, 2 * self.alpha)))
        return [r.to_json_obj() for r in (
            verify_constant(phi, "braid"), verify_constant(phi, "qybe"),
            verify_inverse_pair(phi, inv), verify_inverse_pair(phi, off))]

    @pytest.mark.parametrize("name", ["gl11", "direct"])
    def test_verdicts_equal_those_of_the_oracle_operator(self, name):
        got = self.verdicts(name, lambda op, _: born(lambda: op))
        assert got == self.verdicts(name, canonical)
        # on gl(1|1), a Lie superalgebra, phi solves the braid equation
        # (not the QYBE) with its inverse; the direct table fails all four
        assert [r["status"] for r in got] == (
            ["pass", "fail", "pass", "fail"] if name == "gl11"
            else ["fail"] * 4)

    def test_witnesses_against_the_fraction_oracle(self):
        P, Q, R = (self.build("direct", z_first, alpha)[1]
                   for z_first, alpha in ((False, self.alpha),
                                          (True, self.alpha),
                                          (True, 2 * self.alpha)))
        identity = oracles.identity(9)
        defects = [oracles.braid_defect_matrix(P, 3),
                   oracles.qybe_defect_matrix(P, 3),
                   oracles.sub(oracles.matmul(P, Q), identity),
                   oracles.sub(oracles.matmul(P, R), identity)]
        for report, defect in zip(self.verdicts("direct", lambda op, _: op),
                                  defects):
            row, col, entry = first_nonzero(defect)
            assert (report["witness"]["row"], report["witness"]["col"],
                    report["witness"]["entry"]) == (row, col, str(entry))

    @pytest.mark.parametrize("name", ["gl11", "direct"])
    def test_symbolic_alpha_stays_in_the_scalar_lane(self, name):
        L, T, degree, z = super_case(name)
        R = super_phi(L, tuple(map(const, z)), var("a"))
        assert R._rows is not None and R._form is None
        braid_defect(R)
        assert R._form is None and R.int_form is None
        assert oracles.frac_matrix(R, {"a": self.alpha}) == \
            oracles.super_phi_matrix(T, degree, z, self.alpha)
