"""Tests for the operator families built from algebra and bracket data."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import line_ids
from ybx import constructors, scalars
from ybx.algebra import (Algebra, make_algebra, mul_elements,
                         quadratic_quotient_algebra)
from ybx.constructors import (
    FreeIndeterminateError,
    InvalidCenterError,
    InvertibilityLocusError,
    NotYangBaxterError,
    SplitSpace,
    SupportViolationError,
    WxzTriple,
    canonical_two_dim_solution,
    classify_dn,
    colored_inverse,
    colored_operator,
    dn_inverse,
    dn_operator,
    split_center_operator,
    super_phi,
    super_phi_inverse,
    wxz_system,
)
from ybx.algebra import UnitError, load_algebra
from ybx.lie_super import (LieSuperalgebra, bracket_elements, even_center,
                           load_superalgebra, make_superalgebra)
from ybx.scalars import ONE, ZERO, ParamScalar, as_scalar, const, var
from ybx.tensor import (
    Operator2,
    braid_defect,
    colored_defect,
    invert,
    qybe_defect,
    twist,
    yb_commutator,
)
from ybx.verify import verify_colored_family, verify_wxz
from ybx import fixture_path


def symbolic_quadratic():
    return quadratic_quotient_algebra(var("m"), var("n"))


def numeric_quadratic():
    return quadratic_quotient_algebra(const(1), const(1))


def identity_op(n):
    return Operator2.identity(n)


def expected_product_column(A, i, j, left, right, diag, swap):
    # Direct expansion of left*ab(x)1 + right*1(x)ab - diag*(swap of a(x)b),
    # using only mul_elements; independent of the matrix builder.
    n = A.dim
    ei = tuple(ONE if t == i else ZERO for t in range(n))
    ej = tuple(ONE if t == j else ZERO for t in range(n))
    prod = mul_elements(A, ei, ej)
    out = [ZERO] * (n * n)
    for k in range(n):
        for l in range(n):
            out[k * n + l] = (
                out[k * n + l]
                + left * prod[k] * A.unit[l]
                + right * A.unit[k] * prod[l]
            )
    target = (j * n + i) if swap else (i * n + j)
    out[target] = out[target] - diag
    return out


class TestDnOperator:
    def test_action_matches_direct_expansion(self):
        A = symbolic_quadratic()
        a, b, g = var("a"), var("b"), var("g")
        R = dn_operator(A, a, b, g)
        n = A.dim
        for i in range(n):
            for j in range(n):
                col = i * n + j
                expect = expected_product_column(A, i, j, a, b, g, swap=False)
                got = [R.rows[r][col] for r in range(n * n)]
                assert got == expect, (i, j)

    def test_case_iii_is_negative_scalar(self):
        A = numeric_quadratic()
        R = dn_operator(A, ZERO, ZERO, const(3))
        assert R == identity_op(2).scale(const(-3))

    def test_braid_zero_in_all_three_cases_symbolically(self):
        A = symbolic_quadratic()
        a, b = var("a"), var("b")
        cases = [
            dn_operator(A, a, b, a),
            dn_operator(A, a, b, b),
            dn_operator(A, ZERO, ZERO, a),
        ]
        for R in cases:
            assert braid_defect(R).is_zero()

    def test_generic_triple_is_not_a_solution(self):
        A = numeric_quadratic()
        R = dn_operator(A, const(1), const(2), const(3))
        assert not braid_defect(R).is_zero()

    def test_converse_on_small_grid(self):
        # On {0..3}^3 with a fixed numeric algebra, being an invertible
        # braid solution coincides exactly with case membership.
        A = numeric_quadratic()
        in_case = 0
        for a in range(4):
            for b in range(4):
                for g in range(4):
                    R = dn_operator(A, const(a), const(b), const(g))
                    case = classify_dn(const(a), const(b), const(g))
                    solves = braid_defect(R).is_zero()
                    inv = invert(R).invertible
                    assert (solves and inv) == (case != "none"), (a, b, g)
                    if case != "none":
                        in_case += 1
        assert in_case == 18


class TestDnInverse:
    def test_case_i_formula(self):
        A = symbolic_quadratic()
        a, b = var("a"), var("b")
        Rinv = dn_inverse(A, a, b, a)
        assert Rinv == dn_operator(A, b.reciprocal(), a.reciprocal(), a.reciprocal())

    def test_round_trips(self):
        A = symbolic_quadratic()
        a, b = var("a"), var("b")
        triples = [(a, b, a), (a, b, b), (ZERO, ZERO, a)]
        for alpha, beta, gamma in triples:
            R = dn_operator(A, alpha, beta, gamma)
            Rinv = dn_inverse(A, alpha, beta, gamma)
            assert (R @ Rinv).is_identity()
            assert (Rinv @ R).is_identity()

    def test_case_iii_inverse(self):
        A = numeric_quadratic()
        Rinv = dn_inverse(A, ZERO, ZERO, const(4))
        assert Rinv == identity_op(2).scale(as_scalar(Fraction(-1, 4)))

    def test_out_of_case_rejected(self):
        A = numeric_quadratic()
        with pytest.raises(NotYangBaxterError):
            dn_inverse(A, const(1), const(2), const(3))

    def test_matches_exact_matrix_inversion(self):
        A = numeric_quadratic()
        R = dn_operator(A, const(1), const(2), const(1))
        res = invert(R)
        assert res.invertible
        assert res.operator == dn_inverse(A, const(1), const(2), const(1))


class TestClassifyDn:
    def test_labels(self):
        assert classify_dn(const(2), const(3), const(2)) == "i"
        assert classify_dn(const(3), const(2), const(2)) == "ii"
        assert classify_dn(ZERO, ZERO, const(7)) == "iii"
        assert classify_dn(ZERO, ZERO, ZERO) == "none"
        assert classify_dn(const(1), const(2), const(3)) == "none"
        assert classify_dn(const(5), const(5), ZERO) == "none"

    def test_overlap_prefers_i(self):
        assert classify_dn(const(4), const(4), const(4)) == "i"

    def test_overlap_inverse_agrees_both_ways(self):
        A = symbolic_quadratic()
        c = var("c")
        both = dn_operator(A, c.reciprocal(), c.reciprocal(), c.reciprocal())
        assert dn_inverse(A, c, c, c) == both

    def test_free_symbols_rejected(self):
        with pytest.raises(FreeIndeterminateError) as err:
            classify_dn(var("a"), const(1), var("a"))
        assert err.value.names == frozenset({"a"})


class TestColoredFamily:
    def test_action_matches_direct_expansion(self):
        A = symbolic_quadratic()
        p, q, u, v = var("p"), var("q"), var("u"), var("v")
        R = colored_operator(A, p, q, u, v)
        n = A.dim
        duv = u - v
        for i in range(n):
            for j in range(n):
                col = i * n + j
                expect = expected_product_column(
                    A, i, j, q * duv, p * duv, p * u - q * v, swap=True
                )
                got = [R.rows[r][col] for r in range(n * n)]
                assert got == expect, (i, j)

    def test_equal_colors_collapse_to_scaled_twist(self):
        A = symbolic_quadratic()
        p, q, u = var("p"), var("q"), var("u")
        R = colored_operator(A, p, q, u, u)
        assert R == twist(2).scale((q - p) * u)

    def test_colored_equation_symbolic(self):
        A = symbolic_quadratic()
        p, q = var("p"), var("q")
        u, v, w = var("u"), var("v"), var("w")
        D = colored_defect(
            colored_operator(A, p, q, u, v),
            colored_operator(A, p, q, u, w),
            colored_operator(A, p, q, v, w),
        )
        assert D.is_zero()

    def test_sign_flipped_family_fails(self):
        A = numeric_quadratic()
        p, q = const(1), const(2)
        u, v, w = const(3), const(1), const(2)

        def mutant(x, y):
            flip = (p * x - q * y) + (p * x - q * y)
            return colored_operator(A, p, q, x, y) + twist(2).scale(flip)

        D = colored_defect(mutant(u, v), mutant(u, w), mutant(v, w))
        assert not D.is_zero()

    def test_specialization_at_base_colors(self):
        # Freezing v = 0 and composing with the twist on either side lands
        # back in the constant family, with the roles of p and q set by the
        # side of the composition.
        A = symbolic_quadratic()
        p, q = var("p"), var("q")
        Rv0 = colored_operator(A, p, q, ONE, ZERO)
        assert twist(2) @ Rv0 == dn_operator(A, p, q, p)
        assert Rv0 @ twist(2) == dn_operator(A, q, p, p)

    def test_inverse_round_trip_symbolic(self):
        A = symbolic_quadratic()
        p, q, u, v = var("p"), var("q"), var("u"), var("v")
        R = colored_operator(A, p, q, u, v)
        Rinv = colored_inverse(A, p, q, u, v)
        assert (R @ Rinv).is_identity()
        assert (Rinv @ R).is_identity()

    def test_inverse_matches_exact_matrix_inversion(self):
        A = numeric_quadratic()
        args = (const(1), const(2), const(3), const(1))
        res = invert(colored_operator(A, *args))
        assert res.invertible
        assert res.operator == colored_inverse(A, *args)

    def test_locus_errors(self):
        A = numeric_quadratic()
        with pytest.raises(InvertibilityLocusError) as err:
            colored_inverse(A, const(1), const(1), const(2), const(2))
        assert err.value.factor == "p*u - q*v"
        with pytest.raises(InvertibilityLocusError) as err:
            colored_inverse(A, const(1), const(2), const(2), const(4))
        assert err.value.factor == "q*u - p*v"


class TestWxzSystem:
    def test_unit_parameters_collapse(self):
        A = symbolic_quadratic()
        t = wxz_system(A, ONE, ONE)
        assert t.W == t.X == t.Z

    def test_x_is_twisted_constant_operator(self):
        A = symbolic_quadratic()
        t = wxz_system(A, var("l"), var("u"))
        assert t.X == dn_operator(A, ONE, ONE, ONE) @ twist(2)

    def test_four_commutators_vanish_symbolically(self):
        A = symbolic_quadratic()
        t = wxz_system(A, var("l"), var("u"))
        assert yb_commutator(t.W, t.W, t.W).is_zero()
        assert yb_commutator(t.Z, t.Z, t.Z).is_zero()
        assert yb_commutator(t.W, t.X, t.X).is_zero()
        assert yb_commutator(t.X, t.X, t.Z).is_zero()

    def test_mixed_commutator_against_dense_oracle(self):
        A = numeric_quadratic()
        t = wxz_system(A, const(2), const(3))
        W = oracles.frac_matrix(t.W, {})
        X = oracles.frac_matrix(t.X, {})
        Z = oracles.frac_matrix(t.Z, {})
        assert oracles.is_zero_matrix(oracles.commutator_matrix(W, X, X, 2))
        assert oracles.is_zero_matrix(oracles.commutator_matrix(X, X, Z, 2))

    def test_w_alone_is_not_a_braid_solution_generically(self):
        A = numeric_quadratic()
        t = wxz_system(A, const(2), const(3))
        assert not braid_defect(t.W).is_zero()

    def test_mismatched_dims_rejected(self):
        with pytest.raises(ValueError):
            WxzTriple(
                W=identity_op(2), X=identity_op(2), Z=identity_op(3)
            )


def random_supported_pair(n, c, rng):
    size = n * n
    ops = []
    for _ in range(2):
        rows = [[ZERO] * size for _ in range(size)]
        for r in range(size):
            for i in range(n):
                for j in range(n):
                    if i == c or j == c:
                        continue
                    rows[r][i * n + j] = const(rng.randint(-3, 3))
        ops.append(Operator2(n, rows))
    return ops


class TestSplitCenter:
    def test_zero_components_give_zero_solution(self):
        sp = SplitSpace(3, 2)
        z = Operator2.zero(3)
        R = split_center_operator(sp, z, z)
        assert R.is_zero()
        assert qybe_defect(R).is_zero()

    def test_random_instances_solve_qybe(self):
        rng = random.Random(11)
        sp = SplitSpace(3, 2)
        for _ in range(5):
            f, g = random_supported_pair(3, 2, rng)
            R = split_center_operator(sp, f, g)
            assert qybe_defect(R).is_zero()
            M = oracles.frac_matrix(R, {})
            assert oracles.is_zero_matrix(oracles.qybe_defect_matrix(M, 3))

    def test_image_lands_in_center_legs(self):
        rng = random.Random(7)
        sp = SplitSpace(3, 0)
        f, g = random_supported_pair(3, 0, rng)
        R = split_center_operator(sp, f, g)
        for r in range(9):
            k, l = divmod(r, 3)
            if k != 0 and l != 0:
                assert all(e.is_zero for e in R.rows[r])

    def test_support_violation_rejected(self):
        sp = SplitSpace(3, 2)
        rows = [[ZERO] * 9 for _ in range(9)]
        rows[0][2 * 3 + 1] = ONE
        bad = Operator2(3, rows)
        with pytest.raises(SupportViolationError) as err:
            split_center_operator(sp, bad, Operator2.zero(3))
        assert err.value.which == "f"
        assert err.value.tensor == (2, 1)

    def test_violation_in_second_component(self):
        sp = SplitSpace(3, 1)
        rows = [[ZERO] * 9 for _ in range(9)]
        rows[4][0 * 3 + 1] = ONE
        bad = Operator2(3, rows)
        with pytest.raises(SupportViolationError) as err:
            split_center_operator(sp, Operator2.zero(3), bad)
        assert err.value.which == "g"
        assert err.value.tensor == (0, 1)

    def test_space_validation(self):
        with pytest.raises(ValueError):
            SplitSpace(3, 3)
        sp = SplitSpace(4, 1)
        assert sp.W_indices == (0, 2, 3)


def random_table(n, rng):
    return [[[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            for _ in range(n)]


def scalar_table(table):
    return tuple(tuple(tuple(as_scalar(e) for e in row) for row in plane)
                 for plane in table)


def evaluated(values, point):
    """Nested lists of scalar-like entries -> the same nesting of Fractions."""
    if isinstance(values, (list, tuple)):
        return [evaluated(v, point) for v in values]
    return as_scalar(values).evaluate(point)


def random_central_bracket(n, rng):
    """(degree, bracket table, z): a random bracket table in which the
    basis vectors 0 and 1 (0 alone when n = 2) are even and bracket to
    zero with everything, and z a nonzero vector on them. Only the center
    is arranged; the builders never read the superalgebra axioms."""
    central = range(min(2, n - 1))
    degree = [0 if i in central else rng.randint(0, 1) for i in range(n)]
    table = random_table(n, rng)
    for i in central:
        for j in range(n):
            table[i][j] = [0] * n
            table[j][i] = [0] * n
    z = [rng.choice([-2, -1, 1, 2]) if i in central else 0 for i in range(n)]
    return degree, table, z


def off_locus_colors(p, q, rng):
    while True:
        u, v = (Fraction(rng.randint(-5, 5)) for _ in range(2))
        if p * u != q * v and q * u != p * v:
            return u, v


class TestBuildersAgainstTableOracles:
    """Each builder against a Fraction matrix written from its formula in
    oracles.py. The tables are random and unvalidated (Algebra and
    LieSuperalgebra are constructed directly), because the builders read
    only the tables."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_product_families(self, n):
        rng = random.Random(100 + n)
        table = random_table(n, rng)
        unit = [rng.randint(-3, 3) for _ in range(n)]
        A = Algebra(n, scalar_table(table), tuple(map(const, unit)), ())
        a, b, g, p, q, lam, mu = (Fraction(rng.choice([-3, -1, 1, 2, 5]))
                                  for _ in range(7))
        u, v = off_locus_colors(p, q, rng)
        frac = oracles.frac_matrix
        assert frac(dn_operator(A, a, b, g)) == oracles.dn_matrix(
            table, unit, a, b, g)
        assert frac(colored_operator(A, p, q, u, v)) == \
            oracles.colored_matrix(table, unit, p, q, u, v)
        assert frac(colored_inverse(A, p, q, u, v)) == \
            oracles.colored_inverse_matrix(table, unit, p, q, u, v)
        t = wxz_system(A, lam, mu)
        assert (frac(t.W), frac(t.X), frac(t.Z)) == oracles.wxz_matrices(
            table, unit, lam, mu)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_super_phi_with_z_on_either_side(self, n):
        rng = random.Random(200 + n)
        degree, table, z = random_central_bracket(n, rng)
        L = LieSuperalgebra(n, tuple(degree), scalar_table(table), ())
        alpha = Fraction(rng.choice([-2, 3]))
        zs = tuple(map(const, z))
        assert oracles.frac_matrix(super_phi(L, zs, alpha)) == \
            oracles.super_phi_matrix(table, degree, z, alpha)
        assert oracles.frac_matrix(super_phi_inverse(L, zs, alpha)) == \
            oracles.super_phi_matrix(table, degree, z, alpha, z_first=True)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_split_center(self, n):
        rng = random.Random(300 + n)
        c = rng.randrange(n)
        f, g = random_supported_pair(n, c, rng)
        frac = oracles.frac_matrix
        assert frac(split_center_operator(SplitSpace(n, c), f, g)) == \
            oracles.split_center_matrix(frac(f), frac(g), n, c)

    def test_every_builder_at_a_symbolic_point(self):
        rng = random.Random(400)
        n = 3
        names = ("a", "b", "g", "p", "q", "u", "v", "lam", "mu")
        pv = [Fraction(x) for x in (2, -3, 5, 2, 3, 5, 7, -1, 4)]
        point = dict(zip(names, pv), s=Fraction(3, 2))
        a, b, g, p, q, u, v, lam, mu = map(var, names)
        frac = oracles.frac_matrix

        table = random_table(n, rng)
        table[1][2][0] = "s"
        unit = [1, "s", 0]
        A = Algebra(n, scalar_table(table), tuple(map(as_scalar, unit)), ())
        T, U = evaluated(table, point), evaluated(unit, point)
        assert frac(dn_operator(A, a, b, g), point) == oracles.dn_matrix(
            T, U, *pv[:3])
        assert frac(colored_operator(A, p, q, u, v), point) == \
            oracles.colored_matrix(T, U, *pv[3:7])
        assert frac(colored_inverse(A, p, q, u, v), point) == \
            oracles.colored_inverse_matrix(T, U, *pv[3:7])
        t = wxz_system(A, lam, mu)
        assert tuple(frac(op, point) for op in (t.W, t.X, t.Z)) == \
            oracles.wxz_matrices(T, U, *pv[7:])

        degree, table, z = random_central_bracket(n, rng)
        table[2][2][2] = "s"
        L = LieSuperalgebra(n, tuple(degree), scalar_table(table), ())
        zs = tuple(map(const, z))
        B = evaluated(table, point)
        assert frac(super_phi(L, zs, a), point) == \
            oracles.super_phi_matrix(B, degree, z, pv[0])
        assert frac(super_phi_inverse(L, zs, a), point) == \
            oracles.super_phi_matrix(B, degree, z, pv[0], z_first=True)

        f, g = random_supported_pair(n, 0, rng)
        rows = [list(r) for r in f.rows]
        rows[0][4] = var("s")
        f = Operator2(n, rows)
        assert frac(split_center_operator(SplitSpace(n, 0), f, g), point) == \
            oracles.split_center_matrix(frac(f, point), frac(g), n, 0)


class TestSuperPhi:
    def test_abelian_reduces_to_graded_twist(self):
        L = load_superalgebra(fixture_path("abelian-super.json"))
        phi = super_phi(L, (ONE, ZERO, ZERO), var("a"))
        tw = super_phi(L, (ONE, ZERO, ZERO), ZERO)
        assert phi == tw
        assert braid_defect(phi).is_zero()

    def test_graded_twist_signs(self):
        L = load_superalgebra(fixture_path("abelian-super.json"))
        tw = super_phi(L, (ONE, ZERO, ZERO), ZERO)
        # odd (x) odd picks up a sign, even (x) odd does not
        col_oo = 2 * 3 + 2
        assert tw.rows[col_oo][col_oo] == -ONE
        col_eo = 0 * 3 + 2
        assert tw.rows[2 * 3 + 0][col_eo] == ONE

    def test_gl11_braid_zero_symbolic(self):
        L = load_superalgebra(fixture_path("gl11.json"))
        z = even_center(L)[0]
        phi = super_phi(L, z, var("a"))
        assert braid_defect(phi).is_zero()

    def test_gl11_inverse_round_trip(self):
        L = load_superalgebra(fixture_path("gl11.json"))
        z = even_center(L)[0]
        a = var("a")
        phi = super_phi(L, z, a)
        phi_inv = super_phi_inverse(L, z, a)
        assert (phi @ phi_inv).is_identity()
        assert (phi_inv @ phi).is_identity()

    def test_gl11_inverse_matches_exact_matrix_inversion(self):
        L = load_superalgebra(fixture_path("gl11.json"))
        z = even_center(L)[0]
        phi = super_phi(L, z, const(2))
        res = invert(phi)
        assert res.invertible
        assert res.operator == super_phi_inverse(L, z, const(2))

    def test_heisenberg_family(self):
        L = load_superalgebra(fixture_path("heisenberg-super.json"))
        z = even_center(L)[0]
        a = var("a")
        phi = super_phi(L, z, a)
        assert braid_defect(phi).is_zero()
        assert (phi @ super_phi_inverse(L, z, a)).is_identity()

    def test_non_central_z_rejected(self):
        L = load_superalgebra(fixture_path("gl11.json"))
        with pytest.raises(InvalidCenterError) as err:
            super_phi(L, (ONE, ZERO, ZERO, ZERO), ONE)
        assert err.value.witness == 2

    def test_odd_support_rejected(self):
        L = load_superalgebra(fixture_path("gl11.json"))
        with pytest.raises(InvalidCenterError) as err:
            super_phi(L, (ZERO, ZERO, ONE, ZERO), ONE)
        assert err.value.witness == 2

    @pytest.mark.parametrize("build", [super_phi, super_phi_inverse])
    @pytest.mark.parametrize("z", [(ONE, ZERO, ZERO), (ONE,) * 5])
    def test_z_of_the_wrong_length_rejected(self, build, z):
        L = load_superalgebra(fixture_path("gl11.json"))
        with pytest.raises(InvalidCenterError, match="z must have length 4"):
            build(L, z, ONE)


class TestCanonicalTwoDim:
    def test_matrix_entries(self):
        q = var("q")
        R = canonical_two_dim_solution(q, 1)
        assert R.rows[0][0] == ONE
        assert R.rows[2][1] == ONE - q
        assert R.rows[2][2] == q
        assert R.rows[3][0] == ONE
        assert R.rows[3][3] == -q

    def test_solves_constant_equation_for_both_corners(self):
        q = var("q")
        for eta in (0, 1):
            R = canonical_two_dim_solution(q, eta)
            assert qybe_defect(R).is_zero()

    def test_numeric_instance_against_oracle(self):
        R = canonical_two_dim_solution(const(5), 1)
        M = oracles.frac_matrix(R, {})
        assert oracles.is_zero_matrix(oracles.qybe_defect_matrix(M, 2))

    def test_bad_corner_rejected(self):
        with pytest.raises(ValueError):
            canonical_two_dim_solution(ONE, 2)

    def test_invertible_for_nonzero_q(self):
        R = canonical_two_dim_solution(const(3), 0)
        res = invert(R)
        assert res.invertible


# ---------------------------------------------------------------------------
# one product per scale and distinct structure constant
# ---------------------------------------------------------------------------

def table_entries(table):
    return [e for plane in table for row in plane for e in row]


def monic_quotient(coeffs):
    """k[x]/(f), f = x^n + coeffs[n-1]*x^(n-1) + ... + coeffs[0], in the
    basis 1, x, ..., x^(n-1), validated by make_algebra."""
    n = len(coeffs)
    powers = [[int(k == i) for k in range(n)] for i in range(n)]
    for _ in range(n - 1):
        prev = powers[-1]
        powers.append([(prev[k - 1] if k else 0) - prev[-1] * coeffs[k]
                       for k in range(n)])
    return make_algebra(n, [[powers[i + j] for j in range(n)]
                            for i in range(n)], powers[0])


class TestSharedConstants:
    """make_algebra and make_superalgebra keep one object per distinct
    value of a table; _product_map forms each scale times each distinct
    constant once, and still adds every term that lands on a row."""

    def test_equal_constants_are_one_object(self):
        A = make_algebra(2, [[[1, 0], [0, "1"]],
                             [["0", Fraction(2, 2)], ["2/2", 1]]], [1, 0])
        L = load_superalgebra(fixture_path("gl11.json"))
        for table in (A.structure, L.bracket):
            first = {}
            for e in table_entries(table):
                assert first.setdefault(e, e) is e
        assert len({id(e) for e in table_entries(A.structure)}) == 2

    def test_records_still_compare_by_value(self):
        def copied(table):
            # parsing makes a new object for every entry
            return tuple(tuple(tuple(as_scalar(str(e)) for e in row)
                               for row in plane) for plane in table)

        A = monic_quotient([1, -1, 2])
        B = Algebra(A.dim, copied(A.structure), A.unit, A.labels)
        L = load_superalgebra(fixture_path("gl11.json"))
        M = LieSuperalgebra(L.dim, L.degree, copied(L.bracket), L.labels)
        for shared, distinct, table in ((A, B, B.structure),
                                        (L, M, M.bracket)):
            entries = table_entries(table)
            assert len({id(e) for e in entries}) == len(entries)
            # the cached table index is not a field
            shared.product_table()
            assert shared == distinct and distinct == shared
            assert hash(shared) == hash(distinct)

    @staticmethod
    def product_map_calls(monkeypatch, method, build, *args):
        """(build(*args), for each call of _product_map the (self, other)
        pairs of the calls of ParamScalar.method made inside it)."""
        calls, inside = [], []
        op, product_map = (getattr(ParamScalar, method),
                           constructors._product_map)

        def counted(self, other):
            if inside:
                calls[-1].append((self, other))
            return op(self, other)

        def traced(*args, **kwargs):
            inside.append(1)
            calls.append([])
            try:
                return product_map(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(ParamScalar, method, counted)
        monkeypatch.setattr(constructors, "_product_map", traced)
        try:
            return build(*args), calls
        finally:
            monkeypatch.undo()

    @pytest.mark.parametrize("build, names", [
        (dn_operator, ("a", "b", "g")),
        (colored_operator, ("p", "q", "u", "v")),
        (colored_inverse, ("p", "q", "u", "v")),
    ])
    def test_at_most_two_products_per_distinct_constant(self, monkeypatch,
                                                         build, names):
        A = monic_quotient([3, -1, 2, 0, -2])
        nonzero = [e for e in table_entries(A.structure) if not e.is_zero]
        d = len(set(nonzero))
        assert d < len(nonzero)
        R, (calls,) = self.product_map_calls(monkeypatch, "__mul__", build,
                                             A, *map(var, names))
        assert 0 < len(calls) <= 2 * d
        values = (Fraction(2), Fraction(-3), Fraction(5), Fraction(7))
        point = dict(zip(names, values))
        T = evaluated(A.structure, {})
        U = evaluated(A.unit, {})
        oracle = {dn_operator: oracles.dn_matrix,
                  colored_operator: oracles.colored_matrix,
                  colored_inverse: oracles.colored_inverse_matrix}[build]
        assert oracles.frac_matrix(R, point) == oracle(
            T, U, *values[:len(names)])

    @pytest.mark.parametrize("build, names", [
        (dn_operator, ("a", "b", "g")),
        (colored_operator, ("p", "q", "u", "v")),
        (colored_inverse, ("p", "q", "u", "v")),
        (wxz_system, ("l", "m")),
    ])
    def test_each_sum_is_formed_once(self, monkeypatch, build, names):
        # on k[x]/(x^2 - x - 1) several columns add the same two terms on
        # a row: a product term to -diag, or the two product terms
        A = monic_quotient([-1, -1])
        R, calls = self.product_map_calls(monkeypatch, "__add__", build, A,
                                          *map(var, names))
        # X of wxz has constant scales, so it is built in ints
        assert any(calls)
        assert all(len(set(sums)) == len(sums) for sums in calls)
        values = dict(zip(names, map(Fraction, (2, -3, 5, 7))))
        T, U = evaluated(A.structure, {}), evaluated(A.unit, {})
        if build is wxz_system:
            assert tuple(oracles.frac_matrix(op, values)
                         for op in (R.W, R.X, R.Z)) == \
                oracles.wxz_matrices(T, U, *values.values())
        else:
            oracle = {dn_operator: oracles.dn_matrix,
                      colored_operator: oracles.colored_matrix,
                      colored_inverse: oracles.colored_inverse_matrix}[build]
            assert oracles.frac_matrix(R, values) == oracle(
                T, U, *values.values())

    @pytest.mark.parametrize("build", [super_phi, super_phi_inverse])
    def test_super_family_forms_one_product_per_distinct_constant(
            self, monkeypatch, build):
        # alpha*z_l once per l, then (alpha*z_l)*b once per l and distinct
        # constant b; the centre check runs before _product_map is called,
        # so its own products are not counted
        rng = random.Random(600)
        n = 4
        degree, table, z = random_central_bracket(n, rng)
        pool = {v: const(v) for v in range(-3, 4)}
        L = LieSuperalgebra(n, tuple(degree), tuple(
            tuple(tuple(pool[v] for v in row) for row in plane)
            for plane in table), ())
        nonzero = [e for e in table_entries(L.bracket) if not e.is_zero]
        d = len(set(nonzero))
        k = sum(1 for x in z if x)
        assert k * (1 + d) < 2 * k * len(nonzero)
        zs = tuple(map(const, z))
        R, (calls,) = self.product_map_calls(monkeypatch, "__mul__", build,
                                             L, zs, var("a"))
        assert 0 < len(calls) <= k * (1 + d)
        z_first = build is super_phi_inverse
        alpha = Fraction(-3, 2)
        assert oracles.frac_matrix(R, {"a": alpha}) == \
            oracles.super_phi_matrix(table, degree, z, alpha, z_first)
        want = oracles.super_phi_matrix(table, degree, z, alpha, z_first)
        assert build(L, zs, alpha).to_json_obj() == Operator2(
            n, [[const(x) for x in row] for row in want]).to_json_obj()

    @pytest.mark.parametrize("unit", [(1, -2, 0), (2, 0, -1), (1, 1, 0)])
    def test_shared_constants_against_the_oracles(self, unit):
        # repeated constants share one object, the unit has two nonzero
        # coordinates, and left != right in every family but X
        rng = random.Random(500 + sum(unit))
        n = 3
        pool = {v: const(v) for v in range(-2, 3)}
        table = [[[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                 for _ in range(n)]
        A = Algebra(n, tuple(tuple(tuple(pool[v] for v in row)
                                   for row in plane) for plane in table),
                    tuple(pool[v] for v in unit), ())
        assert len({id(e) for e in table_entries(A.structure)}) <= 5
        a, b, g, lam, mu = map(Fraction, (2, -3, 5, 3, -2))
        p, q = Fraction(2), Fraction(-1)
        u, v = off_locus_colors(p, q, rng)
        frac = oracles.frac_matrix
        assert frac(dn_operator(A, a, b, g)) == oracles.dn_matrix(
            table, unit, a, b, g)
        assert frac(colored_operator(A, p, q, u, v)) == \
            oracles.colored_matrix(table, unit, p, q, u, v)
        assert frac(colored_inverse(A, p, q, u, v)) == \
            oracles.colored_inverse_matrix(table, unit, p, q, u, v)
        t = wxz_system(A, lam, mu)
        assert (frac(t.W), frac(t.X), frac(t.Z)) == oracles.wxz_matrices(
            table, unit, lam, mu)


_GL11 = load_superalgebra(fixture_path("gl11.json"))
_HOSTILE = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(-1, 1), max_size=4),
    st.sampled_from([
        load_algebra(fixture_path("sigma.json")), _GL11,
        even_center(_GL11)[0], SplitSpace(2, 1), SplitSpace(3, 0),
        twist(2), Operator2.identity(3), Operator2(2, [[1, 0, 0, 0]] * 4),
        Operator2.from_columns(2, ([(0, ONE)], [(0, ONE)])),
        qybe_defect(twist(2)).dense(), var("a"), const(0)]))


# paths that are no path: open() would take an int as a file descriptor,
# so the ints stay clear of the ones a test process has open
_HOSTILE_PATHS = st.one_of(
    st.none(), st.floats(), st.lists(st.integers(-1, 1), max_size=2),
    st.integers(max_value=-1), st.integers(min_value=10 ** 4))
_SIGMA = load_algebra(fixture_path("sigma.json"))


@given(st.sampled_from(["dn_operator", "dn_inverse", "colored_operator",
                        "colored_inverse", "wxz_system",
                        "split_center_operator", "super_phi",
                        "super_phi_inverse", "load_algebra",
                        "load_superalgebra", "verify_colored_family",
                        "verify_colored_family_sampled",
                        "verify_colored_family_seed", "verify_wxz",
                        "WxzTriple", "mul_elements", "bracket_elements",
                        "even_center", "make_algebra", "make_superalgebra",
                        "SplitSpace", "Algebra.substitute"]),
       st.lists(_HOSTILE, min_size=5, max_size=5), _HOSTILE_PATHS)
@settings(max_examples=300, deadline=None)
def test_hostile_operands_raise_only_ybx_errors(name, operands, path):
    """Each family builder, loader, verifier and structure helper either
    answers or raises a YbxError, whatever its operands: None, an Algebra
    where a LieSuperalgebra is due or the other way round, a float, an
    operator where a space is due, or a path that is no path."""
    a, b, c, d, e = operands
    calls = {
        "dn_operator": lambda: dn_operator(a, b, c, d),
        "dn_inverse": lambda: dn_inverse(a, b, c, d),
        "colored_operator": lambda: colored_operator(a, b, c, d, e),
        "colored_inverse": lambda: colored_inverse(a, b, c, d, e),
        "wxz_system": lambda: wxz_system(a, b, c),
        "split_center_operator": lambda: split_center_operator(a, b, c),
        "super_phi": lambda: super_phi(a, b, c),
        "super_phi_inverse": lambda: super_phi_inverse(a, b, c),
        "load_algebra": lambda: load_algebra(path),
        "load_superalgebra": lambda: load_superalgebra(path),
        "verify_colored_family": lambda: verify_colored_family(a, b, c),
        "verify_colored_family_sampled": lambda: verify_colored_family(
            a, b, c, "sampled", d),
        "verify_colored_family_seed": lambda: verify_colored_family(
            _SIGMA, 1, 2, "sampled", 1, a),
        "verify_wxz": lambda: verify_wxz(a),
        "WxzTriple": lambda: WxzTriple(a, b, c),
        "mul_elements": lambda: mul_elements(a, b, c),
        "bracket_elements": lambda: bracket_elements(a, b, c),
        "even_center": lambda: even_center(a),
        "make_algebra": lambda: make_algebra(a, b, c, d),
        "make_superalgebra": lambda: make_superalgebra(a, b, c, d),
        "SplitSpace": lambda: SplitSpace(a, b),
        "Algebra.substitute": lambda: _SIGMA.substitute(a),
    }
    try:
        calls[name]()
    except scalars.YbxError:
        pass


_UNIT_TABLE = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]


_BOUNDARY_CALLS = [
    lambda: load_algebra(0),        # not standard input
    lambda: load_algebra(123),
    lambda: load_algebra(None),
    lambda: load_superalgebra(0),
    lambda: load_superalgebra(None),
    lambda: verify_colored_family(None, 1, 2),
    lambda: verify_colored_family(_GL11, 1, 2),
    lambda: verify_colored_family(_SIGMA, 1, 2, "sampled", None),
    lambda: verify_colored_family(_SIGMA, 1, 2, "sampled", 1, None),
    lambda: verify_colored_family(_SIGMA, 1, 2, "sampled", 1, 1.5),
    lambda: verify_colored_family(_SIGMA, 1, 2, "sampled", 1, "1"),
    lambda: verify_wxz(None),
    lambda: verify_wxz(Operator2.identity(2)),
    lambda: WxzTriple(None, Operator2.identity(2), Operator2.identity(2)),
    lambda: mul_elements(_SIGMA, None, None),
    lambda: mul_elements(None, [1, 0], [1, 0]),
    lambda: bracket_elements(_GL11, None, None),
    lambda: bracket_elements(None, [1, 0], [1, 0]),
    lambda: even_center(None),
    lambda: even_center(_SIGMA),
    lambda: make_algebra("2", _UNIT_TABLE, [1, 0]),
    lambda: make_algebra(True, [[[1]]], [1]),
    lambda: make_algebra(2, None, [1, 0]),
    lambda: make_algebra(2, _UNIT_TABLE, None),
    lambda: make_algebra(2, _UNIT_TABLE, [1, 0], labels=5),
    lambda: make_superalgebra(1, None, [[[0]]]),
    lambda: SplitSpace(None, 0),
    lambda: SplitSpace(2, None),
    lambda: _SIGMA.substitute(None),
]


@pytest.mark.parametrize("call", _BOUNDARY_CALLS,
                         ids=line_ids(_BOUNDARY_CALLS, 876))
def test_library_boundary_named(call):
    with pytest.raises(scalars.YbxError):
        call()


@pytest.mark.parametrize("build, args", [
    (dn_operator, (None, 1, 1, 1)),
    (dn_inverse, (None, 1, 2, 1)),
    (colored_operator, (None, 1, 1, 1, 1)),
    (colored_inverse, (None, 2, 1, 3, 1)),
    (wxz_system, (None, 1, 1)),
    (split_center_operator, (None, None, None)),
    (super_phi, (None, 0, 1)),
    (super_phi_inverse, (None, 0, 1)),
    (super_phi, (symbolic_quadratic(), (ONE, ZERO), 1)),
    (super_phi, (_GL11, None, 1)),
    # a str is one scalar, not the coordinates of z
    (super_phi, (load_superalgebra(fixture_path("heisenberg-super.json")),
                 "001", 1)),
    (super_phi_inverse, (_GL11, "1100", 1)),
])
def test_hostile_operands_named(build, args):
    with pytest.raises(scalars.InputError):
        build(*args)


# a bool is an int to isinstance, but never an int operand
@pytest.mark.parametrize("call", [
    lambda: verify_colored_family(_SIGMA, 1, 2, mode="sampled", samples=1,
                                  seed=True),
    lambda: verify_colored_family(_SIGMA, 1, 2, mode="sampled", samples=True,
                                  seed=1),
    lambda: SplitSpace(3, True),
    lambda: var("x") ** True,
], ids=["seed", "samples", "c_index", "exponent"])
def test_a_bool_is_no_int_operand(call):
    with pytest.raises(scalars.InputError, match="expected int, not bool"):
        call()


# a bool is an int to isinstance, but never a scalar
@pytest.mark.parametrize("call", [
    lambda: make_algebra(1, [[[True]]], [True]),
    lambda: super_phi(_GL11, (ONE, ONE, ZERO, ZERO), True),
    lambda: super_phi_inverse(_GL11, (ONE, ONE, ZERO, ZERO), False),
    lambda: canonical_two_dim_solution(2, True),
], ids=["make_algebra", "super_phi", "super_phi_inverse", "eta"])
def test_a_bool_is_no_scalar(call):
    with pytest.raises(scalars.InputError, match="cannot interpret"):
        call()


_ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.fractions(-2, 2, max_denominator=3),
    st.sampled_from(["a", "-b", "a + 1", "1/(a - b)", "b^2/2", "a/(b + 2)"]))


@st.composite
def table_and_vectors(draw):
    """A random n x n x n table, n in 1-4, and two coordinate vectors, all
    of int, rational and symbolic scalars."""
    n = draw(st.integers(1, 4))
    entries = st.lists(_ENTRIES.map(as_scalar), min_size=n, max_size=n)
    table = tuple(tuple(tuple(draw(entries)) for _ in range(n))
                  for _ in range(n))
    return table, tuple(draw(entries)), tuple(draw(entries))


class TestTableContractions:
    """The table products, each read through ``kernel.combine``, against
    the one-hot probes and double sums of oracles.py."""

    @settings(max_examples=60, deadline=None)
    @given(table_and_vectors())
    def test_elements_match_the_bilinear_oracle(self, drawn):
        table, x, y = drawn
        n = len(table)
        expected = oracles.bilinear(table, x, y)
        # unvalidated records: the products read only the table
        assert mul_elements(Algebra(n, table, x, ()), x, y) == expected
        assert bracket_elements(
            LieSuperalgebra(n, (0,) * n, table, ()), x, y) == expected

    @pytest.mark.parametrize("name", ["gl11.json", "heisenberg-super.json"])
    @settings(max_examples=60, deadline=None)
    @given(coords=st.lists(st.integers(-2, 2), min_size=8, max_size=8))
    def test_center_check_matches_one_hot_probes(self, name, coords):
        L = load_superalgebra(fixture_path(name))
        n = L.dim
        z = tuple(const(c) if d == 0 else ZERO
                  for c, d in zip(coords, L.degree))
        witness = next((j for j in range(n) if any(oracles.bilinear(
            L.bracket, z, [ONE if t == j else ZERO for t in range(n)]))),
            None)
        if witness is None:
            assert constructors._check_center(L, z) == z
        else:
            with pytest.raises(InvalidCenterError,
                               match=fr"\[z, e{witness}\] != 0") as err:
                constructors._check_center(L, z)
            assert err.value.witness == witness

    # e0 is a left unit and not a right one (e1*e0 = 0), and in the
    # opposite table a right unit and not a left one
    @pytest.mark.parametrize("structure", [
        [[[1, 0], [0, 1]], [[0, 0], [0, 0]]],
        [[[1, 0], [0, 0]], [[0, 1], [0, 0]]],
    ], ids=["left-unit", "right-unit"])
    def test_a_one_sided_unit_fails_on_its_other_side(self, structure):
        expected = oracles.algebra_error(structure, [1, 0])
        assert isinstance(expected, UnitError)
        with pytest.raises(UnitError) as err:
            make_algebra(2, structure, [1, 0])
        assert (err.value.witness, err.value.side, str(err.value)) == (
            expected.witness, expected.side, str(expected))
