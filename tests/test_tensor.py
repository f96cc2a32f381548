"""Operator engine: twist, leg embeddings, composition, exact inversion,
and the defect computations, all against brute-force Kronecker oracles."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ybx import scalars, tensor
from ybx.scalars import ONE, ZERO, as_scalar, const, parse_scalar, var
from ybx.tensor import (DimensionMismatch, Operator2, Operator3,
                        braid_defect, colored_defect, determinant,
                        embed, invert, nullspace, operator_from_json_obj,
                        qybe_defect, twist, yb_commutator)


def random_op2(dim, rng, lo=-3, hi=3):
    size = dim * dim
    return Operator2(dim, [[const(rng.randint(lo, hi)) for _ in range(size)]
                           for _ in range(size)])


class TestTwist:
    def test_dim_1_identity(self):
        assert twist(1).is_identity()

    def test_dim_2_permutation(self):
        t = twist(2)
        expect = [
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ]
        assert t == Operator2(2, expect)

    def test_involution(self):
        t = twist(3)
        assert (t @ t).is_identity()


class TestFromColumns:
    def test_sums_repeated_pairs_and_drops_zero_sums(self):
        x = var("x")
        op = Operator2.from_columns(2, [
            [(1, x), (3, ZERO), (1, ONE), (2, x)],
            [],
            [(0, x), (0, -x), (2, const(5))],
        ])
        expect = [[ZERO] * 4 for _ in range(4)]
        expect[1][0] = x + 1
        expect[2][0] = x
        expect[2][2] = const(5)
        assert op == Operator2(2, expect)
        assert op.rows[0][2].is_zero
        assert op.first_nonzero() == (1, 0, x + 1)

    def test_builds_the_calling_class(self):
        op = Operator3.from_columns(2, [[(7, ONE)]])
        assert type(op) is Operator3
        assert op.first_nonzero() == (7, 0, ONE)
        assert Operator3.from_columns(2, ()) == Operator3(
            2, [[0] * 8 for _ in range(8)])

    @pytest.mark.parametrize("build", [
        lambda: Operator2.identity(-1),
        lambda: Operator2.zero(0),
        lambda: Operator3.identity(0),
        lambda: Operator2.from_columns(0, ()),
        lambda: Operator3._from_rows(-2, (), str),
        lambda: twist(0),
    ], ids=["identity(-1)", "zero(0)", "Operator3.identity(0)",
            "from_columns(0)", "_from_rows(-2)", "twist(0)"])
    def test_dim_below_one_is_refused(self, build):
        # the constructor's check, which every builder shares: without it
        # identity(-1) would be a 1x1 operator with dim -1, and twist(0) an
        # operator with no rows
        with pytest.raises(ValueError, match="dim must be >= 1"):
            build()


class TestEmbed:
    def test_identity_embeds_to_identity(self):
        I = Operator2.identity(2)
        for legs in (12, 23, 13):
            assert embed(I, legs).is_identity()

    def test_twist_13_reverses_outer_legs(self):
        # oracle: apply (I x tau)(tau x I)(I x tau) to all 8 basis vectors
        n = 2
        e13 = embed(twist(n), 13)
        for (i, j, k) in itertools.product(range(n), repeat=3):
            src = (i * n + j) * n + k
            dst = (k * n + j) * n + i
            col = [e13.rows[r][src] for r in range(n ** 3)]
            assert col[dst] == ONE
            assert sum(1 for c in col if not c.is_zero) == 1

    def test_embed_12_23_match_kronecker_oracle(self):
        rng = random.Random(1)
        R = random_op2(2, rng)
        Rf = oracles.frac_matrix(R)
        assert oracles.frac_matrix(embed(R, 12)) == oracles.embed12(Rf, 2)
        assert oracles.frac_matrix(embed(R, 23)) == oracles.embed23(Rf, 2)

    def test_embed_13_matches_leg_permutation_conjugation(self):
        # conjugation by the permutation exchanging legs 2 and 3
        rng = random.Random(2)
        for dim in (2, 3):
            R = random_op2(dim, rng)
            Rf = oracles.frac_matrix(R)
            assert oracles.frac_matrix(embed(R, 13)) == oracles.embed13(Rf, dim)

    def test_embed_13_matches_basis_action(self):
        rng = random.Random(12)
        for dim in (2, 3):
            R = random_op2(dim, rng)
            Rf = oracles.frac_matrix(R)
            assert oracles.frac_matrix(embed(R, 13)) == oracles.embed13_action(Rf, dim)

    def test_bad_legs(self):
        with pytest.raises(ValueError):
            embed(twist(2), 21)


class TestCompose:
    def test_identity_neutral(self):
        rng = random.Random(3)
        R = random_op2(2, rng)
        assert R @ Operator2.identity(2) == R
        assert Operator2.identity(2) @ R == R

    def test_matches_oracle_product(self):
        rng = random.Random(4)
        A = random_op2(2, rng)
        B = random_op2(2, rng)
        assert oracles.frac_matrix(A @ B) == oracles.matmul(
            oracles.frac_matrix(A), oracles.frac_matrix(B))

    def test_evaluation_commutes_with_composition(self):
        # (R o S) at a point equals R(point) o S(point)
        a, b = var("a"), var("b")
        R = Operator2(2, [[a, 0, 0, 0], [0, 1, a, 0], [0, 0, b, 0], [1, 0, 0, a * b]])
        S = Operator2(2, [[b, 1, 0, 0], [0, a, 0, 0], [0, 0, 1, a], [0, b, 0, 1]])
        point = {"a": 3, "b": Fraction(-1, 2)}
        left = oracles.frac_matrix(R @ S, point)
        right = oracles.matmul(oracles.frac_matrix(R, point),
                               oracles.frac_matrix(S, point))
        assert left == right

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            twist(2) @ twist(3)
        with pytest.raises(DimensionMismatch):
            yb_commutator(twist(2), twist(2), twist(3))


class TestInverse:
    def test_twist_self_inverse(self):
        for n in (1, 2, 3):
            res = invert(twist(n))
            assert res.invertible
            assert res.operator == twist(n)

    def test_singular_reports_determinant(self):
        S = Operator2(2, [[1, 2, 0, 0], [2, 4, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
        res = invert(S)
        assert not res.invertible
        assert res.operator is None
        assert res.determinant.is_zero

    def test_symbolic_round_trip(self):
        a, b = var("a"), var("b")
        R = Operator2(2, [[a, 1, 0, 2], [0, b, 1, 0], [1, 0, a, 0], [0, 2, 0, 1]])
        res = invert(R)
        assert res.invertible
        assert (R @ res.operator).is_identity()
        assert (res.operator @ R).is_identity()

    def test_determinant_matches_expansion(self):
        rng = random.Random(5)
        for _ in range(3):
            R = random_op2(2, rng, -2, 2)
            expect = oracles.det_permutation_expansion(
                oracles.symbolic_matrix(R))
            assert determinant(R) == expect
            res = invert(R)
            assert res.invertible == (not expect.is_zero)
            if res.invertible:
                assert res.determinant == expect

    def test_degenerate_family_point_is_singular(self):
        # the colored family at p=q, u=v collapses to the zero operator
        from ybx.algebra import quadratic_quotient_algebra
        from ybx.constructors import colored_operator
        A = quadratic_quotient_algebra(ZERO, var("sigma"))
        R = colored_operator(A, 1, 1, var("u"), var("u"))
        assert R.is_zero()
        res = invert(R)
        assert not res.invertible
        assert res.determinant.is_zero


class TestNullspace:
    def test_simple_kernel(self):
        basis = nullspace([[ONE, const(2), ZERO], [ZERO, ZERO, ONE]])
        assert len(basis) == 1
        assert basis[0] == (const(-2), ONE, ZERO)

    def test_full_rank_kernel_empty(self):
        assert nullspace([[ONE, ZERO], [ZERO, ONE]]) == []

    def test_members_annihilate(self):
        rng = random.Random(6)
        rows = [[const(rng.randint(-2, 2)) for _ in range(5)] for _ in range(3)]
        for vec in nullspace(rows):
            for row in rows:
                acc = ZERO
                for c, r in zip(vec, row):
                    acc = acc + c * r
                assert acc.is_zero


# entries for the elimination over Z[params]: zeros for pivot swaps,
# polynomials, rational constants and quotients with polynomial
# denominators, none of which vanishes at POINTS
ENTRIES = ["0", "0", "0", "1", "-2", "1/2", "-2/3", "a", "b - 1",
           "a*b + 2", "a^2 - b", "1/(a + 1)", "(a - b)/(2*b + 3)",
           "a/(a^2 + 1)", "3/(b - 2)", "(a + 1)/a", "b^2/(3*a - 1)"]
POINTS = ({"a": Fraction(7, 3), "b": Fraction(-5, 2)},
          {"a": Fraction(-4), "b": Fraction(9, 7)})


def random_rows(rng, nrows, ncols):
    return [[parse_scalar(rng.choice(ENTRIES)) for _ in range(ncols)]
            for _ in range(nrows)]


def dependent_row(rng, rows):
    """A combination of the given rows with quotient coefficients."""
    out = [ZERO] * len(rows[0])
    for row in rows:
        c = parse_scalar(rng.choice(ENTRIES[3:]))
        out = [x + c * e for x, e in zip(out, row)]
    return out


def at(rows, point):
    return [[e.evaluate(point) for e in row] for row in rows]


class TestEliminationOverPolys:
    """determinant, invert and nullspace clear each row to Z[params] and
    run Bareiss over Poly. They are compared with the Bareiss elimination
    over ParamScalars in tests/oracles.py, exactly and by their strings,
    and with Gauss-Jordan over Fractions at points, on rows with
    polynomial and rational denominators, swaps, and singular or
    rank-deficient inputs."""

    def check_square(self, rows, points=POINTS):
        R = Operator2(2, rows)
        det = determinant(R)
        want = oracles.bareiss_determinant(rows)
        assert det == want and str(det) == str(want)
        res = invert(R)
        ref = oracles.bareiss_inverse(rows)
        assert res.invertible == (ref is not None) == (not det.is_zero)
        if ref is not None:
            assert res.operator.rows == tuple(map(tuple, ref))
            assert [[str(e) for e in r] for r in res.operator.rows] == \
                [[str(e) for e in r] for r in ref]
            assert res.determinant == det
        else:
            assert res.operator is None and res.determinant.is_zero
        for point in points:
            fdet, finv, _ = oracles.frac_solve(at(rows, point))
            assert det.evaluate(point) == fdet
            if fdet:
                assert oracles.frac_matrix(res.operator, point) == finv
        return res

    def test_random_rows_with_denominators(self):
        rng = random.Random(21)
        swaps = 0
        for _ in range(30):
            rows = random_rows(rng, 4, 4)
            swaps += rows[0][0].is_zero
            self.check_square(rows)
        assert swaps > 3

    def test_pivot_swaps(self):
        a, b = var("a"), var("b")
        # a zero pivot at the first step, and one that the first step's
        # elimination creates at the second
        rows = [[ZERO, 1 / a, ZERO, ONE],
                [b, ZERO, ONE, ZERO],
                [2 * b, ZERO, 2 / (a + 1), a / (b + 1)],
                [ZERO, const(2), 1 / (a + 1), ZERO]]
        res = self.check_square(rows)
        assert res.invertible
        # a 4-cycle up to scales: each pivot needs a swap, three in all
        rows = [[ZERO, ZERO, ZERO, 1 / a], [b / 2, ZERO, ZERO, ZERO],
                [ZERO, ONE, ZERO, ZERO], [ZERO, ZERO, 3 / (b - 2), ZERO]]
        res = self.check_square(rows)
        assert str(res.determinant) == "-3*b/(2*a*b - 4*a)"

    def test_singular(self):
        rng = random.Random(22)
        for k in range(12):
            rows = random_rows(rng, 3, 4)
            rows.insert(k % 4, dependent_row(rng, rows[:2]))
            res = self.check_square(rows)
            assert not res.invertible
            assert determinant(Operator2(2, rows)) == ZERO

    def test_nullspace_of_rank_deficient_rows(self):
        rng = random.Random(23)
        for k in range(12):
            nrows, ncols = 2 + k % 3, 3 + k % 4
            rows = random_rows(rng, nrows, ncols)
            rows.append(dependent_row(rng, rows))
            if k % 2:
                for row in rows:
                    row[k % ncols] = ZERO
            basis = nullspace(rows)
            want = oracles.bareiss_nullspace(rows)
            assert basis == want
            assert [list(map(str, v)) for v in basis] == \
                [list(map(str, v)) for v in want]
            assert len(basis) >= ncols - nrows
            for point in POINTS:
                A = at(rows, point)
                for vec in basis:
                    x = [e.evaluate(point) for e in vec]
                    assert all(sum(r * y for r, y in zip(row, x)) == 0
                               for row in A)

    def test_denominators_of_one_row_share_a_scale(self):
        # the row's lcm is (a + 1)*a*(b - 2); entries over its factors
        rows = [[parse_scalar(t) for t in row] for row in (
            ["1/(a + 1)", "(a + 1)/a", "3/(b - 2)", "1/(a^2 + a)"],
            ["1", "a", "0", "b"], ["0", "1/(a + 1)", "1/(a + 1)", "2"],
            ["a/(b - 2)", "0", "1", "(a - b)/(2*b + 3)"])]
        self.check_square(rows)


# six indeterminates, exponents at and next to powers of two
NAMES = "abcdef"
EXPONENTS = (1, 3, 4, 5, 7, 8, 9, 15, 16, 17)
WIDE_POINTS = ({n: Fraction(k + 2, 3 - 2 * k) for k, n in enumerate(NAMES)},
               {n: Fraction(-1) ** k * (k + 1) for k, n in enumerate(NAMES)})


def random_monomial(rng):
    return parse_scalar("*".join(
        f"{n}^{rng.choice(EXPONENTS)}"
        for n in rng.sample(NAMES, rng.randint(1, 2))))


def random_wide_entry(rng):
    """0, or one or two terms in NAMES with small coefficients."""
    return sum((rng.choice((1, -2, 3)) * random_monomial(rng)
                for _ in range(rng.randrange(3))), ZERO)


def monomial_determinant_rows(rng, n):
    """P*L*U*Q for random permutations P and Q, L unit lower triangular and
    U upper triangular with single terms on its diagonal, each row then
    divided by a random monomial: so the determinant and every canonical
    denominator of the inverse are single terms, and the gcds that
    canonicalise the results stay cheap, while the pivots the elimination
    meets are general polynomials. (A gcd of two general polynomials in
    six names of these degrees runs for more than 30 s.)"""
    L = [[ONE if i == j else random_wide_entry(rng) if i > j else ZERO
          for j in range(n)] for i in range(n)]
    U = [[random_monomial(rng) if i == j else random_wide_entry(rng)
          if i < j else ZERO for j in range(n)] for i in range(n)]
    rows = [[sum((L[i][k] * U[k][j] for k in range(n)), ZERO)
             for j in range(n)] for i in range(n)]
    cols = rng.sample(range(n), n)
    return [[e / m for e in (row[c] for c in cols)]
            for row, m in ((rows[i], random_monomial(rng))
                           for i in rng.sample(range(n), n))]


class TestPackedExponents:
    """The elimination packs each monomial into one int with W-bit fields,
    W = (2*S).bit_length() + 1 for S the sum of the rows' largest total
    degrees, and works on those ints until it unpacks the results."""

    def recorded(self, monkeypatch):
        """Record every _Packing the elimination builds and every product
        it forms."""
        packings, products = [], []

        class Recorded(tensor._Packing):
            def __init__(self, M):
                super().__init__(M)
                packings.append(self)

        dot = tensor._dot

        def recorded_dot(pairs):
            out = dot(pairs)
            products.append(out)
            return out

        monkeypatch.setattr(tensor, "_Packing", Recorded)
        monkeypatch.setattr(tensor, "_dot", recorded_dot)
        return packings, products

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_products_reach_twice_the_degree_sum(self, k, monkeypatch):
        # the first row has total degree S = 2^k and the others are
        # constant; x^S at the first pivot times x^S in a minor puts x^(2S)
        # in a product at the second step, the most a field has to hold
        x, y = var("x"), var("y")
        S = 2 ** k
        rows = [[x ** S, x ** S + y, 2 * x ** S - y ** (S - 1), ONE],
                [const(1), const(2), const(0), const(3)],
                [const(3), const(-1), const(4), const(1)],
                [const(2), const(5), const(1), const(-2)]]
        packings, products = self.recorded(monkeypatch)
        TestEliminationOverPolys().check_square(
            rows, ({"x": Fraction(3, 2), "y": Fraction(-2)},))
        for packing in packings:
            fields = dict(packing.fields)
            W = packing.mask.bit_length()
            assert W == (2 * S).bit_length() + 1
            largest = 0
            for product in products:
                for key in product:
                    # no field reaches its guard bit: products never carry
                    assert key & packing.guard == 0
                    largest = max(largest, key >> fields["x"] & packing.mask)
                    # nothing above the degree field
                    assert key >> (len(fields) + 1) * W == 0
            assert largest == 2 * S

    def test_order_product_and_division_match_poly(self):
        # int order on packed monomials is the graded lex order of Poly,
        # with the first name in the highest field
        rng = random.Random(31)
        for _ in range(20):
            rows = [[random_wide_entry(rng).num for _ in range(4)]
                    for _ in range(3)]
            packing = tensor._Packing(rows)
            entries = [p for row in rows for p in row if p]
            for p in entries:
                packed = packing.pack(p)
                assert packing.unpack(packed) == p
                assert packing.unpack({max(packed): 1}).terms == \
                    {p.leading()[0]: 1}
                assert [packing.unpack({k: 1}) for k in sorted(packed)] == \
                    [scalars.Poly({m: 1}) for m in sorted(
                        p.terms, key=scalars._mono_key, reverse=True)]
            for p, q in zip(entries, entries[1:]):
                product = tensor._dot([(packing.pack(p), packing.pack(q))])
                assert packing.unpack(product) == p * q
                assert tensor._divexact(product, packing.pack(q),
                                        packing.guard) == packing.pack(p)
                if q.names - p.names:
                    # a monomial of q has a name that p lacks
                    with pytest.raises(ArithmeticError):
                        tensor._divexact(packing.pack(p), packing.pack(q),
                                         packing.guard)

    def test_six_names_near_powers_of_two(self):
        rng = random.Random(32)
        for _ in range(6):
            rows = monomial_determinant_rows(rng, 4)
            res = TestEliminationOverPolys().check_square(rows, WIDE_POINTS)
            assert res.invertible

    def test_nullspace_with_six_names(self):
        # rows [B | B*C] with B as above: the nullspace is spanned by the
        # columns of [-C; I], and every vector has a monomial denominator
        rng = random.Random(33)
        for k in range(4):
            r, extra = 2 + k % 2, 1 + k // 2
            B = monomial_determinant_rows(rng, r)
            C = [[random_wide_entry(rng) for _ in range(extra)]
                 for _ in range(r)]
            rows = [row + [sum((row[i] * C[i][j] for i in range(r)), ZERO)
                           for j in range(extra)] for row in B]
            basis = nullspace(rows)
            want = oracles.bareiss_nullspace(rows)
            assert len(basis) == extra
            assert basis == want
            assert [list(map(str, v)) for v in basis] == \
                [list(map(str, v)) for v in want]
            for point in WIDE_POINTS:
                A = at(rows, point)
                for vec in basis:
                    x = [e.evaluate(point) for e in vec]
                    assert all(sum(r * y for r, y in zip(row, x)) == 0
                               for row in A)


class TestEliminationCounts:
    """The elimination pays no gcd on polynomial entries, and invert builds
    each result once, as a ParamScalar over the last pivot."""

    @staticmethod
    def colored():
        from ybx import fixture_path
        from ybx.algebra import load_algebra
        from ybx.constructors import colored_operator
        A = load_algebra(fixture_path("cubic.json"))
        return colored_operator(A, var("p"), var("q"), var("u"), var("v"))

    @staticmethod
    def count(monkeypatch, name):
        calls = []
        original = getattr(scalars, name)

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(scalars, name, counted)
        return calls

    def test_polynomial_determinant_runs_no_gcd(self, monkeypatch):
        # and no Poly division either: the elimination divides packed terms
        R = self.colored()
        assert R.size == 9
        want = determinant(R)
        calls = self.count(monkeypatch, "poly_gcd")
        divisions = []
        divexact = scalars.Poly.divexact
        monkeypatch.setattr(scalars.Poly, "divexact", lambda self, g: (
            divisions.append(1), divexact(self, g))[1])
        assert determinant(R) == want
        assert calls == [] and divisions == []

    def test_invert_canonicalises_each_entry_once(self, monkeypatch):
        R = self.colored()
        calls = self.count(monkeypatch, "_canonical")
        res = invert(R)
        entries = sum(1 for row in res.operator.rows for e in row if e)
        # one per nonzero entry of the inverse and one for the determinant
        assert len(calls) == entries + 1
        assert (R @ res.operator).is_identity()


class TestDefects:
    def test_yb_commutator_of_identity(self):
        I = Operator2.identity(2)
        assert yb_commutator(I, I, I).is_zero()

    def test_twist_solves_both_equations(self):
        assert braid_defect(twist(2)).is_zero()
        assert qybe_defect(twist(2)).is_zero()

    def test_identity_solves_both(self):
        I = Operator2.identity(2)
        assert braid_defect(I).is_zero()
        assert qybe_defect(I).is_zero()

    def test_random_non_solution_matches_oracle(self):
        rng = random.Random(7)
        R = random_op2(2, rng)
        got = oracles.frac_matrix(braid_defect(R).dense())
        want = oracles.braid_defect_matrix(oracles.frac_matrix(R), 2)
        assert got == want
        assert not oracles.is_zero_matrix(want)

        got_q = oracles.frac_matrix(qybe_defect(R).dense())
        want_q = oracles.qybe_defect_matrix(oracles.frac_matrix(R), 2)
        assert got_q == want_q

    def test_commutator_restates_qybe(self):
        rng = random.Random(8)
        R = random_op2(2, rng)
        assert yb_commutator(R, R, R).dense() == qybe_defect(R).dense()

    def test_swapping_sides_negates(self):
        rng = random.Random(9)
        R, S, T = (random_op2(2, rng) for _ in range(3))
        lhs = yb_commutator(R, S, T).dense()
        swapped = (embed(T, 23) @ embed(S, 13) @ embed(R, 12)
                   - embed(R, 12) @ embed(S, 13) @ embed(T, 23))
        assert swapped == -lhs

    def test_colored_defect_of_identities(self):
        I = Operator2.identity(2)
        assert colored_defect(I, I, I).is_zero()


def random_sparse_op2(dim, rng, symbolic=False):
    """About two thirds of the entries zero; symbolic entries are
    polynomials in a and b, so the operator evaluates at every point."""
    a, b = var("a"), var("b")

    def entry():
        if rng.random() < 0.65:
            return ZERO
        c = const(rng.randint(-3, 3))
        if symbolic:
            c = c + rng.randint(-2, 2) * rng.choice((a, b, a * b))
        return c

    size = dim * dim
    return Operator2(dim, [[entry() for _ in range(size)]
                           for _ in range(size)])


class TestDefectKernel:
    """The leg-action defects against the dense product of embeddings and
    against the Kronecker oracles, on non-solutions at dims 2-4."""

    POINT = {"a": 2, "b": -3}

    def operators(self, dim, symbolic):
        rng = random.Random(100 * dim + symbolic)
        return [random_sparse_op2(dim, rng, symbolic) for _ in range(3)]

    def check(self, got, dense, oracle_fn, ops):
        """got, a Defect, and dense, the same defect as a product of
        embeddings, against oracle_fn: the naive products of the oracles on
        ParamScalar entries up to dim 3, exactly, and on the integer
        matrices at POINT at every dim (at dim 4 the naive products over
        ParamScalars take seconds)."""
        full = got.dense()
        assert full == dense
        assert not got.is_zero()
        assert got.first_nonzero() == full.first_nonzero()
        assert got.first_nonzero() == dense.first_nonzero()
        dim = ops[0].dim
        if dim <= 3:
            assert oracles.symbolic_matrix(full) == oracle_fn(
                *map(oracles.symbolic_matrix, ops), dim, ONE, ZERO)
        assert oracles.frac_matrix(full, self.POINT) == oracle_fn(
            *map(self.at_point, ops), dim, 1, 0)

    def at_point(self, op):
        """Integer matrix of op at POINT, so the oracles run on ints."""
        return [[int(e) for e in row]
                for row in oracles.frac_matrix(op, self.POINT)]

    @pytest.mark.parametrize("symbolic", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_braid(self, dim, symbolic):
        R, _, _ = self.operators(dim, symbolic)
        r12, r23 = embed(R, 12), embed(R, 23)
        self.check(braid_defect(R), r12 @ r23 @ r12 - r23 @ r12 @ r23,
                   oracles.braid_defect_matrix, (R,))

    @pytest.mark.parametrize("symbolic", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_qybe(self, dim, symbolic):
        R, _, _ = self.operators(dim, symbolic)
        r12, r13, r23 = embed(R, 12), embed(R, 13), embed(R, 23)
        self.check(qybe_defect(R), r12 @ r13 @ r23 - r23 @ r13 @ r12,
                   oracles.qybe_defect_matrix, (R,))

    @pytest.mark.parametrize("symbolic", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_commutator(self, dim, symbolic):
        R, S, T = self.operators(dim, symbolic)
        r12, s13, t23 = embed(R, 12), embed(S, 13), embed(T, 23)
        self.check(yb_commutator(R, S, T), r12 @ s13 @ t23 - t23 @ s13 @ r12,
                   oracles.commutator_matrix, (R, S, T))

    def test_solutions_at_dim_4(self):
        for R in (twist(4), Operator2.identity(4)):
            assert braid_defect(R).is_zero()
            assert qybe_defect(R).is_zero()
            assert yb_commutator(R, R, R).first_nonzero() is None


def random_fraction_op2(dim, rng, dens):
    """About half the entries zero, the others small integers over a
    denominator drawn from dens."""
    size = dim * dim
    return Operator2(dim, [
        [const(Fraction(rng.randint(-3, 3), rng.choice(dens)))
         if rng.random() < 0.5 else ZERO for _ in range(size)]
        for _ in range(size)])


def oracle_first_nonzero(M):
    """(row, col, entry) of the first nonzero entry of an oracle matrix."""
    return next(((i, j, as_scalar(e)) for i, row in enumerate(M)
                 for j, e in enumerate(row) if e), None)


class TestClearedDenominators:
    """Every product runs on d*X for each operator X, d the lcm of X's
    denominators: on ints when every entry of every operator is a rational
    constant, on Polys otherwise. Each entry is then divided by the product
    of the d of one side: d_A * d_B for A @ B, d^3 for braid and QYBE, and
    d_R * d_S * d_T for the commutator. Each result is compared exactly
    with the naive products of the oracles on ParamScalar entries, and, for
    constant operators, with the Fraction oracles."""

    def check(self, defect_fn, ops, oracle_fn):
        """The defect against oracle_fn; returns its first nonzero entry."""
        got = defect_fn(*ops)
        dim = ops[0].dim
        want = oracle_fn(*map(oracles.symbolic_matrix, ops), dim, ONE, ZERO)
        first = oracle_first_nonzero(want)
        assert first is not None
        assert got.first_nonzero() == first
        assert str(got.first_nonzero()[2]) == str(first[2])
        assert oracles.symbolic_matrix(got.dense()) == want
        if not any(e.names for X in ops for row in X.rows for e in row):
            assert oracles.frac_matrix(got.dense()) == oracle_fn(
                *map(oracles.frac_matrix, ops), dim)
        return first

    @staticmethod
    def denominators(*ops):
        """The lcm of the denominators of each constant operator."""
        return [math.lcm(*(e.evaluate({}).denominator
                           for row in X.rows for e in row)) for X in ops]

    @staticmethod
    def symbolic():
        """Entries 1/a, a/2 and 1/(a + 1), so d = 2*a^2 + 2*a."""
        return Operator2(2, [["1/a", "a/2", 0, 1], [0, "-1/a", 1, "a/2"],
                             ["a/2", 1, "1/(a+1)", 0], [0, 0, "a/2", "1/a"]])

    def test_braid_and_qybe_with_halves_and_thirds(self):
        R = Operator2(2, [["1/2", "1/3", 0, 1], [0, "-2/3", 1, 0],
                          ["5/6", 1, "1/2", 0], [0, 0, "1/3", "-1/2"]])
        assert self.denominators(R) == [6]
        got = self.check(braid_defect, (R,), oracles.braid_defect_matrix)
        # divided by d = 6 in place of d^3 = 216 this would read 25
        assert str(got[2]) == "25/36"
        self.check(qybe_defect, (R,), oracles.qybe_defect_matrix)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_mixed_denominators(self, dim):
        rng = random.Random(40 + dim)
        R = random_fraction_op2(dim, rng, (1, 2, 3))
        self.check(braid_defect, (R,), oracles.braid_defect_matrix)
        self.check(qybe_defect, (R,), oracles.qybe_defect_matrix)

    def test_commutator_with_three_denominators(self):
        rng = random.Random(43)
        ops = [random_fraction_op2(2, rng, dens)
               for dens in ((1, 2), (1, 3), (5,))]
        assert self.denominators(*ops) == [2, 3, 5]
        self.check(yb_commutator, ops, oracles.commutator_matrix)
        self.check(yb_commutator, ops[::-1], oracles.commutator_matrix)

    def test_colored_inverse_at_a_point(self):
        from ybx.algebra import quadratic_quotient_algebra
        from ybx.constructors import colored_inverse, colored_operator
        A = quadratic_quotient_algebra(const(1), const(1))
        table = [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]
        unit = [1, 0]
        p, q, u, v, w = (Fraction(x) for x in (2, 3, 5, 1, -2))
        ops = (colored_inverse(A, p, q, u, v), colored_operator(A, p, q, u, w),
               colored_inverse(A, p, q, v, w))
        want = (oracles.colored_inverse_matrix(table, unit, p, q, u, v),
                oracles.colored_matrix(table, unit, p, q, u, w),
                oracles.colored_inverse_matrix(table, unit, p, q, v, w))
        assert [oracles.frac_matrix(X) for X in ops] == list(want)
        assert self.denominators(*ops) == [91, 1, 56]
        self.check(colored_defect, ops, oracles.commutator_matrix)
        # the inverse family solves the colored equation as well
        defect = colored_defect(ops[0], colored_inverse(A, p, q, u, w), ops[2])
        assert defect.is_zero()
        assert defect.dense().is_zero()

    def test_braid_and_qybe_with_symbolic_denominators(self):
        R = self.symbolic()
        self.check(braid_defect, (R,), oracles.braid_defect_matrix)
        self.check(qybe_defect, (R,), oracles.qybe_defect_matrix)

    def test_symbolic_inverses(self):
        # dn_inverse and colored_inverse with free parameters: each entry
        # of the defect is over the product of three polynomial d's
        from ybx.algebra import quadratic_quotient_algebra
        from ybx.constructors import (colored_inverse, colored_operator,
                                      dn_inverse)
        A = quadratic_quotient_algebra(var("m"), const(1))
        a, b, p, q, u, v, w = map(var, "abpquvw")
        Rinv = dn_inverse(A, a, b, a)
        self.check(qybe_defect, (Rinv,), oracles.qybe_defect_matrix)
        ops = (colored_inverse(A, p, q, u, v), colored_operator(A, p, q, u, w),
               colored_inverse(A, p, q, v, w))
        self.check(yb_commutator, ops[::-1], oracles.commutator_matrix)

    def test_constant_and_symbolic_operators_together(self):
        rng = random.Random(44)
        X = random_fraction_op2(2, rng, (2, 3))
        W = self.symbolic()
        # both go in as Polys, X over its constant d
        assert self.denominators(X) == [6]
        self.check(yb_commutator, (W, X, X), oracles.commutator_matrix)
        self.check(yb_commutator, (X, W, X), oracles.commutator_matrix)
        for A, B in ((X, W), (W, X)):
            assert oracles.symbolic_matrix(A @ B) == oracles.matmul(
                oracles.symbolic_matrix(A), oracles.symbolic_matrix(B))

    def test_product_over_d_squared(self):
        R = self.symbolic()
        got = oracles.symbolic_matrix(R @ R)
        assert got == oracles.matmul(oracles.symbolic_matrix(R),
                                     oracles.symbolic_matrix(R))
        # the kernel's entry is 4*(a + 1)^2, over d^2 = 4*a^2*(a + 1)^2
        assert str(got[0][0]) == "1/a^2"
        rng = random.Random(45)
        C = random_fraction_op2(3, rng, (2, 3))
        assert oracles.frac_matrix(C @ C) == oracles.matmul(
            oracles.frac_matrix(C), oracles.frac_matrix(C))


class TestEquivalence:
    """Braid solutions and constant-QYBE solutions exchange through the
    twist, on solutions and non-solutions alike."""

    def check(self, R):
        t = twist(R.dim)
        b = braid_defect(R).is_zero()
        q1 = qybe_defect(R @ t).is_zero()
        q2 = qybe_defect(t @ R).is_zero()
        assert b == q1 == q2

    def test_on_twist(self):
        self.check(twist(2))

    def test_on_random(self):
        rng = random.Random(10)
        for _ in range(5):
            self.check(random_op2(2, rng, -2, 2))

    def test_on_a_braid_solution(self):
        from ybx.algebra import quadratic_quotient_algebra
        from ybx.constructors import dn_operator
        A = quadratic_quotient_algebra(var("m"), var("n"))
        R = dn_operator(A, var("a"), var("b"), var("a"))
        assert braid_defect(R).is_zero()
        self.check(R)


class TestSerialization:
    def test_json_round_trip(self):
        a = var("a")
        R = Operator2(2, [[a, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0],
                          [0, 0, 0, a ** 2]])
        obj = R.to_json_obj()
        assert obj["dim"] == 2 and obj["legs"] == 2
        assert operator_from_json_obj(obj) == R

    def test_operator3_round_trip(self):
        T = embed(twist(2), 13)
        assert operator_from_json_obj(T.to_json_obj()) == T

    def test_text_is_aligned(self):
        R = Operator2(2, [[1, 0, 0, 0], [0, 22, 0, 0], [0, 0, 1, 0],
                          [0, 0, 0, -1]])
        lines = R.to_text().splitlines()
        assert len(lines) == 4
        assert len({len(line) for line in lines}) == 1


@st.composite
def small_operators(draw):
    entries = draw(st.lists(st.integers(-2, 2), min_size=16, max_size=16))
    return Operator2(2, [[const(entries[4 * i + j]) for j in range(4)]
                         for i in range(4)])


@given(small_operators())
@settings(max_examples=25, deadline=None)
def test_equivalence_property(R):
    t = twist(2)
    b = braid_defect(R).is_zero()
    assert b == qybe_defect(R @ t).is_zero()
    assert b == qybe_defect(t @ R).is_zero()


@given(small_operators(), small_operators())
@settings(max_examples=25, deadline=None)
def test_inverse_round_trip_property(A, B):
    R = A @ B
    res = invert(R)
    if res.invertible:
        assert (R @ res.operator).is_identity()
        assert (res.operator @ R).is_identity()
    else:
        assert res.determinant.is_zero
