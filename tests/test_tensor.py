"""Operator engine: twist, leg embeddings, composition, exact inversion,
and the defect computations, all against brute-force Kronecker oracles."""

import bisect
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ybx import elimination, kernel, scalars, tensor, verify
from ybx.scalars import ONE, ZERO, as_scalar, const, parse_scalar, var
from ybx.tensor import (DimensionMismatch, Operator2, Operator3,
                        braid_defect, colored_defect, determinant,
                        embed, invert, nullspace, operator_from_json_obj,
                        qybe_defect, roundtrip_defect, twist, yb_commutator)


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

    @pytest.mark.parametrize("dim", [2.0, True, "2", None])
    def test_dim_that_is_not_an_int_is_refused(self, dim):
        # unchecked, a float dim builds an operator whose determinant
        # raises a TypeError
        with pytest.raises(scalars.InputError, match="dim must be an int"):
            determinant(Operator2(dim, [[0] * 4] * 4))
        with pytest.raises(scalars.InputError, match="dim must be an int"):
            Operator3.from_columns(dim, ())

    @pytest.mark.parametrize("call", [
        lambda: Operator2(1, [[1.5]]),
        lambda: nullspace([[None]]),
        lambda: Operator2(1, [[[1]]]),
        lambda: as_scalar(object()),
    ], ids=["float", "None", "list", "object"])
    def test_entry_that_is_no_scalar_is_refused(self, call):
        with pytest.raises(scalars.YbxError, match="as a scalar"):
            call()


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

    def test_operator3_inverse_round_trips(self):
        # invert builds its result with the operand's class
        assert invert(Operator3.identity(2)).operator == Operator3.identity(2)
        rng = random.Random(7)
        a = var("a")
        for symbolic in (False, True):
            while True:
                rows = [[const(rng.randint(-2, 2)) if rng.random() < 0.4
                         else ZERO for _ in range(8)] for _ in range(8)]
                if symbolic:
                    rows[rng.randrange(8)][rng.randrange(8)] += a
                op = Operator3(2, rows)
                res = invert(op)
                if res.invertible:
                    break
            inverse = res.operator
            assert type(inverse) is Operator3
            assert roundtrip_defect(op, inverse).is_zero()
            assert roundtrip_defect(inverse, op).is_zero()
            assert oracles.symbolic_matrix(inverse) == \
                oracles.bareiss_inverse(rows)
            point = {"a": Fraction(5, 3)}
            _, want, _ = oracles.frac_solve(oracles.frac_matrix(op, point))
            assert oracles.frac_matrix(inverse, point) == want

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

    def test_no_rows_no_basis(self):
        assert nullspace([]) == []

    def test_ragged_rows_are_refused(self):
        with pytest.raises(ValueError, match="row 1 has 1 entries"):
            nullspace([[var("a"), 1], [1]])
        with pytest.raises(ValueError, match="row 2 has 3 entries"):
            nullspace([[ONE, ZERO], [ZERO, ONE], [ONE, ONE, ONE]])

    def test_entries_are_converted_as_by_the_constructor(self):
        rows = [[var("a"), 1, "b/2"], [1, Fraction(2, 3), 0]]
        basis = nullspace(rows)
        assert basis == oracles.bareiss_nullspace(rows)
        assert len(basis) == 1

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
        R = Operator2(math.isqrt(len(rows)), rows)
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


# fewer and smaller quotients, for 9x9 matrices, which the oracles
# eliminate densely
SMALL_ENTRIES = ["0", "0", "0", "1", "-2", "1/2", "a", "b - 1", "1/(a + 1)"]


def block_triangular_rows(rng, sizes, entries=ENTRIES, above=None):
    """Dense diagonal blocks of the given sizes with nonzero entries, then
    entries from above (by default, entries) right of them and zeros left
    of them."""
    above = entries if above is None else above
    block = [k for k, s in enumerate(sizes) for _ in range(s)]
    nonzero = [e for e in entries if e != "0"]
    return [[parse_scalar(rng.choice(nonzero)) if k == m
             else parse_scalar(rng.choice(above)) if k < m else ZERO
             for m in block] for k in block]


def shuffled(rng, rows):
    """rows with their rows and their columns in random orders."""
    p = rng.sample(range(len(rows)), len(rows))
    q = rng.sample(range(len(rows)), len(rows))
    return [[rows[i][j] for j in q] for i in p]


class TestBlockTriangular:
    """determinant and invert permute the cleared matrix to block upper
    triangular form and run Bareiss on each diagonal block. The results
    are compared exactly with the dense oracles, on matrices whose blocks
    are known, with rows and columns shuffled so that the signs of both
    permutations count."""

    def check(self, rows, sizes):
        _, _, ends = elimination._block_order(
            [[c for c, e in enumerate(row) if e] for row in rows])
        assert sorted(b - a for a, b in zip([0, *ends], ends)) == \
            sorted(sizes)
        res = TestEliminationOverPolys().check_square(rows)
        if len(rows) == 4:
            expect = oracles.det_permutation_expansion(rows)
            assert determinant(Operator2(2, rows)) == expect
            assert res.determinant == expect
        return res

    @pytest.mark.parametrize("sizes", [(1, 3), (3, 1), (2, 2), (1, 1, 2),
                                       (2, 1, 1), (1, 2, 1), (1, 1, 1, 1)])
    def test_shuffled_sparse_4x4(self, sizes):
        rng = random.Random(str(sizes))
        for _ in range(4):
            self.check(shuffled(rng, block_triangular_rows(rng, sizes)),
                       sizes)

    @pytest.mark.parametrize("sizes", [(2, 1, 3, 1, 2), (1, 2, 2, 2, 1, 1),
                                       (3, 1, 1, 1, 1, 2)])
    def test_shuffled_sparse_9x9(self, sizes):
        rng = random.Random(str(sizes))
        rows = block_triangular_rows(rng, sizes, SMALL_ENTRIES)
        assert self.check(shuffled(rng, rows), sizes).invertible

    @pytest.mark.parametrize("n", [4, 9])
    def test_permuted_diagonal_and_triangular(self, n):
        rng = random.Random(n)
        entries = ENTRIES if n == 4 else SMALL_ENTRIES
        for above in (("0",), entries):
            for _ in range(3 if n == 4 else 1):
                rows = shuffled(rng, block_triangular_rows(
                    rng, (1,) * n, entries, above))
                assert self.check(rows, (1,) * n).invertible

    def test_one_dense_block(self):
        rng = random.Random(41)
        for _ in range(4):
            self.check(block_triangular_rows(rng, (4,)), (4,))

    def test_symbolically_singular_block(self):
        # structurally nonsingular: the blocks have perfect matchings,
        # but the 2x2 block [[a, a], [1, 1]] has determinant 0
        a, b = var("a"), var("b")
        rng = random.Random(42)
        for n, other in ((4, (1, 1)), (9, (3, 2, 1, 1))):
            rows = block_triangular_rows(rng, (*other, 2), SMALL_ENTRIES)
            rows[n - 2][n - 2:] = [a, a]
            rows[n - 1][n - 2:] = [ONE, ONE]
            if n == 9:
                rows[0][:2] = [a * b, b / (a + 1)]
            for _ in range(3 if n == 4 else 1):
                rows = shuffled(rng, rows)
                res = self.check(rows, (*other, 2))
                assert not res.invertible and res.determinant == ZERO

    @pytest.mark.parametrize("cycle", [False, True])
    def test_order_of_5000_rows(self, cycle):
        # a chain (row i meets columns i and i + 1) or a single cycle (and
        # the last row meets column 0); columns are listed last first, so
        # the matching's last augmenting path runs through every row, and
        # Tarjan's search follows the chain or the cycle to its end: both
        # are far deeper than the recursion limit
        n = 5000
        pattern = [[i + 1, i] for i in range(n - 1)]
        pattern.append([n - 1, 0] if cycle else [n - 1])
        rows, cols, ends = elimination._block_order(pattern)
        assert ends == ([n] if cycle else list(range(1, n + 1)))
        assert sorted(rows) == sorted(cols) == list(range(n))
        if not cycle:
            assert rows == cols == list(range(n))

    def test_order_is_block_upper_triangular(self):
        rng = random.Random(43)
        for _ in range(30):
            n = rng.randint(1, 12)
            pattern = [sorted(rng.sample(range(n), rng.randint(1, min(n, 3))))
                       for _ in range(n)]
            order = elimination._block_order(pattern)
            if order is None:
                continue
            rows, cols, ends = order
            block = {}
            for k, (a, b) in enumerate(zip([0, *ends], ends)):
                block.update((c, k) for c in cols[a:b])
                # each block's rows cover all of its columns
                assert set(cols[a:b]) <= {c for r in rows[a:b]
                                          for c in pattern[r]}
            for t, r in enumerate(rows):
                k = bisect.bisect_right(ends, t)
                assert all(block[c] >= k for c in pattern[r])

    def test_no_perfect_matching(self):
        # two rows meet only column 0; a zero row has no column at all
        for pattern in ([[0], [0], [0, 1, 2]], [[0, 1], [], [1, 2]],
                        [[0, 1], [0, 1], [0, 1, 2, 3], [0, 1]]):
            assert elimination._block_order(pattern) is None
        rows = [[ONE, var("a"), ZERO, ZERO], [const(2), ZERO, ZERO, ZERO],
                [ONE, ONE, ZERO, ZERO], [ZERO, ONE, ONE, ONE]]
        R = Operator2(2, rows)
        assert determinant(R) == ZERO
        assert invert(R) == tensor.InverseResult(False, None, ZERO)
        assert oracles.det_permutation_expansion(rows) == ZERO


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
        """Record each _Packing built and each product of _dot or of rows."""
        packings, products = [], []

        class Recorded(kernel._Packing):
            def __init__(self, M):
                super().__init__(M)
                packings.append(self)

        dot = kernel._dot

        def recorded_dot(pairs):
            out = dot(pairs)
            products.append(out)
            return out

        for module in (kernel, elimination):
            monkeypatch.setattr(module, "_Packing", Recorded)
            monkeypatch.setattr(module, "_dot", recorded_dot)
        monkeypatch.setattr(kernel, "_PACKED_KERNEL", _recording(products))
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
            packing = kernel._Packing(rows)
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
                product = kernel._dot([(packing.pack(p), packing.pack(q))])
                assert packing.unpack(product) == p * q
                assert elimination._divexact(product, packing.pack(q),
                                        packing.guard) == packing.pack(p)
                if q.names - p.names:
                    # a monomial of q has a name that p lacks
                    with pytest.raises(ArithmeticError):
                        elimination._divexact(packing.pack(p), packing.pack(q),
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


class TestPackedProducts:
    """Every product with a polynomial entry packs its operators with one
    _Packing, whose rows are the factors of one side, each holding its
    operator's cleared entries and d. So S is the sum of the factors'
    largest total degrees, W = (2*S).bit_length() + 1 as in the
    elimination, and the kernel's products reach degree S. Each result is
    compared exactly with the naive oracles on ParamScalar entries."""

    @staticmethod
    def operator(k, x, y):
        """Denominators y, so d = y; the cleared entries have total degree
        at most 2^k, reached by x^(2^k) at (0, 0)."""
        D = 2 ** k
        return Operator2(2, [[f"{x}^{D}/{y}", f"1/{y}", 0, y],
                             [0, f"{x}*{y} - 1", f"2/{y}", 0],
                             [f"{y}^2 - {x}", 0, 1, f"{x}/{y}"],
                             [1, 0, 0, f"-{x}^{D - 1}/{y}"]])

    def check(self, monkeypatch, factors, k, product, want):
        """product() against the oracle matrix want, with one packing of
        width W for S = factors * 2^k, and a kernel product of degree S."""
        with monkeypatch.context() as patch:
            packings, products = TestPackedExponents().recorded(patch)
            got = product()
        S = factors * 2 ** k
        assert len(packings) == 1
        packing = packings[0]
        W = packing.mask.bit_length()
        assert W == (2 * S).bit_length() + 1
        top = len(packing.fields) * W
        assert max(key >> top for p in products for key in p) == S
        assert all(key & packing.guard == 0 for p in products for key in p)
        if isinstance(got, tensor.Defect):
            assert oracle_first_nonzero(want) == got.first_nonzero()
            got = got.dense()
        assert oracles.symbolic_matrix(got) == want

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_products_reach_the_degree_sum(self, k, monkeypatch):
        # A and B name different indeterminates, so operators packed with
        # packings of their own would put y and z in one field
        A, B = self.operator(k, "x", "y"), self.operator(k, "z", "y")
        a, b = oracles.symbolic_matrix(A), oracles.symbolic_matrix(B)
        ab = oracles.matmul(a, b)
        self.check(monkeypatch, 2, k, lambda: A @ B, ab)
        self.check(monkeypatch, 2, k, lambda: roundtrip_defect(A, B),
                   oracles.sub(ab, oracles.identity(4, ONE, ZERO)))
        self.check(monkeypatch, 3, k, lambda: braid_defect(A),
                   oracles.braid_defect_matrix(a, 2, ONE, ZERO))
        self.check(monkeypatch, 3, k, lambda: qybe_defect(B),
                   oracles.qybe_defect_matrix(b, 2, ONE, ZERO))
        self.check(monkeypatch, 3, k, lambda: yb_commutator(A, B, A),
                   oracles.commutator_matrix(a, b, a, 2, ONE, ZERO))


class TestEliminationCounts:
    """The elimination pays no gcd on polynomial entries, and invert builds
    each result once, as a ParamScalar over the product of the blocks' last
    pivots."""

    @staticmethod
    def colored():
        from ybx import fixture_path
        from ybx.algebra import load_algebra
        from ybx.constructors import colored_operator
        A = load_algebra(fixture_path("cubic.json"))
        return colored_operator(A, var("p"), var("q"), var("u"), var("v"))

    @staticmethod
    def count(monkeypatch, name, module=scalars):
        calls = []
        original = getattr(module, name)

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(module, name, counted)
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

    def test_blocks_keep_the_kernel_small(self, monkeypatch):
        # the 9x9 cleared matrix splits into blocks of size 1 and 2; over
        # the whole matrix, Bareiss made 600 products and 493 divisions in
        # invert, and 204 and 140 in determinant
        R = self.colored()
        dots = self.count(monkeypatch, "_dot", elimination)
        divisions = self.count(monkeypatch, "_divexact", elimination)
        assert invert(R).invertible
        assert 0 < len(dots) < 150
        dots.clear()
        divisions.clear()
        assert not determinant(R).is_zero
        assert divisions == []

    def test_structurally_singular_is_not_eliminated(self, monkeypatch):
        # a zero row leaves no perfect matching for the zero pattern
        rows = [list(row) for row in self.colored().rows]
        rows[4] = [ZERO] * 9
        R = Operator2(3, rows)
        calls = self.count(monkeypatch, "_eliminate", elimination)
        assert determinant(R) is ZERO
        assert invert(R) == tensor.InverseResult(False, None, ZERO)
        assert calls == []

    def test_invert_reduces_entries_without_a_gcd(self, monkeypatch):
        # every factor of the blocks' last pivots is certified irreducible,
        # so each entry is reduced by trial divisions alone, and only the
        # determinant is canonicalised
        R = self.colored()
        bases = []
        original = elimination.factor_base
        monkeypatch.setattr(elimination, "factor_base", lambda pivots: (
            bases.append(original(pivots)) or bases[-1]))
        gcds = self.count(monkeypatch, "poly_gcd", elimination)
        canonical = self.count(monkeypatch, "_canonical")
        res = invert(R)
        [(_, atoms, residual)] = bases
        assert atoms and residual == scalars.Poly.const(1)
        assert gcds == [] and len(canonical) == 1
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


class TestIntKernelCancellation:
    """The int lane carries an entry that cancels to 0 to the end of a
    product and may return it there; only a difference of two rows drops
    its zeros, and a product skips them when it builds its entries. So
    products whose first two factors cancel in some columns agree with the
    Fraction oracles, and no defect row, first nonzero entry, dense defect,
    row of A @ B or structure witness exposes a cancelled 0."""

    @staticmethod
    def operators(seed, count):
        rng = random.Random(seed)
        return [Operator2(2, [[const(rng.choice((-1, 0, 1)))
                               for _ in range(4)] for _ in range(4)])
                for _ in range(count)]

    @staticmethod
    def cancels(M, N):
        """Whether some entry of M N is zero although a term of it is not."""
        return any(sum(a * b for a, b in zip(row, col)) == 0
                   and any(a * b for a, b in zip(row, col))
                   for row in M for col in zip(*N))

    @staticmethod
    def sparse(M):
        return [{c: e for c, e in enumerate(row) if e} for row in M]

    @staticmethod
    def nonzero(row):
        return {c: e for c, e in row.items() if e}

    @pytest.fixture
    def spy(self, monkeypatch):
        """Records every raw row the int lane's _apply returns, and the
        numerator of every value the int lane turns into a scalar."""
        seen = {"rows": [], "scalars": []}

        def apply(actions, x):
            row = kernel._apply(actions, x)
            seen["rows"].append(dict(row))
            return row

        def rational(n, d):
            seen["scalars"].append(n)
            return scalars.rational(n, d)

        monkeypatch.setattr(kernel, "_INT_KERNEL", (apply, kernel._minus))
        monkeypatch.setattr(kernel, "rational", rational)
        return seen

    @staticmethod
    def carried_a_zero(seen):
        return any(0 in row.values() for row in seen["rows"])

    def test_apply_may_return_a_cancelled_entry(self):
        actions = [[[(0, 1), (1, 1)]],
                   [[(0, 1)], [(0, -1), (1, 2)]],
                   [[(0, 5), (1, 1)], [(1, 3)]]]
        assert kernel._apply(actions[:1], 0) == {0: 1, 1: 1}
        # column 0 cancels in the second step, 1*1 + 1*(-1), and stays
        assert kernel._apply(actions[:2], 0) == {0: 0, 1: 2}
        assert kernel._apply(actions, 0) == {0: 0, 1: 6}

    def test_product(self, spy):
        A, B = self.operators(11, 2)
        fa, fb = oracles.frac_matrix(A), oracles.frac_matrix(B)
        assert self.cancels(fa, fb)
        expected = oracles.matmul(fa, fb)
        assert oracles.frac_matrix(A @ B) == expected
        assert self.carried_a_zero(spy)
        assert all(spy["scalars"])
        rows, (apply, _), d, _ = tensor._clear((A, B), (0, 1))
        assert d == 1
        assert [self.nonzero(apply(rows, y)) for y in range(4)] == \
            self.sparse(expected)

    def kernel_rows(self, ops, legs, side):
        rows, (apply, _), d, _ = tensor._clear(ops, side)
        assert d == 1
        actions = [tensor._leg_action(r, 2, leg) for r, leg in zip(rows, legs)]
        return [self.nonzero(apply([actions[i] for i in side], y))
                for y in range(8)]

    def check_defect(self, defect, want, spy):
        """The defect, its rows and its first entry against the oracle
        matrix; the kernel must have carried a cancelled 0 on the way."""
        assert self.carried_a_zero(spy)
        assert defect.first_nonzero() == oracle_first_nonzero(want)
        assert all(e for _, row in defect._rows() for e in row.values())
        assert [y for y, _ in defect._rows()] == [
            y for y, row in enumerate(want) if any(row)]
        spy["scalars"].clear()
        assert oracles.frac_matrix(defect.dense()) == want
        assert all(spy["scalars"])

    def test_braid_defect(self, spy):
        R, = self.operators(12, 1)
        f = oracles.frac_matrix(R)
        r12, r23 = oracles.embed12(f, 2), oracles.embed23(f, 2)
        assert self.cancels(r12, r23)
        self.check_defect(braid_defect(R), oracles.braid_defect_matrix(f, 2),
                          spy)
        assert self.kernel_rows((R, R), (12, 23), (0, 1, 0)) == self.sparse(
            oracles.matmul(oracles.matmul(r12, r23), r12))

    def test_yb_commutator(self, spy):
        ops = self.operators(13, 3)
        R, S, T = map(oracles.frac_matrix, ops)
        r12, s13 = oracles.embed12(R, 2), oracles.embed13(S, 2)
        assert self.cancels(r12, s13)
        self.check_defect(yb_commutator(*ops),
                          oracles.commutator_matrix(R, S, T, 2), spy)
        assert self.kernel_rows(ops, (12, 13, 23), (0, 1, 2)) == self.sparse(
            oracles.matmul(oracles.matmul(r12, s13), oracles.embed23(T, 2)))

    @staticmethod
    def actions(*matrices):
        """A chain of row actions: the nonzero (column, entry) pairs of each
        row of each int matrix."""
        return [[[(c, e) for c, e in enumerate(row) if e] for row in M]
                for M in matrices]

    # A B has row 0 = (0, 2, 0, 1), where column 0 cancels (1 - 1), and
    # row 2 = (0, 3, 0, 0), where column 0 cancels too
    A = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
    B = [[1, 0, 0, 1], [-1, 2, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0]]

    def scan(self, C):
        """The scan of A B - C, over d = 1, on the int lane."""
        lhs, rhs = self.actions(self.A, self.B), self.actions(C)
        return tensor.Defect(Operator2, 2, lambda: kernel._defect_rows(
            4, lhs, rhs, kernel._INT_KERNEL), lambda e: const(e))

    def test_scan_ignores_a_cancelled_zero(self):
        AB = oracles.matmul(self.A, self.B)
        assert kernel._apply(self.actions(self.A, self.B), 0) == \
            {0: 0, 1: 2, 3: 1}
        defect = self.scan(AB)
        assert defect.is_zero()
        assert defect.first_nonzero() is None
        assert defect.dense().is_zero()

    @pytest.mark.parametrize("row, col, delta", [(2, 1, 4), (2, 3, -1),
                                                 (3, 0, 5)])
    def test_scan_finds_the_oracles_entry(self, row, col, delta):
        AB = oracles.matmul(self.A, self.B)
        C = [list(r) for r in AB]
        C[row][col] -= delta
        want = oracles.sub([list(map(Fraction, r)) for r in AB],
                           [list(map(Fraction, r)) for r in C])
        defect = self.scan(C)
        assert not defect.is_zero()
        assert defect.first_nonzero() == oracle_first_nonzero(want)
        assert defect.first_nonzero() == (row, col, const(delta))
        assert oracles.frac_matrix(defect.dense()) == want

    @staticmethod
    def first_failing(table):
        """make_algebra's first failing associativity triple of an int
        table, on the product kernel."""
        n = len(table)

        def sides(i, j, k, m):
            return ([(l * n + k, e) for l, e in m[i * n + j]],
                    [(i * n + l, e) for l, e in m[j * n + k]])
        return kernel.first_failing_triple(
            [[[const(e) for e in row] for row in plane] for plane in table],
            sides)

    @staticmethod
    def oracle_failing(table):
        n = len(table)
        basis = [[int(k == i) for k in range(n)] for i in range(n)]

        def mul(x, y):
            return [sum(x[i] * y[j] * table[i][j][k] for i in range(n)
                        for j in range(n)) for k in range(n)]
        return next(((i, j, k) for i, j, k in itertools.product(range(n),
                                                                repeat=3)
                     if mul(table[i][j], basis[k]) != mul(basis[i],
                                                          table[j][k])),
                    None)

    def test_first_failing_triple(self, spy):
        # M_2(Q) in the basis f_a = e_a + e_(a-1) of its matrix units, in
        # which products cancel; then with one entry corrupted
        units, _ = oracles.matrix_unit_table([(0, 0), (0, 1), (1, 0), (1, 1)])
        n = len(units)
        P = [[int(i == a or i == a - 1) for i in range(n)] for a in range(n)]
        Q = [[(-1) ** (a - i) if i <= a else 0 for i in range(n)]
             for a in range(n)]
        table = [[[int(sum(P[a][i] * P[b][j] * units[i][j][k] * Q[k][c]
                           for i in range(n) for j in range(n)
                           for k in range(n)))
                   for c in range(n)] for b in range(n)] for a in range(n)]
        assert self.oracle_failing(table) is None
        assert self.first_failing(table) is None
        assert self.carried_a_zero(spy)
        rng = random.Random(14)
        for _ in range(30):
            bad = [[list(row) for row in plane] for plane in table]
            a, b, c = (rng.randrange(n) for _ in range(3))
            bad[a][b][c] += rng.choice((-1, 1))
            want = self.oracle_failing(bad)
            assert want is not None
            assert self.first_failing(bad) == want


class TestLegAction:
    """_leg_action lists the embedding's rows in index order, one
    comprehension per leg pair; it must give the same lists as the loop
    over basis triples that it replaced."""

    @staticmethod
    def sparse_rows(rng, n):
        return [[(c, rng.choice((-3, -2, -1, 1, 2, 3)))
                 for c in sorted(rng.sample(range(n * n),
                                            rng.randint(0, min(n * n, 3))))]
                for _ in range(n * n)]

    @pytest.mark.parametrize("legs", [12, 23, 13])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_reference(self, n, legs):
        rng = random.Random(100 * n + legs)
        for _ in range(10):
            rows = self.sparse_rows(rng, n)
            assert tensor._leg_action(rows, n, legs) == \
                oracles.leg_action_reference(rows, n, legs)

    @pytest.mark.parametrize("legs", [0, 21, 31, 123, None, "12", [12]])
    def test_bad_legs_are_refused(self, legs):
        rows = self.sparse_rows(random.Random(0), 2)
        with pytest.raises(scalars.InputError, match="legs must be one of"):
            tensor._leg_action(rows, 2, legs)


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

    def test_roundtrip_defect(self):
        # A @ B - I over d_A * d_B, the identity side being d_A * d_B * I;
        # dense() gives the operands' class
        def roundtrip(A, B, dim, one=ONE, zero=ZERO):
            return oracles.sub(oracles.matmul(A, B),
                               oracles.identity(dim * dim, one, zero))

        rng = random.Random(46)
        X = random_fraction_op2(2, rng, (2, 3))
        Y = random_fraction_op2(2, rng, (1, 5))
        W = self.symbolic()
        for ops in ((X, Y), (W, X), (W, W), (X, W)):
            self.check(roundtrip_defect, ops, roundtrip)
            assert type(roundtrip_defect(*ops).dense()) is Operator2
        assert roundtrip_defect(twist(3), twist(3)).is_zero()
        with pytest.raises(DimensionMismatch):
            roundtrip_defect(twist(2), twist(3))
        with pytest.raises(DimensionMismatch):
            roundtrip_defect(Operator3.identity(2), Operator2.identity(2))

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


def _twist_obj(drop=(), **fields):
    """twist(2)'s JSON object with the given fields set and those in drop
    removed."""
    obj = {**twist(2).to_json_obj(), **fields}
    for name in drop:
        del obj[name]
    return obj


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

    @pytest.mark.parametrize("obj, message", [
        ({}, "not a ybx-operator-v1 object"),
        ([], "not a ybx-operator-v1 object"),
        (_twist_obj(drop=["format"]), "not a ybx-operator-v1 object"),
        (_twist_obj(format="ybx-operator-v2"), "not a ybx-operator-v1 object"),
        (_twist_obj(drop=["dim"]), "dim must be an int, not None"),
        (_twist_obj(dim=2.0), "dim must be an int, not 2.0"),
        (_twist_obj(dim=True), "dim must be an int, not True"),
        (_twist_obj(dim="2"), "dim must be an int, not '2'"),
        (_twist_obj(dim=0), "dim must be >= 1"),
        (_twist_obj(dim=3), "expected a 9x9 matrix for dim 3"),
        (_twist_obj(legs=[2]), r"unsupported legs value \[2\]"),
        (_twist_obj(legs=2.0), "unsupported legs value 2.0"),
        (_twist_obj(legs=True), "unsupported legs value True"),
        (_twist_obj(legs=4), "unsupported legs value 4"),
        (_twist_obj(legs=3), "expected a 8x8 matrix for dim 2"),
        (_twist_obj(drop=["matrix"]), "matrix must be a list of rows"),
        (_twist_obj(matrix=5), "matrix must be a list of rows"),
        (_twist_obj(matrix=["1000"] * 4), "matrix must be a list of rows"),
        (_twist_obj(matrix=[[1.5] * 4] * 4), "matrix must be a list of rows"),
        (_twist_obj(matrix=[[None] * 4] * 4), "matrix must be a list of rows"),
        (_twist_obj(matrix=[[True] * 4] * 4), "matrix must be a list of rows"),
        (_twist_obj(matrix=[["1"] * 4] * 3 + [["1"] * 3]),
         "expected a 4x4 matrix for dim 2"),
    ], ids=["empty", "list", "no-format", "format-v2", "no-dim", "dim-float",
            "dim-bool", "dim-str", "dim-0", "dim-3", "legs-list",
            "legs-float", "legs-bool", "legs-4", "legs-3", "no-matrix",
            "matrix-int", "matrix-of-str", "entry-float", "entry-null",
            "entry-bool", "short-row"])
    def test_bad_objects_are_refused(self, obj, message):
        with pytest.raises(scalars.InputError, match=message):
            operator_from_json_obj(obj)

    def test_legs_default_to_two(self):
        obj = _twist_obj(drop=["legs"])
        assert operator_from_json_obj(obj) == twist(2)

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


_HOSTILE = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(-1, 1), max_size=4),
    st.sampled_from([
        twist(2), Operator2.identity(1), Operator3.identity(1),
        Operator3.zero(2), Operator2(2, [[1, 0, 0, 0]] * 4),
        operator_from_json_obj({"format": "ybx-operator-v1", "dim": 1,
                                "legs": 3, "matrix": [["2"]]})]))


_X = Operator2(1, [["x"]])


@given(st.sampled_from(["braid_defect", "qybe_defect", "yb_commutator",
                        "embed", "verify_constant", "invert", "determinant",
                        "twist", "roundtrip_defect", "verify_inverse_pair",
                        "Operator2", "from_columns", "identity", "nullspace",
                        "evaluate", "evaluate_at", "scalar_evaluate_at",
                        "substitute", "parse_scalar", "var",
                        "const", "ParamScalar", "power", "power_of_zero"]),
       st.lists(_HOSTILE, min_size=3, max_size=3),
       st.one_of(st.sampled_from([12, 23, 13, "braid", "qybe"]), _HOSTILE))
@settings(max_examples=300, deadline=None)
def test_hostile_operands_raise_only_ybx_errors(name, operands, option):
    """Each public entry point of the tensor and scalar layers either
    answers or raises a YbxError, whatever its operands: an Operator3 where
    an Operator2 is due, None, a float dim or exponent, or a bad leg
    pair."""
    x = var("x")
    calls = {
        "Operator2": lambda x, y, _z: Operator2(x, y),
        "from_columns": lambda x, y, _z: Operator2.from_columns(x, y),
        "identity": lambda x, _y, _z: Operator2.identity(x),
        "nullspace": lambda x, _y, _z: nullspace(x),
        "evaluate": lambda x, _y, _z: _X.evaluate(x),
        "evaluate_at": lambda x, _y, _z: _X.evaluate({"x": x}),
        "scalar_evaluate_at": lambda x, _y, _z: var("x").evaluate({"x": x}),
        "substitute": lambda x, _y, _z: _X.substitute(x),
        "parse_scalar": lambda x, _y, _z: parse_scalar(x),
        "var": lambda x, _y, _z: var(x),
        "const": lambda x, _y, _z: const(x),
        "ParamScalar": lambda x, y, _z: scalars.ParamScalar(x, y),
        "power": lambda n, _y, _z: x ** n,
        "power_of_zero": lambda n, _y, _z: (x - x) ** n,
        "braid_defect": lambda x, _y, _z: braid_defect(x),
        "qybe_defect": lambda x, _y, _z: qybe_defect(x),
        "yb_commutator": yb_commutator,
        "embed": lambda x, _y, _z: embed(x, option),
        "verify_constant": lambda x, _y, _z: verify.verify_constant(x, option),
        "invert": lambda x, _y, _z: invert(x),
        "determinant": lambda x, _y, _z: determinant(x),
        "twist": lambda x, _y, _z: twist(x),
        "roundtrip_defect": lambda x, y, _z: roundtrip_defect(x, y),
        "verify_inverse_pair": lambda x, y, _z: verify.verify_inverse_pair(
            x, y),
    }
    try:
        calls[name](*operands)
    except scalars.YbxError:
        pass


@pytest.mark.parametrize("call", [
    lambda: Operator2(1, None),
    lambda: Operator2(1, [None]),
    lambda: Operator2.from_columns(1, None),
    lambda: Operator2.from_columns(1, [[(0, 1)]]),
    # a column of something other than pairs, which does not unpack
    lambda: Operator2.from_columns(1, "0"),
    lambda: Operator2.from_columns(1, [[(0, 1, 2)]]),
    lambda: nullspace([1, 2]),
    lambda: nullspace(None),
    lambda: _X.evaluate(None),
    lambda: _X.evaluate({"x": None}),
    lambda: _X.evaluate({"x": "abc"}),
    lambda: _X.evaluate({"x": 1.5}),
    lambda: _X.evaluate({"x": "1/2"}),
    lambda: var("x").evaluate({"x": 1.5}),
    lambda: var("x").evaluate({"x": 1, "y": None}),
    lambda: _X.substitute(None),
    lambda: parse_scalar(None),
    lambda: parse_scalar(5),
    lambda: var(None),
    lambda: const(None),
    lambda: const("x"),
    lambda: const(0.1),
    lambda: scalars.ParamScalar(None),
    lambda: var("x") ** 1.5,
    lambda: (var("x") - var("x")) ** -1,
    # a row index outside range(size), which a list index would wrap
    lambda: Operator2.from_columns(2, [[(-1, ONE)], [(-4, var("x"))]]),
    lambda: Operator2.from_columns(2, [[(4, ONE)]]),
    lambda: Operator2.from_columns(1, [[(-1, ZERO)]]),
    # a str is one scalar, never a row or a matrix
    lambda: Operator2(2, ["1000", "0100", "0010", "0001"]),
    lambda: nullspace(["12", "24"]),
    lambda: nullspace("12"),
    lambda: nullspace([[1, 2], "24"]),
], ids=lambda call: call.__code__.co_firstlineno)
def test_library_boundary_named(call):
    with pytest.raises(scalars.YbxError):
        call()


def test_a_division_by_zero_is_still_a_zero_division_error():
    with pytest.raises(ZeroDivisionError):
        var("x") / 0


def _recording(products):
    """The packed kernel, with each entry of each step of its row actions,
    which sum their products in place, appended to products."""
    apply, minus = kernel._PACKED_KERNEL

    def recorded_apply(actions, x):
        # step i's output is row x of the product of the first i actions
        for i in range(2, len(actions) + 1):
            products.extend(apply(actions[:i], x).values())
        return apply(actions, x)

    return recorded_apply, minus


class TestRepeatedEntries:
    """An inverse whose entries repeat reduces each distinct entry once."""

    def test_circulant_inverses_repeat_their_entries(self):
        # a circulant's inverse is circulant, so each distinct entry fills a
        # diagonal, and invert reduces it once; with rows and columns
        # shuffled, the entries still repeat
        rng = random.Random(35)
        nonzero = [e for e in ENTRIES if e != "0"]
        invertible = 0
        for k in range(8):
            c = [parse_scalar(rng.choice(nonzero))] + [
                parse_scalar(rng.choice(ENTRIES)) for _ in range(3)]
            rows = [[c[(j - i) % 4] for j in range(4)] for i in range(4)]
            if k % 2:
                rows = shuffled(rng, rows)
            res = TestEliminationOverPolys().check_square(rows)
            if res.invertible:
                invertible += 1
                entries = [e for row in res.operator.rows for e in row if e]
                assert len(set(entries)) <= 4 < len(entries)
        assert invertible >= 6

    def test_invert_reduces_each_distinct_entry_once(self, monkeypatch):
        # the 9x9 colored inverse repeats its entries: each distinct D*x is
        # reduced by one call of _over's function, and equal entries share
        # the result
        R = TestEliminationCounts.colored()
        calls = []
        original = elimination._over

        def counted(packing, pivots):
            over = original(packing, pivots)
            return lambda x: (calls.append(x), over(x))[1]

        monkeypatch.setattr(elimination, "_over", counted)
        res = invert(R)
        entries = [e for row in res.operator.rows for e in row if e]
        assert len(calls) == len(set(entries)) < len(entries)
        assert len({frozenset(x.items()) for x in calls}) == len(calls)
        assert (R @ res.operator).is_identity()


# Polys over a few names with small exponents, so that rows share monomials
_PACK_NAMES = ("a", "b", "u", "x")


def _monomials(names):
    return st.dictionaries(st.sampled_from(names), st.integers(1, 4),
                           max_size=3).map(lambda m: tuple(sorted(m.items())))


def _polys(names=_PACK_NAMES):
    monomial = _monomials(names) if names else st.just(())
    return st.dictionaries(monomial, st.integers(-9, 9).filter(bool),
                           max_size=5).map(scalars.Poly)


class TestPackingMemo:
    """_Packing records each distinct monomial's degree once and keeps each
    monomial's key; its fields, W and guard, and every key, are those of
    the formulas it documents."""

    @staticmethod
    def layout(rows):
        """(fields, mask, guard) from the names and degrees of the rows."""
        names = sorted(set().union(*(p.names for row in rows for p in row)))
        S = sum(max((sum(e for _, e in m) for p in row for m in p.terms),
                    default=0) for row in rows)
        W = (2 * S).bit_length() + 1
        n = len(names)
        return ([(name, (n - 1 - i) * W) for i, name in enumerate(names)],
                (1 << W) - 1, sum(1 << (i * W + W - 1) for i in range(n + 1)))

    @staticmethod
    def keys(packing, p):
        """p's monomials packed field by field, the degree in the top
        field."""
        shift = dict(packing.fields)
        top = len(shift) * packing.mask.bit_length()
        return {sum(e << shift[name] for name, e in m)
                + (sum(e for _, e in m) << top): c
                for m, c in p.terms.items()}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(_polys(), min_size=1, max_size=4), max_size=4),
           st.data())
    def test_layout_and_keys_follow_the_formulas(self, rows, data):
        packing = kernel._Packing(rows)
        fields, mask, guard = self.layout(rows)
        assert packing.fields == fields
        assert (packing.mask, packing.guard) == (mask, guard)
        # polys of the rows, then others over their names, some packed twice
        others = data.draw(st.lists(_polys(tuple(dict(fields))),
                                    max_size=4))
        for p in [p for row in rows for p in row] + others + others:
            packed = packing.pack(p)
            assert packed == self.keys(packing, p)
            # each poly of the rows fits below the guard bits; another
            # unpacks when its degrees do
            if all(sum(e for _, e in m) <= mask >> 1 for m in p.terms):
                assert packing.unpack(packed) == p
