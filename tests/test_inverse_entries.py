"""Entries of ``invert`` and ``nullspace`` reduced over the pivots' factor
base, against ``oracles.over_reference``, the gcd-per-entry
canonicalisation it replaced, and against the field oracles."""

import math
import random
from collections import Counter

import pytest

import oracles
from ybx import elimination
from ybx.elimination import factor_base
from ybx.scalars import ONE, Poly, const, parse_scalar
from ybx.tensor import Operator2, invert, nullspace

# factors a pivot is built from: the first row is certified irreducible,
# the second is not, though u^2 + v^2 and u^2*v + u*v^2 + 1 are irreducible
CERTIFIED = ["u", "v", "q", "u + v", "2*u - 3*v", "q*v - 2*u", "q*u - 2*v",
             "u*v + 1", "-u - 1", "3*q + 2"]
UNCERTIFIED = ["u^2 - v^2", "(q*u - 2*v)*(q*v - 2*u)", "u^2 + v^2",
               "(u + 1)*(v - 2)", "(q + 1)*(u - v)", "u^2*v + u*v^2 + 1"]
FACTORS = [parse_scalar(t) for t in CERTIFIED + UNCERTIFIED]


def product(rng, most=2):
    """A signed int times up to most factors, repeats allowed."""
    out = const(rng.choice([1, 1, -1, 2, -3, 6]))
    for _ in range(rng.randint(0, most)):
        out = out * rng.choice(FACTORS)
    return out


def entry(rng):
    """Zero, or a product, possibly plus a constant or over a factor."""
    roll = rng.random()
    if roll < 0.3:
        return const(0)
    e = product(rng)
    if roll < 0.45:
        e = e + rng.randint(-2, 2)
    elif roll < 0.6:
        e = e / rng.choice(FACTORS)
    return e


def block_matrix(rng, n=4):
    """An n x n matrix, block upper triangular up to a permutation of its
    rows and columns: 1x1 diagonal blocks are products, so the pivots
    repeat factors and carry int contents and signs, and 2x2 blocks are
    dense, so their pivots are minors."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(rng.choice([1, 1, 2]), n - sum(sizes)))
    M = [[const(0)] * n for _ in range(n)]
    start = 0
    for size in sizes:
        for i in range(start, start + size):
            for j in range(start, n):
                M[i][j] = entry(rng) if j >= start + size else (
                    product(rng) if size == 1 else entry(rng))
        start += size
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return [[M[r][c] for c in cols] for r in rows]


def reference(fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elimination, "_over", oracles.over_reference)
        return fn(*args)


def strings(rows):
    return [[str(e) for e in row] for row in rows]


class TestInvert:
    @pytest.mark.parametrize("seed", range(6))
    def test_entries_equal_the_reference(self, seed, monkeypatch):
        rng = random.Random(f"inverse-entries:{seed}")
        bases = []
        original = elimination.factor_base
        monkeypatch.setattr(elimination, "factor_base", lambda pivots: (
            bases.append(original(pivots)) or bases[-1]))
        done = 0
        while done < 25:
            op = Operator2(2, block_matrix(rng))
            got = invert(op)
            if not got.invertible:
                continue
            want = reference(invert, op)
            assert str(got.determinant) == str(want.determinant)
            assert strings(got.operator.rows) == strings(want.operator.rows)
            done += 1
        seen = Counter()
        for c, atoms, R in bases:
            seen["negative c"] += c < 0
            seen["int content"] += abs(c) > 1
            seen["repeated atom"] += any(m > 1 for _, m in atoms)
            seen["residual"] += R != Poly.const(1)
            seen["certified"] += len(atoms) > 0
            seen["no residual"] += R == Poly.const(1)
        assert len(seen) == 6, seen

    def test_against_the_field_oracle(self):
        rng = random.Random("inverse-entries:field")
        for _ in range(10):
            rows = block_matrix(rng)
            got = invert(Operator2(2, rows))
            want = oracles.bareiss_inverse(rows)
            assert got.invertible == (want is not None)
            if want is not None:
                assert [list(r) for r in got.operator.rows] == want

    @pytest.mark.parametrize("text", UNCERTIFIED[:2])
    def test_an_uncertified_pivot_alone(self, text):
        # a diagonal matrix's entries are 1/d: all of d stays, by one gcd
        d = parse_scalar(text)
        x = parse_scalar("u + 1")
        rows = [[d, x, 0, 0], [0, d * x, 0, 0], [0, 0, 1, d], [0, 0, 0, 2 * d]]
        got = invert(Operator2(2, rows))
        want = reference(invert, Operator2(2, rows))
        assert strings(got.operator.rows) == strings(want.operator.rows)
        assert got.operator.rows[0][1] == -1 / d ** 2


class TestNullspace:
    @pytest.mark.parametrize("shape", [(2, 4), (3, 5), (3, 4)])
    def test_vectors_equal_the_reference(self, shape):
        rng = random.Random(f"nullspace-entries:{shape}")
        nrows, ncols = shape
        for _ in range(12):
            rows = [[entry(rng) for _ in range(ncols)] for _ in range(nrows)]
            if rng.random() < 0.3:
                # a dependent row: a rank drop
                k = rng.choice(FACTORS)
                rows[-1] = [k * a + b for a, b in zip(rows[0], rows[1])]
            got = nullspace(rows)
            assert strings(got) == strings(reference(nullspace, rows))
            assert got == oracles.bareiss_nullspace(rows)


class TestFactorBase:
    @staticmethod
    def polys(*texts):
        return [parse_scalar(t).num for t in texts]

    def test_product_is_kept(self):
        rng = random.Random("factor-base")
        for _ in range(40):
            pivots = [product(rng, 3).num for _ in range(rng.randint(1, 4))]
            c, atoms, R = factor_base(pivots)
            assert Poly.const(c) * math.prod(
                (a ** m for a, m in atoms), start=R) == math.prod(
                pivots, start=Poly.const(1))
            for a, _ in atoms + [(R, 1)]:
                assert a.int_content() == 1 and a.leading()[1] > 0

    def test_names_and_contents_split_off(self):
        c, atoms, R = factor_base(self.polys("-6*u^2*v*(u + v)", "u*(u + v)"))
        assert c == -6 and R == ONE.num
        assert [(str(a), m) for a, m in atoms] == [
            ("u", 3), ("v", 1), ("u + v", 2)]

    def test_a_known_factor_splits_a_piece(self):
        # u^2 - v^2 alone is not certified; after u + v, what is left is
        c, atoms, R = factor_base(self.polys("u^2 - v^2"))
        assert atoms == [] and str(R) == "u^2 - v^2"
        c, atoms, R = factor_base(self.polys("u^2 - v^2", "u + v"))
        assert [(str(a), m) for a, m in atoms] == [("u + v", 2), ("u - v", 1)]
        assert R == ONE.num

    @pytest.mark.parametrize("text", [
        "(u + 1)*(v - 2)", "(q + 1)*(u - v)", "(u*v + 1)*(u + 1)",
        "(q*u - 2*v)*(q*v - 2*u)", "u^2 + v^2"])
    def test_what_is_not_certified_stays_in_the_residual(self, text):
        c, atoms, R = factor_base(self.polys(text))
        assert atoms == [] and R == self.polys(text)[0]


def count_divexact(monkeypatch):
    """A list whose length counts the calls of ``elimination._divexact``."""
    calls = []
    original = elimination._divexact
    monkeypatch.setattr(elimination, "_divexact", lambda *args: (
        calls.append(1) or original(*args)))
    return calls


class TestHighestPowerFirst:
    """Each atom's packed powers are tried highest first, one trial each,
    so an entry costs at most one trial per power of each atom."""

    def test_a_repeated_factor_costs_one_trial_per_power(self, monkeypatch):
        # the entry 1/(u + v)^k is (u + v)^(45 - k) over D = (u + v)^45:
        # k + 1 trials, 54 in all, and one back-substitution per column
        s = parse_scalar("u + v")
        rows = [[s ** (i + 1) if i == j else 0 for j in range(9)]
                for i in range(9)]
        calls = count_divexact(monkeypatch)
        got = invert(Operator2(3, rows))
        assert len(calls) <= 63
        assert [got.operator.rows[i][i] for i in range(9)] == [
            1 / s ** (i + 1) for i in range(9)]

    def test_an_uncertified_triangular_matrix(self):
        # u^2 + v^2 + 1 is not certified, so every entry takes a gcd with R
        d = parse_scalar("u^2 + v^2 + 1")
        u = parse_scalar("u")
        rows = [[d if i == j else u + i - j if j > i else 0
                 for j in range(9)] for i in range(9)]
        got = invert(Operator2(3, rows))
        want = reference(invert, Operator2(3, rows))
        assert strings(got.operator.rows) == strings(want.operator.rows)
