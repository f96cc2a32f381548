"""The closed-form inverses. ``colored_inverse`` divides each distinct
entry once by its known denominator, over its factor base; its entries
must be the strings of ``oracles.henrici_colored_inverse``, the path where
every sum is canonicalised. ``dn_inverse`` is ``dn_operator`` at
reciprocal parameters; it must invert ``dn_operator`` symbolically. Both
must agree with the Fraction oracles at seeded points, and with ``invert``
on M_2(Q), where ab != ba."""

import random
from fractions import Fraction

import pytest

import oracles
from test_constructors import monic_quotient
from test_inverse_entries import count_divexact
from ybx import elimination, scalars
from ybx.algebra import Algebra, make_algebra, quadratic_quotient_algebra
from ybx.constructors import (colored_inverse, colored_operator, dn_inverse,
                              dn_operator)
from ybx.scalars import PoleError, as_scalar, parse_scalar
from ybx.tensor import invert, roundtrip_defect
from ybx.verify import verify_inverse_pair


def random_table(seed, pool, n=3):
    """An unvalidated dim-n table drawn from pool, unit e0 + e1: the
    builders read only the table."""
    rng = random.Random(seed)
    entries = [as_scalar(e) for e in pool]
    structure = tuple(tuple(tuple(rng.choice(entries) for _ in range(n))
                            for _ in range(n)) for _ in range(n))
    unit = tuple(map(as_scalar, (1, 1) + (0,) * (n - 2)))
    return Algebra(n, structure, unit, ())


def algebra(name):
    s = parse_scalar
    return {
        # tables like those of the benchmark's symbolic workload
        "quadratic": lambda: quadratic_quotient_algebra(s("m"), s("n")),
        "sigma": lambda: quadratic_quotient_algebra(0, s("sigma")),
        "cubic": lambda: monic_quotient([0, 0, 0]),
        "dense": lambda: monic_quotient([3, -1, 2]),
        # constants that are rational functions
        "rational": lambda: quadratic_quotient_algebra(s("1/t"),
                                                       s("t/(t + 1)")),
        # constants that share a factor with the denominators
        "shared": lambda: quadratic_quotient_algebra(
            s("q*u - p*v"), s("2*a*b")),
        "mixed": lambda: random_table(7, [0, 0, 1, -2, "1/2", "a", "u - v",
                                          "p*u - q*v", "3/t", "a^2 + 1"]),
    }[name]()


TABLES = ["quadratic", "sigma", "cubic", "dense", "rational", "shared",
          "mixed"]

COLORED = [
    ("p", "q", "u", "v"),
    (2, "q", "u", "v"),
    ("p", -3, "u", "v"),
    ("p", "q", 5, "v"),
    ("p", "q", "u", -2),
    ("p", "p", "u", "v"),           # p = q: the two factors are one
    ("2*p", "4*q", "u", "v"),       # an integer content in both factors
    ("-p", "q", "u", "v"),
    ("p", "q", "u", "1/2"),
    ("1/t", "q", "u", "v"),         # a factor with a denominator
    ("p^2", "q", "u", "v"),         # a factor not certified irreducible
    (2, 3, 5, 7),                   # all constant: the same path
    ("1/2", 3, "5/3", -7),          # all constant, with denominators
]

DN = [
    ("a", "b", "a"),                # case i
    (2, "b", 2),
    ("2*a", "b", "2*a"),
    ("-a", "b", "-a"),
    ("a", "a", "a"),                # the overlap of cases i and ii
    ("a", "b", "b"),                # case ii
    ("a", -3, -3),
    ("a^2 - 1", "b", "b"),
    ("1/t", "b", "1/t"),
    (0, 0, "g"),                    # case iii
    (0, 0, "-6*g"),
    (2, 3, 2),
    (0, 0, 5),
]


def strings(op):
    return [[str(e) for e in row] for row in op.rows]


def points(seed, names, count=2):
    """count seeded rational points for the names."""
    rng = random.Random(seed)
    for _ in range(count):
        yield {x: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
               for x in sorted(names)}


def values(point, xs):
    return [as_scalar(x).evaluate(point) for x in xs]


def evaluated(A, point):
    table = [[[e.evaluate(point) for e in row] for row in plane]
             for plane in A.structure]
    return table, [e.evaluate(point) for e in A.unit]


def names_of(A, params):
    out = set().union(*(as_scalar(x).names for x in params))
    for plane in A.structure:
        for row in plane:
            for e in row:
                out |= e.names
    return out


@pytest.mark.parametrize("table", TABLES)
@pytest.mark.parametrize("params", COLORED, ids=str)
def test_colored_inverse(table, params):
    A = algebra(table)
    params = [parse_scalar(x) if isinstance(x, str) else x for x in params]
    got = colored_inverse(A, *params)
    assert strings(got) == strings(oracles.henrici_colored_inverse(A, *params))
    for point in points(f"colored:{table}:{params}", names_of(A, params)):
        try:
            want = oracles.colored_inverse_matrix(
                *evaluated(A, point), *values(point, params))
        except (PoleError, ZeroDivisionError):
            continue
        assert oracles.frac_matrix(got, point) == want


@pytest.mark.parametrize("table", TABLES)
@pytest.mark.parametrize("params", DN, ids=str)
def test_dn_inverse(table, params):
    A = algebra(table)
    params = [parse_scalar(x) if isinstance(x, str) else x for x in params]
    got = dn_inverse(A, *params)
    if table != "mixed":    # a round trip needs an associative unit
        assert roundtrip_defect(dn_operator(A, *params), got).is_zero()
    n = A.dim
    for point in points(f"dn:{table}:{params}", names_of(A, params)):
        try:
            T, U = evaluated(A, point)
            a, b, g = values(point, params)
            inverse = oracles.frac_matrix(got, point)
        except (PoleError, ZeroDivisionError):
            continue
        scales = (0, 0, 1 / g) if a == b == 0 else (1 / b, 1 / a, 1 / g)
        assert inverse == oracles.dn_matrix(T, U, *scales)
        if table != "mixed":    # a round trip needs an associative unit
            assert oracles.matmul(oracles.dn_matrix(T, U, a, b, g),
                                  inverse) == oracles.identity(n * n)


def matrix_algebra():
    """M_2(Q) on its matrix units E00, E01, E10, E11, with unit E00 + E11:
    every k[x]/(f) above is commutative, so there ab = ba hides a builder
    that reads one for the other."""
    table, _ = oracles.matrix_unit_table([(0, 0), (0, 1), (1, 0), (1, 1)])
    return make_algebra(4, table, [1, 0, 0, 1])


# each family's builder and closed-form inverse
BUILDERS = {"colored": (colored_operator, colored_inverse),
            "dn": (dn_operator, dn_inverse)}


@pytest.mark.parametrize("family, params", [
    ("colored", (2, 3, 5, 7)),
    ("colored", ("1/2", 3, "5/3", -7)),
    ("dn", (2, 3, 2)),          # case i
    ("dn", (2, 3, 3)),          # case ii
    ("dn", (0, 0, 5)),          # case iii
], ids=str)
def test_inverses_on_a_noncommutative_algebra_at_constants(family, params):
    A = matrix_algebra()
    build, inverse = BUILDERS[family]
    assert inverse(A, *params) == invert(build(A, *params)).operator


@pytest.mark.parametrize("family, params", [
    ("colored", ("p", "q", "u", "v")),
    ("dn", ("a", "b", "a")),    # case i
    ("dn", ("a", "b", "b")),    # case ii
    ("dn", (0, 0, "g")),        # case iii
], ids=str)
def test_inverses_on_a_noncommutative_algebra_at_symbols(family, params):
    A = matrix_algebra()
    build, inverse = BUILDERS[family]
    assert verify_inverse_pair(build(A, *params), inverse(A, *params)).passed


def test_consecutive_builds_reduce_each_over_its_own_denominator():
    A = algebra("dense")
    p, q, u, v = map(parse_scalar, "pquv")
    for params in ((p, q, u, v), (q, p, u, v), (p, q, v, u)):
        assert strings(colored_inverse(A, *params)) == strings(
            oracles.henrici_colored_inverse(A, *params))


def test_trial_divisions_per_build(monkeypatch):
    # colored_inverse at (p, q, u, -2) on the dense table x^3 = -2x^2 +
    # 2x - 1 has 16 distinct entries, each tried once against each of the
    # two certified factors of its denominator; the dn inverse is built at
    # reciprocal parameters, with no packed division
    A = monic_quotient([1, -2, 2])
    calls = count_divexact(monkeypatch)
    colored_inverse(A, *map(parse_scalar, "pqu"), -2)
    assert len(calls) <= 32
    calls.clear()
    for params in (("a", "b", "a"), ("a", "b", "b"), (0, 0, "g")):
        dn_inverse(A, *(parse_scalar(x) if isinstance(x, str) else x
                        for x in params))
    assert calls == []


@pytest.mark.parametrize("params", [
    ("p", "q", "u", "v"), (2, "q", "u", "v"), ("p", -3, "u", "v"),
    ("p", "q", 5, "v"), ("p", "q", "u", -2)])
def test_colored_inverse_runs_no_gcd_but_certification(monkeypatch, params):
    # each factor of (qu - pv)(pu - qv) is certified irreducible by one gcd
    # of its coefficients, and every entry is then reduced by trial
    # divisions alone, on every table of the benchmark's symbolic workload:
    # the count does not grow with the dimension
    params = [parse_scalar(x) if isinstance(x, str) else x for x in params]
    gcds = {"certifying": 0, "other": 0}
    inside = []
    gcd, certified = scalars.poly_gcd, elimination._certified

    def counted_gcd(f, g):
        gcds["certifying" if inside else "other"] += 1
        return gcd(f, g)

    def counted_certified(p):
        inside.append(1)
        try:
            return certified(p)
        finally:
            inside.pop()

    monkeypatch.setattr(scalars, "poly_gcd", counted_gcd)
    monkeypatch.setattr(elimination, "poly_gcd", counted_gcd)
    monkeypatch.setattr(elimination, "_certified", counted_certified)
    counts = set()
    for table in ("quadratic", "sigma", "cubic", "dense"):
        A = algebra(table)
        gcds.update(certifying=0, other=0)
        colored_inverse(A, *params)
        counts.add((A.dim, gcds["certifying"], gcds["other"]))
    assert counts == {(2, 2, 0), (3, 2, 0)}
