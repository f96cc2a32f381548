"""Exact scalar arithmetic: canonical forms, evaluation, parsing, and the
field/homomorphism properties."""

import copy
import math
import pickle
import random
import re
import time
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from oracles import clear_row_reference, det_permutation_expansion, mono_cmp
from ybx.algebra import AssociativityError, UnitError
from ybx.constructors import (FreeIndeterminateError, InvalidCenterError,
                              InvertibilityLocusError, SupportViolationError)
from ybx.lie_super import AntisymmetryError, GradingError, JacobiError
from ybx.scalars import (IncompleteAssignmentError, InputError,
                         MalformedScalarError, ONE, ParamScalar, PoleError,
                         ScalarParseError, ZERO, as_scalar, const,
                         fresh_name, parse_scalar, var)
from ybx.scalars import Poly, _tokenize, clear_row, poly_gcd

p, q, u, v, w = (var(nm) for nm in "pquvw")
x, y = var("x"), var("y")


class TestCanonicalForm:
    def test_gcd_cancellation(self):
        s = (2 * x) / (4 * x * x)
        assert str(s) == "1/(2*x)"

    def test_identity_quotient(self):
        assert (u - v) / (u - v) == ONE

    def test_unique_zero(self):
        s = (p * u - q * v) - (p * u - q * v)
        assert s.is_zero
        assert s == ZERO
        assert str(s) == "0"

    def test_zero_denominator_rejected(self):
        with pytest.raises(MalformedScalarError):
            ParamScalar(Poly.const(1), Poly.const(0))

    def test_reciprocal_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.reciprocal()

    def test_normalize_is_identity_on_values(self):
        for s in (x / y, (x + y) ** 3 / (2 * x), const(Fraction(-3, 7))):
            canonical = ParamScalar(s.num, s.den)
            assert canonical == s
            assert ParamScalar(canonical.num, canonical.den) == canonical

    def test_multivariate_cancellation(self):
        num = (u - v) * (u + v) * (p * u - q * v)
        den = (u - v) * (p * u - q * v) ** 2
        assert str(num / den) == "(u + v)/(p*u - q*v)"

    def test_denominator_sign_normalization(self):
        assert str(ONE / (-x)) == "-1/x"
        assert x / (v - u) == (-x) / (u - v)


class TestEvaluate:
    def test_product_point(self):
        s = p * (u - v)
        assert s.evaluate({"p": 2, "u": 3, "v": 1}) == 4

    def test_pole_on_excluded_locus(self):
        s = ONE / (p * u - q * v)
        with pytest.raises(PoleError):
            s.evaluate({"p": 1, "q": 1, "u": 2, "v": 2})

    def test_missing_assignment(self):
        s = p * (u - v)
        with pytest.raises(IncompleteAssignmentError) as err:
            s.evaluate({"p": 2})
        assert set(err.value.missing) == {"u", "v"}

    def test_fraction_values(self):
        s = parse_scalar("3*x/4")
        assert s.evaluate({"x": 2}) == Fraction(3, 2)


class TestFamilyDeterminant:
    """The 4x4 determinant of the two-parameter family on the quadratic
    x^2 = sigma algebra, checked against a brute-force expansion."""

    sigma = var("sigma")

    def rows(self):
        s = self.sigma
        return [
            [q * u - p * v, ZERO, ZERO, s * (q + p) * (u - v)],
            [ZERO, p * (u - v), (q - p) * v, ZERO],
            [ZERO, (q - p) * u, q * (u - v), ZERO],
            [ZERO, ZERO, ZERO, q * v - p * u],
        ]

    POINT = {"q": 1, "p": 0, "u": 1, "v": 0, "sigma": 1}

    def test_determinant_at_point(self):
        symbolic = det_permutation_expansion(self.rows())
        # the corner factors times the inner 2x2 block
        block = p * q * (u - v) ** 2 - u * v * (q - p) ** 2
        assert symbolic == (q * u - p * v) * (q * v - p * u) * block
        # numeric oracle: evaluate entries first, then expand over Fraction
        numeric_rows = [[e.evaluate(self.POINT) for e in row]
                        for row in self.rows()]
        oracle = det_permutation_expansion(numeric_rows)
        assert oracle == Fraction(0)
        assert symbolic.evaluate(self.POINT) == oracle


class TestParseFormat:
    ROUND_TRIPS = [
        "0",
        "1",
        "-1",
        "x",
        "2*p*u - q*v",
        "1/(2*x)",
        "(u + v)/(p*u - q*v)",
        "x^2 + 2*x + 1",
        "x*y + x + y + 1",
        "-x + 1",
        "3*x/4",
        "-1/x",
    ]

    @pytest.mark.parametrize("text", ROUND_TRIPS)
    def test_canonical_string_round_trip(self, text):
        assert str(parse_scalar(text)) == text

    def test_value_round_trip(self):
        for s in (x / y, (x + 1) ** 2 / (3 * y), p * u - q * v,
                  const(Fraction(22, 7))):
            assert parse_scalar(str(s)) == s

    # polynomials in up to three names, with coefficients and degrees far
    # inside the parser's bounds (scalars._MAX_*)
    MONOS = st.dictionaries(st.sampled_from(("alpha", "m_2", "x")),
                            st.integers(1, 4), max_size=3).map(
                                lambda m: tuple(sorted(m.items())))
    POLYS = st.dictionaries(MONOS, st.integers(-10 ** 12, 10 ** 12).filter(
        bool), max_size=5).map(Poly)

    @settings(max_examples=200, deadline=None)
    @given(POLYS, POLYS.filter(bool))
    def test_canonical_text_reads_back(self, num, den):
        s = ParamScalar(num, den)
        assert parse_scalar(str(s)) == s
        assert str(parse_scalar(str(s))) == str(s)

    def test_grammar_variants(self):
        assert parse_scalar("x**2") == x ** 2
        assert parse_scalar("(x + y)^2") == (x + y) ** 2
        assert parse_scalar("- x") == -x
        assert parse_scalar("1/2") == const(Fraction(1, 2))
        assert parse_scalar("x ") == x
        assert parse_scalar("\t\n x*y\n\t") == x * y
        # binary operators fold left to right
        assert parse_scalar("8/4/2") == ONE
        assert parse_scalar("1-2-3") == const(-4)
        assert parse_scalar("2*3/4*5") == const(Fraction(15, 2))

    @pytest.mark.parametrize("bad, message", [
        ("", "empty scalar expression"),
        ("x +", "unexpected end of expression in 'x +'"),
        ("2*/x", "unexpected end of expression in '2*/x'"),
        ("^2", "unexpected end of expression in '^2'"),
        ("(x", "expected ')' in '(x'"),
        ("(x y)", "expected ')' in '(x y)'"),
        ("x..y", "unexpected character '.' in 'x..y'"),
        ("x^y", "expected integer exponent in 'x^y'"),
        ("x^+2", "expected integer exponent in 'x^+2'"),
        ("x**+2", "expected integer exponent in 'x**+2'"),
        ("x y", "trailing input in 'x y'"),
        ("1)", "trailing input in '1)'"),
        ("x^2^3", "trailing input in 'x^2^3'"),
        # integers are ASCII digits; \d would read these as 3, 1 and 23
        ("\u0663", "unexpected character '\u0663' in '\u0663'"),
        ("\uff11", "unexpected character '\uff11' in '\uff11'"),
        ("2\u0663", "unexpected character '\u0663' in '2\u0663'"),
        (" \t\n ", "empty scalar expression"),
        ("$x", "unexpected character '$' in '$x'"),
        ("x + 1 ,", "unexpected character ',' in 'x + 1 ,'"),
        ("\t(x\n", "expected ')' in '\\t(x\\n'")])
    def test_parse_errors(self, bad, message):
        with pytest.raises(ScalarParseError) as info:
            parse_scalar(bad)
        assert str(info.value) == message

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(
        ["0", "1", "2", "10", "x", "y", "ab", "+", "-", "*", "/", "^", "**",
         "(", ")", " "]), max_size=40))
    def test_any_token_string_parses_or_raises_a_parse_error(self, tokens):
        # an IndexError or a RecursionError escaping here fails the test
        try:
            parse_scalar("".join(tokens))
        except (ScalarParseError, MalformedScalarError):
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.one_of(
        st.tuples(st.just("int"), st.integers(0, 10 ** 30)),
        st.tuples(st.just("name"),
                  st.from_regex(r"[A-Za-z_][A-Za-z_0-9]{0,4}", fullmatch=True)),
        st.tuples(st.just("op"),
                  st.sampled_from(["**", "+", "-", "*", "/", "^", "(", ")"]))),
        st.text(" \t\n\r\f\v", min_size=1, max_size=3)), max_size=12),
        st.data())
    def test_tokens_read_back_until_the_first_stray_character(self, tokens,
                                                              data):
        text = "".join(f"{val}{blank}" for (_, val), blank in tokens)
        assert _tokenize(text) == [token for token, _ in tokens]
        stray = "$.,\u00e9\u0663\uff11"
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(text)))
            text = text[:at] + data.draw(st.sampled_from(stray)) + text[at:]
        first = next(c for c in text if c in stray)
        with pytest.raises(ScalarParseError) as info:
            _tokenize(text)
        assert str(info.value) == f"unexpected character {first!r} in {text!r}"

    def test_deep_callers_parse_nested_input(self, near_recursion_limit):
        text = "(" * 100 + "x" + ")" * 100
        assert near_recursion_limit(lambda: parse_scalar(text)) == x

    def test_zero_to_a_negative_power_is_malformed(self):
        with pytest.raises(MalformedScalarError, match="negative power"):
            parse_scalar("(x-x)^-1")
        # the exponent -0 is zero, as in 0^0 and x^-0
        assert parse_scalar("0^-0") == parse_scalar("0^0") == ONE
        assert parse_scalar("x^-0") == ONE

    def test_a_name_starts_with_a_letter(self):
        with pytest.raises(ScalarParseError, match="bad indeterminate"):
            var("1x")

    def test_nesting_is_bounded(self):
        assert parse_scalar("(" * 100 + "x" + ")" * 100) == x
        with pytest.raises(ScalarParseError, match="nested"):
            parse_scalar("(" * 101 + "x" + ")" * 101)
        with pytest.raises(ScalarParseError, match="nested"):
            parse_scalar("(" * 2000 + "1" + ")" * 2000)

    def test_sign_chains_parse_without_recursion(self):
        assert parse_scalar("-" * 2001 + "x") == -x
        assert parse_scalar("+-" * 2000 + "x") == x
        assert parse_scalar("--x^2") == x ** 2
        assert parse_scalar("-2^2") == const(-4)

    @pytest.mark.parametrize("text, inner", [
        ("x^999999999", []), ("(x+1)^999999999", []), ("2^999999999", []),
        ("x^-999999999", []), ("(1/2)^-999999999", []), ("(a+b+c+d)^21", []),
        ("((x+1)^100)^100", [100]), ("((x+1)^30)^30", [30])])
    def test_powers_are_bounded_before_they_are_computed(self, text, inner,
                                                         monkeypatch):
        computed = []
        power = ParamScalar.__pow__

        def recorded(base, e):
            computed.append(e)
            # a power past the bounds fails the test instead of running
            assert computed == inner[:len(computed)], computed
            return power(base, e)

        monkeypatch.setattr(ParamScalar, "__pow__", recorded)
        with pytest.raises(ScalarParseError, match="power too large"):
            parse_scalar(text)
        # only the inner power of a nested one is computed
        assert computed == inner

    def test_powers_at_the_bounds(self):
        assert parse_scalar("x^1000") == x ** 1000
        assert parse_scalar("x^-1000") == 1 / x ** 1000
        assert str(parse_scalar("2^10000")) == str(2 ** 10000)
        a, b, c, d = (var(nm) for nm in "abcd")
        assert parse_scalar("(a+b+c+d)^20") == (a + b + c + d) ** 20
        assert parse_scalar("1^999999999") == ONE
        assert parse_scalar("(-1)^999999999") == const(-1)
        assert parse_scalar("0^999999999") == ZERO
        with pytest.raises(ScalarParseError, match="degree"):
            parse_scalar("x^1001")
        with pytest.raises(ScalarParseError, match="bits"):
            parse_scalar("2^10001")
        with pytest.raises(ScalarParseError, match="terms"):
            parse_scalar("(a+b+c+d)^21")
        # integer literals share the coefficient bound, refused before int()
        # meets its 4,300-digit limit
        assert parse_scalar(str(2 ** 10000)) == const(2 ** 10000)
        assert parse_scalar("0" * 5000 + "7") == const(7)
        for text in (str(2 ** 10000 + 1), "9" * 5000, "x^" + "9" * 5000):
            with pytest.raises(ScalarParseError, match="integer literal"):
                parse_scalar(text)

    @pytest.mark.parametrize("text", [
        "*".join(["(a+b+c+d+e+f)"] * 20), "*".join(["(a+b+c+d+e+f)"] * 30),
        "*".join(["(a+b+c+d)"] * 21), "1/" + "/".join(["(a+b+c+d+e+f)"] * 30),
        "*".join(f"(x{i}+1)" for i in range(11)), "2^5000*2^5000*2^5000",
        "1/2^5000/2^5000/2^5000", "(2^6000*x)/(1/2^6000)"])
    def test_products_are_bounded_before_they_are_computed(self, text,
                                                           monkeypatch):
        products = []
        for name in ("__mul__", "__truediv__"):
            op = getattr(ParamScalar, name)

            def recorded(a, b, op=op):
                c = op(a, b)
                products.append(max(len(c.num.terms), len(c.den.terms)))
                # a product past the bound fails the test instead of running
                assert products[-1] <= 2000, products
                return c

            monkeypatch.setattr(ParamScalar, name, recorded)
        t0 = time.perf_counter()
        with pytest.raises(ScalarParseError, match="product too large"):
            parse_scalar(text)
        assert time.perf_counter() - t0 < 1.0
        assert products

    def test_products_at_the_bound(self):
        a, b, c, d = (var(nm) for nm in "abcd")
        assert parse_scalar("*".join(["(a+b+c+d)"] * 20)) == \
            (a + b + c + d) ** 20
        assert parse_scalar("1/" + "/".join(["(a+b+c+d)"] * 20)) == \
            1 / (a + b + c + d) ** 20
        ten = parse_scalar("*".join(f"(x{i}+1)" for i in range(10)))
        assert len(ten.num.terms) == 1024
        assert parse_scalar("2^5000*2^5000") == const(2 ** 10000)
        assert parse_scalar("1/2^5000/2^5000") == const(Fraction(1, 2 ** 10000))

    def test_power_matches_repeated_products(self):
        base = (x - 2 * y + 1).num
        product = Poly.const(1)
        for n in range(10):
            assert base ** n == product
            product = product * base

    def test_ordering_is_graded_lex(self):
        assert str(2 * p * u - q * v) == "2*p*u - q*v"
        assert str(x + x * y + y + 1) == "x*y + x + y + 1"
        assert str(y ** 3 + x ** 2) == "y^3 + x^2"


class TestSubstitute:
    def test_partial_substitution(self):
        s = (p * u - q * v) / (u - v)
        assert s.substitute({"u": 1, "v": 0}) == p
        assert s.substitute({"p": q}) == q

    def test_substitution_pole(self):
        s = ONE / (u - v)
        with pytest.raises(PoleError):
            s.substitute({"u": v})


class TestFreshNames:
    def test_avoids_taken(self):
        assert fresh_name("u", set()) == "u"
        got = fresh_name("u", {"u"})
        assert got != "u" and got.startswith("u")
        assert fresh_name("u", {"u", got}) not in {"u", got}


# -- property tests ---------------------------------------------------------

def small_polys():
    coeff = st.integers(min_value=-4, max_value=4)
    mono = st.tuples(st.integers(0, 2), st.integers(0, 2))
    term = st.tuples(coeff, mono)
    def build(terms):
        total = ZERO
        for c, (i, j) in terms:
            total = total + const(c) * x ** i * y ** j
        return total
    return st.lists(term, min_size=0, max_size=3).map(build)


def small_scalars():
    def quotient(pair):
        a, b = pair
        if b.is_zero:
            b = b + 1
        return a / b
    return st.tuples(small_polys(), small_polys()).map(quotient)


def assert_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a + (-a) == ZERO


@given(small_scalars(), small_scalars(), small_scalars())
def test_field_axioms(a, b, c):
    assert_field_axioms(a, b, c)


def test_field_axioms_on_a_slow_example():
    # drawn by test_field_axioms under --hypothesis-seed=2, where it ran
    # longer than hypothesis's 200 ms deadline; kept as a fixed case
    a = ONE / (x ** 2 + 1)
    b = ONE / (1 - x ** 2 * y ** 2)
    c = x ** 2 * y / (1 + x ** 2 + x * y ** 2)
    assert_field_axioms(a, b, c)


@given(small_scalars())
def test_reciprocal_inverts(a):
    if not a.is_zero:
        assert a * a.reciprocal() == ONE
        assert a.reciprocal().reciprocal() == a


@given(small_polys(), small_polys())
def test_evaluate_is_a_ring_homomorphism(s, t):
    point = {"x": Fraction(5), "y": Fraction(-3)}
    assert (s + t).evaluate(point) == s.evaluate(point) + t.evaluate(point)
    assert (s * t).evaluate(point) == s.evaluate(point) * t.evaluate(point)


@given(small_scalars(), small_scalars())
def test_equality_matches_difference_being_zero(s, t):
    assert (s == t) == (s - t).is_zero


def test_equality_with_text_that_names_no_scalar():
    a = var("a")
    # a value of no scalar type: ParamScalar.__eq__ declines, and Python
    # falls back to identity
    assert (ONE == None) is False
    assert a == "a" and const(Fraction(1, 2)) == "1/2"
    for text in ("not a scalar!", "(", "1/0", "a^99999999"):
        assert a != text
        assert not a == text


@given(small_scalars(), small_scalars())
def test_arithmetic_results_are_canonical(s, t):
    # sums, products and quotients skip the full canonicalisation of their
    # result; running it again must change nothing
    results = [s + t, s - t, s * t, -s]
    if not t.is_zero:
        results += [s / t, t.reciprocal()]
    for r in results:
        again = ParamScalar(r.num, r.den)
        assert (again.num, again.den) == (r.num, r.den)


@given(small_scalars())
def test_canonical_form_is_stable(s):
    assert ParamScalar(s.num, s.den) == s
    rebuilt = parse_scalar(str(s))
    assert rebuilt == s
    assert str(rebuilt) == str(s)


@given(small_polys(), st.integers(-5, 5).filter(lambda k: k not in (0, 1)))
@settings(deadline=None)
def test_polynomial_over_one_is_already_canonical(s, k):
    # k*p/k takes every step of canonicalization (gcd, content, sign) and
    # must land on p/1, which construction over 1 returns unchanged
    p = s.num
    direct = ParamScalar(p)
    assert direct.num == p and direct.den == Poly.const(1)
    full = ParamScalar(p.scale(k), Poly.const(k))
    assert (full.num, full.den) == (direct.num, direct.den)


@given(small_polys().filter(bool), small_polys().filter(bool),
       small_polys().filter(bool), st.integers(-6, 6).filter(bool),
       st.integers(-6, 6).filter(bool))
@settings(deadline=None)
def test_quotient_with_a_common_factor_is_canonical(p, q, g, k, m):
    # k*g*p / (m*g*q): the gcd takes out g and gcd(k, m) together, so the
    # contents left are coprime without a pass of their own
    num = (g.num * p.num).scale(k)
    den = (g.num * q.num).scale(m)
    s = ParamScalar(num, den)
    assert math.gcd(s.num.int_content(), s.den.int_content()) == 1
    assert poly_gcd(s.num, s.den) == Poly.const(1)
    assert s.den.leading()[1] > 0
    assert s.num * den == num * s.den


# -- the exact kernel against sympy and the brute-force order -------------

def random_poly(rng, names, max_terms=4, max_exp=3):
    """A nonzero polynomial with up to max_terms terms in the given
    (sorted) names and small integer coefficients."""
    total = Poly()
    while total.is_zero:
        for _ in range(rng.randint(1, max_terms)):
            mono = tuple((n, e) for n in names
                         if (e := rng.randint(0, max_exp)))
            total = total + Poly({mono: rng.choice([-6, -3, -2, -1, 1, 2, 4, 5])})
    return total


def random_names(rng):
    return sorted(rng.sample("abcd", rng.randint(1, 4)))


def to_sympy(sympy, poly):
    return sum((c * sympy.Mul(*(sympy.Symbol(n) ** e for n, e in mono))
                for mono, c in poly.terms.items()), sympy.Integer(0))


class TestKernelOracles:
    def test_gcd_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(5)
        for i in range(150):
            names = random_names(rng)
            common = random_poly(rng, names, max_terms=3, max_exp=2)
            if i % 3 == 0:
                # a monomial and integer factor as well, or no common factor
                common = common * random_poly(rng, names, max_terms=1)
            elif i % 3 == 1:
                common = Poly.const(1)
            f = random_poly(rng, names) * common
            g = random_poly(rng, random_names(rng)) * common
            if i % 25 == 0:
                f = Poly()
            got = poly_gcd(f, g)
            want = sympy.gcd(to_sympy(sympy, f), to_sympy(sympy, g))
            diff = sympy.expand(to_sympy(sympy, got) - want)
            total = sympy.expand(to_sympy(sympy, got) + want)
            assert diff == 0 or total == 0, (f, g, got, want)
            assert got.leading()[1] > 0

    def test_gcd_of_the_stalling_pair(self):
        # a primitive remainder sequence in a ran for minutes on this pair
        f = parse_scalar("36*a^3*d - 12*a*d^3 - 30*d^4").num
        g = parse_scalar("-24*a^3*b*c^3*d^3 + 36*a^2*b^2*c^3*d^2 "
                         "- 24*a^2*b*c^2*d^4 - 30*a^3*b^2*d^3 + 12*d").num
        start = time.perf_counter()
        assert str(poly_gcd(f, g)) == str(poly_gcd(g, f)) == "6*d"
        assert time.perf_counter() - start < 2.0

    @staticmethod
    def stress_pairs(seed, count):
        """Seeded gcd inputs in 1 to 4 indeterminates, each operand in its
        own indeterminates, with a shared factor three times in four."""
        rng = random.Random(seed)
        for i in range(count):
            common = random_poly(rng, random_names(rng), max_terms=2,
                                 max_exp=2)
            if i % 4 == 0:
                common = Poly.const(rng.choice([1, 6, -4]))
            yield (random_poly(rng, random_names(rng), max_exp=4) * common,
                   random_poly(rng, random_names(rng), max_exp=4) * common)

    def test_gcd_stress_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        start = time.perf_counter()
        for f, g in self.stress_pairs(11, 400):
            got = poly_gcd(f, g)
            want = sympy.gcd(to_sympy(sympy, f), to_sympy(sympy, g))
            assert sympy.expand(to_sympy(sympy, got) - want) == 0 or \
                sympy.expand(to_sympy(sympy, got) + want) == 0, (f, g, got)
            assert got.leading()[1] > 0
        # the primitive remainder sequence alone stalled on several of
        # these for more than 3 s each
        assert time.perf_counter() - start < 60

    @staticmethod
    def sequence_only(monkeypatch):
        """Make poly_gcd skip the heuristic gcd, so that every gcd it
        cannot answer at once runs the subresultant remainder sequence;
        returns the list that records each run."""
        from ybx import gcd
        calls = []
        sequence = gcd._gcd_subresultant
        monkeypatch.setattr(gcd, "_gcd_heuristic", lambda f, g, v: None)
        monkeypatch.setattr(gcd, "_gcd_subresultant",
                            lambda *args: calls.append(1) or sequence(*args))
        return calls

    def test_remainder_sequence_behind_the_heuristic(self, monkeypatch):
        # the heuristic gcd gives up after a few evaluation points; the
        # subresultant remainder sequence behind it answers the same on
        # every pair of two seeds
        pairs = [pair for seed in (11, 12)
                 for pair in self.stress_pairs(seed, 400)]
        want = [poly_gcd(f, g) for f, g in pairs]
        calls = self.sequence_only(monkeypatch)
        assert [poly_gcd(f, g) for f, g in pairs] == want
        assert calls

    def test_heuristic_gives_up_to_the_remainder_sequence(self, monkeypatch):
        # with no evaluation point to try, GCDHEU returns None at once and
        # every gcd it would have answered takes the subresultant sequence
        sympy = pytest.importorskip("sympy")
        from ybx import gcd
        calls = []
        sequence = gcd._gcd_subresultant
        monkeypatch.setattr(gcd, "_HEURISTIC_TRIES", 0)
        monkeypatch.setattr(gcd, "_gcd_subresultant",
                            lambda *args: calls.append(1) or sequence(*args))
        for f, g in self.stress_pairs(13, 60):
            got = poly_gcd(f, g)
            want = sympy.gcd(to_sympy(sympy, f), to_sympy(sympy, g))
            assert sympy.expand(to_sympy(sympy, got) - want) == 0 or \
                sympy.expand(to_sympy(sympy, got) + want) == 0, (f, g, got)
            assert got.leading()[1] > 0
        assert calls

    @pytest.mark.parametrize("seed, case", [(12, 73), (11, 16), (11, 146)])
    def test_remainder_sequence_does_not_stall(self, seed, case,
                                               monkeypatch):
        # a primitive remainder sequence ran past 20 s on each of these
        f, g = list(self.stress_pairs(seed, case + 1))[case]
        want = poly_gcd(f, g)
        calls = self.sequence_only(monkeypatch)
        start = time.perf_counter()
        assert poly_gcd(f, g) == want
        assert time.perf_counter() - start < 2.0
        assert calls

    def test_exact_division(self):
        rng = random.Random(6)
        for _ in range(150):
            names = random_names(rng)
            f = random_poly(rng, names)
            g = random_poly(rng, random_names(rng))
            assert (f * g).divexact(g) == f
            if g.names:
                # f*g + 1 leaves remainder 1 modulo a nonconstant g
                with pytest.raises(ArithmeticError):
                    (f * g + Poly.const(1)).divexact(g)
            if f.int_content() % 7:
                with pytest.raises(ArithmeticError):
                    (f * g).divexact(g.scale(7))

    def test_printed_order_is_graded_lex(self):
        rng = random.Random(7)
        for _ in range(150):
            p = random_poly(rng, random_names(rng), max_terms=8)
            printed = [next(iter(parse_scalar(piece).num.terms))
                       for piece in re.split(r" [+-] ", str(p))]
            assert printed == sorted(p.terms, key=cmp_to_key(mono_cmp),
                                     reverse=True)


class TestClearRow:
    """clear_row folds each distinct denominator into the lcm once,
    highest degree first, pays a gcd only for one that does not divide the
    lcm so far, forms each cofactor once, and agrees with the loop it
    replaced."""

    POOL = [ONE, const(2), const(-3), x + 2, x - y, (x + 2) ** 2,
            (x + 2) * (x - y), 3 * x * y + 1, 6 * x - 4]

    @staticmethod
    def rows():
        d, e = parse_scalar("x + 2"), parse_scalar("x - y")
        yield []
        yield [ZERO, ONE, const(3), x * y]
        yield [const(Fraction(1, 2)), const(Fraction(-5, 6)), ZERO]
        # repeated, nested (d, d^2, d*e) and unit denominators, in orders
        # where a later denominator divides the lcm folded so far or not
        yield [1 / d, x / d, ZERO, 3 / d, y]
        yield [1 / d ** 2, x / d, y / (d * e), ONE, 2 / e]
        yield [x / (d * e), 1 / d, 1 / e, 1 / d ** 2, 1 / (2 * d)]
        yield [1 / (2 * d * e), ZERO, x / (3 * e), x * y / (6 * d)]
        rng = random.Random(21)
        pool = [ONE, const(2), d, e, d * d, d * e, parse_scalar("3*x*y + 1")]
        for _ in range(60):
            yield [rng.choice([ZERO, ONE, x, y - 1])
                   / (rng.choice(pool) * rng.choice(pool))
                   for _ in range(rng.randint(1, 8))]

    def test_matches_the_reference_loop(self):
        for row in self.rows():
            scale, polys = clear_row(row)
            want_scale, want = clear_row_reference(row)
            assert scale == want_scale and polys == want, row
            assert all(ParamScalar(p, scale) == e for p, e in zip(polys, row))

    @staticmethod
    def gcd_calls(monkeypatch, row):
        """(the second operand of each top-level poly_gcd call that
        clear_row(row) makes, its scale)."""
        from ybx import scalars
        calls, depth = [], []
        gcd = scalars.poly_gcd

        def counted(f, g):
            # poly_gcd recurses through the module name
            if not depth:
                calls.append(g)
            depth.append(1)
            try:
                return gcd(f, g)
            finally:
                depth.pop()

        with monkeypatch.context() as patch:
            patch.setattr(scalars, "poly_gcd", counted)
            scale, _ = clear_row(row)
        return calls, scale

    def test_one_gcd_per_distinct_denominator(self, monkeypatch):
        # at most one gcd per distinct denominator, and none for one that
        # divides the lcm folded so far
        d, e = parse_scalar("x + 2"), parse_scalar("x - y")
        # d*e, of the highest degree, starts the lcm, and d and e each
        # divide it: no gcd at all
        row = [1 / d, x / d, 1 / e, y / d, ONE, 2 / e, x / (d * e)] * 3
        assert self.gcd_calls(monkeypatch, row) == ([], (d * e).num)
        # d starts it, e does not divide d and is folded in by one gcd, and
        # e, met again, is not folded again
        row = [1 / d, x / e, y / d, 2 / e, ONE] * 3
        assert self.gcd_calls(monkeypatch, row) == ([e.num], (d * e).num)
        # d^2 comes first whatever the row order, and d then divides it
        row = [1 / d, x / e, 1 / d ** 2] * 2
        assert self.gcd_calls(monkeypatch, row) == (
            [e.num], (d * d * e).num)

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_shuffled_rows_clear_as_the_reference(self, rng):
        # the lcm is unique (positive leading coefficient, content the lcm
        # of the contents), so no order of folding changes the scale or
        # the cleared polynomials
        row = [rng.choice([ONE, x, y - 1, 2 * x * y])
               / (rng.choice(self.POOL) * rng.choice(self.POOL))
               for _ in range(rng.randint(1, 8))]
        want_scale, want = clear_row_reference(row)
        for _ in range(3):
            order = rng.sample(range(len(row)), len(row))
            scale, polys = clear_row([row[i] for i in order])
            assert scale == want_scale, row
            assert polys == [want[i] for i in order], row


# ints of every size the constant path meets, bools among them, and
# Fractions over them
INTS = st.one_of(st.integers(-5, 5), st.integers(),
                 st.integers(2 ** 64, 2 ** 130).flatmap(
                     lambda n: st.sampled_from([n, -n])))
RATIONALS = st.one_of(INTS, st.builds(Fraction, INTS, INTS.filter(bool)))


class TestFractionFreeConstants:
    """The constant path builds its scalars without fractions: const and
    as_scalar of an int, the int lane's scalar and the rows of a born
    integer form give what a Fraction constructs, and the code that is
    given or returns a Fraction still takes and gives one."""

    @staticmethod
    def assert_is(s, value):
        """s has the num, den, str and hash of the rational value, built
        here through a Fraction and the canonicalising constructor."""
        f = Fraction(value)
        want = ParamScalar(Poly.const(f.numerator), Poly.const(f.denominator))
        assert (s.num, s.den) == (want.num, want.den)
        assert s.num.terms == ({(): f.numerator} if f else {})
        assert s.den.terms == {(): f.denominator}
        assert str(s) == str(f)
        assert hash(s) == hash(want)

    @given(RATIONALS)
    def test_const_and_as_scalar(self, value):
        self.assert_is(const(value), value)
        self.assert_is(as_scalar(value), value)

    @given(INTS, st.integers(1, 2 ** 70))
    def test_int_lane_and_born_rows(self, n, d):
        from ybx import kernel
        from ybx.tensor import Operator2
        *_, d_lane, scalar = kernel._int_lane([(d, [])], (0,))
        assert d_lane == d
        self.assert_is(scalar(n), Fraction(n, d))
        if n:
            op = Operator2._make(1, None, (d, [[(0, n)]]))
            self.assert_is(op.rows[0][0], Fraction(n, d))

    def test_equality_with_other_types(self):
        half = const(Fraction(1, 2))
        assert half == Fraction(1, 2) and Fraction(1, 2) == half
        assert half == "1/2" and half == parse_scalar("2/4")
        assert half != 0.5 and not half == 0.5
        assert half != Fraction(1, 3) and half != 1 and half != "x"
        assert const(2) == 2 and const(2) == Fraction(4, 2)
        assert not half == None

    def test_evaluate_takes_and_gives_fractions(self):
        value = (x / (x + 1)).evaluate({"x": Fraction(1, 2)})
        assert type(value) is Fraction and value == Fraction(1, 3)
        assert type(const(3).evaluate({})) is Fraction
        assert type(x.num.evaluate({"x": 2})) is Fraction
        with pytest.raises(InputError, match="int or a Fraction, not float"):
            x.evaluate({"x": 0.5})
        with pytest.raises(InputError, match="int or Fraction, not float"):
            const(0.5)


class TestKeptHash:
    """A Poly keeps its hash after the first call. Equal Polys, and equal
    ParamScalars, hash equal whatever the order their terms were inserted
    in and whichever is hashed first, so a dict keyed by one finds the
    other."""

    MONOS = st.dictionaries(st.sampled_from("abuv"), st.integers(1, 3),
                            max_size=3).map(lambda m: tuple(sorted(m.items())))
    TERMS = st.lists(st.tuples(MONOS, st.integers(-9, 9).filter(bool)),
                     unique_by=lambda t: t[0], max_size=6)

    @settings(max_examples=200, deadline=None)
    @given(TERMS, TERMS, st.randoms(use_true_random=False), st.booleans())
    def test_equal_values_hash_equal(self, num, den, rnd, reverse):
        # the second value's terms are inserted in a shuffled order
        orders = [(num, den), (rnd.sample(num, len(num)),
                               rnd.sample(den, len(den)))]
        for make in (lambda n, _: n, lambda n, _: ParamScalar(n),
                     ParamScalar):
            pair = [make(Poly(dict(n)), Poly(dict(d)) or Poly.const(1))
                    for n, d in orders]
            if reverse:
                pair.reverse()
            first, second = pair
            assert first == second
            assert hash(first) == hash(second) == hash(first)
            assert {first: 1}[second] == 1 and {second: 2}[first] == 2


@given(small_scalars())
def test_scalars_survive_pickle_and_copy(s):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(s, protocol))
        assert again == s and str(again) == str(s)
    assert copy.copy(s) == s and copy.deepcopy(s) == s


# every ybx error that keeps more than its message, with the attributes
# that its raisers give it
WITNESS_ERRORS = [
    GradingError((1, 2, 3)),
    AntisymmetryError((0, 4)),
    JacobiError((5, 6, 7)),
    AssociativityError((0, 1, 2), (ONE, x / 2), (ZERO, 1 - y)),
    UnitError(1, "e*unit", (ONE, x)),
    IncompleteAssignmentError({"b", "a"}),
    FreeIndeterminateError({"q", "p"}),
    InvertibilityLocusError("q*u - p*v"),
    SupportViolationError("f", (0, 2)),
    InvalidCenterError("z is not central: [z, e1] != 0", witness=1),
]


@pytest.mark.parametrize("err", WITNESS_ERRORS,
                         ids=lambda err: type(err).__name__)
def test_witness_errors_survive_pickle_and_copy(err):
    # an error is rebuilt from its args and attributes, not by calling
    # __init__ on its message
    copies = [pickle.loads(pickle.dumps(err, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    assert vars(err)
    for again in copies + [copy.copy(err), copy.deepcopy(err)]:
        assert type(again) is type(err)
        assert str(again) == str(err) and again.args == err.args
        assert vars(again) == vars(err)


def records():
    """One record of every FrozenRecord class, by name: operators with and
    without a born integer form, structures with their product table
    computed, and the records that checks and constructors return."""
    from ybx import fixture_path
    from ybx.algebra import load_algebra
    from ybx.constructors import (SplitSpace, colored_operator, dn_operator,
                                  wxz_system)
    from ybx.lie_super import load_superalgebra
    from ybx.tensor import Operator2, Operator3, embed, invert
    from ybx.verify import verify_constant
    A = load_algebra(fixture_path("cubic.json"))
    A.product_table()
    L = load_superalgebra(fixture_path("heisenberg-super.json"))
    L.product_table()
    R = colored_operator(A, p, q, u, v)
    return {
        "Operator2": Operator2.identity(2),
        "Operator2-born": dn_operator(A, 2, 3, 2),
        "Operator2-symbolic": R,
        "Operator3": embed(Operator2.identity(2), 13),
        "Operator3-identity": Operator3.identity(2),
        "Algebra": A,
        "LieSuperalgebra": L,
        "VerificationReport": verify_constant(dn_operator(A, 1, 0, 0)),
        "VerificationReport-pass": verify_constant(Operator2.identity(3)),
        "InverseResult": invert(R),
        "InverseResult-singular": invert(Operator2.zero(2)),
        "WxzTriple": wxz_system(A, p, q),
        "SplitSpace": SplitSpace(3, 1),
    }


RECORDS = records()


@pytest.mark.parametrize("name", RECORDS)
def test_records_survive_pickle_and_copy(name):
    # a record is rebuilt from its slots as they are, without __init__
    # or the __setattr__ it refuses
    record = RECORDS[name]
    copies = [pickle.loads(pickle.dumps(record, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for again in copies + [copy.copy(record), copy.deepcopy(record)]:
        assert type(again) is type(record)
        assert again == record and record == again
        if type(record).__hash__ is not None:
            assert hash(again) == hash(record)


def test_a_born_operator_keeps_its_form_and_builds_rows_lazily():
    from ybx import fixture_path
    from ybx.algebra import load_algebra
    from ybx.constructors import dn_operator
    R = dn_operator(load_algebra(fixture_path("cubic.json")), 2, 3, 2)
    copies = [pickle.loads(pickle.dumps(R, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(R), copy.deepcopy(R)]
    assert R._rows is None
    for again in copies:
        assert again._rows is None and again.int_form == R.int_form
        assert again.rows == R.rows


# a bool is an int to isinstance, but never a scalar
@pytest.mark.parametrize("convert", [as_scalar, const])
@pytest.mark.parametrize("value", [True, False])
def test_a_bool_is_no_scalar(convert, value):
    with pytest.raises(InputError):
        convert(value)


@pytest.mark.parametrize("other", [True, False, 1.0, 0.0])
@pytest.mark.parametrize("scalar", [ONE, ZERO], ids=["one", "zero"])
def test_a_bool_compares_as_a_float_does(scalar, other):
    assert (scalar == other) is False and (other == scalar) is False
    assert (scalar != other) is True and (other != scalar) is True
