"""The paper's families on M, the free algebra on a, b and c modulo the
words with a repeated letter (dim 16).

Each family's operator is built from the product and the unit alone, and
its defect on a (x) b (x) c is multilinear in a, b and c, so it lies in
the span of the words that use each letter once, which M keeps
independent. A zero defect on M therefore proves the identity on every
unital associative algebra, and a nonzero one is a failure on the free
algebra too."""

import pytest

import oracles
from ybx.algebra import make_algebra
from ybx.constructors import dn_operator, wxz_system
from ybx.scalars import ZERO, var
from ybx.verify import verify_colored_family, verify_constant, verify_wxz

alpha, beta, gamma = var("alpha"), var("beta"), var("gamma")


@pytest.fixture(scope="module")
def M():
    words, table, unit = oracles.multilinear_free_algebra()
    assert len(words) == 16 and words[:4] == ["", "a", "b", "c"]
    return make_algebra(16, table, unit)


def test_multilinear_free_algebra_validates(M):
    assert M.dim == 16


def test_dn_braid_with_free_parameters_fails(M):
    r = verify_constant(dn_operator(M, alpha, beta, gamma), "braid")
    assert r.status == "fail"
    # row and column 1 are 1 (x) 1 (x) a
    assert (r.witness["row"], r.witness["col"]) == (1, 1)
    assert r.witness["entry"] == str(alpha * (alpha - gamma) * (beta - gamma))


@pytest.mark.parametrize("case, params, qybe", [
    ("i", (alpha, beta, alpha), "fail"),
    ("ii", (alpha, beta, beta), "fail"),
    ("iii", (ZERO, ZERO, gamma), "pass"),
])
def test_dn_cases_solve_braid_universally(M, case, params, qybe):
    R = dn_operator(M, *params)
    assert verify_constant(R, "braid").status == "pass", case
    assert verify_constant(R, "qybe").status == qybe, case


def test_colored_family_holds_universally(M):
    r = verify_colored_family(M, var("p"), var("q"))
    assert (r.status, r.mode) == ("pass", "symbolic")


def test_wxz_system_holds_universally(M):
    r = verify_wxz(wxz_system(M, var("l"), var("m")))
    assert r.status == "pass"
    assert set(r.detail.values()) == {"zero"} and len(r.detail) == 4
