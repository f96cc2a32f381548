"""Tests for the verification drivers and their reports."""

import json
import random
from fractions import Fraction

import pytest

import oracles
from ybx.algebra import load_algebra, quadratic_quotient_algebra
from ybx.constructors import (
    WxzTriple,
    canonical_two_dim_solution,
    colored_operator,
    dn_inverse,
    dn_operator,
    wxz_system,
)
from ybx.scalars import ONE, ZERO, const, parse_scalar, var
from ybx.tensor import Operator2, Operator3, colored_defect, twist
from ybx.verify import (
    VerificationReport,
    verify_colored_family,
    verify_constant,
    verify_inverse_pair,
    verify_wxz,
)
from ybx import fixture_path


def numeric_quadratic():
    return quadratic_quotient_algebra(const(1), const(1))


class TestReportShape:
    def test_fail_requires_witness(self):
        with pytest.raises(ValueError):
            VerificationReport(identity="braid", mode="symbolic", status="fail")

    def test_json_excludes_elapsed(self):
        rep = verify_constant(twist(2), "braid")
        obj = rep.to_json_obj()
        assert "elapsed" not in obj
        assert obj["status"] == "pass"
        assert rep.elapsed >= 0.0

    def test_text_includes_elapsed(self):
        rep = verify_constant(twist(2), "braid")
        assert "elapsed:" in rep.to_text()
        assert "braid [symbolic]: PASS" in rep.to_text()

    def test_passed_property(self):
        rep = verify_constant(twist(2), "braid")
        assert rep.passed

    def test_equality_leaves_out_elapsed(self):
        R = dn_operator(numeric_quadratic(), 2, 3, 4)
        first, second = verify_constant(R), verify_constant(R)
        assert first == second and first.to_json_obj()["status"] == "fail"
        assert VerificationReport("braid", "symbolic", "pass", elapsed=1.0) \
            == VerificationReport("braid", "symbolic", "pass", elapsed=2.0)
        assert first != verify_constant(R, "qybe")

    def test_reports_are_unhashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(verify_constant(twist(2)))


class TestVerifyConstant:
    def test_twist_solves_both_identities(self):
        assert verify_constant(twist(3), "braid").passed
        assert verify_constant(twist(3), "qybe").passed

    def test_canonical_form_solves_qybe_symbolically(self):
        R = canonical_two_dim_solution(var("q"), 0)
        rep = verify_constant(R, "qybe")
        assert rep.passed
        assert rep.mode == "symbolic"

    def test_failure_witness_matches_dense_oracle(self):
        A = numeric_quadratic()
        R = dn_operator(A, const(1), const(2), const(3))
        rep = verify_constant(R, "braid")
        assert rep.status == "fail"
        w = rep.witness
        M = oracles.frac_matrix(R, {})
        D = oracles.braid_defect_matrix(M, 2)
        got = Fraction(parse_scalar(w["entry"]).evaluate({}))
        assert D[w["row"]][w["col"]] == got
        assert got != 0

    def test_bad_identity_name(self):
        with pytest.raises(ValueError):
            verify_constant(twist(2), "qybe3")


class TestVerifyColored:
    def test_symbolic_pass_on_sigma_algebra(self):
        A = load_algebra(fixture_path("sigma.json"))
        rep = verify_colored_family(A, var("p"), var("q"))
        assert rep.passed
        assert rep.mode == "symbolic"
        params = rep.detail["parameters"]
        assert len(params) == 3
        assert not (set(params) & {"p", "q", "sigma"})

    def test_fresh_parameters_dodge_taken_names(self):
        A = quadratic_quotient_algebra(var("u"), var("v"))
        rep = verify_colored_family(A, var("p"), var("q"))
        assert rep.passed
        assert not (set(rep.detail["parameters"]) & {"u", "v"})

    def test_symbolic_pass_specializes_to_points(self):
        # A symbolic pass must survive evaluation at any off-locus point.
        A = load_algebra(fixture_path("sigma.json"))
        p, q, u, v, w = (var(s) for s in "pquvw")
        D = colored_defect(
            colored_operator(A, p, q, u, v),
            colored_operator(A, p, q, u, w),
            colored_operator(A, p, q, v, w),
        ).dense()
        points = [
            {"p": 2, "q": 3, "u": 5, "v": 1, "w": -2, "sigma": 7},
            {"p": 1, "q": 1, "u": 0, "v": 4, "w": 9, "sigma": -1},
            {"p": -3, "q": 2, "u": 1, "v": 2, "w": 3, "sigma": 0},
        ]
        for pt in points:
            assert D.evaluate(pt).is_zero()

    def test_sampled_pass_bookkeeping(self):
        A = load_algebra(fixture_path("cubic.json"))
        rep = verify_colored_family(
            A, const(2), const(3), mode="sampled", samples=50, seed=0
        )
        assert rep.passed
        assert rep.detail["evaluated"] + rep.detail["skipped"] == 50
        assert rep.detail["evaluated"] > 0
        assert rep.detail["seed"] == 0

    def test_sampled_runs_are_deterministic(self):
        A = load_algebra(fixture_path("cubic.json"))
        a = verify_colored_family(A, const(2), const(3), mode="sampled",
                                  samples=30, seed=7)
        b = verify_colored_family(A, const(2), const(3), mode="sampled",
                                  samples=30, seed=7)
        assert json.dumps(a.to_json_obj(), sort_keys=True) == \
            json.dumps(b.to_json_obj(), sort_keys=True)

    def test_all_points_on_locus_fails(self):
        A = quadratic_quotient_algebra(const(0), const(0))
        rep = verify_colored_family(A, ZERO, ZERO, mode="sampled",
                                    samples=10, seed=1)
        assert rep.status == "fail"
        assert rep.witness == {
            "reason": "no sample point off the degenerate locus"
        }
        assert rep.detail["evaluated"] == 0

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            verify_colored_family(numeric_quadratic(), ONE, ONE, mode="exact")


class TestVerifyWxz:
    def test_symbolic_pass(self):
        A = quadratic_quotient_algebra(var("m"), var("n"))
        rep = verify_wxz(wxz_system(A, var("l"), var("u")))
        assert rep.passed
        assert all(rep.detail[c] == "zero" for c in rep.detail)
        assert set(rep.detail) == {"[W,W,W]", "[Z,Z,Z]", "[W,X,X]", "[X,X,Z]"}

    def test_twist_triple_passes(self):
        t = WxzTriple(W=twist(2), X=twist(2), Z=twist(2))
        assert verify_wxz(t).passed

    def test_corrupted_z_names_its_condition(self):
        A = numeric_quadratic()
        t = wxz_system(A, const(2), const(3))
        rows = [[ZERO] * 4 for _ in range(4)]
        rows[0][0] = const(2)
        rows[1][2] = ONE
        rows[2][1] = ONE
        rows[3][3] = ONE
        weird = Operator2(2, rows)
        rep = verify_wxz(WxzTriple(W=t.W, X=t.X, Z=weird))
        assert rep.status == "fail"
        assert rep.witness["condition"] == "[Z,Z,Z]"
        assert rep.detail["[W,W,W]"] == "zero"
        assert rep.detail["[Z,Z,Z]"] == "nonzero"


class TestVerifyInversePair:
    def test_constant_family_pair(self):
        A = quadratic_quotient_algebra(var("m"), var("n"))
        a, b = var("a"), var("b")
        R = dn_operator(A, a, b, a)
        rep = verify_inverse_pair(R, dn_inverse(A, a, b, a))
        assert rep.passed

    def test_non_inverse_fails_with_side(self):
        A = numeric_quadratic()
        R = dn_operator(A, const(1), const(2), const(1))
        rep = verify_inverse_pair(R, R)
        assert rep.status == "fail"
        assert rep.witness["side"] == "R o Rinv"
        assert "row" in rep.witness and "col" in rep.witness

    def test_dimension_mismatch_propagates(self):
        with pytest.raises(Exception):
            verify_inverse_pair(twist(2), twist(3))

    def test_three_leg_identity_pair(self):
        identity = Operator3.identity(2)
        assert verify_inverse_pair(identity, identity).passed

    @staticmethod
    def oracle_witness(A, B):
        """The first nonzero row-major entry of A B - I, in ParamScalars."""
        prod = oracles.matmul(oracles.symbolic_matrix(A),
                              oracles.symbolic_matrix(B))
        size = len(prod)
        diff = oracles.sub(prod, oracles.identity(size, ONE, ZERO))
        return next(({"row": i, "col": j, "entry": str(e)}
                     for i, row in enumerate(diff)
                     for j, e in enumerate(row) if not e.is_zero), None)

    @staticmethod
    def symbolic_pairs():
        from ybx.constructors import (colored_inverse, super_phi,
                                      super_phi_inverse)
        from ybx.lie_super import even_center, load_superalgebra
        A = quadratic_quotient_algebra(var("m"), var("n"))
        a, b, p, q, u, v = map(var, "abpquv")
        yield dn_operator(A, a, b, a), dn_inverse(A, a, b, a)
        yield (colored_operator(A, p, q, u, v),
               colored_inverse(A, p, q, u, v))
        L = load_superalgebra(fixture_path("gl11.json"))
        z = even_center(L)[0]
        yield super_phi(L, z, a), super_phi_inverse(L, z, a)

    def test_a_pass_runs_one_round_trip(self, monkeypatch):
        # over a field AB = I for square A and B gives BA = I, so the
        # second composition is implied and never computed
        from ybx import tensor
        calls = []
        roundtrip = tensor.roundtrip_defect
        monkeypatch.setattr(tensor, "roundtrip_defect",
                            lambda A, B: calls.append((A, B))
                            or roundtrip(A, B))
        for R, Rinv in self.symbolic_pairs():
            calls.clear()
            assert verify_inverse_pair(R, Rinv).passed
            assert calls == [(R, Rinv)]
            # Rinv o R, which the pass implies, is an identity too
            assert roundtrip(Rinv, R).is_zero()

    def test_witness_on_perturbed_inverses_matches_oracle(self):
        # only R o Rinv is computed, so every failing witness names it;
        # when it passes, Rinv o R is the identity too (AB = I implies
        # BA = I for square matrices over a field)
        rng = random.Random(12)
        perturbations = [ONE, var("t"), parse_scalar("1/(a + 2)"),
                         parse_scalar("-a/3")]
        failures = 0
        for R, Rinv in self.symbolic_pairs():
            assert verify_inverse_pair(R, Rinv).passed
            assert verify_inverse_pair(Rinv, R).passed
            for delta in perturbations:
                rows = [list(row) for row in Rinv.rows]
                i, j = rng.randrange(Rinv.size), rng.randrange(Rinv.size)
                rows[i][j] = rows[i][j] + delta
                B = Operator2(Rinv.dim, rows)
                for X, Y in ((R, B), (B, R)):
                    rep = verify_inverse_pair(X, Y)
                    want = self.oracle_witness(X, Y)
                    assert want is not None
                    assert rep.witness == dict(want, side="R o Rinv")
                    failures += 1
        assert failures == 24


def test_checks_build_no_three_leg_operator(monkeypatch, capsys):
    # the defects scan rows of V⊗V⊗V without filling an n^3 x n^3 matrix
    from ybx.cli import main
    from ybx.tensor import Operator3

    def refuse(*_):
        raise AssertionError("an Operator3 was built")

    monkeypatch.setattr(Operator3, "__init__", refuse)
    monkeypatch.setattr(Operator3, "from_columns", classmethod(refuse))
    A = load_algebra(fixture_path("quadratic.json"))
    a, b = var("a"), var("b")
    R = dn_operator(A, a, b, a)
    assert verify_constant(R, "braid").passed
    assert verify_constant(R @ twist(2), "qybe").passed
    for which in ("braid", "qybe"):
        assert not verify_constant(dn_operator(A, 1, 2, 3), which).passed
    B = load_algebra(fixture_path("cubic.json"))
    assert verify_colored_family(B, const(2), const(3)).passed
    assert verify_colored_family(B, const(2), const(3), mode="sampled",
                                 samples=3).passed
    assert verify_wxz(wxz_system(A, var("l"), var("m"))).passed
    assert main(["check", "split-center", "--dim", "4", "--samples", "2"]) == 0
    assert "PASS" in capsys.readouterr().out
