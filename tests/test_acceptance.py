"""The acceptance gate: twelve timed criteria, each printing one line.

Every check is exact; there are no tolerances anywhere. The per-criterion
time limits are generous and assert that the exact arithmetic stays
practical, not just correct.
"""

import json
import random
import sys
import time
from fractions import Fraction

import pytest

import oracles
from pathlib import Path
from reference_tables import (
    CANONICAL_REDUCED,
    COLORED_SIGMA,
    DISCREPANT_ROW,
    DN_CASE_I_ACTION,
    action_rows,
    parse_table,
    printed_row_mismatches,
)
from ybx.algebra import (
    AssociativityError,
    UnitError,
    load_algebra,
    make_algebra,
    quadratic_quotient_algebra,
)
from ybx.constructors import (
    SplitSpace,
    SupportViolationError,
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
from ybx.lie_super import (
    AntisymmetryError,
    GradingError,
    JacobiError,
    even_center,
    load_superalgebra,
    make_superalgebra,
)
from ybx.scalars import ONE, ZERO, as_scalar, const, var
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


_capman = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    # capture is fd-level by default; announce() must route around it
    global _capman
    _capman = request.config.pluginmanager.getplugin("capturemanager")
    yield


def announce(line):
    # emit one line per criterion to the run log even on pass
    if _capman is not None:
        with _capman.global_and_fixture_disabled():
            sys.stdout.write(line + "\n")
            sys.stdout.flush()
    else:
        stream = sys.__stdout__ or sys.stdout
        stream.write(line + "\n")
        stream.flush()


def run_criterion(num, limit, body):
    t0 = time.perf_counter()
    status = "FAIL"
    try:
        body()
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - t0
        announce(f"CRITERION {num:2d}: {status} ({elapsed:.2f}s, limit {limit}s)")
    assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s"


def symbolic_quadratic():
    return quadratic_quotient_algebra(var("m"), var("n"))


def test_criterion_1_constant_family_solves_braid():
    def body():
        A = symbolic_quadratic()
        a, b = var("a"), var("b")
        for R in (
            dn_operator(A, a, b, a),
            dn_operator(A, a, b, b),
            dn_operator(A, ZERO, ZERO, a),
        ):
            assert braid_defect(R).is_zero()

    run_criterion(1, 10, body)


def test_criterion_2_converse_on_grid():
    def body():
        A = quadratic_quotient_algebra(const(1), const(1))
        in_case = 0
        for a in range(4):
            for b in range(4):
                for g in range(4):
                    R = dn_operator(A, const(a), const(b), const(g))
                    case = classify_dn(const(a), const(b), const(g))
                    good = braid_defect(R).is_zero() and invert(R).invertible
                    assert good == (case != "none"), (a, b, g)
                    in_case += case != "none"
        assert in_case == 18

    run_criterion(2, 30, body)


def test_criterion_3_inverse_round_trips():
    def body():
        A = symbolic_quadratic()
        a, b = var("a"), var("b")
        for args in ((a, b, a), (a, b, b), (ZERO, ZERO, a)):
            R = dn_operator(A, *args)
            Rinv = dn_inverse(A, *args)
            assert (R @ Rinv).is_identity()
            assert (Rinv @ R).is_identity()
        p, q, u, v = var("p"), var("q"), var("u"), var("v")
        C = colored_operator(A, p, q, u, v)
        Cinv = colored_inverse(A, p, q, u, v)
        assert (C @ Cinv).is_identity()
        assert (Cinv @ C).is_identity()
        al = var("al")
        for name in ("gl11.json", "abelian-super.json",
                     "heisenberg-super.json"):
            L = load_superalgebra(fixture_path(name))
            z = even_center(L)[0]
            phi = super_phi(L, z, al)
            phi_inv = super_phi_inverse(L, z, al)
            assert (phi @ phi_inv).is_identity()
            assert (phi_inv @ phi).is_identity()

    run_criterion(3, 10, body)


def test_criterion_4_colored_matrix_golden():
    def body():
        A = load_algebra(fixture_path("sigma.json"))
        R = colored_operator(A, var("p"), var("q"), var("u"), var("v"))
        want = parse_table(COLORED_SIGMA)
        for r in range(4):
            for c in range(4):
                assert R.rows[r][c] == want[r][c], (r, c)

    run_criterion(4, 1, body)


def test_criterion_5_constant_matrix_discrepancy():
    def body():
        A = symbolic_quadratic()
        R = dn_operator(A, var("a"), var("b"), var("a"))
        derived = action_rows(R)
        want = parse_table(DN_CASE_I_ACTION)
        for r in range(4):
            assert derived[r] == want[r], r
        mismatches = printed_row_mismatches(R)
        assert set(mismatches) == {DISCREPANT_ROW}

    run_criterion(5, 1, body)


def test_criterion_6_reduced_matrix_solves_qybe():
    def body():
        for eta in (0, 1):
            R = canonical_two_dim_solution(var("q"), eta)
            assert qybe_defect(R).is_zero()
            want = parse_table(CANONICAL_REDUCED[eta])
            for r in range(4):
                for c in range(4):
                    assert R.rows[r][c] == want[r][c]

    run_criterion(6, 1, body)


def test_criterion_7_colored_family():
    def body():
        A = load_algebra(fixture_path("sigma.json"))
        p, q = var("p"), var("q")
        u, v, w = var("u"), var("v"), var("w")
        D = colored_defect(
            colored_operator(A, p, q, u, v),
            colored_operator(A, p, q, u, w),
            colored_operator(A, p, q, v, w),
        )
        assert D.is_zero()
        B = load_algebra(fixture_path("cubic.json"))
        rep = verify_colored_family(B, const(2), const(3), mode="sampled",
                                    samples=50, seed=0)
        assert rep.passed
        assert rep.detail["evaluated"] > 0
        assert rep.detail["evaluated"] + rep.detail["skipped"] == 50

    run_criterion(7, 60, body)


def test_criterion_8_wxz_system():
    def body():
        A = symbolic_quadratic()
        t = wxz_system(A, var("l"), var("u"))
        rep = verify_wxz(t)
        assert rep.passed
        assert all(v == "zero" for v in rep.detail.values())
        assert len(rep.detail) == 4

    run_criterion(8, 30, body)


def test_criterion_9_split_center_suite():
    def body():
        rng = random.Random(2024)
        space = SplitSpace(3, 2)
        size = 9

        def random_component():
            rows = [[ZERO] * size for _ in range(size)]
            for i in space.W_indices:
                for j in space.W_indices:
                    col = i * 3 + j
                    for r in range(size):
                        rows[r][col] = const(rng.randint(-3, 3))
            return Operator2(3, rows)

        for _ in range(100):
            R = split_center_operator(space, random_component(),
                                      random_component())
            assert qybe_defect(R).is_zero()

        rejected = 0
        for _ in range(20):
            rows = [[ZERO] * size for _ in range(size)]
            i = rng.choice([0, 1, 2])
            j = 2 if i != 2 else rng.choice([0, 1])
            if rng.random() < 0.5:
                i, j = j, i
            rows[rng.randrange(size)][i * 3 + j] = const(rng.randint(1, 3))
            bad = Operator2(3, rows)
            which = rng.choice(["f", "g"])
            try:
                if which == "f":
                    split_center_operator(space, bad, Operator2.zero(3))
                else:
                    split_center_operator(space, Operator2.zero(3), bad)
            except SupportViolationError as exc:
                assert exc.which == which
                rejected += 1
        assert rejected == 20

    run_criterion(9, 60, body)


def test_criterion_10_superalgebra_family():
    def body():
        gl = load_superalgebra(fixture_path("gl11.json"))
        z = even_center(gl)[0]
        assert z == (ONE, ONE, ZERO, ZERO)
        al = var("al")
        phi = super_phi(gl, z, al)
        assert braid_defect(phi).is_zero()
        assert (phi @ super_phi_inverse(gl, z, al)).is_identity()
        ab = load_superalgebra(fixture_path("abelian-super.json"))
        za = even_center(ab)[0]
        psi = super_phi(ab, za, al)
        assert braid_defect(psi).is_zero()
        assert (psi @ super_phi_inverse(ab, za, al)).is_identity()

    run_criterion(10, 60, body)


def test_criterion_11_equivalence_suite():
    def body():
        def agree(R):
            lhs = braid_defect(R).is_zero()
            mid = qybe_defect(R @ twist(R.dim)).is_zero()
            rhs = qybe_defect(twist(R.dim) @ R).is_zero()
            assert lhs == mid == rhs, (lhs, mid, rhs)
            return lhs

        rng = random.Random(5)
        for _ in range(20):
            rows = [[const(rng.randint(-2, 2)) for _ in range(4)]
                    for _ in range(4)]
            agree(Operator2(2, rows))

        A = symbolic_quadratic()
        a, b = var("a"), var("b")
        braid_solutions = [
            dn_operator(A, a, b, a),
            dn_operator(A, a, b, b),
            dn_operator(A, ZERO, ZERO, a),
        ]
        gl = load_superalgebra(fixture_path("gl11.json"))
        braid_solutions.append(super_phi(gl, even_center(gl)[0], var("al")))
        for R in braid_solutions:
            assert agree(R)
        # solutions of the other constant form: the equivalence must still
        # hold, with all three sides landing on the twisted partner
        t = wxz_system(A, var("l"), var("u"))
        qybe_solutions = [
            canonical_two_dim_solution(var("q"), 0),
            canonical_two_dim_solution(var("q"), 1),
            t.W, t.X, t.Z,
        ]
        for R in qybe_solutions:
            agree(R)
            assert qybe_defect(R).is_zero()
            assert agree(R @ twist(R.dim))

    run_criterion(11, 30, body)


def test_criterion_12_validator_negatives():
    def body():
        # associativity, against an independent triple loop
        obj = json.loads(Path(fixture_path("cubic.json")).read_text())
        c = [[[as_scalar(e) for e in row] for row in plane]
             for plane in obj["structure"]]
        c[1][2][0] = ONE
        first = None
        dim = 3
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    lhs = [ZERO] * dim
                    rhs = [ZERO] * dim
                    for l in range(dim):
                        for m in range(dim):
                            lhs[m] = lhs[m] + c[i][j][l] * c[l][k][m]
                            rhs[m] = rhs[m] + c[j][k][l] * c[i][l][m]
                    if lhs != rhs and first is None:
                        first = (i, j, k)
        assert first is not None
        with pytest.raises(AssociativityError) as err:
            make_algebra(3, c, [ONE, ZERO, ZERO])
        assert err.value.witness == first

        # unit law
        base = quadratic_quotient_algebra(var("m"), var("n"))
        cu = [[list(row) for row in plane] for plane in base.structure]
        cu[0][1] = [ONE, ONE]
        with pytest.raises(UnitError) as err:
            make_algebra(2, cu, base.unit)
        assert err.value.witness == 1

        # graded antisymmetry
        gl = json.loads(Path(fixture_path("gl11.json")).read_text())
        b = [[[as_scalar(e) for e in row] for row in plane]
             for plane in gl["structure"]]
        b[2][3][0] = const(2)
        with pytest.raises(AntisymmetryError) as err:
            make_superalgebra(4, gl["degree"], b)
        assert err.value.witness == (2, 3)

        # graded Jacobi, on a corruption that keeps antisymmetry
        b2 = [[[as_scalar(e) for e in row] for row in plane]
              for plane in gl["structure"]]
        b2[2][3] = [ONE, const(2), ZERO, ZERO]
        b2[3][2] = [ONE, const(2), ZERO, ZERO]
        with pytest.raises(JacobiError) as err:
            make_superalgebra(4, gl["degree"], b2)
        assert err.value.witness == (2, 2, 3)

        # grading
        z3 = [[[ZERO] * 3 for _ in range(3)] for _ in range(3)]
        z3[0][0][2] = ONE
        with pytest.raises(GradingError) as err:
            make_superalgebra(3, [0, 0, 1], z3)
        assert err.value.witness == (0, 0, 2)

    run_criterion(12, 10, body)
