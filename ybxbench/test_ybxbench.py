"""Tests of the benchmark's own parts: generator, oracle and checking.

    python3 -m pytest -q ybxbench

They import ybx from src/ and assert nothing about speed.
"""

import json
import random
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import inputs  # noqa: E402
import jobs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import ybx  # noqa: E402
from ybx.algebra import AlgebraError  # noqa: E402
from ybx.lie_super import SuperalgebraError  # noqa: E402

SEEDS = (0, 1, 2)


def generated(seed):
    rng = random.Random(seed)
    out = [inputs.random_algebra(rng, dim, style)
           for style in inputs.ALGEBRA_STYLES for dim in range(2, 6)]
    out += [inputs.random_superalgebra(rng, dim, symbolic)
            for symbolic in (False, True) for dim in range(2, 6)]
    out += [s for name, s in sorted(jobs.named_algebras(rng).items())]
    return out


def build(s):
    make = ybx.make_algebra if s.kind == "algebra" else ybx.make_superalgebra
    return make(*s.ybx_args())


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_structures_validate(seed):
    for s in generated(seed):
        built = build(s)
        assert built.dim == s.dim
        assert oracle.structure_witness(s, jobs.Point(seed, s.name)) is None


@pytest.mark.parametrize("seed", SEEDS)
def test_corrupted_copies_fail_with_the_intended_witness(seed):
    rng = random.Random(seed)
    for s in generated(seed):
        point = jobs.Point(seed, s.name)
        bad, (kind, indices) = inputs.corrupt(
            rng, s, lambda b: oracle.structure_witness(b, point))
        error = AlgebraError if s.kind == "algebra" else SuperalgebraError
        with pytest.raises(error) as info:
            build(bad)
        assert type(info.value).__name__ == kind
        got = info.value.witness
        assert list(got if isinstance(got, tuple) else [got]) == indices


def fixture(name):
    with open(ybx.fixture_path(name), encoding="utf-8") as fh:
        obj = json.load(fh)
    return inputs.Structure.from_json_obj(obj)


@pytest.mark.parametrize("name", ["quadratic.json", "sigma.json", "cubic.json"])
def test_oracle_agrees_with_ybx_on_algebra_fixtures(name):
    s = fixture(name)
    A = ybx.load_algebra(ybx.fixture_path(name))
    point = jobs.Point(0, name)
    assert oracle.structure_witness(s, point) is None
    for params in ((2, 3, 2), (1, 2, 3), (0, 0, 5), ("a", "b", "a")):
        R = ybx.dn_operator(A, *jobs._ybx_params(ybx, params))
        M = jobs.own_dn(s, params, point)
        for which, defect in (("braid", oracle.braid_defect(M)),
                              ("qybe", oracle.yb_defect(M, M, M))):
            rep = ybx.verify_constant(R, which)
            assert oracle.check_verdict(defect, rep.status, rep.witness,
                                        point) is None
    rep = ybx.verify_colored_family(A, ybx.var("p"), ybx.var("q"))
    assert jobs.check_colored_report(s, "p", "q", jobs.report_summary(rep),
                                     0, name) is None
    params = ("p", "q", "u", 3)
    res = ybx.invert(ybx.colored_operator(A, *jobs._ybx_params(ybx, params)))
    summary = {"invertible": res.invertible, "det": str(res.determinant),
               "rows": jobs.rows_summary(res.operator)}
    assert jobs.check_inverse_summary(
        lambda pt: jobs.own_colored(s, params, pt), summary, 0, name) is None


@pytest.mark.parametrize("name", ["gl11.json", "heisenberg-super.json",
                                  "abelian-super.json"])
def test_oracle_agrees_with_ybx_on_superalgebra_fixtures(name):
    s = fixture(name)
    L = ybx.load_superalgebra(ybx.fixture_path(name))
    point = jobs.Point(0, name)
    assert oracle.structure_witness(s, point) is None
    table, _, degree = oracle.table_at(s, point)
    z = ybx.even_center(L)[0]
    zf = [oracle.evaluate(str(c), point) for c in z]
    alpha = ybx.var("alpha")
    phi = oracle.super_phi_matrix(table, degree, zf, point["alpha"])
    rep = ybx.verify_constant(ybx.super_phi(L, z, alpha))
    assert oracle.check_verdict(oracle.braid_defect(phi), rep.status,
                                rep.witness, point) is None
    inverse = jobs.rows_summary(ybx.super_phi_inverse(L, z, alpha))
    assert oracle.check_inverse(phi, inverse, None, point) is None


def test_evaluate_reads_ybx_canonical_strings():
    point = {"p": 2, "q": 3, "u": 5}
    for text in ("(p*u - q)/(q^2 + 1)", "-p*u + 3", "p**2/q", "-(p - q)^3"):
        assert oracle.evaluate(text, point) == ybx.parse_scalar(text).evaluate(point)


# -- a wrong answer is counted -------------------------------------------------

@pytest.fixture(scope="module")
def dense_jobs():
    return jobs.setup_dense_braid(0, run.WORK, ybx)


def checked(job_list, tamper=None):
    records = run.run_pass(job_list)
    if tamper is not None:
        records = [tamper(r) for r in records]
    return run.check_all(records)


def small(job_list, kinds):
    return [j for j in job_list if j.kind in kinds]


def test_honest_answers_pass(dense_jobs):
    assert checked(small(dense_jobs, {"braid-3", "braid-4", "split-3"})) == {}


def test_planted_wrong_verdict_is_a_failure(dense_jobs):
    job_list = small(dense_jobs, {"braid-3", "braid-4"})

    def flip(record):
        job, seconds, rep, error, rss = record
        wrong = ybx.VerificationReport(
            rep.identity, rep.mode, "fail" if rep.passed else "pass",
            None if not rep.passed else {"row": 0, "col": 0, "entry": "1"})
        return job, seconds, wrong, error, rss

    failures = checked(job_list, flip)
    assert len(failures) == len(job_list)


def test_planted_wrong_witness_is_a_failure(dense_jobs):
    failing = [j for j in small(dense_jobs, {"braid-3", "braid-4"})
               if j.key.endswith("none")]
    assert failing

    def shift(record):
        job, seconds, rep, error, rss = record
        witness = dict(rep.witness, entry=rep.witness["entry"] + " + 1")
        return job, seconds, ybx.VerificationReport(
            rep.identity, rep.mode, rep.status, witness), error, rss

    assert len(checked(failing, shift)) == len(failing)

    def later(record):
        job, seconds, rep, error, rss = record
        witness = dict(rep.witness, col=rep.witness["col"] + 1)
        return job, seconds, ybx.VerificationReport(
            rep.identity, rep.mode, rep.status, witness), error, rss

    assert len(checked(failing, later)) == len(failing)


def test_planted_wrong_inverse_and_determinant_are_failures():
    elim = jobs.setup_symbolic_elim(0, run.WORK, ybx)
    inverts = [j for j in elim if j.kind == "invert-colored-2"]
    dets = [j for j in elim if j.kind == "det-colored-2"]
    assert inverts and dets
    assert checked(inverts + dets) == {}

    def perturb(record):
        job, seconds, raw, error, rss = record
        if isinstance(raw, ybx.InverseResult):
            rows = [list(r) for r in raw.operator.rows]
            rows[0][0] = rows[0][0] + 1
            raw = ybx.InverseResult(True, ybx.Operator2(raw.operator.dim, rows),
                                    raw.determinant)
        else:
            raw = raw * 2
        return job, seconds, raw, error, rss

    assert len(checked(inverts + dets, perturb)) == len(inverts + dets)


def test_a_pass_must_repeat_its_output(dense_jobs):
    job = small(dense_jobs, {"braid-3"})[0]
    first, second = run.run_pass([job, job])
    rep = second[2]
    wrong = ybx.VerificationReport(rep.identity, rep.mode, rep.status,
                                   rep.witness, detail={"extra": 1})
    failures = run.check_all([first, (job, 0.0, wrong, None, 0)])
    assert list(failures) == [1]


def test_cli_contract_failures():
    check = jobs._cli_check((2,), None, ["check", "constant"])
    assert check({"status": 2, "stdout": "", "stderr": "error: bad\n"}) is None
    assert "traceback" in check({"status": 1, "stdout": "",
                                 "stderr": "Traceback (most recent call last):\n"
                                           "ValueError: x\n"})
    assert "exit 0" in check({"status": 0, "stdout": "", "stderr": ""})
    js = jobs._cli_check((0,), lambda body, status: None,
                         ["validate", "algebra", "--format", "json"])
    assert "not JSON" in js({"status": 0, "stdout": "{", "stderr": ""})


def test_known_defects_are_listed_cli_jobs():
    files, witnesses = jobs.cli_files(0)
    cli = jobs.cli_jobs(files, witnesses, jobs.ROOT / "ybxbench" / ".work",
                        random.Random(0), 0)
    malformed = {j.key for j in cli if j.kind == "malformed"}
    assert set(jobs.KNOWN_DEFECTS) < malformed


def test_tail_percentile_leaves_ten_beyond():
    for n in (30, 78, 105, 135, 400):
        pct = run.tail_percentile(n)
        assert n * (100 - pct) / 100 >= 10
        higher = [p for p in run.TAIL_LADDER if p > pct]
        assert not higher or n * (100 - higher[0]) / 100 < 10


def test_traced_counts_repeat_exactly(dense_jobs):
    """Runs last: the wrappers stay installed (inactive) afterwards."""
    import tracer
    job_list = small(dense_jobs, {"braid-3", "split-3", "braid-4"})
    plain = [job.summarize(job.run()) for job in job_list]
    rec = tracer.Recorder()
    tracer.install(rec)
    try:
        first = run.run_pass(job_list, rec)
        boundary = len(rec.columns["start"])
        second = run.run_pass(job_list, rec)
    finally:
        rec.active = False
    assert [r[0].summarize(r[2]) for r in first] == plain
    assert run.check_all(first + second) == {}
    cols = rec.columns

    def counts(lo, hi):
        out = {}
        for i in range(lo, hi):
            key = (cols["job"][i], rec.names[cols["name"][i]])
            out[key] = out.get(key, 0) + 1
        return out

    once = counts(0, boundary)
    assert once == counts(boundary, len(cols["start"]))
    assert all((index, "tensor.matmul") in once for index in range(len(job_list)))
    metrics = tracer.layer_metrics([rec])
    assert metrics["scalars.gcd.calls"] == 0
    assert metrics["tensor.matmul.calls"] > 0
