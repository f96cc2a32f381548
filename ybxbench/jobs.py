"""The three workloads: their seeded set-up and their fixed job lists.

A Job runs one unit of work against ybx (run), turns the raw answer into
plain data outside the timed region (summarize) and checks that data with
the independent oracle (check). The job list of a workload is the same
for every pass of a run; the seed chooses the inputs, never the mix, so
runs with different seeds do the same amount of work of the same kinds.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
from fractions import Fraction
from pathlib import Path

import inputs
import oracle
from inputs import pvar, quotient_algebra

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Names that may appear in any job's scalars; a point gives each a value.
POINT_NAMES = ("t", "s", "m", "n", "sigma", "p", "q", "u", "v", "w", "a",
               "b", "g", "alpha", "beta", "gamma", "lambda", "mu")


class Job:
    """One unit of work: run() in process, or the ybx.cli arguments argv
    for a job that is a process of its own."""

    def __init__(self, key, kind, run, check, summarize=None, argv=None):
        self.key = key
        self.kind = kind
        self.run = run
        self.check = check
        self.summarize = summarize or (lambda raw: raw)
        self.argv = argv


class Point(dict):
    """A seeded rational point that also values names it first sees late."""

    def __init__(self, seed, key):
        super().__init__(inputs.random_point(random.Random(f"{seed}:{key}"),
                                             POINT_NAMES))
        self.tag = f"{seed}:{key}"

    def __missing__(self, name):
        value = inputs.random_point(random.Random(f"{self.tag}:{name}"),
                                    [name])[name]
        self[name] = value
        return value


def fval(x, point) -> Fraction:
    """A job parameter (int or indeterminate name) at a point."""
    return Fraction(x) if isinstance(x, int) else point[x]


def report_summary(rep) -> dict:
    return {"status": rep.status, "witness": rep.witness, "detail": rep.detail}


def rows_summary(op):
    return [[str(e) for e in row] for row in op.rows]


# ---------------------------------------------------------------------------
# own operators for the checks
# ---------------------------------------------------------------------------

def own_dn(s, params, point):
    table, unit, _ = oracle.table_at(s, point)
    return oracle.dn_matrix(table, unit, *(fval(x, point) for x in params))


def own_colored(s, params, point):
    table, unit, _ = oracle.table_at(s, point)
    return oracle.colored_matrix(table, unit, *(fval(x, point) for x in params))


def own_super(s, alpha, point, inverse=False):
    table, _, degree = oracle.table_at(s, point)
    z = [Fraction(int(d == 0)) for d in degree]
    return oracle.super_phi_matrix(table, degree, z, fval(alpha, point),
                                   inverse=inverse)


def check_report(defect_fn, summary, point):
    """Compare a verify report with a defect computed by the oracle."""
    return oracle.check_verdict(defect_fn(), summary["status"],
                                summary.get("witness"), point)


def check_colored_report(s, p, q, summary, seed, key):
    """A colored report: symbolic, or sampled at ybx's integer triples.

    A PASS is checked at a seeded point (symbolic) or at a seeded integer
    triple off the degenerate locus (sampled); a FAIL at the point its
    witness names."""
    point = Point(seed, key)
    detail = summary.get("detail") or {}
    witness = summary.get("witness") or {}
    if "parameters" in detail:
        names = detail["parameters"]
    else:
        names = ["u", "v", "w"]
        if detail.get("evaluated", 0) < 1:
            # zero evaluated points must be reported as a failure
            ok = summary["status"] == "fail" and "reason" in witness
            return None if ok else "no point evaluated but not a failure"
        rng = random.Random(f"{seed}:{key}:uvw")
        pt = witness.get("point")
        while pt is None:
            cand = dict(zip(names, (rng.randint(-9, 9) for _ in range(3))))
            pv, qv = fval(p, point), fval(q, point)
            pairs = ((cand["u"], cand["v"]), (cand["u"], cand["w"]),
                     (cand["v"], cand["w"]))
            if all(pv * a != qv * b and qv * a != pv * b for a, b in pairs):
                pt = cand
        for name, value in pt.items():
            point[name] = Fraction(value)
    u, v, w = names

    def defect():
        return oracle.yb_defect(own_colored(s, (p, q, u, v), point),
                                own_colored(s, (p, q, u, w), point),
                                own_colored(s, (p, q, v, w), point))
    return check_report(defect, summary, point)


def check_inverse_summary(matrix_fn, summary, seed, key, want_det=True):
    """R * R^-1 = I and the determinant, at a point where both exist."""
    if not summary["invertible"]:
        return "reported singular"
    for attempt in range(5):
        point = Point(seed, f"{key}:{attempt}")
        M = matrix_fn(point)
        if oracle.det(M) == 0:
            continue
        try:
            return oracle.check_inverse(
                M, summary["rows"], summary["det"] if want_det else None, point)
        except ZeroDivisionError:
            continue
    return "no point away from the poles"


# ---------------------------------------------------------------------------
# dense_braid: integer scalars, tensor-bound
# ---------------------------------------------------------------------------

CASES = ("i", "ii", "iii", "none")


def dn_params(rng, case):
    """Integer (alpha, beta, gamma) in the given case, with alpha != -beta:
    that equality cancels entries of R and makes the job lighter."""
    g = rng.choice((-3, -2, -1, 1, 2, 3))
    others = [x for x in (-3, -2, -1, 1, 2, 3) if x not in (g, -g)]
    o = rng.choice(others)
    if case == "i":
        return (g, o, g)
    if case == "ii":
        return (o, g, g)
    if case == "iii":
        return (0, 0, g)
    # three distinct nonzero values lie in no invertible case
    return (o, rng.choice([x for x in others if x not in (o, -o)]), g)


def colored_pq(rng):
    """Integer (p, q) of a sampled colored check, with p != +-q: there the
    degenerate locus holds every triple with two opposite values."""
    p = rng.choice((-3, -2, 2, 3, 5))
    return p, rng.choice([x for x in (-3, -2, 2, 3, 5) if x not in (p, -p)])


def off_locus_seed(rng, p, q):
    """A sample seed whose first (u, v, w) triple, drawn as the colored
    report documents (random.Random(seed).randint(-9, 9) three times), lies
    off the degenerate locus, so a one-sample check evaluates one point.
    The three values are distinct: R(u, u) is a multiple of the flip, far
    lighter than the other operators."""
    while True:
        seed = rng.randrange(10_000)
        draw = random.Random(seed)
        u, v, w = (draw.randint(-9, 9) for _ in range(3))
        if len({u, v, w}) == 3 and all(p * a != q * b and q * a != p * b
                                       for a, b in ((u, v), (u, w), (v, w))):
            return seed


# (kind, dim, algebra style, dn cases or number of copies) per pass. The
# rows fall into time levels (about 1.3 s, 0.5 s, 0.15 s and under 0.07 s
# on a 2-vCPU x86-64 VM) sized so that the median and the tail percentile
# land inside a level, not on the step between two.
DENSE_BRAID_MIX = [
    ("braid", 6, "dense", ("i", "none")),
    ("braid", 5, "dense", ("i", "none")),
    ("qybe", 5, "dense", ("ii", "none")),
    ("colored", 5, "dense", 2),
    ("braid", 5, "dense", ("iii",)),
    ("qybe", 5, "dense", ("iii",)),
    ("braid", 5, "nilpotent", ("i", "none")),
    ("braid", 4, "dense", ("i", "ii", "none")),
    ("qybe", 4, "dense", ("i", "ii", "none")),
    ("braid", 4, "dense", ("iii",)),
    ("qybe", 4, "dense", ("iii",)),
    ("colored", 4, "dense", 1),
    ("split", 4, None, 2),
    ("braid", 3, "dense", ("i", "none")),
    ("split", 3, None, 1),
]


def setup_dense_braid(seed, workdir, ybx):
    rng = random.Random(f"dense_braid:{seed}")
    algebras = {}
    for kind, dim, style, _ in DENSE_BRAID_MIX:
        if style is not None and (dim, style) not in algebras:
            s = inputs.random_algebra(rng, dim, style)
            algebras[(dim, style)] = (s, ybx.make_algebra(*s.ybx_args()))
    jobs = []
    for kind, dim, style, spec in DENSE_BRAID_MIX:
        for c, case in enumerate(range(spec) if isinstance(spec, int) else spec):
            key = f"{kind}-{dim}-{style}-{case}"
            if kind in ("braid", "qybe"):
                jobs.append(_dn_check_job(ybx, key, kind, algebras[(dim, style)],
                                          dn_params(rng, case), seed))
            elif kind == "colored":
                p, q = colored_pq(rng)
                jobs.append(_colored_job(ybx, key, algebras[(dim, style)], p, q,
                                         seed, off_locus_seed(rng, p, q)))
            else:
                jobs.append(_split_job(ybx, key, rng, dim, seed))
    return jobs


def _dn_check_job(ybx, key, which, algebra, params, seed):
    s, A = algebra
    point = Point(seed, key)

    def check(summary):
        M = own_dn(s, params, point)
        fn = ((lambda: oracle.braid_defect(M)) if which == "braid"
              else (lambda: oracle.yb_defect(M, M, M)))
        return check_report(fn, summary, point)

    return Job(key, f"{which}-{s.dim}",
               lambda: ybx.verify_constant(ybx.dn_operator(A, *params), which),
               check, report_summary)


def _colored_job(ybx, key, algebra, p, q, seed, sample_seed=None):
    s, A = algebra
    yp, yq = (ybx.var(x) if isinstance(x, str) else x for x in (p, q))
    if sample_seed is None:
        run = lambda: ybx.verify_colored_family(A, yp, yq)  # noqa: E731
    else:
        run = lambda: ybx.verify_colored_family(  # noqa: E731
            A, yp, yq, mode="sampled", samples=1, seed=sample_seed)
    return Job(key, f"colored-{s.dim}", run,
               lambda summary: check_colored_report(s, p, q, summary, seed, key),
               report_summary)


def _split_job(ybx, key, rng, dim, seed):
    c = dim - 1
    size = dim * dim
    fg = []
    for _ in range(2):
        rows = [[0] * size for _ in range(size)]
        for i in range(c):
            for j in range(c):
                for r in range(size):
                    rows[r][i * dim + j] = rng.randint(-3, 3)
        fg.append(rows)
    space = ybx.SplitSpace(dim, c)
    f, g = (ybx.Operator2(dim, rows) for rows in fg)
    point = Point(seed, key)

    def run():
        return ybx.verify_constant(ybx.split_center_operator(space, f, g), "qybe")

    def check(summary):
        M = oracle.split_center_matrix(
            dim, c, *([[Fraction(x) for x in row] for row in m] for m in fg))
        return check_report(lambda: oracle.yb_defect(M, M, M), summary, point)

    return Job(key, f"split-{dim}", run, check, report_summary)


# ---------------------------------------------------------------------------
# symbolic_elim: rational-function scalars, scalar-bound
# ---------------------------------------------------------------------------

def named_algebras(rng):
    """The dim-2 and dim-3 algebras of the workload, as generated tables:
    k[X]/(X^2 - mX - n), k[X]/(X^2 - sigma), k[X]/(X^3) and a dense
    seeded cubic."""
    return {
        "quadratic": quotient_algebra([pvar("n"), pvar("m")], "quadratic"),
        "sigma": quotient_algebra([pvar("sigma"), {}], "sigma"),
        "cubic": quotient_algebra([{}, {}, {}], "cubic"),
        "dense3": inputs.random_algebra(rng, 3, "dense"),
    }


def pick_symbolic(rng, names, fixed):
    """names with the entries at the positions in fixed replaced by seeded
    nonzero integers."""
    return tuple(rng.choice((-3, -2, 2, 3, 5)) if i in fixed else name
                 for i, name in enumerate(names))


# (copies per pass, kind, algebras cycled over, how many parameters are
# fixed to integers); within a row the seed permutes which parameters are
# fixed, and a row with as many copies as parameters fixes each position
# once per pass. Dim-3 inversions are the heavy level, dim-3 determinants
# and round trips the middle one, dim-2 work the light one.
SYMBOLIC_ELIM_MIX = [
    (1, "invert-colored", ("dense3",), 1),
    (2, "det-colored", ("cubic", "dense3"), 1),
    (3, "invert-dn", ("dense3",), 1),
    (3, "det-dn", ("cubic",), 1),
    (4, "roundtrip-colored", ("cubic",), 1),
    (2, "roundtrip-colored", ("dense3",), 1),
    (4, "invert-colored", ("quadratic", "sigma"), 2),
    (2, "det-colored", ("quadratic", "sigma"), 1),
    (6, "roundtrip-colored", ("sigma",), 1),
    (3, "roundtrip-dn", ("quadratic", "cubic", "dense3"), None),
    (2, "roundtrip-super", (3, 4), None),
    (4, "colored-symbolic", ("quadratic", "sigma", "cubic", "dense3"), None),
]


def setup_symbolic_elim(seed, workdir, ybx):
    rng = random.Random(f"symbolic_elim:{seed}")
    gen = named_algebras(rng)
    algebras = {name: (s, ybx.make_algebra(*s.ybx_args()))
                for name, s in gen.items()}
    supers = {}
    for dim in (3, 4):
        s = inputs.random_superalgebra(rng, dim, symbolic=False)
        supers[dim] = (s, ybx.make_superalgebra(*s.ybx_args()))
    jobs = []
    for copies, kind, pool, nfixed in SYMBOLIC_ELIM_MIX:
        order = list(range(copies))
        rng.shuffle(order)
        for c in range(copies):
            key = f"{kind}-{'-'.join(map(str, pool))}-{c}"
            target = pool[c % len(pool)]
            if kind == "roundtrip-super":
                jobs.append(_super_roundtrip_job(ybx, key, supers[target], seed))
                continue
            algebra = algebras[target]
            if kind == "colored-symbolic":
                p, q = ("p", "q") if c % 2 == 0 else pick_symbolic(rng, ("p", "q"), {1})
                jobs.append(_colored_job(ybx, key, algebra, p, q, seed))
            elif kind == "roundtrip-colored":
                params = pick_symbolic(rng, ("p", "q", "u", "v"),
                                       {order[c] % 4})
                jobs.append(_colored_roundtrip_job(ybx, key, algebra, params,
                                                   seed))
            elif kind == "roundtrip-dn":
                case = ("i", "ii", "iii")[c % 3]
                params = {"i": ("a", "b", "a"), "ii": ("a", "b", "b"),
                          "iii": (0, 0, "g")}[case]
                jobs.append(_dn_roundtrip_job(ybx, key, algebra, params, seed))
            else:
                width = 4 if "colored" in kind else 3
                names = ("p", "q", "u", "v") if width == 4 else ("a", "b", "g")
                start = order[c] % width
                fixed = {(start + k) % width for k in range(nfixed)}
                params = pick_symbolic(rng, names, fixed)
                jobs.append(_elim_job(ybx, key, kind, algebra, params, seed))
    return jobs


def _ybx_params(ybx, params):
    return [ybx.var(x) if isinstance(x, str) else x for x in params]


def _elim_job(ybx, key, kind, algebra, params, seed):
    s, A = algebra
    family = kind.split("-")[1]
    build = ybx.colored_operator if family == "colored" else ybx.dn_operator
    own = own_colored if family == "colored" else own_dn
    yp = _ybx_params(ybx, params)

    def matrix(point):
        return own(s, params, point)

    if kind.startswith("invert"):
        def summarize(res):
            return {"invertible": res.invertible, "det": str(res.determinant),
                    "rows": rows_summary(res.operator) if res.invertible else None}
        return Job(key, f"{kind}-{s.dim}", lambda: ybx.invert(build(A, *yp)),
                   lambda sm: check_inverse_summary(matrix, sm, seed, key),
                   summarize)

    def check(det_text):
        for attempt in range(3):
            point = Point(seed, f"{key}:{attempt}")
            try:
                if oracle.evaluate(det_text, point) == oracle.det(matrix(point)):
                    return None
            except ZeroDivisionError:
                continue
            return f"determinant {det_text!r} does not match"
        return "no point away from the poles"

    return Job(key, f"{kind}-{s.dim}", lambda: ybx.determinant(build(A, *yp)),
               check, str)


def _roundtrip_summary(res):
    rep, inverse = res
    return {"report": report_summary(rep), "invertible": True,
            "rows": rows_summary(inverse), "det": None}


def _roundtrip_check(matrix_fn, seed, key):
    def check(sm):
        if sm["report"]["status"] != "pass":
            return f"round trip reported {sm['report']['status']}"
        return check_inverse_summary(matrix_fn, sm, seed, key, want_det=False)
    return check


def _dn_roundtrip_job(ybx, key, algebra, params, seed):
    s, A = algebra
    yp = _ybx_params(ybx, params)

    def run():
        inverse = ybx.dn_inverse(A, *yp)
        return ybx.verify_inverse_pair(ybx.dn_operator(A, *yp), inverse), inverse

    return Job(key, f"roundtrip-dn-{s.dim}", run,
               _roundtrip_check(lambda pt: own_dn(s, params, pt), seed, key),
               _roundtrip_summary)


def _colored_roundtrip_job(ybx, key, algebra, params, seed):
    s, A = algebra
    yp = _ybx_params(ybx, params)

    def run():
        inverse = ybx.colored_inverse(A, *yp)
        return (ybx.verify_inverse_pair(ybx.colored_operator(A, *yp), inverse),
                inverse)

    return Job(key, f"roundtrip-colored-{s.dim}", run,
               _roundtrip_check(lambda pt: own_colored(s, params, pt), seed, key),
               _roundtrip_summary)


def _super_roundtrip_job(ybx, key, superalgebra, seed):
    s, L = superalgebra
    alpha = ybx.var("alpha")

    def run():
        z = ybx.even_center(L)[0]
        inverse = ybx.super_phi_inverse(L, z, alpha)
        return ybx.verify_inverse_pair(ybx.super_phi(L, z, alpha), inverse), inverse

    return Job(key, f"roundtrip-super-{s.dim}", run,
               _roundtrip_check(lambda pt: own_super(s, "alpha", pt), seed, key),
               _roundtrip_summary)


# ---------------------------------------------------------------------------
# cli_batch: one `python -m ybx.cli` process per job
# ---------------------------------------------------------------------------

def child_env() -> dict:
    """The environment of every ybx process the benchmark starts: sources
    from src/, and ybx compiled from source in every process (no bytecode
    written or read for ybx; the interpreter's own library keeps its
    installed bytecode)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def run_process(cmd, workdir):
    """Run one process to completion; (status, stdout, stderr, peak RSS in
    KiB) with the RSS of that child alone."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"), usage.ru_maxrss)


# The malformed inputs of ROADMAP item 5 that end in a traceback today;
# each should exit with status 2 and is scored as failed until it does.
KNOWN_DEFECTS = {
    "malformed-alpha-1/0": "--alpha 1/0 raises MalformedScalarError",
    "malformed-deep-parens": "--alpha with 2,000 nested parentheses "
                             "raises RecursionError",
    "malformed-float-entry": "a JSON float entry (\"unit\": [1.5, 0]) "
                             "raises TypeError",
    "malformed-string-dim": "a JSON string \"dim\": \"2\" raises TypeError",
    "malformed-out-missing-dir": "--out into a missing directory raises "
                                 "FileNotFoundError",
}


def cli_files(seed):
    """The generated structures of cli_batch: {file stem: Structure} and
    {file stem of a corrupted copy: expected witness}."""
    rng = random.Random(f"cli_batch:{seed}")
    point = Point(seed, "files")
    files, witnesses = {}, {}
    styles = ("dense_symbolic", "sparse_symbolic", "dense", "dense_symbolic",
              "nilpotent", "dense")
    for dim, style in zip(range(2, 8), styles):
        files[f"alg{dim}"] = inputs.random_algebra(rng, dim, style)
    for dim in range(2, 8):
        files[f"sup{dim}"] = inputs.random_superalgebra(rng, dim, dim % 2 == 0)
    for stem in ("alg3", "alg4", "alg5", "sup3", "sup4", "sup6"):
        bad, witness = inputs.corrupt(
            rng, files[stem], lambda b: oracle.structure_witness(b, point))
        files[stem + "bad"] = bad
        witnesses[stem + "bad"] = witness
    return files, witnesses


def setup_cli_batch(seed, workdir, ybx):
    files, witnesses = cli_files(seed)
    indir = workdir / "inputs"
    indir.mkdir(parents=True, exist_ok=True)
    for stem, s in files.items():
        s.write(indir / f"{stem}.json")
        if stem not in witnesses:
            make = ybx.make_algebra if s.kind == "algebra" else ybx.make_superalgebra
            make(*s.ybx_args())
    sample = files["alg2"].to_json_obj()
    malformed = {"float": dict(sample, unit=[1.5, 0]),
                 "strdim": dict(sample, dim="2")}
    for stem, obj in malformed.items():
        with open(indir / f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    rng = random.Random(f"cli_batch-jobs:{seed}")
    return cli_jobs(files, witnesses, indir, rng, seed)


def _path(indir, stem):
    return str((indir / f"{stem}.json").relative_to(ROOT))


def cli_jobs(files, witnesses, indir, rng, seed):
    jobs = []

    def add(key, kind, argv, check, expect=(0,)):
        jobs.append(Job(key, kind, None, _cli_check(expect, check, argv),
                        _cli_summary, argv=argv))

    # structure validation, valid and corrupted, text and JSON
    for stem, s in files.items():
        verb = s.kind
        flag = f"--{verb}"
        fmt = "json" if s.dim % 2 == 0 or stem in witnesses else "text"
        argv = ["validate", verb, flag, _path(indir, stem), "--format", fmt]
        add(f"validate-{stem}", f"validate-{verb}", argv,
            _validate_check(s, witnesses.get(stem), fmt),
            expect=(1,) if stem in witnesses else (0,))

    # identity checks on small inputs
    for dim in (2, 3):
        stem = f"alg{dim}"
        s = files[stem]
        case = CASES[rng.randrange(4)]
        params = dn_params(rng, case)
        argv = ["check", "constant", "--algebra", _path(indir, stem),
                "--alpha", str(params[0]), "--beta", str(params[1]),
                "--gamma", str(params[2]), "--format", "json"]
        add(f"constant-{stem}", "check-constant", argv,
            _constant_check(s, params, seed, f"constant-{stem}"),
            expect=(0, 1))
        p, q = colored_pq(rng)
        k = f"colored-{stem}"
        argv = ["check", "colored", "--algebra", _path(indir, stem),
                "--p", str(p), "--q", str(q), "--samples", "2",
                "--seed", str(off_locus_seed(rng, p, q)), "--format", "json"]
        add(k, "check-colored", argv, _colored_cli_check(s, p, q, seed, k))
        lam, mu = rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2))
        k = f"wxz-{stem}"
        argv = ["check", "wxz", "--algebra", _path(indir, stem),
                "--lambda", str(lam), "--mu", str(mu), "--format", "json"]
        add(k, "check-wxz", argv, _wxz_check(s, lam, mu, seed, k), expect=(0, 1))
    for dim in (3, 4):
        stem = f"sup{dim}"
        k = f"super-{stem}"
        argv = ["check", "super", "--superalgebra", _path(indir, stem),
                "--format", "json"]
        add(k, "check-super", argv, _super_check(files[stem], seed, k),
            expect=(0, 1))
    n_samples, split_seed = 2, rng.randrange(1000)
    argv = ["check", "split-center", "--dim", "3", "--samples", str(n_samples),
            "--seed", str(split_seed), "--format", "json"]
    add("split-center", "check-split", argv, _split_cli_check(3, n_samples))

    # export and invert, text and JSON
    for fmt in ("text", "json"):
        for family, stem in (("dn", "alg2"), ("colored", "alg3")):
            s = files[stem]
            params = (("alpha", "beta", "gamma") if family == "dn"
                      else ("p", "q", "u", "v"))
            values = dict(zip(params, colored_pq(rng)))
            argv = ["export", "matrix", "--family", family,
                    "--algebra", _path(indir, stem), "--format", fmt]
            for name, value in values.items():
                argv += [f"--{name}", str(value)]
            full = tuple(values.get(name, name) for name in params)
            own = own_dn if family == "dn" else own_colored
            k = f"export-{family}-{fmt}"
            add(k, "export", argv,
                _export_check(lambda pt, s=s, own=own, full=full: own(s, full, pt),
                              s.dim, fmt, seed, k))
            inv_argv = ["invert"] + argv[2:]
            k = f"invert-{family}-{fmt}"
            add(k, "invert", inv_argv,
                _invert_check(lambda pt, s=s, own=own, full=full: own(s, full, pt),
                              s.dim, fmt, seed, k))
    k = "export-super-json"
    argv = ["export", "matrix", "--family", "super", "--superalgebra",
            _path(indir, "sup3"), "--format", "json"]
    add(k, "export", argv,
        _export_check(lambda pt: own_super(files["sup3"], "alpha", pt), 3,
                      "json", seed, k))
    # heavier jobs, so that the tail percentile lands among several jobs of
    # about the same length
    for i, fmt in enumerate(("text", "json")):
        k = f"invert-dn-alg3-{fmt}"
        beta = rng.choice((-2, 2, 3))
        full = ("alpha", beta, "gamma")
        argv = ["invert", "--family", "dn", "--algebra", _path(indir, "alg3"),
                "--beta", str(beta), "--format", fmt]
        add(k, "invert", argv,
            _invert_check(lambda pt, full=full: own_dn(files["alg3"], full, pt),
                          3, fmt, seed, k))
        p, q = colored_pq(rng)
        k = f"colored-alg4-{i}"
        argv = ["check", "colored", "--algebra", _path(indir, "alg4"),
                "--p", str(p), "--q", str(q), "--samples", "2",
                "--seed", str(off_locus_seed(rng, p, q)), "--format", "json"]
        add(k, "check-colored", argv,
            _colored_cli_check(files["alg4"], p, q, seed, k))

    # malformed invocations: status 2 and no traceback
    alg2 = _path(indir, "alg2")
    usage = [
        ("malformed-missing-file", ["validate", "algebra", "--algebra",
                                    _path(indir, "missing")]),
        ("malformed-bad-scalar", ["check", "constant", "--algebra", alg2,
                                  "--alpha", "1+"]),
        ("malformed-z-index", ["check", "super", "--superalgebra",
                               _path(indir, "sup3"), "--z-index", "5"]),
        ("malformed-unknown-verb", ["frobnicate"]),
        ("malformed-alpha-1/0", ["check", "constant", "--algebra", alg2,
                                 "--alpha", "1/0"]),
        ("malformed-deep-parens", ["check", "constant", "--algebra", alg2,
                                   "--alpha", "(" * 2000 + "1" + ")" * 2000]),
        ("malformed-float-entry", ["validate", "algebra", "--algebra",
                                   _path(indir, "float")]),
        ("malformed-string-dim", ["validate", "algebra", "--algebra",
                                  _path(indir, "strdim")]),
        ("malformed-out-missing-dir", ["validate", "algebra", "--algebra", alg2,
                                       "--out", str(Path("ybxbench", ".work",
                                                         "missing", "x.txt"))]),
    ]
    for key, argv in usage:
        add(key, "malformed", argv, None, expect=(2,))
    return jobs


_ELAPSED = re.compile(r"^\s*elapsed: [0-9.]+s$", re.MULTILINE)


def _cli_summary(result):
    """What must repeat exactly from one run of a command to the next: the
    status, stdout without the text reports' timings, and stderr, of which
    only the last line is kept after a traceback (its frames depend on how
    the process was started)."""
    err = result["stderr"]
    if "Traceback" in err:
        err = "Traceback ...\n" + err.strip().splitlines()[-1]
    return {"status": result["status"],
            "stdout": _ELAPSED.sub("", result["stdout"]), "stderr": err}


def _cli_check(expect, check, argv):
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"

    def run_check(result):
        status, out, err = result["status"], result["stdout"], result["stderr"]
        if "Traceback" in err:
            return f"traceback (exit {status}): {err.strip().splitlines()[-1]}"
        if status not in expect:
            return f"exit {status}, expected {expect}"
        if check is None:
            return None if err.strip() else "no message on stderr"
        if fmt == "json":
            try:
                body = json.loads(out)
            except ValueError as exc:
                return f"output is not JSON: {exc}"
        else:
            body = out
        return check(body, status)

    return run_check


def _validate_check(s, witness, fmt):
    identity = "algebra-axioms" if s.kind == "algebra" else "super-axioms"

    def check(body, status):
        if fmt == "text":
            head = body.splitlines()[0] if body else ""
            want = f"{identity} [symbolic]: {'FAIL' if witness else 'PASS'}"
            if head != want:
                return f"first line {head!r}, expected {want!r}"
            if witness and f"indices={witness[1]}" not in body:
                return f"witness indices {witness[1]} not reported"
            return None
        rep = body["reports"][0]
        if rep["identity"] != identity:
            return f"identity {rep['identity']!r}"
        if witness is None:
            ok = rep["status"] == "pass" and rep["detail"]["dim"] == s.dim
            return None if ok else f"valid file reported {rep}"
        if rep["status"] != "fail" or rep["witness"].get("indices") != witness[1]:
            return f"witness {rep.get('witness')}, expected {witness}"
        if _AXIOM_WORDS[witness[0]] not in rep["witness"]["error"]:
            return f"error {rep['witness']['error']!r} is not a {witness[0]}"
        return None

    return check


# The report names the failed axiom in words, not by exception class.
_AXIOM_WORDS = {"UnitError": "unit law", "AssociativityError": "!=",
                "GradingError": "wrong parity", "AntisymmetryError": "(-1)^",
                "JacobiError": "Jacobi"}


def _constant_check(s, params, seed, key):
    point = Point(seed, key)

    def check(body, status):
        rep = body["reports"][0]
        if status != (0 if rep["status"] == "pass" else 1):
            return f"exit {status} with a {rep['status']} report"
        M = own_dn(s, params, point)
        return check_report(lambda: oracle.braid_defect(M), rep, point)

    return check


def _colored_cli_check(s, p, q, seed, key):
    def check(body, status):
        return check_colored_report(s, p, q, body["reports"][0], seed, key)
    return check


def _wxz_check(s, lam, mu, seed, key):
    point = Point(seed, key)

    def check(body, status):
        rep = body["reports"][0]
        table, unit, _ = oracle.table_at(s, point)
        ops = oracle.wxz_matrices(table, unit, Fraction(lam), Fraction(mu))
        first = None
        for cond in ("[W,W,W]", "[Z,Z,Z]", "[W,X,X]", "[X,X,Z]"):
            defect = oracle.yb_defect(*(ops[c] for c in cond[1:-1].split(",")))
            if rep["detail"][cond] != ("nonzero" if defect else "zero"):
                return f"{cond} reported {rep['detail'][cond]}"
            if defect and first is None:
                first = defect
                witness = rep.get("witness") or {}
                if witness.get("condition") != cond:
                    return f"witness names {witness.get('condition')}, not {cond}"
        if first is None:
            return None if rep["status"] == "pass" else "FAIL with zero defects"
        return oracle.check_verdict(first, rep["status"], rep["witness"], point)

    return check


def _super_check(s, seed, key):
    point = Point(seed, key)

    def check(body, status):
        braid, roundtrip = body["reports"]
        phi = own_super(s, "alpha", point)
        reason = check_report(lambda: oracle.braid_defect(phi), braid, point)
        if reason:
            return reason
        inv = own_super(s, "alpha", point, inverse=True)
        ok = oracle.is_identity(oracle.matmul(phi, inv))
        if roundtrip["status"] != ("pass" if ok else "fail"):
            return f"inverse round trip reported {roundtrip['status']}"
        return None

    return check


def _split_cli_check(dim, samples):
    def check(body, status):
        rep = body["reports"][0]
        want = {"instances": samples, "dim": dim}
        if rep["status"] != "pass" or any(rep["detail"][k] != v
                                          for k, v in want.items()):
            return f"split-center report {rep}"
        return None
    return check


def _matrix_lines(body, size):
    lines = [ln for ln in body.splitlines() if ln.startswith("[")]
    return None if len(lines) == size else f"{len(lines)} matrix rows, expected {size}"


def _export_check(matrix_fn, dim, fmt, seed, key):
    def check(body, status):
        if fmt == "text":
            return _matrix_lines(body, dim * dim)
        point = Point(seed, key)
        M = matrix_fn(point)
        got = [[oracle.evaluate(e, point) for e in row] for row in body["matrix"]]
        return None if got == M else "exported matrix does not match"
    return check


def _invert_check(matrix_fn, dim, fmt, seed, key):
    def check(body, status):
        if fmt == "json":
            summary = {"invertible": body["invertible"], "det": body["determinant"],
                       "rows": body["inverse"]["matrix"]}
            return check_inverse_summary(matrix_fn, summary, seed, key)
        head = body.splitlines()[0]
        if not head.startswith("determinant: "):
            return f"first line {head!r}"
        point = Point(seed, key)
        if oracle.evaluate(head[len("determinant: "):], point) != oracle.det(
                matrix_fn(point)):
            return "determinant does not match"
        return _matrix_lines(body, dim * dim)
    return check


SETUPS = {"dense_braid": setup_dense_braid,
          "symbolic_elim": setup_symbolic_elim,
          "cli_batch": setup_cli_batch}
