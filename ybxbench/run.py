"""ybx benchmark: one seeded, checked run of one workload.

    python3 ybxbench/run.py --workload dense_braid --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Workloads (see BENCHMARK.json):
dense_braid, symbolic_elim, cli_batch. Load is a closed loop with one
client: one job at a time, in process, or one `python -m ybx.cli` process
at a time for cli_batch.

--trace 0 repeats whole passes over the workload's fixed job list, at
least MIN_PASSES of them, until --seconds have been measured, and prints
the end-to-end metrics. --trace 1
runs an untraced pass, a pass with spans recorded at ybx's layer
boundaries (see tracer.py) and another untraced pass, and prints the
per-layer metrics of the traced pass and the tracing overhead.
Every job's output is checked by the independent oracle outside the timed
region. The last line of standard output is the result as JSON.

Times are reported in reference-speed seconds. The machine the baseline
was measured on changes speed by up to 1.5x for seconds to minutes at a
time, more than the bounds are meant to catch, so a fixed reference is
timed before and after every measured interval, and the interval is scaled
by the reference's nominal time over the mean of those two reference
times. In-process work is scaled by a piece of pure-Python work
(reference_time); a cli_batch job, which is mostly interpreter start-up,
by a process that starts the interpreter and imports the standard modules
ybx uses (process_reference_time). The references are the benchmark's own
and identical on every commit, so a slower ybx still reads slower.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import jobs  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
MIN_PASSES = 3
TAIL_LADDER = (50, 75, 80, 85, 90, 95, 99, 99.5, 99.9)
REF_SECONDS = 0.01
_REF_RNG = random.Random(0)
_REF_MATRIX = [[Fraction(_REF_RNG.randint(-9, 9), _REF_RNG.randint(1, 9))
                for _ in range(9)] for _ in range(9)]


def reference_time():
    """Wall time of a fixed piece of work like ybx's: Fraction arithmetic
    through Python-level methods, and tuple and dict churn. The garbage
    collector is off meanwhile, so that no collection of the caller's heap
    lands in it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(3):
            oracle.det(_REF_MATRIX)
        table = {}
        for i in range(20000):
            table[(i, i % 7)] = (i,)
        return time.perf_counter() - t0
    finally:
        gc.enable()


PROCESS_REF_SECONDS = 0.08
PROCESS_REFERENCE = [sys.executable, "-c",
                     "import argparse, dataclasses, fractions, json, re"]


def process_reference_time():
    t0 = time.perf_counter()
    jobs.run_process(PROCESS_REFERENCE, WORK)
    return time.perf_counter() - t0


class ScaledClock:
    """Turns measured intervals into reference-speed seconds."""

    def __init__(self, reference=reference_time, nominal=REF_SECONDS):
        self.reference = reference
        self.nominal = nominal
        reference()  # warm-up
        self.last = reference()

    def scale(self, seconds):
        now = self.reference()
        out = seconds * self.nominal / ((self.last + now) / 2)
        self.last = now
        return out


def die(message):
    print(f"ybxbench: {message}", file=sys.stderr)
    sys.exit(2)


def preflight():
    if not (jobs.SRC / "ybx" / "__init__.py").is_file():
        die(f"no ybx sources at {jobs.SRC / 'ybx'}; run from a checkout")
    if (jobs.SRC / "ybx" / "__pycache__").exists():
        die("src/ybx/__pycache__ exists; the benchmark measures ybx compiled "
            "from source in every process, so remove it first")
    WORK.mkdir(exist_ok=True)


def import_ybx():
    sys.path.insert(0, str(jobs.SRC))
    import ybx
    if Path(ybx.__file__).resolve().parent != (jobs.SRC / "ybx").resolve():
        die(f"imported ybx from {ybx.__file__}, not from {jobs.SRC}")
    return ybx


def timed_process(cmd, repeats):
    """Median scaled wall time of repeated runs of a command that must
    succeed."""
    clock = ScaledClock()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        status, _, err, _ = jobs.run_process(cmd, WORK)
        if status != 0:
            die(f"{' '.join(cmd)} failed: {err.strip()}")
        times.append(clock.scale(time.perf_counter() - t0))
    return statistics.median(times)


def measure_setup(workload, seed):
    """Fresh processes that each import ybx, generate the inputs and build
    and validate the generated structures."""
    return timed_process([sys.executable, str(HERE / "setup_probe.py"),
                          workload, str(seed)], SETUP_REPEATS)


def measure_import():
    return timed_process([sys.executable, "-c", "import ybx"], IMPORT_REPEATS)


def cli_command(job, traced=False, index=0):
    if traced:
        return [sys.executable, str(HERE / "launcher.py"),
                str(WORK / "spans" / f"{index}.bin"), str(index), *job.argv]
    return [sys.executable, "-m", "ybx.cli", *job.argv]


def run_pass(job_list, rec=None, traced_cli=False):
    """[(job, reference-speed seconds, raw result or None, error or None,
    child RSS KiB)]. Scaled by the in-process reference, two sets of ten
    cli_batch runs differed by 17% in verdicts_per_s, hence the process
    reference for jobs that are processes."""
    records = []
    if job_list and job_list[0].argv is not None:
        clock = ScaledClock(process_reference_time, PROCESS_REF_SECONDS)
    else:
        clock = ScaledClock()
    for index, job in enumerate(job_list):
        rss = 0
        if rec is not None:
            rec.job = index
            span = rec.begin("job")
        t0 = time.perf_counter()
        try:
            if job.argv is not None:
                status, out, err, rss = jobs.run_process(
                    cli_command(job, traced_cli, index), WORK)
                raw = {"status": status, "stdout": out, "stderr": err}
            else:
                raw = job.run()
            error = None
        except Exception as exc:  # a job that raises is a failed job
            raw, error = None, f"uncaught {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if rec is not None:
            rec.end(span)
        records.append((job, clock.scale(seconds), raw, error, rss))
    return records


def check_all(records):
    """Failure reasons by record index; each distinct job is checked by the
    oracle once and later passes must repeat its output exactly."""
    verified = {}
    failures = {}
    for i, (job, _, raw, error, _) in enumerate(records):
        if error is None:
            try:
                summary = job.summarize(raw)
                if job.key in verified:
                    first, reason = verified[job.key]
                    if summary != first:
                        reason = "output differs from an earlier pass"
                else:
                    reason = job.check(summary)
                    verified[job.key] = (summary, reason)
            except Exception as exc:  # a malformed answer is a failure too
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
        else:
            reason = error
        if reason:
            failures[i] = reason
    return failures


def tail_percentile(n):
    """The highest ladder percentile with at least ten of n jobs beyond it,
    by nearest rank."""
    return max([p for p in TAIL_LADDER if n - math.ceil(p / 100 * n) >= 10],
               default=TAIL_LADDER[0])


def percentile(times, pct):
    ordered = sorted(times)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def report(records, failures, known):
    bad = [(records[i][0].key, why) for i, why in sorted(failures.items())]
    unexpected = [(k, why) for k, why in bad if k not in known]
    for key, why in sorted(set(bad)):
        tag = "known defect" if key in known else "FAILED"
        print(f"  {tag}: {key}: {why}")
    return not unexpected


def end_to_end(workload, seed, seconds):
    setup_s = measure_setup(workload, seed)
    ybx = import_ybx()
    job_list = jobs.SETUPS[workload](seed, WORK, ybx)
    records, rates, wall = [], [], 0.0
    while wall < seconds or len(rates) < MIN_PASSES:
        t0 = time.perf_counter()
        done = run_pass(job_list)
        wall += time.perf_counter() - t0
        records += done
        rates.append((done, sum(r[1] for r in done)))
    if workload == "cli_batch":
        peak_kib = max(r[4] for r in records)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures = check_all(records)
    times = [r[1] for r in records]
    n = len(records)
    # The percentile is fixed by the job count of MIN_PASSES passes, so that
    # a faster program, which fits more passes, reports the same percentile.
    pct = tail_percentile(MIN_PASSES * len(job_list))
    beyond = n - math.ceil(pct / 100 * n)
    per_pass = []
    for i, (done, pass_s) in enumerate(rates):
        first = i * len(job_list)
        ok = sum(1 for k in range(first, first + len(done)) if k not in failures)
        per_pass.append(ok / pass_s)
    print(f"{workload} seed {seed}: {len(rates)} passes of {len(job_list)} "
          f"jobs, {n} jobs in {wall:.2f} s wall, "
          f"{sum(times):.2f} reference-speed s")
    print(f"job_s.tail is p{pct:g} over {n} jobs ({beyond} beyond it)")
    print(f"fail_ratio {len(failures)}/{n} = {len(failures) / n:.4f}")
    correct = report(records, failures, jobs.KNOWN_DEFECTS)
    metrics = {
        "setup_s": setup_s,
        "verdicts_per_s": statistics.median(per_pass),
        "job_s.p50": statistics.median(times),
        "job_s.tail": percentile(times, pct),
        "peak_rss_mb": peak_kib / 1024,
        # the complement of fail_ratio, which is 0 on two workloads
        "pass_ratio": (n - len(failures)) / n,
    }
    return correct, n, len(failures), metrics


def per_layer(workload, seed):
    ybx = import_ybx()
    plain_list = jobs.SETUPS[workload](seed, WORK, ybx)
    plain = run_pass(plain_list)
    rec = tracer.Recorder()
    tracer.install(rec)
    span = rec.begin("setup")
    traced_list = jobs.SETUPS[workload](seed, WORK, ybx)
    rec.end(span)
    cli = workload == "cli_batch"
    if cli:
        (WORK / "spans").mkdir(exist_ok=True)
        for old in (WORK / "spans").glob("*.bin"):
            old.unlink()
    traced = run_pass(traced_list, None if cli else rec, traced_cli=cli)
    rec.active = False
    # an untraced pass on each side of the traced one, so that drift in
    # machine speed during the run cancels out of the overhead
    plain_after = run_pass(plain_list)
    rec.dump(WORK / f"spans-{workload}.bin")
    recs = [rec]
    if cli:
        recs += [tracer.Recorder.load(p)
                 for p in sorted((WORK / "spans").glob("*.bin"))]
    records = plain + traced + plain_after
    failures = check_all(records)
    plain_s = (sum(r[1] for r in plain) + sum(r[1] for r in plain_after)) / 2
    traced_s = sum(r[1] for r in traced)
    print(f"{workload} seed {seed} traced: {len(plain_list)} jobs, untraced "
          f"pass {plain_s:.2f} s (mean of two), traced pass {traced_s:.2f} s")
    correct = report(records, failures, jobs.KNOWN_DEFECTS)
    m = tracer.layer_metrics(recs)
    m["cli.import_s"] = measure_import()
    if cli:
        main_s = sum(tracer.span_seconds(r, "cli.main") for r in recs)
        m["cli.process_s"] = statistics.median(r[1] for r in plain + plain_after)
        m["cli.startup_share"] = (traced_s - main_s) / traced_s
    else:
        m["cli.process_s"] = 0.0
        m["cli.startup_share"] = 0.0
    m["trace.overhead"] = traced_s / plain_s - 1
    return correct, len(records), len(failures), m


def declared_units(section):
    """{metric: unit} of one section of BENCHMARK.json, which names every
    metric the run prints."""
    with open(jobs.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    preflight()
    if args.trace:
        units = declared_units("per_layer")
        correct, attempted, failed, values = per_layer(args.workload, args.seed)
    else:
        units = declared_units("end_to_end")
        correct, attempted, failed, values = end_to_end(
            args.workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
