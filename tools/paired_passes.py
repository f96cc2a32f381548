"""Paired in-process timing of two checkouts of ybx on one workload.

    python3 tools/paired_passes.py BASE CHANGE --workload dense_braid --seed 1 --reps 10 [-v]

Run from the root of a checkout; the workloads are this checkout's
ybxbench/jobs.py. BASE and CHANGE are checkouts, and may be the same one.
A machine that changes speed for seconds to minutes at a time (the 2-CPU
VM of ROADMAP's measurements switches between two speeds about 1.5x apart)
makes two benchmark runs, one after the other, compare the machine as much
as the code. Here both trees' src/ybx load into one process, under names
of their own, and their passes interleave job by job:

* every module that a tree's package registers lazily is run at once, and
  must have been loaded from that tree;
* jobs.SETUPS[workload] builds one job list per tree, and each job's
  summary, as JSON, must be identical on the two trees (this pass also
  warms both trees up);
* each rep then times one pass of each tree, job by job in a random
  order, the tree that goes first chosen at random for each job.

Prints CHANGE's pass time over BASE's: the median over the reps with its
quartiles, and the number of reps in which CHANGE was faster; -v adds the
median ratio of each job. Only the in-process workloads, dense_braid and
symbolic_elim, can be paired.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "ybxbench"))

import jobs  # noqa: E402

# cli_batch's jobs are processes that run ybx from this checkout's src/
IN_PROCESS = ("dense_braid", "symbolic_elim")


def fail(message):
    sys.exit(f"paired_passes: {message}")


def load_ybx(tree, name):
    """The ybx package of tree/src/ybx, as the module name, with every
    module it registers lazily already run."""
    src = (Path(tree) / "src" / "ybx").resolve()
    if not (src / "__init__.py").is_file():
        fail(f"no ybx sources at {src}")
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    ybx = importlib.util.module_from_spec(spec)
    sys.modules[name] = ybx
    spec.loader.exec_module(ybx)
    modules = [m for k, m in list(sys.modules.items())
               if k.startswith(name + ".")]
    if not modules:
        fail(f"{src} registered no modules")
    for module in modules:
        # reading __file__ runs the body of a lazily loaded module
        where = Path(module.__file__).resolve().parent
        if where != src:
            fail(f"{module.__name__} was loaded from {where}, not {src}")
    return ybx


def summaries(job_list):
    return [json.dumps(job.summarize(job.run()), sort_keys=True)
            for job in job_list]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True, choices=IN_PROCESS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    if args.reps < 2:
        parser.error("--reps must be at least 2, for the quartiles")
    trees = [load_ybx(args.base, "ybx_base"),
             load_ybx(args.change, "ybx_change")]
    with tempfile.TemporaryDirectory() as work:
        lists = [jobs.SETUPS[args.workload](args.seed, Path(work) / str(i), ybx)
                 for i, ybx in enumerate(trees)]
    keys = [job.key for job in lists[0]]
    if keys != [job.key for job in lists[1]]:
        fail("the two trees built different job lists")
    for key, base, change in zip(keys, *map(summaries, lists)):
        if base != change:
            fail(f"{key}: the summaries differ\n{base}\n{change}")

    rng = random.Random(f"paired:{args.workload}:{args.seed}")
    pairs = list(zip(*lists))
    # seconds[rep][job][tree]
    seconds = [[[0.0, 0.0] for _ in pairs] for _ in range(args.reps)]
    for rep in seconds:
        for i in rng.sample(range(len(pairs)), len(pairs)):
            for tree in rng.sample((0, 1), 2):
                t0 = time.perf_counter()
                pairs[i][tree].run()
                rep[i][tree] = time.perf_counter() - t0

    ratios = [sum(t[1] for t in rep) / sum(t[0] for t in rep)
              for rep in seconds]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    wins = sum(r < 1 for r in ratios)
    print(f"{args.workload} seed {args.seed}, {len(pairs)} jobs with "
          f"identical summaries, {args.reps} reps: pass time change/base "
          f"{median:.3f} [quartiles {q1:.3f}, {q3:.3f}], change faster in "
          f"{wins} of {args.reps}")
    if args.verbose:
        for i, key in enumerate(keys):
            job_ratio = statistics.median(rep[i][1] / rep[i][0]
                                          for rep in seconds)
            print(f"  {key:<28} {job_ratio:.3f}")


if __name__ == "__main__":
    main()
