"""The set-up of one workload in a fresh process, for timing it:
import ybx, generate the seeded inputs, build and validate them.

    python3 ybxbench/setup_probe.py WORKLOAD SEED
"""

import sys

sys.dont_write_bytecode = True

import jobs  # noqa: E402
from run import WORK, import_ybx  # noqa: E402

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    jobs.SETUPS[workload](seed, WORK, import_ybx())
