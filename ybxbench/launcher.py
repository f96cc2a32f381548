"""Run `ybx.cli.main` with the benchmark's span wrappers installed.

    python3 ybxbench/launcher.py SPANS_FILE JOB_ID ybx-arguments...

Behaves like `python -m ybx.cli ybx-arguments...` (same exit status, same
output, an uncaught exception still ends in a traceback) and writes the
spans it recorded to SPANS_FILE, stamped with JOB_ID.
"""

import sys

sys.dont_write_bytecode = True

import tracer  # noqa: E402

if __name__ == "__main__":
    spans_path, job_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import ybx.cli
    rec = tracer.Recorder()
    rec.job = job_id
    tracer.install(rec)
    span = rec.begin("cli.main")
    try:
        code = ybx.cli.main(argv)
    finally:
        rec.end(span)
        rec.dump(spans_path)
    sys.exit(code)
