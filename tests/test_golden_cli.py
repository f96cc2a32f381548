"""Command-line output pinned byte for byte.

For every invocation listed in ``invocations`` the exit status, stdout
(with the text reports' ``elapsed:`` lines removed) and stderr are stored
in ``data/golden_cli.json``. The runs cover every verb over all six
bundled fixtures in text and JSON, failing checks with their witnesses,
corrupted structure files and invocations that exit with status 2. Any
change to a report, a message or an exit status fails here.

The data was written by running this file as a script
(``PYTHONPATH=src python tests/test_golden_cli.py``) before the command
line was last restructured; regenerate it only for a deliberate change of
output, and say which outputs changed and why.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from ybx import fixture_path
from ybx.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_cli.json"

ALGEBRAS = ("quadratic", "sigma", "cubic")
SUPERALGEBRAS = ("gl11", "abelian-super", "heisenberg-super")

_ELAPSED = re.compile(r"^\s*elapsed: [0-9.]+s\n", re.MULTILINE)


def _fixture(stem):
    return str(fixture_path(f"{stem}.json"))


def _corrupted(workdir):
    """Structure files that break the unit law, associativity and the
    graded antisymmetry of the bracket: {name: (verb, path)}."""
    edits = {
        "unit": ("algebra", "quadratic", lambda s: s[0].__setitem__(
            1, ["1", "1"])),
        "associativity": ("algebra", "cubic", lambda s: s[1][2].__setitem__(
            0, "1")),
        "bracket": ("superalgebra", "gl11", lambda s: s[2][3].__setitem__(
            0, "2")),
    }
    out = {}
    for name, (verb, stem, edit) in edits.items():
        obj = json.loads(Path(_fixture(stem)).read_text(encoding="utf-8"))
        edit(obj["structure"])
        path = Path(workdir) / f"bad-{name}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        out[name] = (verb, str(path))
    return out


def invocations(workdir):
    """(name, argv) for every pinned run; corrupted files go in workdir."""
    runs = []
    for fmt in ("text", "json"):
        def add(name, *argv):
            runs.append((f"{name} [{fmt}]", [*argv, "--format", fmt]))

        for stem in ALGEBRAS:
            a = ("--algebra", _fixture(stem))
            add(f"check constant {stem}", "check", "constant", *a)
            add(f"check constant {stem} case i", "check", "constant", *a,
                "--alpha", "a", "--beta", "b", "--gamma", "a")
            add(f"check colored {stem}", "check", "colored", *a)
            add(f"check colored {stem} sampled", "check", "colored", *a,
                "--p", "2", "--q", "3", "--samples", "4", "--seed", "7")
            add(f"check wxz {stem}", "check", "wxz", *a,
                "--lambda", "2", "--mu", "-1")
            add(f"validate algebra {stem}", "validate", "algebra", *a)
            for family in ("dn", "colored", "wxz"):
                add(f"export matrix {family} {stem}", "export", "matrix",
                    "--family", family, *a)
            add(f"invert dn {stem}", "invert", "--family", "dn", *a,
                "--alpha", "1", "--beta", "2", "--gamma", "1")
            add(f"invert colored {stem}", "invert", "--family", "colored",
                *a, "--p", "2", "--q", "3", "--u", "1", "--v", "-1")
        for stem in SUPERALGEBRAS:
            s = ("--superalgebra", _fixture(stem))
            add(f"check super {stem}", "check", "super", *s)
            add(f"validate superalgebra {stem}", "validate", "superalgebra",
                *s)
            add(f"export matrix super {stem}", "export", "matrix",
                "--family", "super", *s)
            add(f"invert super {stem}", "invert", "--family", "super", *s,
                "--alpha", "3")
        quadratic = ("--algebra", _fixture("quadratic"))
        add("check super abelian-super z1", "check", "super",
            "--superalgebra", _fixture("abelian-super"), "--z-index", "1")
        add("check split-center", "check", "split-center", "--dim", "3",
            "--samples", "2", "--seed", "5")
        add("check colored sigma symbolic over samples", "check", "colored",
            "--algebra", _fixture("sigma"), "--samples", "5", "--symbolic")
        add("export matrix dn quadratic substituted", "export", "matrix",
            "--family", "dn", *quadratic, "--m", "1", "--n", "1",
            "--alpha", "a", "--beta", "b", "--gamma", "a")

        # failing checks and their witnesses
        add("check constant out of case", "check", "constant", *quadratic,
            "--m", "1", "--n", "1", "--alpha", "1", "--beta", "2",
            "--gamma", "3")
        add("invert colored singular", "invert", "--family", "colored",
            "--algebra", _fixture("sigma"), "--p", "1", "--q", "1",
            "--u", "1", "--v", "1")
        for name, (verb, path) in _corrupted(workdir).items():
            add(f"validate corrupted {name}", "validate", verb, f"--{verb}",
                path)

        # bad input: exit status 2
        add("missing file", "validate", "algebra", "--algebra",
            str(Path(workdir) / "missing.json"))
        add("bad scalar", "check", "constant", *quadratic, "--alpha", "1+")
        add("z-index out of range", "check", "super", "--superalgebra",
            _fixture("gl11"), "--z-index", "5")
        add("invert wxz", "invert", "--family", "wxz", *quadratic)
    return runs


def run_one(argv, workdir):
    """Exit status, stdout without elapsed lines, and stderr of one
    in-process run, with the fixture and work directories replaced by
    placeholders."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)

    def clean(text):
        text = text.replace(str(Path(workdir)), "<workdir>")
        return text.replace(str(Path(_fixture("quadratic")).parent),
                            "<fixtures>")

    return {"argv": [clean(a) for a in argv], "status": code,
            "stdout": clean(_ELAPSED.sub("", out.getvalue())),
            "stderr": clean(err.getvalue())}


def golden_runs(workdir):
    return {name: run_one(argv, workdir)
            for name, argv in invocations(workdir)}


def test_cli_output_is_unchanged(tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = golden_runs(tmp_path)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        runs = golden_runs(workdir)
    GOLDEN.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
