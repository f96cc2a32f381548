"""Property tests of the command line's exit-status contract.

Hypothesis draws argv lists from the real verbs, flags, fixtures and small
values, and structure files mutated from the fixtures. Whatever it draws,
``cli.main`` must return 0, 1 or 2 without letting an exception escape,
and 1 only together with a report marked fail or a singular inversion.
``main`` runs in process with its output redirected; hypothesis does not
allow function-scoped fixtures such as capsys or tmp_path in a test it
drives, so files go to one directory per module.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ybx import fixture_path
from ybx.cli import main

ALGEBRAS = ["quadratic", "sigma", "cubic"]
SUPERALGEBRAS = ["gl11", "abelian-super", "heisenberg-super"]

# the flags each leaf command registers; export and invert take their
# structure and parameter flags from the chosen --family
_STRUCTURE = ("--algebra", "--superalgebra")
_ALGEBRA = ["--algebra", "--m", "--n", "--sigma"]
FAMILIES = {
    "dn": _ALGEBRA + ["--alpha", "--beta", "--gamma"],
    "colored": _ALGEBRA + ["--p", "--q", "--u", "--v"],
    "wxz": _ALGEBRA + ["--lambda", "--mu"],
    "super": ["--superalgebra", "--z-index", "--alpha"],
}
VERBS = {
    ("check", "constant"): FAMILIES["dn"],
    ("check", "colored"): _ALGEBRA + ["--p", "--q", "--samples", "--seed",
                                      "--symbolic"],
    ("check", "wxz"): FAMILIES["wxz"],
    ("check", "super"): FAMILIES["super"],
    ("check", "split-center"): ["--samples", "--seed", "--dim"],
    ("export", "matrix"): None,
    ("validate", "algebra"): _ALGEBRA,
    ("validate", "superalgebra"): ["--superalgebra"],
    ("invert",): None,
}
ALL_FLAGS = sorted({flag for flags in (*VERBS.values(), *FAMILIES.values())
                    if flags for flag in flags} | {"--family"})


def _rarely(common, rare):
    """common nine times in ten, rare otherwise."""
    return st.integers(0, 9).flatmap(lambda k: rare if k == 9 else common)


# small exact values and symbols of the fixtures, now and then a malformed
# scalar
SCALARS = _rarely(
    st.one_of(st.integers(-3, 3).map(str),
              st.sampled_from(["1/2", "-3/2", "a", "m", "sigma", "a-a"])),
    st.sampled_from(["1/0", "((", "x^99999", "", "2*", "a/(a-a)", "0.5",
                     "1e3"]))

# replacements for a whole field, or for one entry of a table
BAD_VALUES = st.sampled_from([0, -1, 1.5, True, None, "x", "", [], {},
                              [[]], "1/0", "((", "a/(a-a)", "x^99999"])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-properties")


def _run(argv, out_path):
    """(status, everything the command wrote as its output)."""
    if out_path.exists():
        out_path.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = main(argv)
    body = stdout.getvalue()
    if "--out" in argv and out_path.is_file():
        body += out_path.read_text()
    return status, body


def _check_contract(argv, out_path):
    status, body = _run(argv, out_path)
    assert status in (0, 1, 2), argv
    if status == 1:
        assert any(mark in body for mark in (
            ": FAIL", '"status": "fail"', "is singular",
            '"invertible": false')), argv


@st.composite
def argvs(draw, workdir):
    verb = draw(st.sampled_from(sorted(VERBS)))
    argv = list(verb)
    own = VERBS[verb]
    if own is None:
        family = draw(_rarely(st.sampled_from(sorted(FAMILIES)),
                              st.just("rainbow")))
        argv += ["--family", family]
        own = FAMILIES.get(family, FAMILIES["dn"])
    # mostly the command's own flags, now and then a foreign one, and
    # mostly with the structure file it needs
    flags = draw(st.lists(_rarely(st.sampled_from(own),
                                  st.sampled_from(ALL_FLAGS)), max_size=4))
    if draw(_rarely(st.just(True), st.just(False))):
        flags = [f for f in own if f in _STRUCTURE] + flags
    for flag in flags:
        argv.append(flag)
        if flag == "--symbolic":
            continue
        if flag == "--family":
            value = draw(st.sampled_from(sorted(FAMILIES)))
        elif flag in _STRUCTURE:
            names = ALGEBRAS if flag == "--algebra" else SUPERALGEBRAS
            value = draw(_rarely(
                st.sampled_from(names).map(
                    lambda n: str(fixture_path(n + ".json"))),
                st.just(str(workdir / "missing.json"))))
        elif flag == "--z-index":
            value = str(draw(st.integers(-1, 2)))
        elif flag == "--seed":
            value = str(draw(st.integers(0, 5)))
        elif flag == "--dim":
            value = str(draw(st.integers(2, 4)))
        elif flag == "--samples":
            value = str(draw(st.integers(1, 3)))
        else:
            value = draw(SCALARS)
        argv.append(value)
    if "--samples" in own and "--samples" not in argv:
        argv += ["--samples", str(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    if draw(st.integers(0, 4)) == 0:
        argv += ["--out", str(draw(_rarely(
            st.just(workdir / "out.txt"),
            st.sampled_from([workdir / "no-such-dir" / "out.txt",
                             workdir]))))]
    return argv


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_argv_exits_0_1_or_2(workdir, data):
    argv = data.draw(argvs(workdir))
    _check_contract(argv, workdir / "out.txt")


@st.composite
def mutated(draw, kind):
    """A fixture of the kind as a JSON object with one field dropped,
    retyped or nested, or one table or vector entry replaced."""
    names = ALGEBRAS if kind == "algebra" else SUPERALGEBRAS
    name = draw(st.sampled_from(names))
    with open(fixture_path(name + ".json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    key = draw(st.sampled_from(sorted(obj)))
    how = draw(st.sampled_from(["drop", "retype", "nest", "entry"]))
    if how == "drop":
        del obj[key]
    elif how == "retype":
        obj[key] = draw(BAD_VALUES)
    elif how == "nest":
        obj[key] = [obj[key]]
    else:
        target = obj[draw(st.sampled_from(
            ["structure", "unit" if kind == "algebra" else "degree"]))]
        while isinstance(target[0], list):
            target = target[draw(st.integers(0, len(target) - 1))]
        target[draw(st.integers(0, len(target) - 1))] = draw(BAD_VALUES)
    return obj


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), kind=st.sampled_from(["algebra", "superalgebra"]))
def test_mutated_structure_files_exit_0_1_or_2(workdir, data, kind):
    path = workdir / f"mutated-{kind}.json"
    path.write_text(json.dumps(data.draw(mutated(kind))))
    verb = data.draw(st.sampled_from(
        [["validate", kind],
         ["check", "constant" if kind == "algebra" else "super"],
         ["export", "matrix", "--family",
          "dn" if kind == "algebra" else "super"]]))
    _check_contract(verb + [f"--{kind}", str(path)], workdir / "out.txt")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_poles_under_drawn_parameters_exit_0_1_or_2(workdir, data):
    # an entry such as n/(m - 1) is fine as written and has a pole under
    # --m 1; the error that substitution raises is one no handler wraps
    with open(fixture_path("quadratic.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    flag, other = data.draw(st.sampled_from([("m", "n"), ("n", "m")]))
    pole = data.draw(st.integers(-1, 1))
    i, j, k = (data.draw(st.integers(0, 1)) for _ in range(3))
    obj["structure"][i][j][k] = f"{other}/({flag} - {pole})"
    path = workdir / "pole.json"
    path.write_text(json.dumps(obj))
    verb = data.draw(st.sampled_from(
        [["validate", "algebra"], ["check", "constant"], ["check", "wxz"],
         ["export", "matrix", "--family", "dn"],
         ["invert", "--family", "colored"]]))
    value = str(data.draw(_rarely(st.just(pole), st.integers(-1, 1))))
    _check_contract(verb + ["--algebra", str(path), f"--{flag}", value],
                    workdir / "out.txt")
