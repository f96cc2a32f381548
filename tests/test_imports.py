"""What ybx's modules import, and when.

Every name that a ybx module imports is used in that module. No linter
runs on this code, so an import that a rewrite leaves behind would
otherwise stay; the package's __init__ imports only to re-export.

Importing the package runs none of its modules: each is registered to
load on first attribute access, and a command runs only the modules that
it calls into. The elimination (``ybx.elimination``) and exact division
with the gcd (``ybx.gcd``) are bound as modules at the top of the modules
that call them and run only when first called. One import of a name,
rather than of its module, at the top of ``cli`` or ``verify``, or one
import of a name from either of the two at module level anywhere in the
package, would undo that without failing any other test. ``fractions``
(which imports ``decimal``) is imported only where a Fraction is given or
returned, so no command on integer input imports it. An operator's born
integer form is read only by ``tensor``, and the CLI finds each command in
its own table rather than in argparse's private attributes.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ybx

PACKAGE = Path(ybx.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ON_FIRST_USE = {"ybx.elimination", "ybx.gcd"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).partition(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, sorted(imported - used)


def names_read(tree):
    """(the attribute names, the attribute and bare names) that a module
    reads."""
    attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return attrs, attrs | {n.id for n in ast.walk(tree)
                           if isinstance(n, ast.Name)}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_each_fact_is_read_from_its_owner(path):
    # an operator's born integer form is tensor's own slot, which every
    # other module reaches through ``int_form``; the CLI walks its own
    # table of verbs and targets, not argparse's private actions
    attrs, names = names_read(ast.parse(path.read_text(encoding="utf-8")))
    assert path.name == "tensor.py" or "_form" not in attrs
    assert path.name != "cli.py" or not names & {"_actions",
                                                 "_SubParsersAction"}


def test_the_owner_check_sees_each_read():
    attrs, names = names_read(ast.parse(
        "d, form = op._form\nparser._actions\nargparse._SubParsersAction"))
    assert {"_form", "_actions"} <= attrs and "_SubParsersAction" in names
    assert "_form" not in names_read(ast.parse("op.int_form, _int_form"))[0]


def modules_run_at_import(tree):
    """The modules that the statements run at import time load: the module
    of every import outside a function body that reads it, by its full
    dotted name. ``from package import module`` binds a registered module
    without reading it, but ``import ybx.gcd`` reads the module's spec and
    ``from ybx.gcd import name`` reads the name, and either runs it."""
    found = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add(".".join(filter(None, ["ybx" if node.level else None,
                                             node.module])))
        todo.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_slow_paths_load_on_first_use(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not modules_run_at_import(tree) & ON_FIRST_USE


def test_the_check_sees_each_form_of_import():
    forms = ["from .gcd import poly_gcd", "from .elimination import invert",
             "import ybx.gcd", "from ybx.elimination import invert",
             "if True:\n    from .gcd import divexact",
             "class C:\n    from .elimination import invert"]
    for text in forms:
        assert modules_run_at_import(ast.parse(text)) & ON_FIRST_USE, text
    for text in ("from . import gcd", "from ybx import elimination",
                 "from . import elimination, gcd", "from math import gcd",
                 "from .scalars import gcd",
                 "def f():\n    from .elimination import invert"):
        assert not modules_run_at_import(ast.parse(text)) & ON_FIRST_USE, text


def test_binding_a_registered_module_does_not_run_it():
    # what the check above allows and refuses: in a fresh interpreter,
    # from . import leaves the module unrun, and import ybx.gcd runs it
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent),
               PYTHONDONTWRITEBYTECODE="1")
    code = ("import sys, types\n"
            "from ybx import elimination, gcd\n"
            "print(type(sys.modules['ybx.gcd']) is types.ModuleType)\n"
            "import ybx.gcd\n"
            "print(type(sys.modules['ybx.gcd']) is types.ModuleType)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False", "True"]


def executed_after(*argv):
    """(exit status, the ybx modules whose bodies have run, with
    ``fractions`` and ``decimal`` if imported) after ybx.cli.main runs argv
    in a fresh interpreter, or after ``import ybx`` alone when argv is
    empty. A registered module that has not run is still of its lazy
    class, which type() reads without loading it."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent),
               PYTHONDONTWRITEBYTECODE="1")
    code = ("import contextlib, io, json, sys, types\n"
            "import ybx\n"
            "status = None\n"
            "if sys.argv[1:]:\n"
            "    from ybx.cli import main\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        status = main(sys.argv[1:])\n"
            "print(json.dumps([status, sorted(\n"
            "    name for name, m in sys.modules.items()\n"
            "    if name.startswith('ybx.') and type(m) is types.ModuleType\n"
            "    or name in ('fractions', 'decimal'))]))")
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def with_fixture(flag, name, *argv):
    return [*argv, flag, ybx.fixture_path(name)]


STRUCTURE = ["ybx.algebra", "ybx.cli", "ybx.kernel", "ybx.scalars",
             "ybx.verify"]
BUILD = ["ybx.algebra", "ybx.cli", "ybx.constructors", "ybx.kernel",
         "ybx.scalars", "ybx.tensor"]


def test_importing_the_package_runs_no_module():
    assert executed_after() == [None, []]


@pytest.mark.parametrize("argv, status, executed", [
    pytest.param(["frobnicate"], 2, ["ybx.cli"], id="an unknown verb"),
    pytest.param(
        with_fixture("--algebra", "quadratic.json", "validate", "algebra"),
        0, STRUCTURE, id="validate algebra"),
    pytest.param(
        with_fixture("--superalgebra", "heisenberg-super.json", "validate",
                     "superalgebra"),
        0, sorted(STRUCTURE + ["ybx.lie_super"]), id="validate superalgebra"),
    pytest.param(
        with_fixture("--algebra", "quadratic.json", "check", "constant"),
        1, sorted(BUILD + ["ybx.verify"]), id="check constant"),
    pytest.param(
        with_fixture("--algebra", "quadratic.json", "invert", "--family",
                     "dn", "--alpha", "1", "--beta", "2", "--gamma", "1"),
        0, sorted(BUILD + ["ybx.elimination", "ybx.gcd"]), id="invert"),
])
def test_each_command_runs_only_the_modules_it_calls(argv, status, executed):
    assert executed_after(*argv) == [status, executed]


@pytest.mark.parametrize("argv", [
    ["validate", "algebra"], ["check", "constant"],
    ["export", "matrix", "--family", "dn"]], ids=" ".join)
def test_commands_without_elimination_leave_it_unloaded(argv):
    status, executed = executed_after(
        *argv, "--algebra", ybx.fixture_path("quadratic.json"))
    assert status in (0, 1)
    assert not ON_FIRST_USE & set(executed)


def test_invert_loads_the_elimination():
    status, executed = executed_after(
        "invert", "--family", "dn", "--algebra",
        ybx.fixture_path("quadratic.json"), "--alpha", "1", "--beta", "2",
        "--gamma", "1")
    assert status == 0
    assert "ybx.elimination" in executed


def test_the_gcd_loads_where_polynomials_divide():
    # an integer table with free parameters: the inverse divides by its
    # symbolic determinant, and validating or checking the table divides
    # nothing
    cubic = ["--algebra", ybx.fixture_path("cubic.json")]
    status, executed = executed_after("invert", "--family", "dn", *cubic)
    assert status == 0 and "ybx.gcd" in executed
    for argv in (["validate", "algebra"], ["check", "constant"]):
        status, executed = executed_after(*argv, *cubic)
        assert status in (0, 1) and "ybx.gcd" not in executed, argv


INTEGER_INPUT = {
    "validate algebra": ["validate", "algebra", "--algebra", "cubic.json"],
    "validate superalgebra": ["validate", "superalgebra", "--superalgebra",
                              "gl11.json"],
    "check constant": ["check", "constant", "--algebra", "cubic.json",
                       "--alpha", "1", "--beta", "-2", "--gamma", "3"],
    "check constant, free parameters": ["check", "constant", "--algebra",
                                        "cubic.json"],
    "export matrix": ["export", "matrix", "--family", "colored",
                      "--algebra", "cubic.json", "--p", "1", "--q", "2",
                      "--u", "3", "--v", "5", "--format", "json"],
    "invert": ["invert", "--family", "dn", "--algebra", "cubic.json",
               "--alpha", "2", "--beta", "3", "--gamma", "1"],
    "invert super": ["invert", "--family", "super", "--superalgebra",
                     "heisenberg-super.json", "--alpha", "2"],
}


@pytest.mark.parametrize("argv", INTEGER_INPUT.values(), ids=INTEGER_INPUT)
def test_commands_on_integer_input_import_no_fractions(argv):
    argv = [ybx.fixture_path(a) if a.endswith(".json") else a for a in argv]
    status, executed = executed_after(*argv)
    assert status in (0, 1)
    assert not {"fractions", "decimal"} & set(executed)


# the public names, other than modules, that the package had before it
# loaded its modules on first use
PUBLIC = [
    "Algebra", "AlgebraError", "AntisymmetryError", "AssociativityError",
    "Defect", "DimensionMismatch", "FieldTypeError", "FreeIndeterminateError",
    "GradingError", "IncompleteAssignmentError", "InputError",
    "InvalidCenterError", "InverseResult", "InvertibilityLocusError",
    "JacobiError", "LieSuperalgebra", "MalformedScalarError",
    "NotYangBaxterError", "ONE", "Operator2", "Operator3", "ParamScalar",
    "PoleError", "ScalarParseError", "ShapeError", "SplitSpace",
    "SuperalgebraError", "SupportViolationError", "UnitError",
    "VerificationReport", "WxzTriple", "YbxError", "ZERO",
    "algebra_from_json_obj", "as_scalar", "bracket_elements",
    "braid_defect", "canonical_two_dim_solution", "classify_dn",
    "colored_defect", "colored_inverse", "colored_operator", "const",
    "determinant", "dn_inverse", "dn_operator", "embed", "even_center",
    "fixture_path", "fresh_name", "invert", "load_algebra",
    "load_superalgebra", "make_algebra", "make_superalgebra", "mul_elements",
    "nullspace", "operator_from_json_obj", "parse_scalar",
    "quadratic_quotient_algebra", "qybe_defect", "roundtrip_defect",
    "split_center_operator", "super_phi", "super_phi_inverse",
    "superalgebra_from_json_obj", "twist", "var", "verify_colored_family",
    "verify_constant", "verify_inverse_pair", "verify_wxz", "wxz_system",
    "yb_commutator",
]


def test_dir_and_all_list_every_public_name():
    assert len(PUBLIC) == 74
    assert set(PUBLIC) <= set(dir(ybx))
    assert sorted(ybx.__all__) == sorted(PUBLIC)


def test_each_public_name_is_the_object_its_module_defines():
    for name in PUBLIC:
        obj = getattr(ybx, name)
        # ONE and ZERO are instances, whose __module__ is their class's
        assert vars(sys.modules[obj.__module__])[name] is obj, name


def test_star_import_binds_every_public_name():
    # in a fresh interpreter, so that no name was read before
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent),
               PYTHONDONTWRITEBYTECODE="1")
    code = ("import json\n"
            "from ybx import *\n"
            "print(json.dumps(sorted(globals())))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert set(PUBLIC) <= set(json.loads(proc.stdout))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ybx.no_such_name
    assert not hasattr(ybx, "no_such_name")


def test_no_private_helper_is_stranded():
    # a private module-level name that nothing in the package reads is
    # dead: a helper left behind when its callers moved to another module
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in PACKAGE.glob("*.py")}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    stranded = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined = [n.id for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name)]
            else:
                continue
            stranded += [f"{name}: {d}" for d in defined
                         if d.startswith("_") and not d.startswith("__")
                         and d not in read]
    assert stranded == []
