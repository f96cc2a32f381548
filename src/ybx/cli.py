"""Command-line front end.

Verbs: check (constant | colored | wxz | super | split-center),
export matrix, validate (algebra | superalgebra), invert.

Exit status: 0 when every report passes, 1 when any check fails (or an
inversion target is singular), 2 on usage or input errors. Identical
invocations with identical seeds emit byte-identical JSON: reports
serialize without timings and with sorted keys.

ybx's other modules are reached through the module objects that the
package registers (``verify.report``), never through names bound at
import, so a command runs only the modules that it calls into.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import algebra, constructors, lie_super, scalars, tensor, verify


# Each split-center instance is a dense dim^4 operator; a one-sample check
# at this dim takes about 2 s and 100 MB on a 2-vCPU x86-64 VM.
MAX_SPLIT_DIM = 16


def _int_in_range(low: int, high=None):
    """An argparse type for an int in [low, high], unbounded above when
    high is None."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(
                f"must be at most {high}, got {value}")
        return value
    return parse


def _option(dest: str) -> str:
    return "--" + dest.replace("_", "-")


# Each --family's parameter flags, in the order its builder takes them,
# and the structure flags it reads, as argparse dests
_ALGEBRA = ("algebra", "m", "n", "sigma")
_FAMILIES = {"dn": (("alpha", "beta", "gamma"), _ALGEBRA),
             "colored": (("p", "q", "u", "v"), _ALGEBRA),
             "wxz": (("lambda", "mu"), _ALGEBRA),
             "super": (("alpha",), ("superalgebra", "z_index"))}
# Every flag: argparse dest -> add_argument keywords, in usage order
_EXPR = {"metavar": "EXPR"}
_FLAGS = {
    "family": {"choices": _FAMILIES},
    "algebra": {"metavar": "PATH"}, "m": _EXPR, "n": _EXPR, "sigma": _EXPR,
    "superalgebra": {"metavar": "PATH"}, "z_index": {"type": int},
    **{name: _EXPR for params, _ in _FAMILIES.values() for name in params},
    "samples": {"type": _int_in_range(1), "metavar": "N"},
    "seed": {"type": int, "default": 0, "metavar": "S"},
    "dim": {"type": _int_in_range(2, MAX_SPLIT_DIM), "default": 3},
    "format": {"choices": ["text", "json"], "default": "text"},
    "out": {"metavar": "PATH"},
    "symbolic": {"action": "store_true"},
}
# the flags that take a scalar expression
_SCALAR_FLAGS = frozenset(_option(name) for name, keywords in _FLAGS.items()
                          if keywords.get("metavar") == "EXPR")
_OUTPUT = ("format", "out")
# a family command's flags: --family, then each flag that a family reads
_FAMILY_FLAGS = ("family", *(
    name for name in _FLAGS
    if any(name in p + s for p, s in _FAMILIES.values())), *_OUTPUT)


def build_parser(argv):
    """(parser, argv joined): the parser of every verb and target, with the
    flags of only the command that argv names, its first token that is a
    verb, then its first token after that which is a target of the verb,
    and argv with that command's scalar values joined (``_join_values``).
    argparse dispatches on the first positional token, and one that names
    no command is an error of the parser above it, so every command that
    argparse reaches has its flags, and its usage and help are the same.
    A family command takes every structure and parameter flag, and needs
    no structure file until its family is known."""
    parser = argparse.ArgumentParser(
        prog="ybx",
        description="Build and verify braid / QYBE operator families "
                    "with exact symbolic arithmetic.",
    )
    top = parser.add_subparsers(dest="verb", required=True)
    flags = {}  # each command's parser -> (handler, required flag, flags)

    check = top.add_parser("check", help="run an identity check")
    which = check.add_subparsers(dest="target", required=True)
    flags[which.add_parser("constant", help="braid identity for the "
                           "three-parameter product family")] = (
        _cmd_check_constant, "algebra",
        (*_ALGEBRA, *_FAMILIES["dn"][0], *_OUTPUT))
    flags[which.add_parser("colored", help="two-parameter identity for the "
                           "colored family")] = (
        _cmd_check_colored, "algebra",
        (*_ALGEBRA, "p", "q", "samples", "seed", *_OUTPUT, "symbolic"))
    flags[which.add_parser("wxz", help="the four commutator conditions")] = (
        _cmd_check_wxz, "algebra", (*_ALGEBRA, *_FAMILIES["wxz"][0], *_OUTPUT))
    flags[which.add_parser("super", help="braid identity and inverse for "
                           "the superalgebra family")] = (
        _cmd_check_super, "superalgebra",
        ("superalgebra", "z_index", *_FAMILIES["super"][0], *_OUTPUT))
    flags[which.add_parser("split-center", help="constant QYBE for random "
                           "admissible split-center operators")] = (
        _cmd_check_split_center, None, ("samples", "seed", "dim", *_OUTPUT))

    export = top.add_parser("export", help="print a constructed matrix")
    what = export.add_subparsers(dest="target", required=True)
    flags[what.add_parser("matrix")] = (_cmd_export_matrix, "family",
                                        _FAMILY_FLAGS)

    validate = top.add_parser("validate", help="check a structure file "
                              "against its axioms")
    vwhat = validate.add_subparsers(dest="target", required=True)
    flags[vwhat.add_parser("algebra")] = (_cmd_validate, "algebra",
                                          (*_ALGEBRA, *_OUTPUT))
    flags[vwhat.add_parser("superalgebra")] = (_cmd_validate, "superalgebra",
                                               ("superalgebra", *_OUTPUT))

    flags[top.add_parser("invert", help="exact matrix inversion of a "
                         "constructed operator")] = (_cmd_invert, "family",
                                                     _FAMILY_FLAGS)

    # each parser -> its verbs or targets, by name
    children = {parser: top.choices, check: which.choices,
                export: what.choices, validate: vwhat.choices}
    named, last = parser, 0
    for i, token in enumerate(argv, 1):
        if token in children.get(named, ()):
            named, last = children[named][token], i
    if named in flags:
        handler, required, names = flags[named]
        named.set_defaults(handler=handler)
        for name in names:
            named.add_argument(_option(name), required=name == required,
                               **_FLAGS[name])
        argv = _join_values({"-h", "--help", *map(_option, names)}, argv,
                            last)
    return parser, argv


def _load(args, kind: str):
    """The structure file that --algebra or --superalgebra names (kind is
    "algebra" or "superalgebra"), with --m, --n and --sigma substituted
    into an algebra; each of them that names no indeterminate of the file
    is an input error. Bad input raises InputError with the cause chained."""
    path = getattr(args, kind)
    if path is None:
        raise scalars.InputError(f"this command needs --{kind} PATH")
    load = (algebra.load_algebra if kind == "algebra"
            else lie_super.load_superalgebra)
    try:
        structure = load(path)
    except scalars.InputError:   # the file: missing, unreadable or not JSON
        raise
    except scalars.YbxError as exc:
        raise scalars.InputError(f"bad {kind} file {path}: {exc}") from exc
    if kind == "superalgebra":
        return structure
    given = [name for name in ("m", "n", "sigma")
             if getattr(args, name) is not None]
    for name in given:
        if name not in structure.names:
            raise scalars.InputError(
                f"{_option(name)}: {path} has no indeterminate {name}")
    subs = {name: _parse(getattr(args, name), name) for name in given}
    return structure.substitute(subs) if subs else structure


def _parse(text: str, flag: str) -> scalars.ParamScalar:
    try:
        return scalars.parse_scalar(text)
    except scalars.YbxError as exc:
        raise scalars.InputError(f"--{flag}: {exc}") from exc


def _params(args, names, taken: set) -> list:
    """The named parameters in order: a bound one parses, an unbound one
    becomes a fresh symbol; taken, the names in use, grows with each."""
    params = []
    for name in names:
        text = getattr(args, name)
        s = (scalars.var(scalars.fresh_name(name, taken)) if text is None
             else _parse(text, name))
        taken.update(s.names)
        params.append(s)
    return params


def _bind(args, names):
    """The algebra that --algebra names and the named parameters in it."""
    A = _load(args, "algebra")
    return A, _params(args, names, set(A.names))


def _emit(args, text_body: str, json_obj) -> None:
    if args.format == "json":
        body = json.dumps(json_obj, indent=2, sort_keys=True) + "\n"
    else:
        body = text_body if text_body.endswith("\n") else text_body + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(body)
        except OSError as exc:
            raise scalars.InputError(
                f"cannot write --out {args.out}: {exc.strerror}")
    else:
        sys.stdout.write(body)


def _emit_reports(args, reports) -> int:
    text_body = "\n".join(r.to_text() for r in reports)
    json_obj = {"format": "ybx-report-v1",
                "reports": [r.to_json_obj() for r in reports]}
    _emit(args, text_body, json_obj)
    return 0 if all(r.passed for r in reports) else 1


# -- command handlers: each takes the parsed argparse namespace ------------

def _cmd_check_constant(args) -> int:
    names = _FAMILIES["dn"][0]
    A, params = _bind(args, names)
    detail = {"parameters": {k: str(s) for k, s in zip(names, params)},
              "case": constructors._dn_case_symbolic(*params) or "none"}
    rep = verify.verify_constant(constructors.dn_operator(A, *params), "braid")
    return _emit_reports(args, [verify.VerificationReport(
        rep.identity, rep.mode, rep.status, rep.witness, rep.elapsed, detail)])


def _cmd_check_colored(args) -> int:
    A, (p, q) = _bind(args, ("p", "q"))
    if args.samples is not None and not args.symbolic:
        checked = verify.verify_colored_family(
            A, p, q, mode="sampled", samples=args.samples, seed=args.seed)
    else:
        checked = verify.verify_colored_family(A, p, q, mode="symbolic")
    return _emit_reports(args, [checked])


def _cmd_check_wxz(args) -> int:
    A, params = _bind(args, _FAMILIES["wxz"][0])
    return _emit_reports(
        args, [verify.verify_wxz(constructors.wxz_system(A, *params))])


def _cmd_check_super(args) -> int:
    L, z, alpha = _super_params(args)
    phi = constructors.super_phi(L, z, alpha)
    phi_inv = constructors.super_phi_inverse(L, z, alpha)
    return _emit_reports(args, [verify.verify_constant(phi, "braid"),
                                verify.verify_inverse_pair(phi, phi_inv)])


def _super_params(args):
    """(superalgebra, even central z, alpha) of the super family."""
    L = _load(args, "superalgebra")
    basis = lie_super.even_center(L)
    if not basis:
        raise scalars.InputError(
            "the superalgebra has no even central element")
    index = args.z_index or 0
    if not 0 <= index < len(basis):
        raise scalars.InputError(
            f"--z-index {index} out of range: the even center has "
            f"{len(basis)} basis vector(s)"
        )
    alpha, = _params(args, _FAMILIES["super"][0], set(L.names))
    return L, basis[index], alpha


def _random_split_instance(space: constructors.SplitSpace,
                           rng: random.Random) -> tensor.Operator2:
    """Small random integers in the columns of the basis tensors of W(x)W,
    zero elsewhere; drawn column by column in flat-index order, which
    fixes the instances (and so the witnesses) each seed gives."""
    n = space.total_dim
    W = space.W_indices
    return tensor.Operator2.from_columns(n, (
        [(r, scalars.const(rng.randint(-3, 3))) for r in range(n * n)]
        if i in W and j in W else () for i in range(n) for j in range(n)))


def _cmd_check_split_center(args) -> int:
    t0 = time.perf_counter()
    samples = args.samples if args.samples is not None else 20
    rng = random.Random(args.seed)
    space = constructors.SplitSpace(args.dim, args.dim - 1)
    witness = None
    for trial in range(samples):
        f = _random_split_instance(space, rng)
        g = _random_split_instance(space, rng)
        R = constructors.split_center_operator(space, f, g)
        witness = verify.entry_witness(tensor.qybe_defect(R),
                                       {"instance": trial})
        if witness is not None:
            break
    return _emit_reports(args, [verify.report(
        "qybe", "sampled", t0, witness,
        {"instances": samples, "dim": args.dim, "seed": args.seed})])


def _build_family(args):
    """(label, operator) pairs for export/invert; a flag that the family
    does not read is an input error."""
    reads = {family: params + structure
             for family, (params, structure) in _FAMILIES.items()}
    stray = [name for flags in reads.values() for name in flags
             if name not in reads[args.family]
             and getattr(args, name) is not None]
    if stray:
        raise scalars.InputError(f"--family {args.family} does not read "
                                 f"{_option(stray[0])}")
    if args.family == "super":
        return [("phi", constructors.super_phi(*_super_params(args)))]
    A, params = _bind(args, _FAMILIES[args.family][0])
    if args.family == "wxz":
        t = constructors.wxz_system(A, *params)
        return [("W", t.W), ("X", t.X), ("Z", t.Z)]
    build = (constructors.dn_operator if args.family == "dn"
             else constructors.colored_operator)
    return [("R", build(A, *params))]


def _cmd_export_matrix(args) -> int:
    built = _build_family(args)
    if len(built) == 1:
        only = built[0][1]
        _emit(args, only.to_text(), only.to_json_obj())
    else:
        text_body = "\n\n".join(f"{label}:\n{op.to_text()}"
                                for label, op in built)
        json_obj = {label: op.to_json_obj() for label, op in built}
        _emit(args, text_body, json_obj)
    return 0


def _cmd_validate(args) -> int:
    """Load the structure file that the target (algebra or superalgebra)
    names; an axiom violation is a failed report, and a malformed file or
    any other input error exits 2."""
    t0 = time.perf_counter()
    identity = "algebra-axioms" if args.target == "algebra" else "super-axioms"
    try:
        structure = _load(args, args.target)
    except scalars.InputError as exc:
        cause = exc.__cause__
        # the base of the target module's axiom errors, and its ShapeError
        axiom, shape = ((algebra.AlgebraError, algebra.ShapeError)
                        if args.target == "algebra" else
                        (lie_super.SuperalgebraError, lie_super.ShapeError))
        if not isinstance(cause, axiom) or isinstance(cause, shape):
            raise
        witness = {"error": str(cause)}
        if getattr(cause, "witness", None) is not None:
            witness["indices"] = list(
                cause.witness if isinstance(cause.witness, tuple)
                else [cause.witness])
        return _emit_reports(
            args, [verify.report(identity, "symbolic", t0, witness)])
    detail = {"dim": structure.dim, "labels": list(structure.labels)}
    if args.target == "superalgebra":
        detail["degree"] = list(structure.degree)
    return _emit_reports(
        args, [verify.report(identity, "symbolic", t0, None, detail)])


def _cmd_invert(args) -> int:
    built = _build_family(args)
    if len(built) != 1:
        raise scalars.InputError("invert works on a single operator; "
                                 "--family wxz is not supported here")
    label, R = built[0]
    result = tensor.invert(R)
    if not result.invertible:
        _emit(args, f"{label} is singular: determinant 0",
              {"determinant": "0", "invertible": False})
        return 1
    json_obj = {"invertible": True,
                "determinant": str(result.determinant),
                "inverse": result.operator.to_json_obj()}
    text_body = (f"determinant: {result.determinant}\n"
                 f"inverse:\n{result.operator.to_text()}")
    _emit(args, text_body, json_obj)
    return 0


def _join_values(options, argv, start):
    """argv with each scalar flag after argv[start - 1] joined by "=" to a
    following value that starts with a single "-", such as -3/2 or -a,
    which argparse would otherwise read as an option. options are the
    command's option strings; as in argparse, a flag may also be named by
    a prefix of exactly one long option among them."""
    out = argv[:start]
    for token in argv[start:]:
        named = {out[-1]} & options or {
            s for s in options if s.startswith(out[-1])}
        if (len(named) == 1 and named <= _SCALAR_FLAGS
                and token.startswith("-") and not token.startswith("--")):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser, argv = build_parser(argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # exact results print in full; inputs are bounded (scalars.bounded_int)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except scalars.YbxError as exc:  # every ybx error: one line, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
