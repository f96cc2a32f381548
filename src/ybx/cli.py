"""Command-line front end.

Verbs: check (constant | colored | wxz | super | split-center),
export matrix, validate (algebra | superalgebra), invert.

Exit status: 0 when every report passes, 1 when any check fails (or an
inversion target is singular), 2 on usage or input errors. Identical
invocations with identical seeds emit byte-identical JSON: reports
serialize without timings and with sorted keys.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from .algebra import AlgebraError, load_algebra
from .constructors import (SplitSpace, _dn_case_symbolic, colored_operator,
                           dn_operator, split_center_operator, super_phi,
                           super_phi_inverse, wxz_system)
from .lie_super import SuperalgebraError, even_center, load_superalgebra
from .scalars import (InputError, ParamScalar, YbxError, const, fresh_name,
                      parse_scalar, var)
from .tensor import Operator2, invert, qybe_defect
from .verify import (VerificationReport, entry_witness, report,
                     verify_colored_family, verify_constant,
                     verify_inverse_pair, verify_wxz)


# Each split-center instance is a dense dim^4 operator; a one-sample check
# at this dim takes about 2 s and 100 MB on a 2-vCPU x86-64 VM.
MAX_SPLIT_DIM = 16

# Each --family's structure kind and parameter flags, in the order its
# builder takes them; the flags (as argparse dests) that each kind reads
_FAMILIES = {"dn": ("algebra", ("alpha", "beta", "gamma")),
             "colored": ("algebra", ("p", "q", "u", "v")),
             "wxz": ("algebra", ("lambda", "mu")),
             "super": ("superalgebra", ("alpha",))}
_STRUCTURE_FLAGS = {"algebra": ("algebra", "m", "n", "sigma"),
                    "superalgebra": ("superalgebra", "z_index")}
# the flags that take a scalar expression
_SCALAR_FLAGS = frozenset(f"--{name}" for name in (
    "m", "n", "sigma", *(p for _, names in _FAMILIES.values() for p in names)))


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


def _add_common(sub, handler, algebra=False, superalgebra=False, params=(),
                sampling=False, family=False, dim=False):
    """Name sub's handler and register the flags it shares with other
    commands. A family command takes every structure and parameter flag,
    and needs no structure file until its family is known."""
    sub.set_defaults(handler=handler)
    if family:
        sub.add_argument("--family", required=True, choices=_FAMILIES)
        params = dict.fromkeys(name for _, names in _FAMILIES.values()
                               for name in names)
    if algebra or family:
        sub.add_argument("--algebra", metavar="PATH", required=not family)
        for name in ("m", "n", "sigma"):
            sub.add_argument(f"--{name}", metavar="EXPR")
    if superalgebra or family:
        sub.add_argument("--superalgebra", metavar="PATH",
                         required=not family)
    if family or superalgebra and params:  # the commands that build phi
        sub.add_argument("--z-index", type=int)
    for name in params:
        sub.add_argument(f"--{name}", metavar="EXPR")
    if sampling:
        sub.add_argument("--samples", type=_int_in_range(1), metavar="N")
        sub.add_argument("--seed", type=int, default=0, metavar="S")
    if dim:
        sub.add_argument("--dim", type=_int_in_range(2, MAX_SPLIT_DIM),
                         default=3)
    sub.add_argument("--format", choices=["text", "json"], default="text",
                     dest="fmt")
    sub.add_argument("--out", metavar="PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ybx",
        description="Build and verify braid / QYBE operator families "
                    "with exact symbolic arithmetic.",
    )
    top = parser.add_subparsers(dest="verb", required=True)

    check = top.add_parser("check", help="run an identity check")
    which = check.add_subparsers(dest="target", required=True)
    sub = which.add_parser("constant", help="braid identity for the "
                           "three-parameter product family")
    _add_common(sub, _cmd_check_constant, algebra=True,
                params=_FAMILIES["dn"][1])
    sub = which.add_parser("colored", help="two-parameter identity for the "
                           "colored family")
    _add_common(sub, _cmd_check_colored, algebra=True, params=("p", "q"),
                sampling=True)
    sub.add_argument("--symbolic", action="store_true")
    sub = which.add_parser("wxz", help="the four commutator conditions")
    _add_common(sub, _cmd_check_wxz, algebra=True, params=_FAMILIES["wxz"][1])
    sub = which.add_parser("super", help="braid identity and inverse for "
                           "the superalgebra family")
    _add_common(sub, _cmd_check_super, superalgebra=True,
                params=_FAMILIES["super"][1])
    sub = which.add_parser("split-center", help="constant QYBE for random "
                           "admissible split-center operators")
    _add_common(sub, _cmd_check_split_center, sampling=True, dim=True)

    export = top.add_parser("export", help="print a constructed matrix")
    what = export.add_subparsers(dest="target", required=True)
    _add_common(what.add_parser("matrix"), _cmd_export_matrix, family=True)

    validate = top.add_parser("validate", help="check a structure file "
                              "against its axioms")
    vwhat = validate.add_subparsers(dest="target", required=True)
    _add_common(vwhat.add_parser("algebra"), _cmd_validate, algebra=True)
    _add_common(vwhat.add_parser("superalgebra"), _cmd_validate,
                superalgebra=True)

    inv = top.add_parser("invert", help="exact matrix inversion of a "
                         "constructed operator")
    _add_common(inv, _cmd_invert, family=True)

    return parser


def _load(args, kind: str):
    """The structure file that --algebra or --superalgebra names (kind is
    "algebra" or "superalgebra"), with --m, --n and --sigma substituted
    into an algebra. Bad input raises InputError with the cause chained."""
    path = getattr(args, kind)
    if path is None:
        raise InputError(f"this command needs --{kind} PATH")
    load = load_algebra if kind == "algebra" else load_superalgebra
    try:
        structure = load(path)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        # json raises RecursionError on arrays nested past the stack limit
        raise InputError(f"not valid JSON: {path}: {exc}") from exc
    except YbxError as exc:
        raise InputError(f"bad {kind} file {path}: {exc}") from exc
    if kind == "superalgebra":
        return structure
    subs = {name: _parse(getattr(args, name), name)
            for name in ("m", "n", "sigma") if getattr(args, name) is not None}
    return structure.substitute(subs) if subs else structure


def _parse(text: str, flag: str) -> ParamScalar:
    try:
        return parse_scalar(text)
    except YbxError as exc:
        raise InputError(f"--{flag}: {exc}") from exc


def _params(args, names, taken: set) -> list:
    """The named parameters in order: a bound one parses, an unbound one
    becomes a fresh symbol; taken, the names in use, grows with each."""
    params = []
    for name in names:
        text = getattr(args, name)
        s = var(fresh_name(name, taken)) if text is None else _parse(text, name)
        taken.update(s.names)
        params.append(s)
    return params


def _bind(args, names):
    """The algebra that --algebra names and the named parameters in it."""
    A = _load(args, "algebra")
    return A, _params(args, names, set(A.names))


def _emit(args, text_body: str, json_obj) -> None:
    if args.fmt == "json":
        body = json.dumps(json_obj, indent=2, sort_keys=True) + "\n"
    else:
        body = text_body if text_body.endswith("\n") else text_body + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(body)
        except OSError as exc:
            raise InputError(f"cannot write --out {args.out}: {exc.strerror}")
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
    names = _FAMILIES["dn"][1]
    A, params = _bind(args, names)
    detail = {"parameters": {k: str(s) for k, s in zip(names, params)},
              "case": _dn_case_symbolic(*params) or "none"}
    rep = verify_constant(dn_operator(A, *params), "braid")
    return _emit_reports(args, [VerificationReport(
        rep.identity, rep.mode, rep.status, rep.witness, rep.elapsed, detail)])


def _cmd_check_colored(args) -> int:
    A, (p, q) = _bind(args, ("p", "q"))
    if args.samples is not None and not args.symbolic:
        checked = verify_colored_family(A, p, q, mode="sampled",
                                        samples=args.samples, seed=args.seed)
    else:
        checked = verify_colored_family(A, p, q, mode="symbolic")
    return _emit_reports(args, [checked])


def _cmd_check_wxz(args) -> int:
    A, params = _bind(args, _FAMILIES["wxz"][1])
    return _emit_reports(args, [verify_wxz(wxz_system(A, *params))])


def _cmd_check_super(args) -> int:
    phi, phi_inv = _build_super_pair(args)
    return _emit_reports(args, [verify_constant(phi, "braid"),
                                verify_inverse_pair(phi, phi_inv)])


def _build_super_pair(args):
    L = _load(args, "superalgebra")
    basis = even_center(L)
    if not basis:
        raise InputError("the superalgebra has no even central element")
    index = args.z_index or 0
    if not 0 <= index < len(basis):
        raise InputError(
            f"--z-index {index} out of range: the even center has "
            f"{len(basis)} basis vector(s)"
        )
    z = basis[index]
    taken = {name for vec in basis for c in vec for name in c.names}
    alpha, = _params(args, _FAMILIES["super"][1], taken)
    return (super_phi(L, z, alpha), super_phi_inverse(L, z, alpha))


def _random_split_instance(space: SplitSpace, rng: random.Random) -> Operator2:
    """Small random integers in the columns of the basis tensors of W(x)W,
    zero elsewhere; drawn column by column in flat-index order, which
    fixes the instances (and so the witnesses) each seed gives."""
    n = space.total_dim
    W = space.W_indices
    return Operator2.from_columns(n, (
        [(r, const(rng.randint(-3, 3))) for r in range(n * n)]
        if i in W and j in W else () for i in range(n) for j in range(n)))


def _cmd_check_split_center(args) -> int:
    t0 = time.perf_counter()
    samples = args.samples if args.samples is not None else 20
    rng = random.Random(args.seed)
    space = SplitSpace(args.dim, args.dim - 1)
    witness = None
    for trial in range(samples):
        f = _random_split_instance(space, rng)
        g = _random_split_instance(space, rng)
        R = split_center_operator(space, f, g)
        witness = entry_witness(qybe_defect(R), {"instance": trial})
        if witness is not None:
            break
    return _emit_reports(args, [report(
        "qybe", "sampled", t0, witness,
        {"instances": samples, "dim": args.dim, "seed": args.seed})])


def _build_family(args):
    """(label, operator) pairs for export/invert; a flag that the family
    does not read is an input error."""
    reads = {family: names + _STRUCTURE_FLAGS[kind]
             for family, (kind, names) in _FAMILIES.items()}
    stray = [name for flags in reads.values() for name in flags
             if name not in reads[args.family]
             and getattr(args, name) is not None]
    if stray:
        raise InputError(f"--family {args.family} does not read "
                         f"--{stray[0].replace('_', '-')}")
    if args.family == "super":
        return [("phi", _build_super_pair(args)[0])]
    A, params = _bind(args, _FAMILIES[args.family][1])
    if args.family == "wxz":
        t = wxz_system(A, *params)
        return [("W", t.W), ("X", t.X), ("Z", t.Z)]
    build = dn_operator if args.family == "dn" else colored_operator
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
    names; an axiom violation is a failed report, any other input error
    exits 2."""
    t0 = time.perf_counter()
    identity = "algebra-axioms" if args.target == "algebra" else "super-axioms"
    try:
        structure = _load(args, args.target)
    except InputError as exc:
        cause = exc.__cause__
        if not isinstance(cause, (AlgebraError, SuperalgebraError)):
            raise
        witness = {"error": str(cause)}
        if getattr(cause, "witness", None) is not None:
            witness["indices"] = list(
                cause.witness if isinstance(cause.witness, tuple)
                else [cause.witness])
        return _emit_reports(args, [report(identity, "symbolic", t0, witness)])
    detail = {"dim": structure.dim, "labels": list(structure.labels)}
    if args.target == "superalgebra":
        detail["degree"] = list(structure.degree)
    return _emit_reports(args, [report(identity, "symbolic", t0, None,
                                       detail)])


def _cmd_invert(args) -> int:
    built = _build_family(args)
    if len(built) != 1:
        raise InputError("invert works on a single operator; "
                         "--family wxz is not supported here")
    label, R = built[0]
    result = invert(R)
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


def _join_values(parser, argv):
    """argv with each scalar flag joined by "=" to a following value that
    starts with a single "-", such as -3/2 or -a, which argparse would
    otherwise read as an option. As in argparse, a flag may also be named
    by a prefix of exactly one long option of its command."""
    out = []
    for token in argv:
        flags = {s for a in parser._actions for s in a.option_strings}
        last = out[-1] if out else ""
        named = {last} & flags or {s for s in flags if s.startswith(last)}
        if (len(named) == 1 and named <= _SCALAR_FLAGS
                and token.startswith("-") and not token.startswith("--")):
            out[-1] += "=" + token
        else:
            out.append(token)
            parser = next((a.choices for a in parser._actions if isinstance(
                a, argparse._SubParsersAction)), {}).get(token, parser)
    return out


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(
            _join_values(parser, sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # exact results print in full; inputs are bounded (scalars.bounded_int)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except YbxError as exc:  # every ybx error: one line, never a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
