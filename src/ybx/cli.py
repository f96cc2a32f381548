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
from dataclasses import dataclass, field, replace
from typing import Optional

from .algebra import Algebra, AlgebraError, FieldTypeError, load_algebra
from .constructors import (FreeIndeterminateError, InvalidCenterError,
                           InvertibilityLocusError, NotYangBaxterError,
                           SplitSpace, SupportViolationError,
                           _dn_case_symbolic, colored_operator, dn_operator,
                           split_center_operator, super_phi,
                           super_phi_inverse, wxz_system)
from .lie_super import (LieSuperalgebra, SuperalgebraError, even_center,
                        load_superalgebra)
from .scalars import (IncompleteAssignmentError, MalformedScalarError,
                      ParamScalar, PoleError, ScalarParseError, const,
                      fresh_name, parse_scalar, var)
from .tensor import DimensionMismatch, Operator2, invert, qybe_defect
from .verify import (entry_witness, report, verify_colored_family,
                     verify_constant, verify_inverse_pair, verify_wxz)

PARAM_FLAGS = ("alpha", "beta", "gamma", "p", "q", "u", "v", "lam", "mu")


@dataclass
class CliConfig:
    """Everything one invocation needs, resolved from argv."""

    command: str
    algebra_path: Optional[str] = None
    superalgebra_path: Optional[str] = None
    bindings: dict = field(default_factory=dict)   # flag name -> scalar string
    fmt: str = "text"
    out: Optional[str] = None
    symbolic: bool = False
    samples: Optional[int] = None
    seed: int = 0
    z_index: int = 0
    dim: int = 3
    family: Optional[str] = None


class InputError(Exception):
    """Anything wrong with the invocation's inputs; exits with status 2."""


# Every error class of ybx: one that a handler lets through still exits
# with status 2 and a one-line message, never with a traceback.
_YBX_ERRORS = (InputError, AlgebraError, FieldTypeError, SuperalgebraError,
               ScalarParseError, MalformedScalarError, PoleError,
               IncompleteAssignmentError, DimensionMismatch,
               NotYangBaxterError, FreeIndeterminateError,
               InvertibilityLocusError, SupportViolationError,
               InvalidCenterError)

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


def _add_common(sub, algebra=False, superalgebra=False, params=(),
                sampling=False, family=False, dim=False):
    if algebra:
        sub.add_argument("--algebra", metavar="PATH", required=True)
        for name in ("m", "n", "sigma"):
            sub.add_argument(f"--{name}", metavar="EXPR")
    if superalgebra:
        sub.add_argument("--superalgebra", metavar="PATH", required=True)
        sub.add_argument("--z-index", type=int, default=0, dest="z_index")
    for name in params:
        if name == "lam":
            sub.add_argument("--lambda", metavar="EXPR", dest="lam")
        else:
            sub.add_argument(f"--{name}", metavar="EXPR")
    if sampling:
        sub.add_argument("--samples", type=_int_in_range(1), metavar="N")
        sub.add_argument("--seed", type=int, default=0, metavar="S")
    if dim:
        sub.add_argument("--dim", type=_int_in_range(2, MAX_SPLIT_DIM),
                         default=3)
    if family:
        sub.add_argument("--family", required=True,
                         choices=["dn", "colored", "wxz", "super"])
        sub.add_argument("--superalgebra", metavar="PATH", dest="superalgebra")
        sub.add_argument("--z-index", type=int, default=0, dest="z_index")
    sub.add_argument("--symbolic", action="store_true")
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
    _add_common(sub, algebra=True, params=("alpha", "beta", "gamma"))
    sub = which.add_parser("colored", help="two-parameter identity for the "
                           "colored family")
    _add_common(sub, algebra=True, params=("p", "q"), sampling=True)
    sub = which.add_parser("wxz", help="the four commutator conditions")
    _add_common(sub, algebra=True, params=("lam", "mu"))
    sub = which.add_parser("super", help="braid identity and inverse for "
                           "the superalgebra family")
    _add_common(sub, superalgebra=True, params=("alpha",))
    sub = which.add_parser("split-center", help="constant QYBE for random "
                           "admissible split-center operators")
    _add_common(sub, sampling=True, dim=True)

    export = top.add_parser("export", help="print a constructed matrix")
    what = export.add_subparsers(dest="target", required=True)
    sub = what.add_parser("matrix")
    _add_common(sub, family=True,
                params=("alpha", "beta", "gamma", "p", "q", "u", "v",
                        "lam", "mu"))
    sub.add_argument("--algebra", metavar="PATH")
    for name in ("m", "n", "sigma"):
        sub.add_argument(f"--{name}", metavar="EXPR")

    validate = top.add_parser("validate", help="check a structure file "
                              "against its axioms")
    vwhat = validate.add_subparsers(dest="target", required=True)
    sub = vwhat.add_parser("algebra")
    _add_common(sub, algebra=True)
    sub = vwhat.add_parser("superalgebra")
    _add_common(sub, superalgebra=True)

    inv = top.add_parser("invert", help="exact matrix inversion of a "
                         "constructed operator")
    _add_common(inv, family=True,
                params=("alpha", "beta", "gamma", "p", "q", "u", "v",
                        "lam", "mu"))
    inv.add_argument("--algebra", metavar="PATH")
    for name in ("m", "n", "sigma"):
        inv.add_argument(f"--{name}", metavar="EXPR")

    return parser


def _config_from_args(args) -> CliConfig:
    cfg = CliConfig(command=f"{args.verb} {getattr(args, 'target', '')}".strip())
    cfg.algebra_path = getattr(args, "algebra", None)
    cfg.superalgebra_path = getattr(args, "superalgebra", None)
    cfg.fmt = getattr(args, "fmt", "text")
    cfg.out = getattr(args, "out", None)
    cfg.symbolic = getattr(args, "symbolic", False)
    cfg.samples = getattr(args, "samples", None)
    cfg.seed = getattr(args, "seed", 0)
    cfg.z_index = getattr(args, "z_index", 0)
    cfg.dim = getattr(args, "dim", 3)
    cfg.family = getattr(args, "family", None)
    for name in PARAM_FLAGS + ("m", "n", "sigma"):
        value = getattr(args, name, None)
        if value is not None:
            cfg.bindings[name] = value
    return cfg


def _load_algebra(cfg: CliConfig) -> Algebra:
    if cfg.algebra_path is None:
        raise InputError("this command needs --algebra PATH")
    try:
        A = load_algebra(cfg.algebra_path)
    except FileNotFoundError:
        raise InputError(f"no such file: {cfg.algebra_path}")
    except (json.JSONDecodeError, RecursionError) as exc:
        # json raises RecursionError on arrays nested past the stack limit
        raise InputError(f"not valid JSON: {cfg.algebra_path}: {exc}")
    except (AlgebraError, FieldTypeError, ScalarParseError,
            MalformedScalarError) as exc:
        raise InputError(f"bad algebra file {cfg.algebra_path}: {exc}")
    subs = {}
    for name in ("m", "n", "sigma"):
        if name in cfg.bindings:
            subs[name] = _parse(cfg.bindings[name], name)
    if subs:
        A = A.substitute(subs)
    return A


def _load_superalgebra(cfg: CliConfig) -> LieSuperalgebra:
    if cfg.superalgebra_path is None:
        raise InputError("this command needs --superalgebra PATH")
    try:
        return load_superalgebra(cfg.superalgebra_path)
    except FileNotFoundError:
        raise InputError(f"no such file: {cfg.superalgebra_path}")
    except (json.JSONDecodeError, RecursionError) as exc:
        # json raises RecursionError on arrays nested past the stack limit
        raise InputError(f"not valid JSON: {cfg.superalgebra_path}: {exc}")
    except (SuperalgebraError, FieldTypeError, ScalarParseError,
            MalformedScalarError) as exc:
        raise InputError(f"bad superalgebra file {cfg.superalgebra_path}: {exc}")


def _parse(text: str, flag: str) -> ParamScalar:
    try:
        return parse_scalar(text)
    except (ScalarParseError, MalformedScalarError) as exc:
        raise InputError(f"--{flag}: {exc}")


def _param(cfg: CliConfig, name: str, taken: set) -> ParamScalar:
    """A bound parameter parses; an unbound one becomes a fresh symbol."""
    if name in cfg.bindings:
        s = _parse(cfg.bindings[name], name)
        taken.update(s.names)
        return s
    display = "lambda" if name == "lam" else name
    fresh = fresh_name(display, taken)
    taken.add(fresh)
    return var(fresh)


def _emit(cfg: CliConfig, text_body: str, json_obj) -> None:
    if cfg.fmt == "json":
        body = json.dumps(json_obj, indent=2, sort_keys=True) + "\n"
    else:
        body = text_body if text_body.endswith("\n") else text_body + "\n"
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(body)
        except OSError as exc:
            raise InputError(f"cannot write --out {cfg.out}: {exc.strerror}")
    else:
        sys.stdout.write(body)


def _emit_reports(cfg: CliConfig, reports) -> int:
    text_body = "\n".join(r.to_text() for r in reports)
    json_obj = {"format": "ybx-report-v1",
                "reports": [r.to_json_obj() for r in reports]}
    _emit(cfg, text_body, json_obj)
    return 0 if all(r.passed for r in reports) else 1


# -- command handlers -------------------------------------------------------

def _cmd_check_constant(cfg: CliConfig) -> int:
    A = _load_algebra(cfg)
    taken = set(A.names)
    alpha = _param(cfg, "alpha", taken)
    beta = _param(cfg, "beta", taken)
    gamma = _param(cfg, "gamma", taken)
    R = dn_operator(A, alpha, beta, gamma)
    detail = {"parameters": {"alpha": str(alpha), "beta": str(beta),
                             "gamma": str(gamma)},
              "case": _dn_case_symbolic(alpha, beta, gamma) or "none"}
    return _emit_reports(cfg, [replace(verify_constant(R, "braid"),
                                       detail=detail)])


def _cmd_check_colored(cfg: CliConfig) -> int:
    A = _load_algebra(cfg)
    taken = set(A.names)
    p = _param(cfg, "p", taken)
    q = _param(cfg, "q", taken)
    if cfg.samples is not None and not cfg.symbolic:
        checked = verify_colored_family(A, p, q, mode="sampled",
                                        samples=cfg.samples, seed=cfg.seed)
    else:
        checked = verify_colored_family(A, p, q, mode="symbolic")
    return _emit_reports(cfg, [checked])


def _cmd_check_wxz(cfg: CliConfig) -> int:
    A = _load_algebra(cfg)
    taken = set(A.names)
    lam = _param(cfg, "lam", taken)
    mu = _param(cfg, "mu", taken)
    return _emit_reports(cfg, [verify_wxz(wxz_system(A, lam, mu))])


def _cmd_check_super(cfg: CliConfig) -> int:
    L = _load_superalgebra(cfg)
    phi, phi_inv = _build_super_pair(cfg, L)
    return _emit_reports(cfg, [verify_constant(phi, "braid"),
                               verify_inverse_pair(phi, phi_inv)])


def _build_super_pair(cfg: CliConfig, L: LieSuperalgebra):
    basis = even_center(L)
    if not basis:
        raise InputError("the superalgebra has no even central element")
    if not 0 <= cfg.z_index < len(basis):
        raise InputError(
            f"--z-index {cfg.z_index} out of range: the even center has "
            f"{len(basis)} basis vector(s)"
        )
    z = basis[cfg.z_index]
    taken = set()
    for vec in basis:
        for c in vec:
            taken.update(c.names)
    alpha = _param(cfg, "alpha", taken)
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


def _cmd_check_split_center(cfg: CliConfig) -> int:
    t0 = time.perf_counter()
    samples = cfg.samples if cfg.samples is not None else 20
    rng = random.Random(cfg.seed)
    space = SplitSpace(cfg.dim, cfg.dim - 1)
    witness = None
    for trial in range(samples):
        f = _random_split_instance(space, rng)
        g = _random_split_instance(space, rng)
        R = split_center_operator(space, f, g)
        witness = entry_witness(qybe_defect(R), {"instance": trial})
        if witness is not None:
            break
    return _emit_reports(cfg, [report(
        "qybe", "sampled", t0, witness,
        {"instances": samples, "dim": cfg.dim, "seed": cfg.seed})])


def _build_family(cfg: CliConfig):
    """(label, operator) pairs for export/invert."""
    if cfg.family in ("dn", "colored", "wxz"):
        A = _load_algebra(cfg)
        taken = set(A.names)
        if cfg.family == "dn":
            R = dn_operator(A, _param(cfg, "alpha", taken),
                            _param(cfg, "beta", taken),
                            _param(cfg, "gamma", taken))
            return [("R", R)]
        if cfg.family == "colored":
            R = colored_operator(A, _param(cfg, "p", taken),
                                 _param(cfg, "q", taken),
                                 _param(cfg, "u", taken),
                                 _param(cfg, "v", taken))
            return [("R", R)]
        t = wxz_system(A, _param(cfg, "lam", taken), _param(cfg, "mu", taken))
        return [("W", t.W), ("X", t.X), ("Z", t.Z)]
    if cfg.family == "super":
        L = _load_superalgebra(cfg)
        phi, _ = _build_super_pair(cfg, L)
        return [("phi", phi)]
    raise InputError(f"unknown family {cfg.family!r}")


def _cmd_export_matrix(cfg: CliConfig) -> int:
    built = _build_family(cfg)
    if len(built) == 1:
        only = built[0][1]
        _emit(cfg, only.to_text(), only.to_json_obj())
    else:
        text_body = "\n\n".join(f"{label}:\n{op.to_text()}"
                                for label, op in built)
        json_obj = {label: op.to_json_obj() for label, op in built}
        _emit(cfg, text_body, json_obj)
    return 0


def _validate(cfg: CliConfig, load, identity: str, error_type,
              describe) -> int:
    """Load a structure file; an axiom violation (error_type) is a failed
    report, any other input error exits 2."""
    t0 = time.perf_counter()
    try:
        structure = load(cfg)
    except InputError as exc:
        cause = exc.__cause__ or exc.__context__
        if not isinstance(cause, error_type):
            raise
        witness = {"error": str(cause)}
        if getattr(cause, "witness", None) is not None:
            witness["indices"] = list(
                cause.witness if isinstance(cause.witness, tuple)
                else [cause.witness])
        return _emit_reports(cfg, [report(identity, "symbolic", t0, witness)])
    return _emit_reports(cfg, [report(identity, "symbolic", t0, None,
                                      describe(structure))])


def _cmd_invert(cfg: CliConfig) -> int:
    built = _build_family(cfg)
    if len(built) != 1:
        raise InputError("invert works on a single operator; "
                         "--family wxz is not supported here")
    label, R = built[0]
    result = invert(R)
    if not result.invertible:
        _emit(cfg, f"{label} is singular: determinant 0",
              {"determinant": "0", "invertible": False})
        return 1
    json_obj = {"invertible": True,
                "determinant": str(result.determinant),
                "inverse": result.operator.to_json_obj()}
    text_body = (f"determinant: {result.determinant}\n"
                 f"inverse:\n{result.operator.to_text()}")
    _emit(cfg, text_body, json_obj)
    return 0


_HANDLERS = {
    "check constant": _cmd_check_constant,
    "check colored": _cmd_check_colored,
    "check wxz": _cmd_check_wxz,
    "check super": _cmd_check_super,
    "check split-center": _cmd_check_split_center,
    "export matrix": _cmd_export_matrix,
    "validate algebra": lambda cfg: _validate(
        cfg, _load_algebra, "algebra-axioms", AlgebraError,
        lambda A: {"dim": A.dim, "labels": list(A.labels)}),
    "validate superalgebra": lambda cfg: _validate(
        cfg, _load_superalgebra, "super-axioms", SuperalgebraError,
        lambda L: {"dim": L.dim, "degree": list(L.degree),
                   "labels": list(L.labels)}),
    "invert": _cmd_invert,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    cfg = _config_from_args(args)
    handler = _HANDLERS.get(cfg.command)
    if handler is None:
        print(f"unknown command {cfg.command!r}", file=sys.stderr)
        return 2
    try:
        return handler(cfg)
    except _YBX_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
