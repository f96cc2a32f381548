"""The benchmark's tracer (ybxbench/tracer.py) wraps ybx functions and
methods by name; a name it lists that ybx no longer defines makes every
traced run fail when the tracer installs itself."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import oracles

TRACER = Path(__file__).resolve().parents[1] / "ybxbench" / "tracer.py"


def load_tracer():
    if not TRACER.exists():
        pytest.skip("ybxbench/tracer.py is not present")
    spec = importlib.util.spec_from_file_location("ybxbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    for group, targets in tracer.LAYERS.items():
        for module_name, attr in targets:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                # the tracer replaces the entry in the class's own __dict__
                assert method in vars(getattr(owner, cls_name)), \
                    (group, module_name, attr)
            else:
                assert callable(getattr(owner, attr, None)), \
                    (group, module_name, attr)


def test_scalar_kernel_names_are_plain_attributes():
    # a rename, an alias or a closure here would drop the scalar kernel
    # from the benchmark's trace without any error
    from ybx import scalars
    gcd = vars(scalars)["poly_gcd"]
    assert inspect.isfunction(gcd) and gcd.__qualname__ == "poly_gcd"
    div = vars(scalars.Poly)["divexact"]
    assert inspect.isfunction(div) and div.__qualname__ == "Poly.divexact"


def test_replaced_scalar_kernel_sees_internal_calls(monkeypatch):
    # the tracer replaces these attributes; ybx's own calls must go
    # through them, not through a reference taken at import time
    from ybx import scalars
    calls = {"poly_gcd": 0, "divexact": 0}
    gcd, div = scalars.poly_gcd, scalars.Poly.divexact

    def counted_gcd(f, g):
        calls["poly_gcd"] += 1
        return gcd(f, g)

    def counted_div(self, g):
        calls["divexact"] += 1
        return div(self, g)

    monkeypatch.setattr(scalars, "poly_gcd", counted_gcd)
    monkeypatch.setattr(scalars.Poly, "divexact", counted_div)
    x, y = scalars.var("x"), scalars.var("y")
    assert scalars.poly_gcd((x * x - y * y).num, (x - y).num) == (x - y).num
    # the gcd's own recursion goes through the replaced name as well
    assert calls["poly_gcd"] > 1
    assert (x * x - y * y) / (x - y) == x + y
    assert calls["divexact"] > 0


def _patch_arithmetic(monkeypatch, cls, names, replace):
    """Replace each method cls.name by replace(original)."""
    for name in names:
        monkeypatch.setattr(cls, name, replace(vars(cls)[name]))


def _param_scalar_arithmetic():
    tracer = load_tracer()
    return [attr.split(".")[1] for _, attr in tracer.LAYERS["scalars.arith"]
            ] + ["__neg__", "__pow__", "reciprocal"]


def test_defect_scan_runs_inside_the_defect_call(monkeypatch):
    # the tracer times the kernel as the tensor.defect span, so the scan
    # must be done when a defect returns: reading the witness afterwards
    # does no scalar arithmetic, of ParamScalars or of the Polys the kernel
    # runs on, on a symbolic defect whose first nonzero row is not the
    # first row
    from ybx import scalars
    from ybx.tensor import Operator2, braid_defect
    from ybx.verify import entry_witness
    calls = []

    def counted(original):
        def method(*args):
            calls.append(1)
            return original(*args)
        return method

    _patch_arithmetic(monkeypatch, scalars.ParamScalar,
                      _param_scalar_arithmetic(), counted)
    _patch_arithmetic(monkeypatch, scalars.Poly,
                      ("__add__", "__sub__", "__mul__", "__neg__",
                       "divexact"), counted)
    a = scalars.var("a")
    R = Operator2(2, [[a, 0, 0, 0], [0, 0, 1, 0], [0, 1, 1 - a, 0],
                      [0, 0, 0, a * a]])
    calls.clear()
    defect = braid_defect(R)
    assert calls, "the defect did no arithmetic"
    calls.clear()
    witness = entry_witness(defect)
    assert witness == {"row": 4, "col": 4, "entry": "2*a^3 - 3*a^2 + 1"}
    assert not defect.is_zero()
    assert calls == []


def test_products_do_no_param_scalar_arithmetic(monkeypatch):
    # @ and the defects run on cleared Polys and canonicalise each entry
    # once, with no ParamScalar arithmetic, also when the entries have
    # symbolic denominators and when constant and symbolic operators meet
    from ybx import scalars
    from ybx.algebra import quadratic_quotient_algebra
    from ybx.constructors import dn_inverse, dn_operator
    from ybx.tensor import (Operator2, braid_defect, qybe_defect,
                            yb_commutator)
    A = quadratic_quotient_algebra(scalars.var("m"), scalars.var("n"))
    a, b = scalars.var("a"), scalars.var("b")
    R, Rinv = dn_operator(A, a, b, a), dn_inverse(A, a, b, a)
    X = Operator2(2, [["1/2", 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0],
                      [1, 0, 0, "-1/3"]])
    identity = Operator2.identity(2)
    mixed = oracles.matmul(oracles.symbolic_matrix(X),
                           oracles.symbolic_matrix(Rinv))

    def refused(original):
        def method(*args):
            raise AssertionError(f"ParamScalar.{original.__name__} called")
        return method

    _patch_arithmetic(monkeypatch, scalars.ParamScalar,
                      _param_scalar_arithmetic(), refused)
    assert (R @ Rinv) == identity and (Rinv @ R) == identity
    assert oracles.symbolic_matrix(X @ Rinv) == mixed
    assert braid_defect(R).is_zero() and braid_defect(Rinv).is_zero()
    assert not qybe_defect(Rinv).is_zero()
    for ops in ((R, X, Rinv), (X, Rinv, X)):
        defect = yb_commutator(*ops)
        assert not defect.is_zero()
        assert defect.dense().first_nonzero() == defect.first_nonzero()
