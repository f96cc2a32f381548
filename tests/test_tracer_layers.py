"""The benchmark's tracer (ybxbench/tracer.py) wraps ybx functions and
methods by name; a name it lists that ybx no longer defines makes every
traced run fail when the tracer installs itself."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

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


def test_defect_scan_runs_inside_the_defect_call(monkeypatch):
    # the tracer times the kernel as the tensor.defect span, so the scan
    # must be done when a defect returns: reading the witness afterwards
    # does no scalar arithmetic, on a symbolic defect whose first nonzero
    # row is not the first row
    from ybx import scalars
    from ybx.tensor import Operator2, braid_defect
    from ybx.verify import entry_witness
    tracer = load_tracer()
    methods = [attr.split(".")[1]
               for _, attr in tracer.LAYERS["scalars.arith"]]
    calls = []
    for name in methods + ["__neg__", "__pow__", "reciprocal"]:
        original = vars(scalars.ParamScalar)[name]

        def counted(*args, _original=original):
            calls.append(1)
            return _original(*args)

        monkeypatch.setattr(scalars.ParamScalar, name, counted)
    a = scalars.var("a")
    R = Operator2(2, [[a, 0, 0, 0], [0, 0, 1, 0], [0, 1, 1 - a, 0],
                      [0, 0, 0, a * a]])
    calls.clear()
    defect = braid_defect(R)
    assert calls, "the defect did no ParamScalar arithmetic"
    calls.clear()
    witness = entry_witness(defect)
    assert witness == {"row": 4, "col": 4, "entry": "2*a^3 - 3*a^2 + 1"}
    assert not defect.is_zero()
    assert calls == []
