"""Exact construction and verification of braid / QYBE operator families.

Everything computes over a field of rational functions with integer
coefficients, so every identity check is a symbolic zero test, not a
numerical one.

Importing the package runs none of its modules. Each module below, and
``gcd`` and ``elimination``, which export nothing, is registered with
``importlib.util.LazyLoader``: it is in ``sys.modules`` and bound here
from the start, and its body runs on first attribute access. So a module
can bind another with ``from . import name`` at its top without running
it. Each public name is read from its module on first use (PEP 562) and
kept here.
"""

import os

# module -> the public names that the package re-exports from it
_EXPORTS = {
    "scalars": ("IncompleteAssignmentError", "InputError",
                "MalformedScalarError", "ONE", "ParamScalar", "PoleError",
                "ScalarParseError", "YbxError", "ZERO", "as_scalar", "const",
                "fresh_name", "parse_scalar", "var"),
    "algebra": ("Algebra", "AlgebraError", "AssociativityError",
                "FieldTypeError", "ShapeError", "UnitError",
                "algebra_from_json_obj", "load_algebra", "make_algebra",
                "mul_elements", "quadratic_quotient_algebra"),
    "lie_super": ("AntisymmetryError", "GradingError", "JacobiError",
                  "LieSuperalgebra", "SuperalgebraError", "bracket_elements",
                  "even_center", "load_superalgebra", "make_superalgebra",
                  "superalgebra_from_json_obj"),
    "tensor": ("Defect", "DimensionMismatch", "InverseResult", "Operator2",
               "Operator3", "braid_defect", "colored_defect", "determinant",
               "embed", "invert", "nullspace", "operator_from_json_obj",
               "qybe_defect", "roundtrip_defect", "twist", "yb_commutator"),
    "constructors": ("FreeIndeterminateError", "InvalidCenterError",
                     "InvertibilityLocusError", "NotYangBaxterError",
                     "SplitSpace", "SupportViolationError", "WxzTriple",
                     "canonical_two_dim_solution", "classify_dn",
                     "colored_inverse", "colored_operator", "dn_inverse",
                     "dn_operator", "split_center_operator", "super_phi",
                     "super_phi_inverse", "wxz_system"),
    "verify": ("VerificationReport", "verify_colored_family",
               "verify_constant", "verify_inverse_pair", "verify_wxz"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_HOME, "fixture_path"]
__version__ = "0.1.0"


def _register(module: str) -> None:
    """Bind the submodule, registered in sys.modules to load on first
    attribute access."""
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec
    spec = find_spec(f"{__name__}.{module}")
    spec.loader = LazyLoader(spec.loader)
    globals()[module] = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(globals()[module])


for _module in (*_EXPORTS, "gcd", "elimination"):
    _register(_module)
del _module, _register


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_HOME[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})


def fixture_path(name: str) -> str:
    """Path of a bundled algebra/superalgebra definition file, as a str."""
    return os.path.join(os.path.dirname(__file__), "fixtures", name)
