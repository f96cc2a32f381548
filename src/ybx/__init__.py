"""Exact construction and verification of braid / QYBE operator families.

Everything computes over a field of rational functions with integer
coefficients, so every identity check is a symbolic zero test, not a
numerical one.
"""

import os

from .scalars import (IncompleteAssignmentError, MalformedScalarError,
                      ONE, ParamScalar, PoleError, ScalarParseError, YbxError,
                      ZERO, as_scalar, const, fresh_name, parse_scalar, var)
from .algebra import (Algebra, AlgebraError, AssociativityError,
                      FieldTypeError, ShapeError, UnitError,
                      algebra_from_json_obj, load_algebra, make_algebra,
                      mul_elements, quadratic_quotient_algebra)
from .lie_super import (AntisymmetryError, GradingError, JacobiError,
                        LieSuperalgebra, SuperalgebraError, bracket_elements,
                        even_center, load_superalgebra, make_superalgebra,
                        superalgebra_from_json_obj)
from .tensor import (Defect, DimensionMismatch, InverseResult, Operator2,
                     Operator3, braid_defect, colored_defect, determinant,
                     embed, invert, nullspace, operator_from_json_obj,
                     qybe_defect, roundtrip_defect, twist, yb_commutator)
from .constructors import (FreeIndeterminateError, InvalidCenterError,
                           InvertibilityLocusError, NotYangBaxterError,
                           SplitSpace, SupportViolationError, WxzTriple,
                           canonical_two_dim_solution, classify_dn,
                           colored_inverse, colored_operator, dn_inverse,
                           dn_operator, split_center_operator, super_phi,
                           super_phi_inverse, wxz_system)
from .verify import (VerificationReport, verify_colored_family,
                     verify_constant, verify_inverse_pair, verify_wxz)

__version__ = "0.1.0"


def fixture_path(name: str) -> str:
    """Path of a bundled algebra/superalgebra definition file, as a str."""
    return os.path.join(os.path.dirname(__file__), "fixtures", name)
