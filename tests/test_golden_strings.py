"""Canonical scalar strings pinned byte for byte.

The determinant and every entry of the exact inverse of a few symbolic
operators, as ``str`` prints them, are stored in ``data/golden_strings.json``.
Any change to the monomial order, to canonicalisation or to the gcd that
alters one printed character fails here.

The data was written by running this file as a script
(``PYTHONPATH=src python tests/test_golden_strings.py``) before the scalar
kernel was last rewritten; regenerate it only for a deliberate change of
output format.
"""

import json
from pathlib import Path

from ybx import fixture_path
from ybx.algebra import load_algebra, make_algebra
from ybx.constructors import colored_operator, dn_operator, super_phi_inverse
from ybx.lie_super import even_center, load_superalgebra
from ybx.scalars import ONE, ZERO, var
from ybx.tensor import invert

GOLDEN = Path(__file__).parent / "data" / "golden_strings.json"


def truncated_polynomial_algebra(d):
    """k[x]/x^d with basis 1, x, ..., x^(d-1)."""
    basis = [[ONE if k == i else ZERO for k in range(d)] for i in range(d)]
    zero = [ZERO] * d
    structure = [[basis[i + j] if i + j < d else zero for j in range(d)]
                 for i in range(d)]
    return make_algebra(d, structure, basis[0])


def operators():
    p, q, u, v = (var(n) for n in "pquv")
    yield "colored k[x]/x^3", colored_operator(
        truncated_polynomial_algebra(3), p, q, u, v)
    quadratic = load_algebra(fixture_path("quadratic.json"))
    a, b = var("a"), var("b")
    for case, args in (("i", (a, b, a)), ("ii", (a, b, b)),
                       ("iii", (ZERO, ZERO, a))):
        yield f"dn quadratic case {case}", dn_operator(quadratic, *args)
    gl11 = load_superalgebra(fixture_path("gl11.json"))
    yield "super_phi_inverse gl11", super_phi_inverse(
        gl11, even_center(gl11)[0], var("al"))


def canonical_strings():
    out = {}
    for name, op in operators():
        res = invert(op)
        assert res.invertible, name
        out[name] = {
            "determinant": str(res.determinant),
            "inverse": [[str(e) for e in row] for row in res.operator.rows],
        }
    return out


def test_canonical_strings_are_unchanged():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = canonical_strings()
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name]["determinant"] == want[name]["determinant"], name
        for i, (g, w) in enumerate(zip(got[name]["inverse"],
                                       want[name]["inverse"])):
            assert g == w, (name, i)
        assert len(got[name]["inverse"]) == len(want[name]["inverse"]), name


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(canonical_strings(), indent=1) + "\n",
                      encoding="utf-8")
