"""Seeded input generator for the benchmark.

Everything here is plain Python with no ybx import: the generator builds
structure tables from polynomials of its own, and ybx receives only the
resulting objects and JSON files.

* ``quotient_algebra`` gives k[x]/(f) for monic f, associative and unital
  by construction (basis 1, x, ..., x^(d-1); e_i * e_j = x^(i+j) mod f).
* ``heisenberg_superalgebra`` gives odd generators t1..tk bracketing onto
  one even central z through a symmetric form B: [ti, tj] = B_ij z.
* ``corrupt`` changes one entry of a table so that validation rejects it;
  the witness it should report is computed by ``oracle``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# A polynomial is a dict {monomial: int}; a monomial is a sorted tuple of
# (name, exponent) pairs, () for the constant monomial.


def pconst(c: int) -> dict:
    return {(): c} if c else {}


def pvar(name: str) -> dict:
    return {((name, 1),): 1}


def padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _mono_mul(a, b):
    exps = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = _mono_mul(ma, mb)
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def pstr(p: dict) -> str:
    """The polynomial in ybx's scalar grammar (any term order parses)."""
    if not p:
        return "0"
    parts = []
    for mono in sorted(p, key=lambda m: (-sum(e for _, e in m), m)):
        c = p[mono]
        factors = [str(abs(c))] if abs(c) != 1 or not mono else []
        factors += [n if e == 1 else f"{n}^{e}" for n, e in mono]
        body = "*".join(factors)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


def pnames(p: dict) -> set:
    return {n for m in p for n, _ in m}


class Structure:
    """A generated algebra or superalgebra table with polynomial entries.

    kind is "algebra" (table, unit) or "superalgebra" (table, degree)."""

    def __init__(self, kind, table, labels, unit=None, degree=None, name=""):
        self.kind = kind
        self.table = table
        self.labels = labels
        self.unit = unit
        self.degree = degree
        self.name = name

    @property
    def dim(self) -> int:
        return len(self.table)

    @property
    def names(self) -> set:
        out = set()
        for plane in self.table:
            for row in plane:
                for e in row:
                    out |= pnames(e)
        return out

    def entry_json(self, p: dict):
        """Integer entries as JSON numbers, symbolic ones as strings."""
        if not pnames(p):
            return p.get((), 0)
        return pstr(p)

    def to_json_obj(self) -> dict:
        obj = {
            "dim": self.dim,
            "labels": list(self.labels),
            "structure": [[[self.entry_json(e) for e in row] for row in plane]
                          for plane in self.table],
        }
        if self.kind == "algebra":
            obj["unit"] = [self.entry_json(e) for e in self.unit]
        else:
            obj["degree"] = list(self.degree)
        return obj

    @classmethod
    def from_json_obj(cls, obj) -> "Structure":
        """A structure file's table as is (entries stay ints or strings)."""
        if "degree" in obj:
            return cls("superalgebra", obj["structure"], obj["labels"],
                       degree=obj["degree"])
        return cls("algebra", obj["structure"], obj["labels"], unit=obj["unit"])

    def ybx_args(self):
        """Positional arguments of make_algebra (dim, table, unit, labels)
        or make_superalgebra (dim, degree, table, labels)."""
        obj = self.to_json_obj()
        if self.kind == "algebra":
            return obj["dim"], obj["structure"], obj["unit"], obj["labels"]
        return obj["dim"], obj["degree"], obj["structure"], obj["labels"]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_obj(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    def copy(self) -> "Structure":
        table = [[[dict(e) for e in row] for row in plane] for plane in self.table]
        unit = [dict(e) for e in self.unit] if self.unit is not None else None
        return Structure(self.kind, table, list(self.labels), unit,
                         self.degree, self.name)


def quotient_algebra(coeffs, name="") -> Structure:
    """k[x]/(x^d - sum_i coeffs[i] x^i) with basis 1, x, ..., x^(d-1)."""
    d = len(coeffs)
    powers = []
    for e in range(2 * d - 1):
        if e < d:
            powers.append([pconst(1) if k == e else {} for k in range(d)])
            continue
        prev = powers[-1]
        top = prev[d - 1]
        vec = [{}] + prev[:d - 1]
        powers.append([padd(vec[k], pmul(top, coeffs[k])) for k in range(d)])
    table = [[list(powers[i + j]) for j in range(d)] for i in range(d)]
    unit = [pconst(1)] + [{} for _ in range(d - 1)]
    labels = ["1", "x"] + [f"x^{k}" for k in range(2, d)]
    return Structure("algebra", table, labels[:d], unit=unit, name=name)


ALGEBRA_STYLES = ("nilpotent", "dense", "sparse_symbolic", "dense_symbolic")


def random_algebra(rng: random.Random, dim: int, style: str) -> Structure:
    """k[x]/(f) with f chosen by style:

    nilpotent f = x^d; dense f with small nonzero integer coefficients;
    sparse_symbolic x^d = t*x^k; dense_symbolic coefficients +-1 plus t on
    the constant term. The seed picks values, never zeros, so the work a
    table causes hardly depends on it."""
    if style == "nilpotent":
        coeffs = [{} for _ in range(dim)]
    elif style == "dense":
        # every reduced power nonzero in every coordinate, so that the
        # number of nonzero structure constants does not depend on the seed
        for _ in range(1000):
            coeffs = [pconst(rng.choice((-2, -1, 1, 2))) for _ in range(dim)]
            s = quotient_algebra(coeffs, name=f"{style}-{dim}")
            if all(s.table[i][dim - 1][k] for i in range(1, dim)
                   for k in range(dim)):
                return s
    elif style == "sparse_symbolic":
        coeffs = [{} for _ in range(dim)]
        coeffs[rng.randrange(dim)] = pvar("t")
    elif style == "dense_symbolic":
        coeffs = [padd(pvar("t"), pconst(rng.choice((-1, 1))))]
        coeffs += [pconst(rng.choice((-1, 1))) for _ in range(dim - 1)]
    else:
        raise ValueError(f"unknown algebra style {style!r}")
    return quotient_algebra(coeffs, name=f"{style}-{dim}")


def heisenberg_superalgebra(form, name="") -> Structure:
    """Odd t1..tk and even central z with [ti, tj] = form[i][j] z.

    form is a symmetric k x k matrix of polynomials; graded antisymmetry
    for two odd elements is exactly symmetry of the form."""
    k = len(form)
    n = k + 1
    table = [[[{} for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(k):
        for j in range(k):
            table[i][j][k] = dict(form[i][j])
    labels = [f"t{i + 1}" for i in range(k)] + ["z"]
    return Structure("superalgebra", table, labels, degree=[1] * k + [0],
                     name=name)


def random_superalgebra(rng: random.Random, dim: int, symbolic: bool) -> Structure:
    k = dim - 1
    form = [[{} for _ in range(k)] for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            c = pconst(rng.choice((-2, -1, 1, 2)))
            if symbolic and i == j:
                c = padd(pmul(pvar("s"), pconst(rng.choice((1, 2)))), c)
            form[i][j] = form[j][i] = c
    return heisenberg_superalgebra(
        form, name=f"heisenberg-{'symbolic' if symbolic else 'int'}-{dim}")


def corrupt(rng: random.Random, s: Structure, find_witness) -> tuple:
    """A copy of s with one entry changed so that find_witness (the
    oracle's validator) reports a violation; returns (copy, witness).

    A superalgebra changes an entry [e_i, e_j] with i != j, which always
    breaks grading or graded antisymmetry, so the search never needs the
    costly Jacobi scan of a table that is still valid."""
    n = s.dim
    for _ in range(1000):
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if s.kind == "superalgebra" and i == j:
            continue
        bad = s.copy()
        bad.table[i][j][k] = padd(bad.table[i][j][k],
                                  pconst(rng.choice((-1, 1, 2))))
        witness = find_witness(bad)
        if witness is not None:
            bad.name = s.name + "-corrupt"
            return bad, witness
    raise RuntimeError(f"no corrupting change found for {s.name}")


def random_point(rng: random.Random, names) -> dict:
    """A rational point for the given indeterminates, away from small
    special values."""
    point = {}
    for name in sorted(names):
        num = rng.choice((-1, 1)) * rng.randint(3, 97)
        point[name] = Fraction(num, rng.randint(1, 13))
    return point
