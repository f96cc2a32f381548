"""Builders for the operator families: the three-parameter product family
on an associative algebra, its two-parameter colored variant, WXZ triples,
split-center solutions, and the graded-twist-plus-bracket family on a Lie
superalgebra.

One builder, _product_map, multiplies out a structure table for all but
the split-center solutions: a Lie superalgebra's bracket takes the place
of the algebra's product, an even central z that of its unit, and the
grading signs the twist. Each builder returns ordinary Operator2 matrices in the fixed basis
convention, so the verification layer never needs to know where an
operator came from.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .algebra import Algebra
from .lie_super import LieSuperalgebra, bracket_elements
from .scalars import (ONE, ZERO, FrozenRecord, InputError, ParamScalar,
                      YbxError, as_scalar)
from .tensor import Operator2, _int_form


class NotYangBaxterError(ValueError, YbxError):
    """Parameters outside every family for which an inverse formula holds."""


class FreeIndeterminateError(ValueError, YbxError):
    """Classification needs constants; a symbol was left unbound."""

    def __init__(self, names):
        super().__init__(
            "cannot classify with free indeterminates: " + ", ".join(sorted(names))
        )
        self.names = frozenset(names)


class InvertibilityLocusError(ValueError, YbxError):
    """The requested point lies where the inverse formula degenerates;
    carries the factor that vanishes."""

    def __init__(self, factor: str):
        super().__init__(f"inverse undefined where {factor} = 0")
        self.factor = factor


class SupportViolationError(ValueError, YbxError):
    """A split-center component takes a nonzero value on a basis tensor
    with a distinguished-vector leg."""

    def __init__(self, which: str, tensor: Tuple[int, int]):
        i, j = tensor
        super().__init__(
            f"{which} must vanish on e{i} (x) e{j}: one leg is the "
            f"distinguished vector"
        )
        self.which = which
        self.tensor = tensor


class InvalidCenterError(ValueError, YbxError):
    """The chosen element is not an even central element."""

    def __init__(self, reason: str, witness=None):
        super().__init__(reason)
        self.witness = witness


# ---------------------------------------------------------------------------
# product-built operators on a structure table, and the algebra family
# ---------------------------------------------------------------------------

def _product_map(T, unit, left, right, diag, swap: bool,
                 reverse: bool = False, grading=None) -> Operator2:
    """The map a(x)b -> left*ab(x)u + right*u(x)ab - diag*(b(x)a or a(x)b),
    for ab the product in the table of T and u = unit: an Algebra's product
    and unit, or a LieSuperalgebra's bracket and even central z. A grading
    (a degree per basis vector) negates the last term of each odd(x)odd
    column, which makes it the graded twist.

    reverse replaces the product ab by ba in both product terms.

    The scales are -diag and, for each nonzero coordinate u_l, those of
    left*u_l and right*u_l that are nonzero; c*left*u_l lands on row
    k*n + l and c*right*u_l on row l*n + k of column a(x)b, for each nonzero
    c = c_abk. Each scale times each distinct constant of the table is
    formed once per call, and so is each sum of two terms that land on one
    row. When every scale is a rational constant, and so is every constant
    of the table or no scale but -diag is left to read it, that is done in
    ints: the scales times d_S, the lcm of their denominators, and the
    constants times the table's d_T, so that the operator is born with its
    integer form over d_S*d_T. Otherwise it is done in ParamScalars.
    """
    n = T.dim
    entries, values, ints = T.product_table()
    left, right = as_scalar(left), as_scalar(right)
    # (row stride, row offset) of each product term, and its scale
    sides = [((stride, offset), s if ul.is_one else s * ul)
             for l, ul in enumerate(unit) if ul
             for stride, offset, s in ((n, l, left), (1, l * n, right)) if s]
    scales = [-as_scalar(diag)] + [s for _, s in sides]
    # the table is read only through the nonzero side scales
    form = (ints or not sides) and _int_form([scales])
    if form:
        (d_s, (cleared,)), (d_t, values) = form, ints or (1, ())
        at = dict(cleared)
        scales = [at.get(t, 0) for t in range(len(scales))]
        scales[0] *= d_t
    sides = [(stride, offset, [s * v for v in values])
             for ((stride, offset), _), s in zip(sides, scales[1:])]
    # the row of the last term in each column
    last = ([j * n + i for i in range(n) for j in range(n)] if swap
            else range(n * n))
    columns = [{r: scales[0]} for r in last]
    if grading:
        odd = [i for i, g in enumerate(grading) if g]
        minus = -scales[0]
        for c in (i * n + j for i in odd for j in odd):
            columns[c][last[c]] = minus
    cells = ([entries[j][i] for i in range(n) for j in range(n)] if reverse
             else [cell for plane in entries for cell in plane])
    # ParamScalar sums by the ids of their terms, each a scale, a product
    # or an earlier sum, all held until the call returns
    sums = {}
    for column, cell in zip(columns, cells):
        for k, t in cell:
            for stride, offset, scaled in sides:
                r = k * stride + offset
                e = scaled[t]
                if r not in column:
                    column[r] = e
                elif form:
                    column[r] += e
                else:
                    a = column[r]
                    key = id(a), id(e)
                    if key not in sums:
                        sums[key] = a + e
                    column[r] = sums[key]
    if not form:
        return Operator2.from_columns(n, (c.items() for c in columns))
    rows = [[] for _ in range(n * n)]
    for c, column in enumerate(columns):
        for r, e in column.items():
            if e:
                rows[r].append((c, e))
    return Operator2._make(n, None, (d_s * d_t, rows))


def dn_operator(A: Algebra, alpha, beta, gamma) -> Operator2:
    """a(x)b -> alpha*ab(x)1 + beta*1(x)ab - gamma*a(x)b."""
    return _product_map(A, A.unit, alpha, beta, gamma, swap=False)


def classify_dn(alpha, beta, gamma) -> str:
    """Which invertible-solution case constant (alpha, beta, gamma) lies in:
    "i" (alpha = gamma != 0, beta != 0), "ii" (beta = gamma != 0,
    alpha != 0), "iii" (alpha = beta = 0, gamma != 0), or "none".

    "i" is preferred on the overlap alpha = beta = gamma != 0; the inverse
    formulas of cases i and ii agree there, so nothing observable depends
    on the preference.
    """
    a, b, g = as_scalar(alpha), as_scalar(beta), as_scalar(gamma)
    free = a.names | b.names | g.names
    if free:
        raise FreeIndeterminateError(free)
    return _dn_case_symbolic(a, b, g) or "none"


def _dn_case_symbolic(a: ParamScalar, b: ParamScalar, g: ParamScalar):
    """Case detection that also accepts symbolic parameters: equalities are
    exact identities of rational functions, nonzeroness means not
    identically zero (so a generic point of the case)."""
    if not g.is_zero:
        if a == g and not b.is_zero:
            return "i"
        if b == g and not a.is_zero:
            return "ii"
        if a.is_zero and b.is_zero:
            return "iii"
    return None


def dn_inverse(A: Algebra, alpha, beta, gamma) -> Operator2:
    """The closed-form inverse of dn_operator in the three invertible
    cases; anything else raises, because outside them the operator is not
    an invertible braid solution."""
    a, b, g = as_scalar(alpha), as_scalar(beta), as_scalar(gamma)
    case = _dn_case_symbolic(a, b, g)
    if case is None:
        raise NotYangBaxterError(
            f"({a}, {b}, {g}) lies in no invertible case of the family"
        )
    if case == "iii":
        return dn_operator(A, ZERO, ZERO, g.reciprocal())
    return dn_operator(A, b.reciprocal(), a.reciprocal(), g.reciprocal())


# ---------------------------------------------------------------------------
# the colored (two-parameter) family
# ---------------------------------------------------------------------------

def colored_operator(A: Algebra, p, q, u, v) -> Operator2:
    """R(u,v): a(x)b -> p(u-v)1(x)ab + q(u-v)ab(x)1 - (pu-qv)b(x)a."""
    p, q, u, v = (as_scalar(s) for s in (p, q, u, v))
    duv = u - v
    return _product_map(A, A.unit, q * duv, p * duv, p * u - q * v, swap=True)


def colored_inverse(A: Algebra, p, q, u, v) -> Operator2:
    """Closed-form inverse of colored_operator away from the degenerate
    locus; the vanishing factor is reported when on it."""
    p, q, u, v = (as_scalar(s) for s in (p, q, u, v))
    puqv = p * u - q * v
    qupv = q * u - p * v
    if puqv.is_zero:
        raise InvertibilityLocusError("p*u - q*v")
    if qupv.is_zero:
        raise InvertibilityLocusError("q*u - p*v")
    duv = u - v
    dd = qupv * puqv
    return _product_map(A, A.unit, p * duv / dd, q * duv / dd,
                        puqv.reciprocal(), swap=True, reverse=True)


# ---------------------------------------------------------------------------
# WXZ triples
# ---------------------------------------------------------------------------

class WxzTriple(FrozenRecord):
    """Three operators on the same square tensor space, as one object so
    the four-commutator check can't be fed mismatched pieces."""

    __slots__ = _key = ("W", "X", "Z")

    def __init__(self, W: Operator2, X: Operator2, Z: Operator2):
        if not (W.dim == X.dim == Z.dim):
            raise InputError("W, X, Z must share a dimension")
        super().__init__(W, X, Z)


def wxz_system(A: Algebra, lam, mu) -> WxzTriple:
    """W: a(x)b -> ab(x)1 + lam*1(x)ab - b(x)a, Z with mu on the other
    product term, X with both coefficients 1."""
    lam = as_scalar(lam)
    mu = as_scalar(mu)
    W = _product_map(A, A.unit, ONE, lam, ONE, swap=True)
    Z = _product_map(A, A.unit, mu, ONE, ONE, swap=True)
    X = _product_map(A, A.unit, ONE, ONE, ONE, swap=True)
    return WxzTriple(W=W, X=X, Z=Z)


# ---------------------------------------------------------------------------
# split-center solutions
# ---------------------------------------------------------------------------

class SplitSpace(FrozenRecord):
    """V = W + k*c: a space with one distinguished basis vector c; the
    W_indices are all the others."""

    __slots__ = _key = ("total_dim", "c_index", "W_indices")

    def __init__(self, total_dim: int, c_index: int):
        if not 0 <= c_index < total_dim:
            raise InputError("c_index out of range")
        super().__init__(total_dim, c_index,
                         tuple(i for i in range(total_dim) if i != c_index))


def split_center_operator(space: SplitSpace, f: Operator2, g: Operator2) -> Operator2:
    """v(x)w -> f^(v(x)w)(x)c + c(x)g^(v(x)w), where f^ keeps the (x)c
    component row of f and g^ the c(x) component row of g.

    Both f and g must vanish on every basis tensor with a leg equal to c;
    that is validated before anything is built.
    """
    n = space.total_dim
    c = space.c_index
    if f.dim != n or g.dim != n:
        raise InputError("f and g must act on the total space")
    for name, op in (("f", f), ("g", g)):
        for i in range(n):
            for j in range(n):
                if i != c and j != c:
                    continue
                col = i * n + j
                if any(not op.rows[r][col].is_zero for r in range(n * n)):
                    raise SupportViolationError(name, (i, j))
    kept = ([(f, k * n + c) for k in range(n)]
            + [(g, c * n + k) for k in range(n)])
    return Operator2.from_columns(n, ([(r, op.rows[r][col]) for op, r in kept]
                                      for col in range(n * n)))


# ---------------------------------------------------------------------------
# the superalgebra family: graded twist plus bracket-into-center
# ---------------------------------------------------------------------------

def _check_center(L: LieSuperalgebra, z: Sequence) -> Tuple[ParamScalar, ...]:
    zv = tuple(as_scalar(c) for c in z)
    if len(zv) != L.dim:
        raise InvalidCenterError(f"z must have length {L.dim}")
    for i, c in enumerate(zv):
        if not c.is_zero and L.degree[i] != 0:
            raise InvalidCenterError(
                f"z has a component on the odd basis vector e{i}", witness=i
            )
    for j in range(L.dim):
        probe = tuple(ONE if t == j else ZERO for t in range(L.dim))
        if any(not c.is_zero for c in bracket_elements(L, zv, probe)):
            raise InvalidCenterError(
                f"z is not central: [z, e{j}] != 0", witness=j
            )
    return zv


def super_phi(L: LieSuperalgebra, z: Sequence, alpha) -> Operator2:
    """x(x)y -> alpha*[x,y](x)z + (-1)^{|x||y|} y(x)x, for even central z."""
    return _product_map(L, _check_center(L, z), alpha, ZERO, -ONE,
                        swap=True, grading=L.degree)


def super_phi_inverse(L: LieSuperalgebra, z: Sequence, alpha) -> Operator2:
    """x(x)y -> alpha*z(x)[x,y] + (-1)^{|x||y|} y(x)x; inverse of super_phi
    with the same z and alpha."""
    return _product_map(L, _check_center(L, z), ZERO, alpha, -ONE,
                        swap=True, grading=L.degree)


# ---------------------------------------------------------------------------
# the canonical two-dimensional reduced form
# ---------------------------------------------------------------------------

def canonical_two_dim_solution(q, eta: int) -> Operator2:
    """The one-parameter reduced form on a two-dimensional space, with a
    single extra corner entry eta in {0, 1}; solves the constant QYBE for
    any nonzero q."""
    if eta not in (0, 1):
        raise InputError("eta must be 0 or 1")
    q = as_scalar(q)
    return Operator2(2, [
        [ONE, ZERO, ZERO, ZERO],
        [ZERO, ONE, ZERO, ZERO],
        [ZERO, ONE - q, q, ZERO],
        [as_scalar(eta), ZERO, ZERO, -q],
    ])
