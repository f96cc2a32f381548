"""Endomorphisms of V⊗V and V⊗V⊗V over exact scalars.

Conventions, fixed globally:

* basis vector e_i ⊗ e_j of V⊗V has flat index i*n + j (0-based), and
  e_i ⊗ e_j ⊗ e_k has flat index i*n^2 + j*n + k;
* matrices act on coordinate columns: column = input basis index, row =
  output basis index, so (A@B) means "apply B, then A".

Operator entries are ParamScalar. Products (``@`` and the defects) run on
each operator times the lcm of its denominators, in ints or in integer-
coefficient polynomials, and the elimination on the polynomials of each
row times the lcm of its denominators, with each monomial packed into one
int (``_Packing``) so that a product of monomials is an int addition;
either way every zero test below is exact.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from itertools import chain, product
from typing import Sequence

from .scalars import (ONE, ZERO, FrozenRecord, ParamScalar, Poly, YbxError,
                      as_scalar, clear_row, const)


_P_ZERO, _P_ONE = Poly.const(0), Poly.const(1)
_ONE_TERMS = {0: 1}  # the packed 1 under every _Packing; never mutated


class DimensionMismatch(ValueError, YbxError):
    """Operands live on tensor powers of different spaces."""


class _Operator(FrozenRecord):
    """Shared machinery for square operators on a tensor power of V."""

    __slots__ = _key = ("dim", "rows")
    legs: int = 0

    def __init__(self, dim: int, rows: Sequence[Sequence]):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        size = dim ** self.legs
        if len(rows) != size or any(len(r) != size for r in rows):
            raise ValueError(f"expected a {size}x{size} matrix for dim {dim}")
        super().__init__(
            dim, tuple(tuple(as_scalar(e) for e in r) for r in rows))

    @property
    def size(self) -> int:
        return self.dim ** self.legs

    @classmethod
    def from_columns(cls, dim: int, columns):
        """The operator whose column c is the sum of the (row, ParamScalar)
        pairs in columns[c]; zero terms are dropped and missing columns are
        zero. Unlike the constructor, which converts outside input, this
        takes the entries as they are, so they must be ParamScalars."""
        if dim < 1:
            raise ValueError("dim must be >= 1")
        size = dim ** cls.legs
        rows = [[ZERO] * size for _ in range(size)]
        for c, column in enumerate(columns):
            for r, e in column:
                if not e.is_zero:
                    row = rows[r]
                    row[c] = e if row[c].is_zero else row[c] + e
        op = object.__new__(cls)
        FrozenRecord.__init__(op, dim, tuple(map(tuple, rows)))
        return op

    @classmethod
    def _from_rows(cls, dim: int, rows, scalar):
        """The operator with scalar(e) at (y, c) for each (y, {c: e}) in
        rows, and zero elsewhere: the last step of every product."""
        columns = [[] for _ in range(dim ** cls.legs)]
        for y, row in rows:
            for c, e in row.items():
                columns[c].append((y, scalar(e)))
        return cls.from_columns(dim, columns)

    @classmethod
    def identity(cls, dim: int):
        return cls.from_columns(dim, ([(c, ONE)]
                                      for c in range(dim ** cls.legs)))

    @classmethod
    def zero(cls, dim: int):
        return cls.from_columns(dim, ())

    # -- algebra ------------------------------------------------------------

    def _require_same(self, other):
        if type(other) is not type(self) or other.dim != self.dim:
            raise DimensionMismatch(
                f"cannot combine {type(self).__name__}(dim={self.dim}) with "
                f"{type(other).__name__}(dim={getattr(other, 'dim', '?')})"
            )

    def __matmul__(self, other):
        """Row y of A @ B is e_y pushed through the rows of A, then of B."""
        self._require_same(other)
        actions, scalar = _clear((self, other), (0, 1))
        return type(self)._from_rows(
            self.dim, ((y, _apply(actions, y)) for y in range(self.size)),
            scalar)

    def __add__(self, other):
        self._require_same(other)
        return type(self)(self.dim, [
            [a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.rows, other.rows)
        ])

    def __sub__(self, other):
        self._require_same(other)
        return self + (-other)

    def __neg__(self):
        return type(self)(self.dim, [[-a for a in r] for r in self.rows])

    def scale(self, c) -> "_Operator":
        c = as_scalar(c)
        return type(self)(self.dim, [[c * a for a in r] for r in self.rows])

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return all(e.is_zero for r in self.rows for e in r)

    def is_identity(self) -> bool:
        return self == type(self).identity(self.dim)

    def first_nonzero(self):
        """(row, col, entry) of the first nonzero entry, or None."""
        for i, row in enumerate(self.rows):
            for j, e in enumerate(row):
                if not e.is_zero:
                    return i, j, e
        return None

    # -- point evaluation and substitution ----------------------------------

    def evaluate(self, assignment):
        """Specialize every entry at a point (entries become constants)."""
        return type(self)(self.dim, [
            [const(e.evaluate(assignment)) for e in r] for r in self.rows
        ])

    def substitute(self, mapping):
        return type(self)(self.dim, [
            [e.substitute(mapping) for e in r] for r in self.rows
        ])

    # -- serialization ------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "format": "ybx-operator-v1",
            "dim": self.dim,
            "legs": self.legs,
            "matrix": [[str(e) for e in r] for r in self.rows],
        }

    def to_text(self) -> str:
        """Aligned plain-text matrix."""
        cells = [[str(e) for e in r] for r in self.rows]
        widths = [max(len(cells[i][j]) for i in range(self.size))
                  for j in range(self.size)]
        lines = []
        for row in cells:
            body = "  ".join(c.rjust(w) for c, w in zip(row, widths))
            lines.append(f"[ {body} ]")
        return "\n".join(lines)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class Operator2(_Operator):
    """Linear endomorphism of V⊗V as an n^2 x n^2 matrix."""

    legs = 2


class Operator3(_Operator):
    """Linear endomorphism of V⊗V⊗V as an n^3 x n^3 matrix."""

    legs = 3


def operator_from_json_obj(obj: dict):
    legs = obj.get("legs", 2)
    cls = {2: Operator2, 3: Operator3}.get(legs)
    if cls is None:
        raise ValueError(f"unsupported legs value {legs!r}")
    return cls(obj["dim"], obj["matrix"])


def bilinear(table, x, y) -> tuple:
    """sum_ij x_i y_j table[i][j]: the bilinear extension of an n x n x n
    structure table to two coordinate vectors of ParamScalars."""
    out = [ZERO] * len(table)
    for i, xi in enumerate(x):
        if xi.is_zero:
            continue
        for j, yj in enumerate(y):
            if yj.is_zero:
                continue
            coeff = xi * yj
            for k, t in enumerate(table[i][j]):
                if not t.is_zero:
                    out[k] = out[k] + coeff * t
    return tuple(out)


# ---------------------------------------------------------------------------
# the basic operators and leg embeddings
# ---------------------------------------------------------------------------

def twist(n: int) -> Operator2:
    """The flip v⊗w -> w⊗v as a permutation matrix."""
    return Operator2.from_columns(n, ([(j * n + i, ONE)]
                                      for i in range(n) for j in range(n)))


# positions in (i, j, k) of R's first leg, R's second leg and the spectator
_LEG_POSITIONS = {12: (0, 1, 2), 23: (1, 2, 0), 13: (0, 2, 1)}


def _leg_action(rows, n: int, legs: int):
    """The rows of R's embedding on the chosen pair of tensor factors of
    V⊗V⊗V, for R an n^2 x n^2 matrix given as the nonzero (column, entry)
    pairs of each row, and listed the same way. Fed R's columns as (row,
    entry) pairs, it gives the columns of the embedding."""
    if legs not in _LEG_POSITIONS:
        raise ValueError("legs must be one of 12, 23, 13")
    sa, sb, sc = (n ** (2 - pos) for pos in _LEG_POSITIONS[legs])
    index = [r // n * sa + r % n * sb for r in range(n * n)]
    moved = [[(index[c], e) for c, e in row] for row in rows]
    action = [None] * n ** 3
    for a, b, c in product(range(n), repeat=3):
        shift = c * sc
        action[a * sa + b * sb + shift] = [(y + shift, e)
                                           for y, e in moved[a * n + b]]
    return action


def embed(R: Operator2, legs: int) -> Operator3:
    """Lift R to V⊗V⊗V acting on the chosen pair of tensor factors: legs 12
    is R⊗I, legs 23 is I⊗R, and legs 13 puts R on the outer pair."""
    columns = [[(r, e) for r, e in enumerate(col) if e]
               for col in zip(*R.rows)]
    return Operator3.from_columns(R.dim, _leg_action(columns, R.dim, legs))


# ---------------------------------------------------------------------------
# products: @ and the defects, LHS - RHS of the identities under test
# ---------------------------------------------------------------------------

def _clear(ops, side):
    """(rows, scalar): for each operator X and d the lcm of its entries'
    denominators, rows lists the nonzero (column, entry) pairs of each row
    of d*X, and scalar(e) is the canonical e over the product of the d of
    ops[i] for i in side. The entries are ints when every entry of every
    operator is a rational constant, and Polys otherwise."""
    size = ops[0].size
    flat = {id(op): list(chain.from_iterable(op.rows)) for op in ops}
    nums = {k: [e.num.terms for e in es] for k, es in flat.items()}
    dens = {k: [e.den.terms for e in es] for k, es in flat.items()}
    # a denominator is never empty, so the two tests leave only constants
    constant = all(all(map({()}.issuperset, terms))
                   for terms in (*nums.values(), *dens.values()))
    cleared = {}
    for k, es in flat.items():
        nonzero = [i for i, t in enumerate(nums[k]) if t]
        if constant:
            qs = [dens[k][i][()] for i in nonzero]
            d = math.lcm(*qs)
            values = [nums[k][i][()] * (d // q) for i, q in zip(nonzero, qs)]
        else:
            d, values = clear_row([es[i] for i in nonzero])
        rows = [[] for _ in range(size)]
        for i, e in zip(nonzero, values):
            rows[i // size].append((i % size, e))
        cleared[k] = d, rows
    d = math.prod((cleared[id(ops[i])][0] for i in side),
                  start=1 if constant else _P_ONE)
    scalar = ((lambda e: const(Fraction(e, d))) if constant
              else (lambda e: ParamScalar(e, d)))
    return [cleared[id(op)][1] for op in ops], scalar


def _apply(actions, x: int) -> dict:
    """e_x pushed through the row actions, first to last (each lists the
    nonzero (column, entry) pairs of each row): row x of their product, as
    a sparse {column: nonzero entry} map."""
    vec = dict(actions[0][x])
    for action in actions[1:]:
        out = {}
        for x, s in vec.items():
            for y, e in action[x]:
                out[y] = out[y] + s * e if y in out else s * e
        vec = {y: e for y, e in out.items() if e}
    return vec


def _defect_rows(n: int, lhs, rhs):
    """(row, {col: entry}) for each nonzero row of lhs - rhs, in order; lhs
    and rhs list the transposed leg actions of the two products from the
    left, so applying them to e_y gives row y."""
    for y in range(n ** 3):
        left, right = _apply(lhs, y), _apply(rhs, y)
        if left != right:
            for c, e in right.items():
                left[c] = left[c] - e if c in left else -e
            yield y, {c: e for c, e in left.items() if e}


class Defect:
    """LHS - RHS of an identity on V⊗V⊗V, scanned when it is built: the
    scan stops at the first nonzero row and keeps its first nonzero entry.
    The full matrix is recomputed on demand by ``dense``."""

    __slots__ = ("dim", "_rows", "_scalar", "_first")

    def __init__(self, dim: int, rows, scalar):
        # rows() yields the nonzero rows as in _defect_rows; scalar turns
        # one of their entries into the defect's ParamScalar entry
        self.dim = dim
        self._rows = rows
        self._scalar = scalar
        found = next(rows(), None)
        if found is None:
            self._first = None
        else:
            y, row = found
            col = min(row)
            self._first = (y, col, scalar(row[col]))

    def is_zero(self) -> bool:
        return self._first is None

    def first_nonzero(self):
        """(row, col, entry) of the first nonzero entry in row-major order,
        or None."""
        return self._first

    def dense(self) -> Operator3:
        """The whole defect as an n^3 x n^3 operator."""
        return Operator3._from_rows(self.dim, self._rows(), self._scalar)

    def __repr__(self):
        return f"Defect(dim={self.dim}, first_nonzero={self._first})"


def _defect(ops, legs, lhs, rhs) -> Defect:
    """ops[i] on the leg pair legs[i]; lhs and rhs index the three factors
    of each product, leftmost first. The kernel runs on the cleared
    operators, so its entries are over the product of the d of one side."""
    n = ops[0].dim
    rows, scalar = _clear(ops, lhs)
    actions = [_leg_action(r, n, leg) for r, leg in zip(rows, legs)]
    lhs = [actions[i] for i in lhs]
    rhs = [actions[i] for i in rhs]
    return Defect(n, lambda: _defect_rows(n, lhs, rhs), scalar)


def yb_commutator(R: Operator2, S: Operator2, T: Operator2) -> Defect:
    """R^12 S^13 T^23 - T^23 S^13 R^12."""
    if not (R.dim == S.dim == T.dim):
        raise DimensionMismatch("yb_commutator needs equal dims")
    return _defect((R, S, T), (12, 13, 23), (0, 1, 2), (2, 1, 0))


def braid_defect(R: Operator2) -> Defect:
    """Defect of R^12 R^23 R^12 = R^23 R^12 R^23."""
    return _defect((R, R), (12, 23), (0, 1, 0), (1, 0, 1))


def qybe_defect(R: Operator2) -> Defect:
    """Defect of R^12 R^13 R^23 = R^23 R^13 R^12 (the constant QYBE)."""
    return yb_commutator(R, R, R)


def colored_defect(Rxy: Operator2, Rxz: Operator2, Ryz: Operator2) -> Defect:
    """Defect of the two-parameter QYBE for the three given specializations
    R(u,v), R(u,w), R(v,w)."""
    return yb_commutator(Rxy, Rxz, Ryz)


# ---------------------------------------------------------------------------
# exact elimination: determinant, inverse, nullspace
# ---------------------------------------------------------------------------

class InverseResult(FrozenRecord):
    """Outcome of an exact inversion: (invertible, the inverse Operator2 or
    None, determinant). Non-invertibility is a result, not an error, and
    carries the vanishing determinant."""

    __slots__ = _key = ("invertible", "operator", "determinant")


class _Packing:
    """Monomials of one matrix of Polys packed into ints (Monagan & Pearce
    2007, "Polynomial division using dynamic arrays, heaps, and packed
    exponent vectors").

    The names are the sorted union of the matrix's indeterminates. A
    monomial becomes one int with W-bit fields: its total degree in the top
    field, then one field per exponent, the first name highest. The top bit
    of each field is a guard bit that no exponent or degree reaches. Then a
    product of monomials is the sum of their ints; int comparison is graded
    lex, the order of ``Poly``, so the leading term is the ``max``; and m is
    divisible by g exactly when no field of m - g borrows, that is when
    (m - g) & guard == 0 (the lowest field that borrows sets its guard bit).

    W is (2*S).bit_length() + 1 for S the sum over rows of the largest
    total degree in the row. That is enough for every monomial that the
    elimination forms. Each Bareiss entry is a minor of the matrix, and each
    unknown of the back-substitution is, by Cramer's rule, the last pivot D
    times a quotient of minors, itself a minor; a minor takes at most one
    entry from each row, so its degree is at most S. Each product formed is
    a product of two of them, of degree at most 2*S, and a division, exact
    or not, forms only monomials of degree at most its dividend's: every
    term it adds is a quotient monomial times a term of the divisor no
    higher than the divisor's leading one. A field is at most the total
    degree, so it stays at most 2*S < 2^(W - 1), below its guard bit.
    """

    __slots__ = ("fields", "units", "mask", "guard", "monos", "pairs")

    def __init__(self, M):
        names = sorted(set().union(*(p.names for row in M for p in row)))
        S = sum(max((sum(e for _, e in m) for p in row for m in p.terms),
                    default=0) for row in M)
        W = (2 * S).bit_length() + 1
        n = len(names)
        self.fields = [(name, (n - 1 - i) * W) for i, name in enumerate(names)]
        # the unit of a name adds 1 to its field and 1 to the degree
        self.units = {name: 1 << shift | 1 << n * W
                      for name, shift in self.fields}
        self.mask = (1 << W) - 1
        self.guard = sum(1 << (i * W + W - 1) for i in range(n + 1))
        self.monos, self.pairs = {}, {}

    def pack(self, p: Poly) -> dict:
        units = self.units
        return {sum(e * units[name] for name, e in m): c
                for m, c in p.terms.items()}

    def unpack(self, terms: dict) -> Poly:
        """The Poly of packed terms. Each monomial and each (name,
        exponent) pair is built once per packing, so the entries of one
        result share them."""
        monos, pairs = self.monos, self.pairs
        fields, mask = self.fields, self.mask
        out = {}
        for k, c in terms.items():
            mono = monos.get(k)
            if mono is None:
                mono = monos[k] = tuple(
                    pairs.setdefault((name, e), (name, e))
                    for name, shift in fields if (e := k >> shift & mask))
            out[mono] = c
        return Poly(out)


def _dot(pairs) -> dict:
    """The sum of a*b over the (a, b) pairs of packed polynomials."""
    out: dict = {}
    get = out.get
    for a, b in pairs:
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _neg(a: dict) -> dict:
    return {k: -c for k, c in a.items()}


def _divexact(p: dict, g: dict, guard: int) -> dict:
    """Exact division of packed polynomials; raises ArithmeticError if not
    exact. As in ``Poly.divexact``, the remainder's monomials wait in a heap
    (of -k, so that each step pops the leading one), and a monomial
    cancelled to zero and added again may sit there twice."""
    gk = max(g)
    gc = g[gk]
    tail = [(k, c) for k, c in g.items() if k != gk]
    r = dict(p)
    heap = [-k for k in r]
    heapq.heapify(heap)
    q = {}
    while heap:
        k = -heapq.heappop(heap)
        rc = r.pop(k, 0)
        if not rc:
            continue
        qk = k - gk
        qc, rem = divmod(rc, gc)
        if rem or qk & guard:
            raise ArithmeticError("inexact polynomial division")
        q[qk] = qc
        for tk, tc in tail:
            t = qk + tk
            s = r.get(t)
            if s is None:
                r[t] = -qc * tc
                heapq.heappush(heap, -t)
            elif s == qc * tc:
                del r[t]
            else:
                r[t] = s - qc * tc
    return q


def _eliminate(M, pivot_limit, guard):
    """Bareiss (1968) forward elimination in place over Z[params].

    M is a matrix of packed polynomials. Pivots are searched in the first
    pivot_limit columns only; returns (pivot_columns, sign of the row
    permutation). After k pivots every entry below them is a minor of order
    k + 1 of the input (Sylvester's identity), so the division by the
    previous pivot is exact and no gcd runs.
    """
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    sign = 1
    prev = _ONE_TERMS
    pivots = []
    r = 0
    for c in range(pivot_limit):
        p = next((i for i in range(r, nrows) if M[i][c]), None)
        if p is None:
            continue
        if p != r:
            M[r], M[p] = M[p], M[r]
            sign = -sign
        top = M[r]
        piv = top[c]
        for i in range(r + 1, nrows):
            row = M[i]
            f = _neg(row[c])
            row[c] = {}
            for j in range(c + 1, ncols):
                e = _dot(((piv, row[j]), (f, top[j])))
                row[j] = e if prev == _ONE_TERMS else _divexact(e, prev, guard)
        prev = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots, sign


def _cleared(rows, augment=False):
    """(packed matrix, row scales, its _Packing): each row of ParamScalars
    times the lcm s of its denominators, followed, when augment, by s times
    the row of the identity matrix."""
    cleared = [clear_row(row) for row in rows]
    M = [polys for _, polys in cleared]
    scales = [s for s, _ in cleared]
    if augment:
        for i, row in enumerate(M):
            row.extend(scales[i] if j == i else _P_ZERO for j in range(len(M)))
    packing = _Packing(M)
    return [[packing.pack(p) for p in row] for row in M], scales, packing


def _square(op: _Operator, augment: bool):
    """(echelon form, its _Packing, determinant) of the operator's cleared
    matrix, augmented as in ``_cleared``; the determinant is read off the
    last pivot, the only entry unpacked."""
    size = op.size
    M, scales, packing = _cleared(op.rows, augment)
    pivots, sign = _eliminate(M, size, packing.guard)
    if len(pivots) < size:
        return M, packing, ZERO
    last = packing.unpack(M[size - 1][size - 1])
    return M, packing, ParamScalar(-last if sign < 0 else last,
                                   math.prod(scales, start=_P_ONE))


def _over(D, packing):
    """x -> the canonical x/D, for many packed x over one packed D. The
    canonical denominator d of each result divides D, so when D/d for a d
    seen before divides the next x, that x/D is (x/(D/d))/d and is reduced
    by a gcd with the small d rather than with D."""
    den = packing.unpack(D)
    seen = []

    def over(x) -> ParamScalar:
        if not x:
            return ZERO
        for d, q in seen:
            try:
                return ParamScalar(
                    packing.unpack(_divexact(x, q, packing.guard)), d)
            except ArithmeticError:
                pass
        out = ParamScalar(packing.unpack(x), den)
        seen.append((out.den, _divexact(D, packing.pack(out.den),
                                        packing.guard)))
        return out

    return over


def determinant(op: _Operator) -> ParamScalar:
    """Exact determinant of the operator's matrix."""
    return _square(op, False)[2]


def invert(op: Operator2) -> InverseResult:
    """Exact inverse over the rational-function field, via fraction-free
    elimination over Z[params]; reports the determinant either way.

    Row i of the cleared matrix is row i of op times its scale s_i, so the
    inverse of op solves the cleared system for the right-hand side
    diag(s). With D the last pivot, D times that solution has polynomial
    entries (Cramer's rule), and fraction-free back-substitution finds them
    by exact divisions. Each entry is then canonicalised once (``_over``)."""
    size = op.size
    M, packing, det = _square(op, True)
    if det.is_zero:
        return InverseResult(False, None, ZERO)
    guard = packing.guard
    D = M[size - 1][size - 1]
    over = _over(D, packing)
    negated = [[_neg(e) for e in row[:size]] for row in M]
    columns = []
    for col in range(size):
        # the last pivot is D itself, so the last unknown is its right side
        X = [{}] * (size - 1) + [M[size - 1][size + col]]
        for i in range(size - 2, -1, -1):
            acc = _dot([(D, M[i][size + col])] + [
                (negated[i][j], X[j]) for j in range(i + 1, size)])
            X[i] = _divexact(acc, M[i][i], guard)
        columns.append([(i, over(x)) for i, x in enumerate(X) if x])
    return InverseResult(True, Operator2.from_columns(op.dim, columns), det)


def nullspace(rows: Sequence[Sequence[ParamScalar]]):
    """A basis of the right nullspace of a rectangular scalar matrix.

    Returns a list of coordinate tuples, one per non-pivot column fc, with
    1 at fc and 0 at the other non-pivot columns; exact over the
    rational-function field. As in ``invert``, D times each vector, for D
    the last pivot, is found over Z[params] and canonicalised once."""
    if not rows:
        return []
    ncols = len(rows[0])
    M, _, packing = _cleared(rows)
    pivots, _ = _eliminate(M, ncols, packing.guard)
    D = M[len(pivots) - 1][pivots[-1]] if pivots else _ONE_TERMS
    over = _over(D, packing)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        X = {fc: D}
        # echelon row r has its pivot at pivots[r]; solve bottom-up
        for r in range(len(pivots) - 1, -1, -1):
            pc, row = pivots[r], M[r]
            acc = _dot((row[c], x) for c, x in X.items() if c > pc)
            X[pc] = _divexact(acc, _neg(row[pc]), packing.guard)
        basis.append(tuple(ONE if c == fc else over(X.get(c, {}))
                           for c in range(ncols)))
    return basis
