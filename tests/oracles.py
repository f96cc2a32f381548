"""Independent brute-force implementations used as test oracles.

Everything here works on dense lists of Fractions (or of ParamScalar when
a check must stay symbolic) and is written straight from the definitions:
Kronecker products for the leg embeddings, naive cubic matrix products,
permutation-expansion determinants. Deliberately no code shared with the
library beyond the scalar type itself, and the exception classes whose
messages the structure-axiom loops are compared on. Apart from those, a
few functions keep a path that a faster one replaced, for an
entry-for-entry comparison: ``over_reference`` and
``henrici_colored_inverse`` run on the library's older path.
"""

import math
from fractions import Fraction
from itertools import permutations, product

from ybx.algebra import AssociativityError, UnitError
from ybx.constructors import _product_map
from ybx.lie_super import AntisymmetryError, GradingError, JacobiError
from ybx.scalars import (ONE, ZERO, InputError, ParamScalar, Poly, as_scalar,
                         poly_gcd)


def frac_matrix(op, assignment=None):
    """Library operator -> dense Fraction matrix (entries must evaluate)."""
    assignment = assignment or {}
    return [[e.evaluate(assignment) for e in row] for row in op.rows]


def matmul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def kron(A, B):
    """Kronecker product; A and B may be rectangular."""
    return [[a * b for a in ra for b in rb] for ra in A for rb in B]


def identity(n, one=Fraction(1), zero=Fraction(0)):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def twist_matrix(n, one=Fraction(1), zero=Fraction(0)):
    out = [[zero] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            out[j * n + i][i * n + j] = one
    return out


def leg13_permutation(n, one=Fraction(1), zero=Fraction(0)):
    """Permutation matrix of (i,j,k) -> (k,j,i) on the triple tensor."""
    size = n ** 3
    out = [[zero] * size for _ in range(size)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                src = (i * n + j) * n + k
                dst = (k * n + j) * n + i
                out[dst][src] = one
    return out


def embed12(R, n, one=Fraction(1), zero=Fraction(0)):
    return kron(R, identity(n, one, zero))

def embed23(R, n, one=Fraction(1), zero=Fraction(0)):
    return kron(identity(n, one, zero), R)

def embed13(R, n, one=Fraction(1), zero=Fraction(0)):
    """Conjugate R (x) I by the permutation exchanging legs 2 and 3,
    which places R on the outer pair of a triple product."""
    P = kron(identity(n, one, zero), twist_matrix(n, one, zero))
    return matmul(P, matmul(embed12(R, n, one, zero), P))


def embed13_action(R, n, one=Fraction(1), zero=Fraction(0)):
    """Same operator read off column-by-column from the action on basis
    tensors: e_i x e_j x e_k -> sum R[(a,c),(i,k)] e_a x e_j x e_c."""
    size = n ** 3
    out = [[zero] * size for _ in range(size)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                col = (i * n + j) * n + k
                for a in range(n):
                    for c in range(n):
                        out[(a * n + j) * n + c][col] = R[a * n + c][i * n + k]
    return out


def sub(A, B):
    n = len(A)
    return [[A[i][j] - B[i][j] for j in range(n)] for i in range(n)]


def braid_defect_matrix(R, n, one=Fraction(1), zero=Fraction(0)):
    r12 = embed12(R, n, one, zero)
    r23 = embed23(R, n, one, zero)
    return sub(matmul(r12, matmul(r23, r12)), matmul(r23, matmul(r12, r23)))


def qybe_defect_matrix(R, n, one=Fraction(1), zero=Fraction(0)):
    r12 = embed12(R, n, one, zero)
    r13 = embed13(R, n, one, zero)
    r23 = embed23(R, n, one, zero)
    return sub(matmul(r12, matmul(r13, r23)), matmul(r23, matmul(r13, r12)))


def commutator_matrix(R, S, T, n, one=Fraction(1), zero=Fraction(0)):
    r12 = embed12(R, n, one, zero)
    s13 = embed13(S, n, one, zero)
    t23 = embed23(T, n, one, zero)
    return sub(matmul(r12, matmul(s13, t23)), matmul(t23, matmul(s13, r12)))


def is_zero_matrix(M):
    return all(not e for row in M for e in row)


def det_permutation_expansion(rows):
    """Determinant by the definition; works for Fraction or ParamScalar."""
    n = len(rows)
    first = rows[0][0]
    acc = first - first      # a zero of the right type
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        acc = acc + (term if sign > 0 else -term)
    return acc


def symbolic_matrix(op):
    """Library operator -> dense list-of-lists of its ParamScalar entries."""
    return [list(row) for row in op.rows]


def symbolic_zero():
    return ZERO


def scalar_matrix_equal(A, B):
    return all(as_scalar(a) == as_scalar(b)
               for ra, rb in zip(A, B) for a, b in zip(ra, rb))


# -- the operator families, straight from the structure tables -------------
#
# A table t (t[i][j][k] = coefficient of e_k in e_i*e_j or [e_i, e_j]) is
# read as the n x n^2 matrix of the map V(x)V -> V, and a vector v as the
# n x 1 matrix of k -> V; then ab(x)1 is kron(M, u), 1(x)ab is kron(u, M)
# and b(x)a is the twist.

def table_map(table):
    """The n x n^2 matrix of e_i (x) e_j -> sum_k table[i][j][k] e_k."""
    n = len(table)
    return [[table[i][j][k] for i in range(n) for j in range(n)]
            for k in range(n)]


def column(v):
    return [[x] for x in v]


def combo(*terms):
    """sum of coefficient * matrix over the (coefficient, matrix) terms."""
    size = len(terms[0][1])
    return [[sum(c * M[i][j] for c, M in terms) for j in range(size)]
            for i in range(size)]


def _product_terms(table, unit):
    M, u = table_map(table), column(unit)
    return kron(M, u), kron(u, M), twist_matrix(len(unit))


def dn_matrix(table, unit, alpha, beta, gamma):
    """a(x)b -> alpha*ab(x)1 + beta*1(x)ab - gamma*a(x)b."""
    ab1, one_ab, _ = _product_terms(table, unit)
    return combo((alpha, ab1), (beta, one_ab),
                 (-gamma, identity(len(unit) ** 2)))


def colored_matrix(table, unit, p, q, u, v):
    """a(x)b -> q(u-v)ab(x)1 + p(u-v)1(x)ab - (pu-qv)b(x)a."""
    ab1, one_ab, tau = _product_terms(table, unit)
    return combo((q * (u - v), ab1), (p * (u - v), one_ab),
                 (-(p * u - q * v), tau))


def colored_inverse_matrix(table, unit, p, q, u, v):
    """a(x)b -> (p(u-v)ba(x)1 + q(u-v)1(x)ba)/((qu-pv)(pu-qv))
    - b(x)a/(pu-qv)."""
    ab1, one_ab, tau = _product_terms(table, unit)
    dd = (q * u - p * v) * (p * u - q * v)
    return combo((p * (u - v) / dd, matmul(ab1, tau)),
                 (q * (u - v) / dd, matmul(one_ab, tau)),
                 (-1 / (p * u - q * v), tau))


def wxz_matrices(table, unit, lam, mu):
    """W, X, Z: ab(x)1 and 1(x)ab with coefficients (1, lam), (1, 1),
    (mu, 1), each minus b(x)a."""
    ab1, one_ab, tau = _product_terms(table, unit)
    return tuple(combo((a, ab1), (b, one_ab), (-1, tau))
                 for a, b in ((1, lam), (1, 1), (mu, 1)))


def super_phi_matrix(bracket, degree, z, alpha, z_first=False):
    """x(x)y -> alpha*[x,y](x)z (alpha*z(x)[x,y] when z_first)
    + (-1)^{|x||y|} y(x)x."""
    n = len(degree)
    B, zc = table_map(bracket), column(z)
    graded = [[0] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            graded[j * n + i][i * n + j] = (-1) ** (degree[i] * degree[j])
    return combo((alpha, kron(zc, B) if z_first else kron(B, zc)),
                 (1, graded))


def split_center_matrix(f, g, n, c):
    """v(x)w -> (f(v(x)w) projected on V(x)c) + (g(v(x)w) projected on
    c(x)V)."""
    size = n * n
    on_right = [[int(i == j and i % n == c) for j in range(size)]
                for i in range(size)]
    on_left = [[int(i == j and i // n == c) for j in range(size)]
               for i in range(size)]
    return combo((1, matmul(on_right, f)), (1, matmul(on_left, g)))


def mono_cmp(a, b) -> int:
    """Graded lex on monomials given as sorted (name, exponent) tuples:
    higher total degree wins, ties broken lexicographically with
    alphabetically earlier names more significant. A comparator, for
    functools.cmp_to_key; the library encodes the same order as a key."""
    da, db = sum(e for _, e in a), sum(e for _, e in b)
    if da != db:
        return -1 if da < db else 1
    ea, eb = dict(a), dict(b)
    for name in sorted(set(ea) | set(eb)):
        xa, xb = ea.get(name, 0), eb.get(name, 0)
        if xa != xb:
            # a higher power of an earlier variable sorts above
            return 1 if xa > xb else -1
    return 0


def clear_row_reference(row):
    """(s, [e*s for e in row]) for s the lcm of the denominators of the
    ParamScalars in row, as Polys: the loop that ``scalars.clear_row``
    replaced, which folds every denominator into s as it comes and divides
    s by it again for every entry."""
    one = Poly.const(1)
    scale = one
    for e in row:
        d = e.den
        if d != one and d != scale:
            scale = scale * d.divexact(poly_gcd(scale, d))
    if scale == one:
        return scale, [e.num for e in row]
    return scale, [e.num if e.den == scale or not e.num
                   else e.num * scale.divexact(e.den) for e in row]


# -- elimination ------------------------------------------------------------
#
# Bareiss elimination over canonical ParamScalars, dividing in the field,
# is the reference for the library's elimination over Z[params]; Gaussian
# elimination over Fractions is the reference at a point.

def bareiss_eliminate(M, pivot_limit):
    """Fraction-free (Bareiss) forward elimination of a ParamScalar matrix
    in place, pivots searched in the first pivot_limit columns; returns
    (pivot_columns, sign of the row permutation)."""
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    sign = 1
    prev = as_scalar(1)
    pivots = []
    r = 0
    for c in range(pivot_limit):
        p = next((i for i in range(r, nrows) if not M[i][c].is_zero), None)
        if p is None:
            continue
        if p != r:
            M[r], M[p] = M[p], M[r]
            sign = -sign
        piv = M[r][c]
        for i in range(r + 1, nrows):
            f = M[i][c]
            for j in range(c, ncols):
                M[i][j] = (piv * M[i][j] - f * M[r][j]) / prev
        prev = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots, sign


def bareiss_determinant(rows):
    M = [[as_scalar(e) for e in row] for row in rows]
    n = len(M)
    pivots, sign = bareiss_eliminate(M, n)
    if len(pivots) < n:
        return ZERO
    return -M[n - 1][n - 1] if sign < 0 else M[n - 1][n - 1]


def bareiss_inverse(rows):
    """The inverse as a list of rows of ParamScalars, or None if singular."""
    n = len(rows)
    one = as_scalar(1)
    M = [[as_scalar(e) for e in row] + [one if i == j else ZERO
                                         for j in range(n)]
         for i, row in enumerate(rows)]
    pivots, _ = bareiss_eliminate(M, n)
    if len(pivots) < n:
        return None
    inverse = [[ZERO] * n for _ in range(n)]
    for col in range(n):
        for i in range(n - 1, -1, -1):
            acc = M[i][n + col]
            for j in range(i + 1, n):
                acc = acc - M[i][j] * inverse[j][col]
            inverse[i][col] = acc / M[i][i]
    return inverse


def bareiss_nullspace(rows):
    """One vector per non-pivot column fc: 1 at fc, 0 at the other
    non-pivot columns."""
    if not rows:
        return []
    M = [[as_scalar(e) for e in row] for row in rows]
    ncols = len(M[0])
    pivots, _ = bareiss_eliminate(M, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        x = [ZERO] * ncols
        x[fc] = as_scalar(1)
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            acc = ZERO
            for c in range(pc + 1, ncols):
                acc = acc + M[r][c] * x[c]
            x[pc] = -acc / M[r][pc]
        basis.append(tuple(x))
    return basis


def leg_action_reference(rows, n, legs):
    """The rows of R's embedding on a leg pair, as ``tensor._leg_action``
    lists them: the loop that it replaced, which visits the basis triples
    (a, b, c) in lexicographic order and computes each row's index. Row a*n
    + b of R (its nonzero (column, entry) pairs) moved onto the legs is row
    a*sa + b*sb + c*sc of the embedding, for the spectator c."""
    positions = {12: (0, 1, 2), 23: (1, 2, 0), 13: (0, 2, 1)}
    if legs not in positions:
        raise InputError("legs must be one of 12, 23, 13")
    sa, sb, sc = (n ** (2 - pos) for pos in positions[legs])
    index = [r // n * sa + r % n * sb for r in range(n * n)]
    moved = [[(index[c], e) for c, e in row] for row in rows]
    action = [None] * n ** 3
    for a, b, c in product(range(n), repeat=3):
        shift = c * sc
        action[a * sa + b * sb + shift] = [(y + shift, e)
                                           for y, e in moved[a * n + b]]
    return action


def over_reference(packing, pivots):
    """x -> the canonical x/D, for many packed x over D, the product of the
    packed pivots: the canonicalisation that ``tensor._over`` replaced,
    which ignores the factors. The canonical denominator d of each result
    divides D, so when D/d for a d seen before divides the next x, that x/D
    is (x/(D/d))/d and is reduced by a gcd with d; otherwise by a gcd with
    D."""
    den = math.prod((packing.unpack(p) for p in pivots), start=Poly.const(1))
    seen = []

    def over(x):
        if not x:
            return ZERO
        num = packing.unpack(x)
        for d, q in seen:
            try:
                return ParamScalar(num.divexact(q), d)
            except ArithmeticError:
                pass
        out = ParamScalar(num, den)
        seen.append((out.den, den.divexact(out.den)))
        return out

    return over


def henrici_colored_inverse(A, p, q, u, v):
    """``constructors.colored_inverse`` as it was built before each entry
    was divided once by the known denominator: ``_product_map`` over the
    rational scales p(u-v)/dd, q(u-v)/dd and 1/(pu-qv), dd =
    (qu-pv)(pu-qv), so that every product and every sum of two terms on a
    row is canonicalised by gcds (Henrici's sum, Knuth TAOCP 4.5.1)."""
    p, q, u, v = (as_scalar(s) for s in (p, q, u, v))
    duv, puqv = u - v, p * u - q * v
    dd = (q * u - p * v) * puqv
    return _product_map(A, A.unit, p * duv / dd, q * duv / dd,
                        puqv.reciprocal(), swap=True, reverse=True)


def frac_solve(rows):
    """(determinant, inverse or None, rank) of a square Fraction matrix by
    Gauss-Jordan elimination."""
    n = len(rows)
    M = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    det = Fraction(1)
    rank = 0
    for c in range(n):
        p = next((i for i in range(rank, n) if M[i][c]), None)
        if p is None:
            det = Fraction(0)
            continue
        if p != rank:
            M[rank], M[p] = M[p], M[rank]
            det = -det
        piv = M[rank][c]
        det *= piv
        M[rank] = [e / piv for e in M[rank]]
        for i in range(n):
            if i != rank and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[rank])]
        rank += 1
    inverse = [row[n:] for row in M] if rank == n else None
    return det, inverse, rank


# -- the structure axioms, as the triple loops that validated them ----------
#
# Each returns the exception its validator raises on a table of the right
# shape, or None: the first failing axiom, and within it the first basis
# index, pair or triple in row-major order.

def bilinear(table, x, y):
    """sum_ij x_i y_j table[i][j] over ParamScalars."""
    out = [ZERO] * len(table)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi.is_zero or yj.is_zero:
                continue
            for k, t in enumerate(table[i][j]):
                if not t.is_zero:
                    out[k] = out[k] + xi * yj * t
    return tuple(out)


def _scalar_table(table):
    return [[[as_scalar(e) for e in row] for row in plane] for plane in table]


def _basis(n):
    return [tuple(ONE if k == i else ZERO for k in range(n))
            for i in range(n)]


def algebra_error(structure, unit):
    """The unit law on each basis vector, both sides, then associativity
    (e_i e_j) e_k = e_i (e_j e_k) on each basis triple."""
    c, u = _scalar_table(structure), [as_scalar(e) for e in unit]
    n = len(c)
    basis = _basis(n)
    for i, e in enumerate(basis):
        for side, got in (("unit*e", bilinear(c, u, e)),
                          ("e*unit", bilinear(c, e, u))):
            if got != e:
                return UnitError(i, side, got)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = bilinear(c, c[i][j], basis[k])
                rhs = bilinear(c, basis[i], c[j][k])
                if lhs != rhs:
                    return AssociativityError((i, j, k), lhs, rhs)
    return None


def superalgebra_error(degree, bracket):
    """Grading, super antisymmetry, then the graded Jacobi identity
    (-1)^{|i||k|}[e_i,[e_j,e_k]] + (-1)^{|j||i|}[e_j,[e_k,e_i]]
      + (-1)^{|k||j|}[e_k,[e_i,e_j]] = 0 on each basis triple."""
    b, deg = _scalar_table(bracket), degree
    n = len(b)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if not b[i][j][k].is_zero and deg[k] != (deg[i] + deg[j]) % 2:
                    return GradingError((i, j, k))
    for i in range(n):
        for j in range(i, n):
            flip = deg[i] * deg[j] == 0
            if any(b[i][j][k] != (-b[j][i][k] if flip else b[j][i][k])
                   for k in range(n)):
                return AntisymmetryError((i, j))
    basis = _basis(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = [ZERO] * n
                for odd, x, y, z in ((deg[i] * deg[k], i, j, k),
                                     (deg[j] * deg[i], j, k, i),
                                     (deg[k] * deg[j], k, i, j)):
                    term = bilinear(b, basis[x], b[y][z])
                    acc = [a - t if odd else a + t for a, t in zip(acc, term)]
                if any(not e.is_zero for e in acc):
                    return JacobiError((i, j, k))
    return None


def matrix_unit_table(units, degree=None):
    """The table of the span of the matrix units E_ab, (a, b) in units, in
    that order: the matrix product, or with degree (the parity of each
    index) the supercommutator AB - (-1)^{|A||B|} BA, where E_ab has parity
    degree[a] + degree[b]. Computed on Fraction matrices, each product read
    back entry by entry; the span must be closed under it."""
    size = 1 + max(max(p) for p in units)
    where = {p: i for i, p in enumerate(units)}
    parity = [0 if degree is None else (degree[a] + degree[b]) % 2
              for a, b in units]

    def unit(p):
        M = [[Fraction(0)] * size for _ in range(size)]
        M[p[0]][p[1]] = Fraction(1)
        return M

    n = len(units)
    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, p in enumerate(units):
        for j, q in enumerate(units):
            AB, BA = matmul(unit(p), unit(q)), matmul(unit(q), unit(p))
            if degree is None:
                M = AB
            else:
                sign = -1 if parity[i] * parity[j] else 1
                M = [[x - sign * y for x, y in zip(r, s)]
                     for r, s in zip(AB, BA)]
            for a in range(size):
                for b in range(size):
                    if M[a][b]:
                        table[i][j][where[(a, b)]] = M[a][b]
    return table, parity


def multilinear_free_algebra(letters="abc"):
    """(words, table, unit) of the free algebra on the letters modulo the
    words with a repeated letter: its basis is the words with no repeated
    letter, the empty word first, then by length and lexicographically; a
    product is the concatenation, or 0 when the two words share a letter.
    For three letters its dim is 1 + 3 + 6 + 6 = 16."""
    words = [""] + ["".join(w) for k in range(1, len(letters) + 1)
                    for w in permutations(letters, k)]
    where = {w: i for i, w in enumerate(words)}
    n = len(words)
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, x in enumerate(words):
        for j, y in enumerate(words):
            if set(x).isdisjoint(y):
                table[i][j][where[x + y]] = 1
    return words, table, [1] + [0] * (n - 1)
