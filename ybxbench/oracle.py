"""Independent result checker.

Plain Fraction matrices, built here from the generator's own tables, at a
seeded rational point. Nothing in this module imports ybx: ybx's answers
arrive as the strings it prints, and this module evaluates those strings
with a parser of its own.

Conventions follow ybx's documented ones: e_i (x) e_j has flat index
i*n + j, three legs i*n^2 + j*n + k; column = input, row = output; the
witness of a failed identity is the first nonzero defect entry in
row-major order.
"""

from __future__ import annotations

import re
from fractions import Fraction

# ---------------------------------------------------------------------------
# scalar strings
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[-+*/^()]))")


class Unparsable(ValueError):
    pass


def _tokens(text: str):
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise Unparsable(f"bad character in {text!r}")
            break
        out.append(m.groups())
        pos = m.end()
    return out


def evaluate(text: str, point) -> Fraction:
    """Value of a scalar string at a point; ZeroDivisionError at a pole."""
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos][2] if pos < len(toks) else None

    def expr():
        nonlocal pos
        value = term()
        while peek() in ("+", "-"):
            op = toks[pos][2]
            pos += 1
            rhs = term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term():
        nonlocal pos
        value = unary()
        while peek() in ("*", "/"):
            op = toks[pos][2]
            pos += 1
            rhs = unary()
            value = value * rhs if op == "*" else value / rhs
        return value

    def unary():
        nonlocal pos
        if peek() in ("+", "-"):
            op = toks[pos][2]
            pos += 1
            inner = unary()
            return inner if op == "+" else -inner
        return power()

    def power():
        nonlocal pos
        base = atom()
        if peek() in ("^", "**"):
            pos += 1
            sign = 1
            if peek() == "-":
                sign, pos = -1, pos + 1
            if pos >= len(toks) or toks[pos][0] is None:
                raise Unparsable(f"bad exponent in {text!r}")
            e = int(toks[pos][0])
            pos += 1
            return base ** (sign * e)
        return base

    def atom():
        nonlocal pos
        if pos >= len(toks):
            raise Unparsable(f"unexpected end of {text!r}")
        num, name, op = toks[pos]
        pos += 1
        if num is not None:
            return Fraction(int(num))
        if name is not None:
            return Fraction(point[name])
        if op == "(":
            inner = expr()
            if peek() != ")":
                raise Unparsable(f"missing ')' in {text!r}")
            pos += 1
            return inner
        raise Unparsable(f"unexpected {op!r} in {text!r}")

    value = expr()
    if pos != len(toks):
        raise Unparsable(f"trailing input in {text!r}")
    return value


def peval(p, point) -> Fraction:
    """Value of a structure entry at a point: a generator polynomial, or an
    int or scalar string as read from a JSON file."""
    if isinstance(p, str):
        return evaluate(p, point)
    if not isinstance(p, dict):
        return Fraction(p)
    total = Fraction(0)
    for mono, c in p.items():
        term = Fraction(c)
        for name, e in mono:
            term *= Fraction(point[name]) ** e
        total += term
    return total


def table_at(s, point):
    """(table, unit-or-None, degree-or-None) of a generated structure with
    Fraction entries."""
    table = [[[peval(e, point) for e in row] for row in plane]
             for plane in s.table]
    unit = [peval(e, point) for e in s.unit] if s.unit is not None else None
    return table, unit, s.degree


# ---------------------------------------------------------------------------
# structure validation, in ybx's documented scan order
# ---------------------------------------------------------------------------

def algebra_witness(table, unit):
    """("UnitError", [i]) or ("AssociativityError", [i, j, k]) for the first
    violated axiom (unit law per basis index, then associativity per basis
    triple in lexicographic order), or None."""
    n = len(table)
    for i in range(n):
        left = [sum(unit[j] * table[j][i][k] for j in range(n)) for k in range(n)]
        right = [sum(unit[j] * table[i][j][k] for j in range(n)) for k in range(n)]
        want = [int(k == i) for k in range(n)]
        if left != want or right != want:
            return ("UnitError", [i])
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = [sum(table[i][j][l] * table[l][k][m] for l in range(n))
                       for m in range(n)]
                rhs = [sum(table[j][k][l] * table[i][l][m] for l in range(n))
                       for m in range(n)]
                if lhs != rhs:
                    return ("AssociativityError", [i, j, k])
    return None


def superalgebra_witness(table, degree):
    """The first violation of grading, graded antisymmetry or graded Jacobi,
    scanned in that order, or None."""
    n = len(table)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[i][j][k] and degree[k] != (degree[i] + degree[j]) % 2:
                    return ("GradingError", [i, j, k])
    for i in range(n):
        for j in range(i, n):
            sign = -1 if degree[i] * degree[j] == 0 else 1
            if any(table[i][j][k] != sign * table[j][i][k] for k in range(n)):
                return ("AntisymmetryError", [i, j])
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = [Fraction(0)] * n
                for a, x, y, z in ((degree[i] * degree[k], i, j, k),
                                   (degree[j] * degree[i], j, k, i),
                                   (degree[k] * degree[j], k, i, j)):
                    sign = -1 if a % 2 else 1
                    for l in range(n):
                        for m in range(n):
                            acc[m] += sign * table[y][z][l] * table[x][l][m]
                if any(acc):
                    return ("JacobiError", [i, j, k])
    return None


def structure_witness(s, point):
    table, unit, degree = table_at(s, point)
    if s.kind == "algebra":
        return algebra_witness(table, unit)
    return superalgebra_witness(table, degree)


# ---------------------------------------------------------------------------
# operators on V (x) V as dense Fraction matrices M[row][col]
# ---------------------------------------------------------------------------

def zeros(size):
    return [[Fraction(0)] * size for _ in range(size)]


def product_map(table, unit, left, right, diag, swap):
    """a(x)b -> left*ab(x)1 + right*1(x)ab - diag*(b(x)a if swap else a(x)b)."""
    n = len(table)
    M = zeros(n * n)
    for i in range(n):
        for j in range(n):
            col = i * n + j
            for k in range(n):
                for l in range(n):
                    coeff = table[i][j][k] * unit[l]
                    M[k * n + l][col] += left * coeff
                    M[l * n + k][col] += right * coeff
            M[(j * n + i) if swap else col][col] -= diag
    return M


def dn_matrix(table, unit, alpha, beta, gamma):
    return product_map(table, unit, alpha, beta, gamma, swap=False)


def colored_matrix(table, unit, p, q, u, v):
    return product_map(table, unit, q * (u - v), p * (u - v), p * u - q * v,
                       swap=True)


def wxz_matrices(table, unit, lam, mu):
    one = Fraction(1)
    return {"W": product_map(table, unit, one, lam, one, swap=True),
            "X": product_map(table, unit, one, one, one, swap=True),
            "Z": product_map(table, unit, mu, one, one, swap=True)}


def super_phi_matrix(table, degree, z, alpha, inverse=False):
    """x(x)y -> alpha*[x,y](x)z + (-1)^{|x||y|} y(x)x, or with z(x)[x,y]
    in place of [x,y](x)z for the inverse."""
    n = len(table)
    M = zeros(n * n)
    for i in range(n):
        for j in range(n):
            col = i * n + j
            M[j * n + i][col] += -1 if degree[i] * degree[j] else 1
            for k in range(n):
                for l in range(n):
                    row = l * n + k if inverse else k * n + l
                    M[row][col] += alpha * table[i][j][k] * z[l]
    return M


def split_center_matrix(n, c, f, g):
    """v(x)w -> f^(v(x)w)(x)c + c(x)g^(v(x)w)."""
    M = zeros(n * n)
    for col in range(n * n):
        for k in range(n):
            M[k * n + c][col] += f[k * n + c][col]
        for l in range(n):
            M[c * n + l][col] += g[c * n + l][col]
    return M


def matmul(A, B):
    size = len(A)
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(A[i], Bt[j]) if a and b)
             for j in range(size)] for i in range(size)]


def is_identity(M):
    return all(M[i][j] == (i == j) for i in range(len(M)) for j in range(len(M)))


def det(M):
    """Determinant by Gaussian elimination over the rationals."""
    A = [list(r) for r in M]
    size = len(A)
    out = Fraction(1)
    for c in range(size):
        p = next((r for r in range(c, size) if A[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            A[c], A[p] = A[p], A[c]
            out = -out
        out *= A[c][c]
        for r in range(c + 1, size):
            f = A[r][c] / A[c][c]
            if f:
                for k in range(c, size):
                    A[r][k] -= f * A[c][k]
    return out


# ---------------------------------------------------------------------------
# identities on V (x) V (x) V by acting on basis tensors
# ---------------------------------------------------------------------------

def _columns(M):
    size = len(M)
    return [{r: M[r][c] for r in range(size) if M[r][c]} for c in range(size)]


def _apply(cols, n, legs, vec):
    out = {}
    nn = n * n
    for idx, val in vec.items():
        i, rest = divmod(idx, nn)
        j, k = divmod(rest, n)
        if legs == 12:
            col = i * n + j
        elif legs == 23:
            col = j * n + k
        else:
            col = i * n + k
        for row, r in cols[col].items():
            a, b = divmod(row, n)
            if legs == 12:
                t = row * n + k
            elif legs == 23:
                t = i * nn + row
            else:
                t = (a * n + j) * n + b
            out[t] = out.get(t, 0) + val * r
    return out


def _chain_defect(n, lhs, rhs):
    """Nonzero entries {(row, col): value} of (product of lhs) - (product of
    rhs); each side lists (cols, legs) factors, rightmost applied first."""
    out = {}
    for c in range(n ** 3):
        sides = []
        for chain in (lhs, rhs):
            vec = {c: Fraction(1)}
            for cols, legs in reversed(chain):
                vec = _apply(cols, n, legs, vec)
            sides.append(vec)
        a, b = sides
        for row in set(a) | set(b):
            d = a.get(row, 0) - b.get(row, 0)
            if d:
                out[(row, c)] = d
    return out


def yb_defect(R, S, T):
    """R^12 S^13 T^23 - T^23 S^13 R^12."""
    n = int(round(len(R) ** 0.5))
    r, s, t = _columns(R), _columns(S), _columns(T)
    return _chain_defect(n, [(r, 12), (s, 13), (t, 23)],
                         [(t, 23), (s, 13), (r, 12)])


def braid_defect(R):
    """R^12 R^23 R^12 - R^23 R^12 R^23."""
    n = int(round(len(R) ** 0.5))
    r = _columns(R)
    return _chain_defect(n, [(r, 12), (r, 23), (r, 12)],
                         [(r, 23), (r, 12), (r, 23)])


# ---------------------------------------------------------------------------
# comparing ybx's answers with the above
# ---------------------------------------------------------------------------

def check_verdict(defect, status, witness, point):
    """None when ybx's verdict and witness agree with the defect entries
    computed here, else the reason they do not."""
    first = min(defect) if defect else None
    if status == "pass":
        return None if first is None else f"PASS but entry {first} is nonzero"
    if status != "fail" or not witness:
        return f"unexpected status {status!r} / witness {witness!r}"
    row, col = witness.get("row"), witness.get("col")
    if first is not None and first < (row, col):
        return f"witness ({row}, {col}) but entry {first} is nonzero before it"
    try:
        value = evaluate(witness["entry"], point)
    except (KeyError, ZeroDivisionError, Unparsable) as exc:
        return f"witness entry unusable: {exc!r}"
    if value != defect.get((row, col), 0):
        return f"witness entry {witness['entry']!r} does not match"
    return None


def check_inverse(M, inverse_rows, det_text, point):
    """None when the printed inverse and determinant agree with M at the
    point, else the reason."""
    size = len(M)
    if len(inverse_rows) != size:
        return "inverse has the wrong size"
    inv = [[evaluate(e, point) for e in row] for row in inverse_rows]
    if not (is_identity(matmul(M, inv)) and is_identity(matmul(inv, M))):
        return "R * R^-1 is not the identity"
    if det_text is not None and evaluate(det_text, point) != det(M):
        return f"determinant {det_text!r} does not match"
    return None
