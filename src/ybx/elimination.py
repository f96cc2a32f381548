"""Exact elimination over Z[params]: determinant, inverse and nullspace.

The package registers this module to load on first use, and
``tensor.determinant``, ``tensor.invert`` and ``tensor.nullspace`` call
into it, so a process that runs no elimination never compiles it. An
operator of constants is cleared from its ``int_form``, and any other
matrix row by row: each row of ParamScalars times the lcm of its
denominators, a row of polynomials with integer coefficients, whose
monomials one ``kernel._Packing`` packs into ints for the length of the
call. ``determinant`` and ``invert`` permute the cleared matrix by its
zero pattern to block triangular form (``_block_order``) and eliminate it
block by block with Bareiss's fraction-free steps; up to sign and the row
scales, the determinant is the product of the blocks' last pivots.
``_back_substitution`` solves for D times the unknowns, and ``_over``
reduces each distinct one once over the factor base of D. The closed-form
inverse ``constructors.colored_inverse`` divides its entries the same way
(``_quotients``).

``factor_base`` splits a product of pivots into factors certified
irreducible and a rest, so that ``_over`` reduces its entries by trial
divisions, with a gcd only on that rest.
"""

from __future__ import annotations

import heapq
import math
from functools import reduce
from itertools import accumulate, chain, combinations
from typing import Sequence

from . import gcd, scalars
from .kernel import _ONE_TERMS, _Packing, _dot, _neg
from .scalars import (ONE, ZERO, InputError, ParamScalar, Poly, _P_ONE,
                      _P_ZERO, _check_operand, _degree, _reduced, as_scalar,
                      clear_row, poly_gcd)
from .tensor import InverseResult, Operator2, Operator3, _Operator


def _divexact(p: dict, g: dict, guard: int) -> dict:
    """Exact division of packed polynomials; raises ArithmeticError if not
    exact. As in ``Poly.divexact``, the remainder's monomials wait in a heap
    (of -k, so that each step pops the leading one), and a monomial
    cancelled to zero and added again may sit there twice."""
    gk = max(g)
    gc = g[gk]
    if len(g) == 1:
        # a single term divides each term on its own
        q = {}
        for k, c in p.items():
            qc, rem = divmod(c, gc)
            if rem or (k - gk) & guard:
                raise ArithmeticError("inexact polynomial division")
            q[k - gk] = qc
        return q
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


def _eliminate(M, blocks, guard):
    """Bareiss (1968) forward elimination in place over Z[params].

    M is a matrix of packed polynomials, block upper triangular with the
    (rows, columns) ranges of its diagonal blocks in blocks. Each block's
    pivots are searched among its rows in its columns, and its pivot chain
    starts at 1. Returns (pivot_columns, sign of the row swaps). After k
    pivots of a block, every entry below them is a minor of order k + 1 of
    the block's rows (Sylvester's identity), so the division by the
    previous pivot is exact and no gcd runs."""
    ncols = len(M[0]) if M else 0
    sign = 1
    pivots = []
    for rows, columns in blocks:
        prev = _ONE_TERMS
        r, end = rows.start, rows.stop
        for c in columns:
            p = next((i for i in range(r, end) if M[i][c]), None)
            if p is None:
                continue
            if p != r:
                M[r], M[p] = M[p], M[r]
                sign = -sign
            top = M[r]
            piv = top[c]
            for i in range(r + 1, end):
                row = M[i]
                f = _neg(row[c])
                row[c] = {}
                for j in range(c + 1, ncols):
                    if row[j] or (f and top[j]):    # else 0 stays 0
                        e = _dot(((piv, row[j]), (f, top[j])))
                        row[j] = (e if prev == _ONE_TERMS
                                  else _divexact(e, prev, guard))
            prev = piv
            pivots.append(c)
            r += 1
    return pivots, sign


def _block_order(pattern):
    """(rows, cols, ends): row t of the square zero pattern permuted to
    block upper triangular form is row rows[t], column u is column cols[u],
    and block k ends before ends[k]. None if the pattern, whose row i lists
    its nonzero columns, has no perfect matching: then it is singular.

    A maximum transversal (Duff 1981) matches rows with columns by
    augmenting paths. The blocks are the strongly connected components
    (Tarjan 1972; Duff & Reid 1978) of the graph with an edge from row i to
    the row matched with each column of row i, which Tarjan emits sinks
    first. Both searches keep explicit stacks and go in index order, so no
    pattern reaches the recursion limit, and the order is deterministic."""
    n = len(pattern)
    owner, seen = [None] * n, [None] * n    # per column: row, last root
    for root in range(n):
        path, via = [(root, iter(pattern[root]))], []
        while path:
            c = next((c for c in path[-1][1] if seen[c] != root), None)
            if c is None:
                path.pop()
                del via[-1:]
                continue
            seen[c] = root
            via.append(c)
            if owner[c] is None:
                # row k of the path takes via[k], which row k + 1 gives up
                for (r, _), c in zip(path, via):
                    owner[c] = r
                break
            path.append((owner[c], iter(pattern[owner[c]])))
        else:
            return None
    # a finished row's index is n, which no low link takes
    index, low, edges, stack, blocks = {}, {}, {}, [], []
    for root in range(n):
        work = [] if root in index else [root]
        while work:
            v = work[-1]
            if v not in index:
                index[v] = low[v] = len(index)
                edges[v] = iter(pattern[v])
                stack.append(v)
            for c in edges[v]:
                if owner[c] not in index:
                    work.append(owner[c])
                    break
                low[v] = min(low[v], index[owner[c]])
            else:
                work.pop()
                if work:
                    low[work[-1]] = min(low[work[-1]], low[v])
                if low[v] == index[v]:
                    block = [stack.pop()]
                    while block[-1] != v:
                        block.append(stack.pop())
                    index.update(dict.fromkeys(block, n))
                    blocks.append(sorted(block))
    blocks.reverse()
    match = {r: c for c, r in enumerate(owner)}
    return (list(chain.from_iterable(blocks)),
            list(chain.from_iterable(sorted(match[r] for r in block)
                                     for block in blocks)),
            list(accumulate(map(len, blocks))))


def _cleared(rows):
    """(M, scales): each row of ParamScalars times the lcm s of its
    denominators, a list of Polys, and the scales s."""
    cleared = [clear_row(row) for row in rows]
    return [polys for _, polys in cleared], [s for s, _ in cleared]


def _packed(M, scales, augment=False):
    """(packed matrix, its _Packing) of the cleared rows M, each followed,
    when augment, by its scale s times the row of the identity matrix."""
    if augment:
        for i, row in enumerate(M):
            row.extend(scales[i] if j == i else _P_ZERO for j in range(len(M)))
    packing = _Packing(M)
    return [[packing.pack(p) for p in row] for row in M], packing


def _square(op: _Operator, augment: bool):
    """(echelon form, cols, D, pivots, its _Packing, determinant), or None
    if the operator is singular. The cleared matrix, augmented as in
    ``_packed``, has its rows and first size columns permuted by
    ``_block_order``, so echelon column u < size is column cols[u]. D, the
    product of the blocks' last pivots, over the row scales is the
    determinant up to the signs of the permutations and swaps. An operator
    whose ``int_form`` (d, cleared) is not None, whatever built it, is
    cleared from it, each row scale d: a born one's rows are never built."""
    _check_operand(op, Operator2, Operator3)
    size = op.size
    form = op.int_form
    if form is not None:
        d, form = form
        M = [[_P_ZERO] * size for _ in form]
        for row, pairs in zip(M, form):
            for c, e in pairs:
                row[c] = Poly.const(e)
        scales = [Poly.const(d)] * size
    else:
        M, scales = _cleared(op.rows)
    M, packing = _packed(M, scales, augment)
    order = _block_order([[c for c in range(size) if row[c]] for row in M])
    if order is None:
        return None
    rows, cols, ends = order
    M = [[M[r][c] for c in cols] + M[r][size:] for r in rows]
    blocks = [(range(a, b),) * 2 for a, b in zip([0, *ends], ends)]
    pivots, sign = _eliminate(M, blocks, packing.guard)
    if len(pivots) < size:
        return None
    pivots = [M[b - 1][b - 1] for b in ends]
    D = reduce(lambda x, y: _dot([(x, y)]), pivots)
    det = packing.unpack(D)
    # the two permutations' signs, from their inversions
    if sign * (-1) ** sum(a > b for p in (rows, cols)
                          for a, b in combinations(p, 2)) < 0:
        det = -det
    return M, cols, D, pivots, packing, ParamScalar(
        det, math.prod(scales, start=_P_ONE))


def factor_base(pivots):
    """(c, atoms, R) with c * prod(a**m for a, m in atoms) * R equal to
    the product of the pivots, nonzero polynomials: c an int, each atom a,
    with its multiplicity m, certified irreducible, and the atoms and R
    primitive with positive leading coefficients.

    Each pivot splits into its signed integer content, its monomial
    content, whose names are atoms, and its primitive rest. The rests,
    lowest degree first, are divided by each atom found so far as often as
    it goes; what is left is an atom if it is certified irreducible, and
    otherwise a factor of R. The certificate is degree 1 in some name v
    with coefficients in v whose gcd is 1: of any two factors of such a
    piece one lacks v, so it divides both coefficients and is a unit. A
    gcd g other than 1 is a factor of the piece, so the first name of
    degree 1 decides.

    >>> u, v = Poly.variable("u"), Poly.variable("v")
    >>> c, atoms, R = factor_base([(u + v).scale(-2) * u,
    ...                            (u + v) * (u * u + v * v)])
    >>> c, [(str(a), m) for a, m in atoms], str(R)
    (-2, [('u', 1), ('u + v', 2)], 'u^2 + v^2')
    """
    c, names, pieces = 1, {}, []
    for p in pivots:
        # dividing by a monomial keeps the leading term, so q has p's sign
        k, mono, p = gcd._primitive(p)
        if p.leading()[1] < 0:
            k, p = -k, -p
        c *= k
        for name, e in mono:
            names[name] = names.get(name, 0) + e
        if p != _P_ONE:
            pieces.append(p)
    atoms = [[Poly.variable(name), m] for name, m in sorted(names.items())]
    found, R = [], _P_ONE
    for p in sorted(pieces, key=lambda p: (_degree(p), len(p.terms))):
        for atom in found:
            while p != _P_ONE:
                try:
                    p = p.divexact(atom[0])
                except ArithmeticError:
                    break
                atom[1] += 1
        if p == _P_ONE:
            continue
        if _certified(p):
            found.append([p, 1])
        else:
            R = R * p
    return c, [(a, m) for a, m in atoms + found], R


def _certified(p: Poly) -> bool:
    """Whether p, primitive and free of monomial content, has degree 1 in
    its first such name v and coprime coefficients in v."""
    for v in sorted(p.names):
        coeffs = gcd._univar(p, v)
        if max(coeffs) == 1:
            # scalars' gcd, as in the gcd's own recursion; poly_gcd here is
            # the one that _over runs on the entries
            return scalars.poly_gcd(coeffs[1],
                                    coeffs.get(0, _P_ZERO)) == _P_ONE
    return False


def _over(packing, pivots):
    """x -> the canonical x/D, for many packed x over D, the product of the
    packed pivots.

    ``factor_base`` writes D as c * prod(a**m) * R, over atoms a certified
    irreducible. For each atom, the packed powers a**m, ..., a are tried
    highest first, one trial division each, and the first that divides
    says how much of a cancels. A gcd runs only on what is left of R when
    that is not 1, and the integer gcd of x's coefficients with c and the
    sign of c finish x/D. Each distinct x, keyed by its packed terms, is
    reduced once, and equal x share the result."""
    c, atoms, R = factor_base([packing.unpack(p) for p in pivots])
    guard, dens, quotients = packing.guard, {}, {}
    powers = [list(accumulate([packing.pack(a)] * m,
                              lambda x, y: _dot([(x, y)])))[::-1]
              for a, m in atoms]

    def over(x) -> ParamScalar:
        if not x:
            return ZERO
        terms = frozenset(x.items())
        if terms in quotients:
            return quotients[terms]
        exps = []
        for (_, m), down in zip(atoms, powers):
            # down[i] is a**(m - i), so i of a is left in the denominator
            for i, q in enumerate(down):
                try:
                    x = _divexact(x, q, guard)
                except ArithmeticError:
                    continue
                exps.append(i)
                break
            else:
                exps.append(m)
        k = math.gcd(c, *x.values())
        t = k if c > 0 else -k
        if t != 1:
            x = {m: v // t for m, v in x.items()}
        num, r = packing.unpack(x), R
        if r != _P_ONE:
            g = poly_gcd(num, r)
            if g != _P_ONE:
                num, r = num.divexact(g), r.divexact(g)
        key = (tuple(exps), r, k)
        den = dens.get(key)
        if den is None:
            den = dens[key] = reduce(
                Poly.__mul__, (a ** e for (a, _), e in zip(atoms, exps) if e),
                r).scale(abs(c) // k)
        quotients[terms] = q = _reduced(num, den)
        return q

    return over


def _quotients(rows, factors):
    """The rows of ParamScalars with each entry x replaced by the canonical
    x/D, for D the product of the nonzero Polys in factors, each distinct
    entry divided once: ``_over``, with the factors as its pivots, divides
    the numerator a of x = a/b by D. What is left of a shares no factor
    with b, nor its integer content with b's, so (a/D)/b is canonical as
    it stands. The packing's rows are the numerators and each factor, so
    its bound covers every monomial of D and of each a."""
    places = {}
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x:
                places.setdefault(x, []).append((i, j))
    packing = _Packing([[x.num for x in places], *([f] for f in factors)])
    over = _over(packing, [packing.pack(f) for f in factors])
    out = [[ZERO] * len(row) for row in rows]
    for x, spots in places.items():
        q = over(packing.pack(x.num))
        if x.den != _P_ONE:
            q = _reduced(q.num, q.den * x.den)
        for i, j in spots:
            out[i][j] = q
    return tuple(map(tuple, out))


def _back_substitution(M, pivots, systems, guard):
    """D times every unknown of M x = 0, for the packed echelon matrix M
    with row r's pivot at column pivots[r]: each dict of systems maps the
    columns already fixed to D times their nonzero values, and gains the
    nonzero unknowns solved for; a column it leaves out is 0. The rows are
    solved bottom-up, row r for its pivot column pc, by the exact division
    X[pc] = sum_{c > pc} M[r][c]*X[c] / -M[r][pc] (Cramer's rule)."""
    rows = [(pc, _neg(row[pc]), {c: row[c] for c in range(pc + 1, len(row))
                                 if row[c]})
            for row, pc in zip(M, pivots)][::-1]
    for X in systems:
        for pc, piv, right in rows:
            acc = _dot((right[c], x) for c, x in X.items() if c in right)
            if acc:
                X[pc] = _divexact(acc, piv, guard)
    return systems


def determinant(op: _Operator) -> ParamScalar:
    """``tensor.determinant``: D over the row scales, with the signs of the
    permutations and swaps (``_square``), or 0 if op is singular."""
    solved = _square(op, False)
    return solved[-1] if solved else ZERO


def invert(op: _Operator) -> InverseResult:
    """``tensor.invert``.

    Row i of the cleared matrix is row i of op times its scale s_i, so the
    inverse of op solves the cleared system for the right-hand side
    diag(s). D is the cleared determinant up to sign, so D times that
    solution is polynomial (Cramer's rule). Right-hand side column col is
    one more unknown, the augmented column size + col, fixed at -D, and
    ``_back_substitution`` finds X_i, row cols[i] of the inverse. Each
    distinct X_i is then reduced once over the factor base of D, the
    product of the blocks' last pivots: by trial divisions by its certified
    factors, and by a gcd only with the rest of D, if any (``_over``)."""
    solved = _square(op, True)
    if solved is None:
        return InverseResult(False, None, ZERO)
    size = op.size
    M, cols, D, pivots, packing, det = solved
    over = _over(packing, pivots)
    minus_D = _neg(D)
    solved = _back_substitution(M, range(size), [
        {size + col: minus_D} for col in range(size)], packing.guard)
    columns = [[(cols[i], over(X[i])) for i in range(size) if i in X]
               for X in solved]
    return InverseResult(True, type(op).from_columns(op.dim, columns), det)


def nullspace(rows: Sequence[Sequence[ParamScalar]]):
    """``tensor.nullspace``. D times each vector, for D the last pivot, is
    found over Z[params] by ``_back_substitution`` with column fc fixed at
    D, as in ``invert``, and reduced over D's factor base."""
    _check_operand(rows, Sequence)
    if not rows:
        return []
    for row in rows:
        _check_operand(row, Sequence)
    ncols = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise InputError(f"nullspace: row {i} has {len(row)} entries, "
                             f"row 0 has {ncols}")
    M, packing = _packed(*_cleared([[as_scalar(e) for e in row]
                                    for row in rows]))
    pivots, _ = _eliminate(M, [(range(len(M)), range(ncols))], packing.guard)
    D = M[len(pivots) - 1][pivots[-1]] if pivots else _ONE_TERMS
    over = _over(packing, [D])
    free = sorted(set(range(ncols)) - set(pivots))
    solved = _back_substitution(M, pivots, [{fc: D} for fc in free],
                                packing.guard)
    return [tuple(ONE if c == fc else over(X.get(c, {})) for c in range(ncols))
            for fc, X in zip(free, solved)]
