"""The product kernel: matrices multiplied out row by row over exact
integers or packed integer-coefficient polynomials.

Products (``@``, the defects, the round trips A∘B - I, and associativity
and graded Jacobi of a structure table, ``first_failing_triple``) run on
integer forms when every factor has one, and otherwise on each matrix
times the lcm of its denominators in integer-coefficient polynomials; the
elimination, in ``elimination``, runs on the polynomials of each row times
the lcm of its denominators. Polynomials have each monomial packed into
one int (``_Packing``), once per product or elimination, so that a product
of monomials is an int addition. A row is pushed through a product's
factors one step each (``_apply``, ``_apply_packed``), and a step adds
every product into its output column as it forms it; the packed lane drops
the terms and columns that cancel once, at the end of the step, and the
int lane leaves its zeros to its callers. A round trip is compared with d
times the identity, d the product of the two operators' denominators, so
every zero test below is exact and no entry is canonicalised until it
leaves the kernel; an axiom canonicalises only the two sides of its first
failing triple.

Structure validation runs this module and not the operator layer
(``tensor``), which builds its products on it; a table's single products
(the unit law, [z, e_j], a witness's two sides) are ``combine`` sums.
"""

from __future__ import annotations

import math
from itertools import chain, product
from operator import itemgetter

from .scalars import ZERO, ParamScalar, Poly, _P_ONE, clear_row, rational


# the packed 1 and -1 under every _Packing; never mutated
_ONE_TERMS, _MINUS_ONE_TERMS = {0: 1}, {0: -1}


def combine(x, vectors) -> tuple:
    """sum_i x_i vectors[i] over ParamScalars, for vectors of one length,
    skipping the zero coordinates of x and the zero entries of each vector."""
    out = [ZERO] * len(vectors[0])
    for xi, v in zip(x, vectors):
        if not xi.is_zero:
            for k, t in enumerate(v):
                if not t.is_zero:
                    out[k] = out[k] + xi * t
    return tuple(out)


_CONSTANT = {()}.issuperset


def _int_form(rows):
    """(d, cleared) for the matrix with the given rows of ParamScalars, when
    every entry is a rational constant: d is the lcm of the denominators,
    and cleared[i] lists the nonzero (column, int) pairs of row i of d times
    the matrix, sorted by column. None, found before any list is built,
    when some entry is not a rational constant. Operators compute their
    ``int_form`` with it, and ``first_failing_triple`` and
    ``Algebra.product_table`` clear a structure table with it."""
    # a denominator is never empty, so the two tests leave only constants
    if not all(_CONSTANT(e.num.terms) and _CONSTANT(e.den.terms)
               for row in rows for e in row):
        return None
    terms = [[(c, e.num.terms[()], e.den.terms[()])
              for c, e in enumerate(row) if e.num.terms] for row in rows]
    d = math.lcm(*(den for row in terms for _, _, den in row))
    return d, [[(c, num * (d // den)) for c, num, den in row]
               for row in terms]


def _int_lane(forms, side):
    """``tensor._clear``'s result on integer forms."""
    d = math.prod(forms[i][0] for i in side)
    return ([cleared for _, cleared in forms], _INT_KERNEL, d,
            lambda e: rational(e, d))


def _packed_lane(mats, side):
    """``tensor._clear``'s result on matrices given by their rows of
    ParamScalars: an operator's ``rows``, or the n^2 rows (i, j) ->
    table[i][j] of an n x n x n structure table. d_X is the lcm of X's
    denominators, and the entries are polynomials packed by one _Packing
    whose rows are the factors, each its matrix's cleared entries and d_X,
    so that S bounds the degree of d and of every entry the product forms:
    each takes at most one entry from each factor."""
    cleared = {}
    for m in {id(m): m for m in mats}.values():
        flat = list(chain.from_iterable(m))
        nonzero = [i for i, e in enumerate(flat) if e.num.terms]
        cleared[id(m)] = (m, nonzero, *clear_row([flat[i] for i in nonzero]))
    factors = [cleared[id(mats[i])] for i in side]
    packing = _Packing([values + [s] for _, _, s, values in factors])
    den = math.prod((s for _, _, s, _ in factors), start=_P_ONE)
    for k, (m, nonzero, _, values) in cleared.items():
        width = len(m[0])
        rows = [[] for _ in m]
        for i, e in zip(nonzero, values):
            rows[i // width].append((i % width, packing.pack(e)))
        cleared[k] = rows
    return ([cleared[id(m)] for m in mats], _PACKED_KERNEL, packing.pack(den),
            lambda e: ParamScalar(packing.unpack(e), den))


def _apply(actions, x: int) -> dict:
    """e_x pushed through the row actions, first to last (each lists the
    nonzero (column, entry) pairs of each row, adding on a repeated column):
    row x of their product, as a sparse {column: entry} map. The int lane;
    an entry that cancels to 0 is carried along and may be returned, so
    its callers drop zeros only where they matter: the scans from the
    difference of two rows, ``_from_rows`` from a product's rows."""
    vec = actions[0][x]
    for action in actions[1:]:
        out = {}
        for x, s in vec:
            for y, e in action[x]:
                out[y] = out.get(y, 0) + s * e
        vec = out.items()
    return out if len(actions) > 1 else dict(vec)


def _apply_packed(actions, x: int) -> dict:
    """As _apply, on packed polynomials. A step adds each product into its
    column's terms as it forms it, and drops the terms and the columns
    that cancel to 0 once, at the end of the step; columns and terms keep
    the order in which they first appear."""
    vec = actions[0][x]
    for action in actions[1:]:
        out = {}
        for x, s in vec:
            for y, e in action[x]:
                acc = out.get(y)
                if acc is None:
                    acc = out[y] = {}
                get = acc.get
                for k1, c1 in s.items():
                    for k2, c2 in e.items():
                        k = k1 + k2
                        acc[k] = get(k, 0) + c1 * c2
        vec = [(y, p) for y, acc in out.items()
               if (p := {k: c for k, c in acc.items() if c})]
    return dict(vec)


def _minus(left: dict, right: dict) -> dict:
    """left - right for two sparse rows of ints, without its zeros; reuses
    left."""
    for c, e in right.items():
        left[c] = left[c] - e if c in left else -e
    return {c: e for c, e in left.items() if e}


def _minus_packed(left: dict, right: dict) -> dict:
    """As _minus, on packed polynomials."""
    for c, e in right.items():
        left[c] = (_dot(((left[c], _ONE_TERMS), (e, _MINUS_ONE_TERMS)))
                   if c in left else _neg(e))
    return {c: e for c, e in left.items() if e}


# the two lanes of every product, as tensor._clear returns them
_INT_KERNEL = (_apply, _minus)
_PACKED_KERNEL = (_apply_packed, _minus_packed)


def _defect_rows(size: int, lhs, rhs, kernel):
    """(row, {col: nonzero entry}) for each nonzero row of lhs - rhs, in
    order, for size x size products; lhs and rhs list the row actions of
    the two products from the left, so applying them to e_y gives row y.
    The int lane's rows may hold a cancelled 0, so two raw rows that differ
    can still be equal: a row counts only if its difference, from which
    the kernel's minus drops the zeros, is nonempty. Most equal rows are
    equal as they come, and pay one dict comparison."""
    apply, minus = kernel
    for y in range(size):
        left, right = apply(lhs, y), apply(rhs, y)
        if left != right and (row := minus(left, right)):
            yield y, row


def _shared_rows(size: int, a, mid, b, kernel):
    """_defect_rows of a M against M b, for M the product of the row
    actions mid. Each row of M is formed by the lane's apply when the scan
    first reads it, and kept, as the items of that row, in a list that
    lives as long as the scan: a scan that stops at its witness forms only
    the rows of M that the rows up to it read, and each scan starts with
    none."""
    apply, minus = kernel
    m = [None] * size
    lhs, rhs = [a, m], [m, b]
    for y in range(size):
        if m[y] is None:
            m[y] = apply(mid, y).items()
        for x, _ in a[y]:
            if m[x] is None:
                m[x] = apply(mid, x).items()
        left, right = apply(lhs, y), apply(rhs, y)
        if left != right and (row := minus(left, right)):
            yield y, row


def first_failing_triple(table, steps):
    """The first basis triple (i, j, k), in row-major order, on which two
    products differ, or None: each is a first step, then m, the table's
    n^2 x n matrix, on the product kernel. steps(i, j, k, m) gives the two
    first steps' rows, as (column, entry) pairs of m's cleared rows."""
    n = len(table)
    triples = list(product(range(n), repeat=3))
    rows = list(chain.from_iterable(table))
    form = _int_form(rows)
    (m,), kernel, _, _ = (_int_lane([form], (0, 0)) if form
                          else _packed_lane([rows], (0, 0)))
    lhs, rhs = zip(*(steps(i, j, k, m) for i, j, k in triples))
    found = next(_defect_rows(n ** 3, [lhs, m], [rhs, m], kernel), None)
    return None if found is None else triples[found[0]]


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
    elimination forms. Each Bareiss entry of block k is a minor of block
    k's rows, so of the matrix; D, the product of the blocks' last pivots,
    is the determinant up to sign, and each unknown of the back-substitution
    is, by Cramer's rule, D times a quotient of minors, itself a minor up to
    sign. A minor takes at most one entry from each row, so its degree is at
    most S. Each product formed is a product of two of them, of degree at
    most 2*S, and a division, exact or not, forms only monomials of degree
    at most its dividend's: every term it adds is a quotient monomial times
    a term of the divisor no higher than the divisor's leading one. A field
    is at most the total degree, so it stays at most 2*S < 2^(W - 1), below
    its guard bit. For a product (``tensor._clear``) the rows are its
    factors, so S bounds every entry it forms, and the same W leaves room to
    spare.

    The constructor makes one pass over the rows' terms and records each
    distinct monomial's total degree once, in a dict that gives the names
    and S. ``pack`` keeps each monomial's key: a monomial that many
    entries share, or that is packed again later (D, the atoms' powers in
    ``elimination._over``, the factors in ``_quotients``), is summed into
    its fields once per packing.
    """

    __slots__ = ("fields", "units", "mask", "guard", "keys", "monos",
                 "pairs")

    def __init__(self, M):
        degrees, S = {}, 0
        for row in M:
            top = 0
            for p in row:
                for m in p.terms:
                    d = degrees.get(m)
                    if d is None:
                        d = degrees[m] = sum(map(itemgetter(1), m))
                    if d > top:
                        top = d
            S += top
        names = sorted({name for m in degrees for name, _ in m})
        W = (2 * S).bit_length() + 1
        n = len(names)
        self.fields = [(name, (n - 1 - i) * W) for i, name in enumerate(names)]
        # the unit of a name adds 1 to its field and 1 to the degree
        self.units = {name: 1 << shift | 1 << n * W
                      for name, shift in self.fields}
        self.mask = (1 << W) - 1
        self.guard = sum(1 << (i * W + W - 1) for i in range(n + 1))
        self.keys, self.monos, self.pairs = {}, {}, {}

    def pack(self, p: Poly) -> dict:
        """The packed terms of p, a Poly over the packing's names."""
        keys, units = self.keys, self.units
        out = {}
        for m, c in p.terms.items():
            k = keys.get(m)
            if k is None:
                k = keys[m] = sum(e * units[name] for name, e in m)
            out[k] = c
        return out

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
