"""Exact division and the gcd of ``scalars``' polynomials.

``Poly.divexact`` and ``scalars.poly_gcd`` call ``divexact`` and
``poly_gcd`` here. The package registers this module to load on first
use, so a process that never divides a polynomial or takes a gcd, such as
one that builds and checks operators over integer tables, never compiles
it.

Exact division works in integer arithmetic throughout: a division by an
integer content divides each coefficient, and ``divexact`` keeps the
remainder's monomials in a heap. ``poly_gcd`` first splits each operand
with ``_primitive`` into its integer content, its monomial content and a
primitive rest, and answers 1 at once when either rest is a single term or
when the two share no indeterminate. Otherwise the indeterminates that
only one operand has divide out together through that operand's content
in them. When both operands have the same indeterminates, the gcd is the
smaller one if it divides the other, or else the heuristic gcd GCDHEU
finds it from integer evaluations; only if that gives up does the
subresultant remainder sequence run. Contents are gcds of coefficients,
taken smallest first, so that a trivial gcd shows early. The gcd is the
gcd of the integer contents times a primitive polynomial, so num and den
divided by it have coprime contents (Gauss's lemma).

Every gcd that these steps need in turn, and every division, goes back
through ``scalars.poly_gcd`` and ``Poly.divexact``, looked up when
called, so a replaced one sees every call.
"""

from __future__ import annotations

import heapq
import math

from . import scalars
from .scalars import (Mono, Poly, _EMPTY_MONO, _P_ONE, _P_ZERO, _mono_key,
                      _mono_mul)


def _mono_div(a: Mono, b: Mono):
    """a / b, or None when b does not divide a."""
    exps = dict(a)
    for name, e in b:
        r = exps.get(name, 0) - e
        if r < 0:
            return None
        if r == 0:
            del exps[name]
        else:
            exps[name] = r
    return tuple(sorted(exps.items()))


def _mono_gcd(a: Mono, b: Mono) -> Mono:
    if not a or not b:
        return _EMPTY_MONO
    bexps = dict(b)
    out = []
    for name, e in a:
        eb = bexps.get(name, 0)
        if eb:
            out.append((name, min(e, eb)))
    return tuple(out)


def divexact(f: Poly, g: Poly) -> Poly:
    """``Poly.divexact``: f / g, exact and multivariate; raises
    ArithmeticError if not exact.

    The remainder's monomials wait in a heap ordered by _mono_key, so
    each step pops the leading one instead of rescanning the remainder.
    Each step only adds terms below the one it removes, so a monomial
    popped once never returns; a monomial cancelled to zero and added
    again may sit in the heap twice, and the stale entry finds no
    coefficient left in the remainder when popped.
    """
    if g.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero:
        return _P_ZERO
    gmono, gc = g.leading()
    tail = [(m, c) for m, c in g.terms.items() if m != gmono]
    r = dict(f.terms)
    heap = [(_mono_key(m), m) for m in r]
    heapq.heapify(heap)
    q: dict = {}
    while heap:
        m = heapq.heappop(heap)[1]
        rc = r.pop(m, 0)
        if not rc:
            continue
        qm = _mono_div(m, gmono)
        if qm is None:
            raise ArithmeticError("inexact polynomial division")
        qc, rem = divmod(rc, gc)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        q[qm] = qc
        for tm, tc in tail:
            t = _mono_mul(qm, tm)
            s = r.get(t)
            if s is None:
                r[t] = -qc * tc
                heapq.heappush(heap, (_mono_key(t), t))
            elif s == qc * tc:
                del r[t]
            else:
                r[t] = s - qc * tc
    return Poly(q)


def _split(p: Poly, names) -> dict:
    """View p as a polynomial in the given indeterminates with Poly
    coefficients: {monomial in names: coefficient}."""
    coeffs: dict = {}
    for mono, c in p.terms.items():
        key = []
        rest = []
        for pair in mono:
            (key if pair[0] in names else rest).append(pair)
        # distinct monomials give distinct (key, rest) pairs: nothing merges
        coeffs.setdefault(tuple(key), {})[tuple(rest)] = c
    return {k: Poly(t) for k, t in coeffs.items()}


def _univar(p: Poly, v: str) -> dict:
    """View p as a univariate polynomial in v: {degree: Poly coefficient}."""
    return {k[0][1] if k else 0: q for k, q in _split(p, (v,)).items()}


def _coeff_content(coeffs: dict) -> Poly:
    g = _P_ZERO
    for poly in sorted(coeffs.values(), key=lambda p: len(p.terms)):
        g = scalars.poly_gcd(g, poly)
        if g == _P_ONE:
            break
    return g


def _normalize_sign(p: Poly) -> Poly:
    if p.is_zero:
        return p
    _, c = p.leading()
    return p.scale(-1) if c < 0 else p


def _primitive(p: Poly):
    """(c, mono, q) with p = c * mono * q, for p nonzero: c > 0 the integer
    content, mono the monomial content, the largest monomial dividing every
    term, and q primitive with no monomial content."""
    c = p.int_content()
    monos = iter(p.terms)
    mono = next(monos)
    for m in monos:
        mono = _mono_gcd(mono, m)
        if not mono:
            break
    if not mono:
        return c, mono, p.div_int(c)
    return c, mono, Poly({_mono_div(m, mono): v // c
                          for m, v in p.terms.items()})


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """``scalars.poly_gcd``: the full gcd over the integers (content times
    primitive part), with a positive graded-lex leading coefficient."""
    if f.is_zero:
        return _normalize_sign(g)
    if g.is_zero:
        return _normalize_sign(f)
    cf, mf, pf = _primitive(f)
    cg, mg, pg = _primitive(g)
    c = math.gcd(cf, cg)
    mc = _mono_gcd(mf, mg)
    # With the contents removed, a single term is a unit, and so is a
    # common divisor of two operands that share no indeterminate: it can
    # only involve indeterminates both have.
    fnames, gnames = pf.names, pg.names
    if len(pf.terms) == 1 or len(pg.terms) == 1 or fnames.isdisjoint(gnames):
        return _P_ONE if c == 1 and not mc else Poly({mc: c})
    only_f, only_g = fnames - gnames, gnames - fnames
    if only_f or only_g:
        # a common divisor has none of the indeterminates that only one
        # operand has, so they divide out in one step through that operand's
        # content in them: gcd(f, g) = gcd(cont_E(f), g)
        if only_f:
            pf = _coeff_content(_split(pf, only_f))
        if only_g:
            pg = _coeff_content(_split(pg, only_g))
        h = scalars.poly_gcd(pf, pg)
    else:
        small, big = sorted((pf, pg), key=lambda p: len(p.terms))
        if _divides(small, big):
            h = small
        else:
            v = min(fnames)
            h = _gcd_heuristic(pf, pg, v) or _gcd_subresultant(pf, pg, v)
    return _normalize_sign(h.scale(c).mul_mono(mc))


def _divides(d: Poly, p: Poly) -> bool:
    try:
        p.divexact(d)
    except ArithmeticError:
        return False
    return True


# evaluation points the heuristic gcd tries before it gives up
_HEURISTIC_TRIES = 6


def _gcd_heuristic(f: Poly, g: Poly, v: str):
    """gcd of the primitive f and g by GCDHEU (Char, Geddes & Gonnet 1989),
    or None when it finds none: the gcd of f and g at v = xi, read back as
    digits of base xi in (-xi/2, xi/2], is a candidate in v, kept if its
    primitive part divides both. With xi >= 2 + 2*min(|f|, |g|), where |f|
    is the largest absolute value of a coefficient of f, a primitive common
    divisor found that way is the gcd: every root of a divisor lies below
    xi/2 in modulus, so a cofactor of degree >= 1 would be larger at xi
    than the gcd of the digits, which it divides."""
    norm = min(max(map(abs, f.terms.values())),
               max(map(abs, g.terms.values())))
    xi = 2 * norm + 29
    F, G = _univar(f, v), _univar(g, v)
    for _ in range(_HEURISTIC_TRIES):
        at_f, at_g = _evaluate_univar(F, xi), _evaluate_univar(G, xi)
        if at_f and at_g:
            h = _xi_adic(scalars.poly_gcd(at_f, at_g), v, xi)
            if not h.names:
                return _P_ONE
            h = h.div_int(h.int_content())
            if _divides(h, f) and _divides(h, g):
                return h
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _evaluate_univar(coeffs: dict, xi: int) -> Poly:
    """The polynomial {degree: coefficient} in v at v = xi."""
    out = _P_ZERO
    for d, p in coeffs.items():
        out = out + p.scale(xi ** d)
    return out


def _xi_adic(h: Poly, v: str, xi: int) -> Poly:
    """The polynomial in v whose coefficients are the base-xi digits, in
    (-xi/2, xi/2], of the coefficients of h, which lacks v."""
    terms: dict = {}
    for mono, c in h.terms.items():
        k = 0
        while c:
            d = c % xi
            if d > xi // 2:
                d -= xi
            if d:
                terms[_mono_mul(mono, ((v, k),)) if k else mono] = d
            c = (c - d) // xi
            k += 1
    return Poly(terms)


def _gcd_subresultant(f: Poly, g: Poly, v: str) -> Poly:
    """gcd of f and g by the subresultant remainder sequence in v, which
    both contain (Collins 1967; Brown & Traub 1971); the result is
    primitive up to its sign. Each pseudo-remainder is divided exactly by
    lc*h^d, for d the drop in degree, lc the leading coefficient of the
    previous divisor and h = lc^d / h^(d-1) carried along, which keeps the
    coefficients as small as the subresultants, where a primitive sequence
    pays a content gcd at every step."""
    F = _univar(f, v)
    G = _univar(g, v)
    contF = _coeff_content(F)
    contG = _coeff_content(G)
    d = scalars.poly_gcd(contF, contG)
    F = _coeff_divexact(F, contF)
    G = _coeff_divexact(G, contG)
    if max(F) < max(G):
        F, G = G, F
    lc = h = _P_ONE
    while True:
        delta = max(F) - max(G)
        r = _prem(F, G)
        if not r:
            G = _coeff_divexact(G, _coeff_content(G))
            return _from_univar(G, v) * d
        if max(r) == 0:
            # nontrivial constant (in v) remainder: the pp-gcd is trivial
            return d
        F, G = G, _coeff_divexact(r, lc * h ** delta)
        lc = F[max(F)]
        if delta:
            h = lc if delta == 1 else (lc ** delta).divexact(h ** (delta - 1))


def _prem(f: dict, g: dict) -> dict:
    """Pseudo-remainder of univariate polynomials with Poly coefficients:
    the remainder of lc(g)^(d+1)*f on division by g, for d = deg f - deg g.
    Each reduction step multiplies by lc(g) once, and the steps that a
    vanishing coefficient skips are made up at the end."""
    dg = max(g)
    lg = g[dg]
    r = dict(f)
    missing = max(f) - dg + 1
    while r and max(r) >= dg:
        dr = max(r)
        lr = r[dr]
        k = dr - dg
        nr: dict = {}
        for d, p in r.items():
            nr[d] = p * lg
        for d, p in g.items():
            q = nr.get(d + k, _P_ZERO) - p * lr
            nr[d + k] = q
        r = {d: p for d, p in nr.items() if not p.is_zero and d != dr}
        missing -= 1
    if missing > 0 and r:
        scale = lg ** missing
        r = {d: p * scale for d, p in r.items()}
    return r


def _from_univar(coeffs: dict, v: str) -> Poly:
    terms: dict = {}
    for deg, poly in coeffs.items():
        for mono, c in poly.terms.items():
            m = _mono_mul(mono, ((v, deg),)) if deg else mono
            terms[m] = terms.get(m, 0) + c
    return Poly({m: c for m, c in terms.items() if c})


def _coeff_divexact(coeffs: dict, g: Poly) -> dict:
    if g == _P_ONE:
        return coeffs
    return {d: p.divexact(g) for d, p in coeffs.items()}
