"""The two gcd fallbacks of ``scalars.poly_gcd``: GCDHEU and the
subresultant remainder sequence.

``poly_gcd`` answers most gcds with cheap cases (a single term, no shared
indeterminate, a divisor that divides) and imports this module only when
both operands keep the same indeterminates and neither divides the other,
so a process that never reaches that case never compiles it. The gcds
that these fallbacks need in turn go back through ``scalars.poly_gcd``,
looked up when called, so a replaced ``poly_gcd`` sees every one.
"""

from __future__ import annotations

import math

from . import scalars
from .scalars import (Poly, _P_ONE, _P_ZERO, _coeff_content, _divides,
                      _mono_mul, _univar)


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
