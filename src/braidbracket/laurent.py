"""Exact sparse Laurent polynomial arithmetic over the integers.

A Laurent polynomial in one variable is a dict mapping integer exponents to
nonzero integer coefficients.  Two-variable polynomials (used for the
lightened bracket in (A, chi) and the Euler characteristic in (A, H)) are
dicts keyed by exponent pairs.  All arithmetic is exact; zero coefficients
are never stored.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

Laurent = Dict[int, int]
Laurent2 = Dict[Tuple[int, int], int]  # (first exponent, second exponent) -> coeff


def lp(*pairs: Tuple[int, int]) -> Laurent:
    """Build a Laurent polynomial from (exponent, coefficient) pairs."""
    out: Laurent = {}
    for e, c in pairs:
        if c:
            out[e] = out.get(e, 0) + c
            if out[e] == 0:
                del out[e]
    return out


def lp_add(p: Laurent, q: Laurent) -> Laurent:
    r = dict(p)
    for e, c in q.items():
        s = r.get(e, 0) + c
        if s:
            r[e] = s
        elif e in r:
            del r[e]
    return r


def lp_mul(p: Laurent, q: Laurent) -> Laurent:
    if not p or not q:
        return {}
    r: Laurent = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            s = r.get(e, 0) + c1 * c2
            if s:
                r[e] = s
            elif e in r:
                del r[e]
    return r


def lp_pow(p: Laurent, k: int) -> Laurent:
    if k < 0:
        raise ValueError("negative powers of a Laurent polynomial are not defined here")
    res: Laurent = {0: 1}
    base = p
    while k:
        if k & 1:
            res = lp_mul(res, base)
        base = lp_mul(base, base)
        k >>= 1
    return res


def lp_shift(p: Laurent, shift: int) -> Laurent:
    """Multiply by A^shift."""
    return {e + shift: c for e, c in p.items()}


def lp_scale(p: Laurent, factor: int) -> Laurent:
    if factor == 0:
        return {}
    return {e: c * factor for e, c in p.items()}


def _monomial(var: str, e: int) -> str:
    return "" if e == 0 else var if e == 1 else f"{var}^{e}"


def _join_terms(terms: Iterable[Tuple[int, str]]) -> str:
    """Signed sum of (coefficient, monomial) terms; unit coefficients are
    left out before a monomial."""
    out = ""
    for c, mon in terms:
        body = mon if mon and abs(c) == 1 else f"{abs(c)}{mon}"
        if out:
            out += (" - " if c < 0 else " + ") + body
        else:
            out = ("-" if c < 0 else "") + body
    return out or "0"


def lp_str(p: Laurent, var: str = "A") -> str:
    """Human-readable form, highest exponent first."""
    return _join_terms((p[e], _monomial(var, e)) for e in sorted(p, reverse=True))


def lp2_str(p: Laurent2, v1: str = "A", v2: str = "H") -> str:
    """Human-readable form, highest exponent pair first."""
    return _join_terms(
        (p[e], _monomial(v1, e[0]) + _monomial(v2, e[1])) for e in sorted(p, reverse=True)
    )


# (-A^2 - A^-2), the loop value of a d-circle.
DELTA: Laurent = {2: -1, -2: -1}
