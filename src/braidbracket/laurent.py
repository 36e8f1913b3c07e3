"""Exact sparse Laurent polynomial arithmetic over the integers.

A Laurent polynomial in one variable is a dict mapping integer exponents to
nonzero integer coefficients.  Two-variable polynomials (used for the
lightened bracket in (A, chi) and the Euler characteristic in (A, H)) are
dicts keyed by exponent pairs.  All arithmetic is exact; zero coefficients
are never stored.

``lp_iadd`` is the one place where a coefficient is added and a zero
dropped: every polynomial sum in the package accumulates through it, in
place.  ``DELTA`` and the cached powers ``delta_power(m)`` are read-only
mappings, so no in-place sum can change a shared constant.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Tuple

Laurent = Dict[int, int]
Laurent2 = Dict[Tuple[int, int], int]  # (first exponent, second exponent) -> coeff


def lp_iadd(acc: dict, p: Mapping, shift: int = 0, factor: int = 1) -> dict:
    """``acc += factor * A^shift * p`` in place; returns ``acc``.

    Coefficients that reach zero are dropped; a zero term of ``p``, or
    ``factor == 0``, adds nothing.  ``shift`` applies to one-variable
    polynomials only; leave it 0 for two-variable ones.
    """
    for e, c in p.items():
        if shift:
            e += shift
        s = acc.get(e, 0) + factor * c
        if s:
            acc[e] = s
        else:
            acc.pop(e, None)
    return acc


def lp_mul(p: Mapping[int, int], q: Mapping[int, int]) -> Laurent:
    r: Laurent = {}
    for e, c in p.items():
        lp_iadd(r, q, e, c)
    return r


def lp_pow(p: Mapping[int, int], k: int) -> Laurent:
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
DELTA: Mapping[int, int] = MappingProxyType({2: -1, -2: -1})


@lru_cache(maxsize=None)
def delta_power(m: int) -> Mapping[int, int]:
    """DELTA^m, computed once per m and returned read-only."""
    return MappingProxyType(lp_pow(DELTA, m))
