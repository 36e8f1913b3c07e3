"""The refined bracket, its lightened image, and the classical oracle.

``bracket_br`` evaluates the state sum

    sum over states s of  A^(sigma(s)) * (-A^2 - A^-2)^(d(s)) * c(s)

in the free Z[A, A^-1]-module on plane configurations, where d(s) counts
the circles whose half break-point count is odd and c(s) is the nesting
configuration of the remaining (h-type) circles.  The sum is not
normalized; multiplying by (-A)^(-3w) gives the Jones-style version.
Closures of braid words get the same element from a Temperley-Lieb sweep
(``_bracket_sweep``); every other diagram runs through all 2^n states.

``kauffman_oracle`` recomputes the classical unnormalized Kauffman bracket
by an independent route (its own dart pairing and plain circle counting,
no break points, no nesting) so the two pipelines can be cross-checked
through the chi = -A^2 - A^-2 specialization.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .diagram import BraidWord, OrientedDiagram, SIDE_R, anchor_port
from .laurent import DELTA, Laurent, delta_power, lp_iadd, lp_mul
from .states import (
    DEFAULT_CAP,
    _check_cap,
    _circle_type,
    _configuration_key,
    _nesting_forest,
    _tau,
    _trace_circles,
    configuration_of,
    seifert_state,
)

BracketElement = Dict[str, Laurent]          # canonical configuration -> coefficient
LightenedBracket = Dict[Tuple[int, int], int]  # (A exponent, chi exponent) -> coeff


def bracket_br(
    diagram: OrientedDiagram,
    cap: int = DEFAULT_CAP,
) -> BracketElement:
    """Exact refined bracket as a map {configuration: Laurent polynomial}.

    Closures built by ``braid_closure`` take the Temperley-Lieb sweep
    (``_bracket_sweep``); every other diagram takes the 2^n state sum.
    """
    n = len(diagram.active_crossings)
    _check_cap(n, cap)
    if diagram.braid_word is not None:
        return _bracket_sweep(diagram.braid_word)
    return _bracket_range(diagram)


def _add_into(out: dict, key, poly: Laurent, shift: int = 0, factor: int = 1) -> None:
    """``out[key] += factor * A^shift * poly`` in place, dropping the key when
    the sum vanishes.  ``poly`` itself is never stored."""
    acc = out.get(key)
    if acc is None:
        acc = out[key] = {}
    if not lp_iadd(acc, poly, shift, factor):
        del out[key]


def _bracket_range(diagram: OrientedDiagram) -> BracketElement:
    """The state sum over all 2^n smoothings of the active crossings."""
    n = len(diagram.active_crossings)
    out: BracketElement = {}
    for bits in range(1 << n):
        tau = _tau(diagram, bits)
        circ_of, bps = _trace_circles(diagram, tau)
        types = [_circle_type(bp) for bp in bps]
        nesting = _nesting_forest(diagram, tau, circ_of, len(bps)) if bps else {}
        key = _configuration_key(types, nesting)
        _add_into(out, key, delta_power(types.count("d")), n - 2 * bits.bit_count())
    return out


def _bracket_sweep(word: BraidWord) -> BracketElement:
    """Refined bracket of the closure of ``word``, in time linear in its length.

    On a braid closure a state circle is a simple closed curve in the
    annulus around the braid axis, so its winding number is 0 or +-1, and
    it is of type d exactly when its winding is 0 (acceptance criterion
    04).  The h-circles therefore all go once around the axis: they are
    concentric, and the configuration of a state with m of them is the
    chain ``"(" * m + ")" * m``.  The bracket is then the annular Kauffman
    bracket, which a Temperley-Lieb state model computes letter by letter.

    A sweep state is a perfect matching of the 2k boundary points of the
    part of the braid read so far, as a tuple of partners: point j < k is
    track j + 1 where the word starts, point k + j is track j + 1 at the
    current level.  Each matching carries a Laurent coefficient.  Letter
    g at tracks i, i + 1 is A^s * 1 + A^-s * e_i with s = sign(g): the
    identity smoothing is the oriented one, the A-smoothing of a positive
    crossing.  A loop closed by e_i lies inside the braid's strip, winds
    0 times and contributes DELTA.  The closure joins point j to point
    k + j; a loop's winding is the number of closure arcs it runs from
    the current level to the start minus the number it runs back.
    """
    k = word.strands
    identity = tuple(range(k, 2 * k)) + tuple(range(k))
    states: Dict[Tuple[int, ...], Laurent] = {identity: {0: 1}}
    for g in word.letters:
        s = 1 if g > 0 else -1
        a = k + abs(g) - 1
        b = a + 1
        swept: Dict[Tuple[int, ...], Laurent] = {}
        for m, poly in states.items():
            _add_into(swept, m, poly, s)
            if m[a] == b:
                for e, c in DELTA.items():
                    _add_into(swept, m, poly, e - s, c)
            else:
                t = list(m)
                t[m[a]], t[m[b]] = m[b], m[a]
                t[a], t[b] = b, a
                _add_into(swept, tuple(t), poly, -s)
        states = swept
    out: BracketElement = {}
    for m, poly in states.items():
        d_loops = h_loops = 0
        seen = [False] * (2 * k)
        for p0 in range(2 * k):
            if seen[p0]:
                continue
            p, winding = p0, 0
            while True:
                q = m[p]
                seen[p] = seen[q] = True
                if q < k:
                    p, winding = q + k, winding - 1
                else:
                    p, winding = q - k, winding + 1
                if p == p0:
                    break
            if winding:
                h_loops += 1
            else:
                d_loops += 1
        key = "(" * h_loops + ")" * h_loops
        _add_into(out, key, lp_mul(poly, delta_power(d_loops)))
    return out


def bracket_to_json(b: BracketElement) -> dict:
    return {
        "terms": [
            {"config": cfg, "poly": {str(e): str(c) for e, c in sorted(poly.items())}}
            for cfg, poly in sorted(b.items())
        ]
    }


def skein_expand(
    diagram: OrientedDiagram, v: int
) -> Tuple[OrientedDiagram, OrientedDiagram]:
    """Partial smoothings (D0, D1) of crossing ``v``, kept as decorations.

    The returned diagrams still carry the crossing but with its smoothing
    frozen; the disoriented choice permanently reverses orientation along
    its two new arcs, so downstream break-point counts see them exactly as
    live smoothings would.  ``bracket_br`` then satisfies
    ``<D> = A <D0> + A^-1 <D1>`` on the nose.
    """
    if v not in diagram.active_crossings:
        raise ValueError(f"crossing {v} is not an active crossing")
    out = []
    for bit in (0, 1):
        b = diagram.to_builder()
        b.fused[v] = bit
        out.append(b.build())
    return out[0], out[1]


def add_marked_circle(diagram: OrientedDiagram, break_points: int = 2) -> OrientedDiagram:
    """Disjoint union with a plain circle carrying decorative break points.

    The circle is placed in the outer face.  With ``break_points == 2`` it
    is a d-circle, so the bracket gets multiplied by (-A^2 - A^-2).
    """
    if break_points < 0 or break_points % 2:
        raise ValueError("break point count must be even and nonnegative")
    b = diagram.to_builder()
    ai = b.add_anchor()
    loop = b.add_edge(anchor_port(ai, 0), anchor_port(ai, 1), seam=0)
    b.anchor_bp[ai] = break_points
    if b.outer is None:
        b.outer = (loop, SIDE_R)
    else:
        b.placements.append(((loop, SIDE_R), b.outer))
    return b.build()


def lighten(b: BracketElement) -> LightenedBracket:
    """Replace each configuration by chi^(number of its circles)."""
    out: LightenedBracket = {}
    for cfg, poly in b.items():
        m = cfg.count("(")
        lp_iadd(out, {(e, m): c for e, c in poly.items()})
    return out


def normalize(diagram: OrientedDiagram, b: BracketElement) -> BracketElement:
    """Multiply by (-A)^(-3 w(D)); lighten afterwards for the lightened form."""
    w = diagram.writhe()
    sign = -1 if w % 2 else 1
    return {cfg: lp_iadd({}, p, -3 * w, sign) for cfg, p in b.items()}


def specialize_chi_to_delta(lightened: LightenedBracket) -> Laurent:
    """Substitute chi = -A^2 - A^-2; lands on the classical Kauffman bracket."""
    out: Laurent = {}
    for (e, m), c in lightened.items():
        lp_iadd(out, delta_power(m), e, c)
    return out


def kauffman_oracle(diagram: OrientedDiagram, cap: int = DEFAULT_CAP) -> Laurent:
    """Classical unnormalized Kauffman bracket: sum A^sigma * delta^(#circles).

    Independent of the refined pipeline: smoothing pairings are rebuilt
    inline and circles are counted by a plain union-find over darts.
    """
    active = diagram.active_crossings
    n = len(active)
    _check_cap(n, cap)
    nd = diagram.ndarts
    alpha = diagram.alpha
    base_parent = list(range(nd))

    def find(parent, x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # unions that do not depend on the smoothing choice
    for d in range(nd):
        a, b = d, alpha[d]
        ra, rb = find(base_parent, a), find(base_parent, b)
        if ra != rb:
            base_parent[max(ra, rb)] = min(ra, rb)
    for d in range(4 * diagram.n, nd, 2):
        ra, rb = find(base_parent, d), find(base_parent, d + 1)
        if ra != rb:
            base_parent[max(ra, rb)] = min(ra, rb)
    for c, bit in diagram.fused.items():
        b4 = 4 * c
        pairs = (
            ((b4, b4 + 1), (b4 + 2, b4 + 3))
            if (diagram.over_parity[c] + bit) & 1
            else ((b4 + 3, b4), (b4 + 1, b4 + 2))
        )
        for a, b in pairs:
            ra, rb = find(base_parent, a), find(base_parent, b)
            if ra != rb:
                base_parent[max(ra, rb)] = min(ra, rb)

    out: Laurent = {}
    for bits in range(1 << n):
        parent = list(base_parent)
        for i, c in enumerate(active):
            b4 = 4 * c
            if (diagram.over_parity[c] + ((bits >> i) & 1)) & 1:
                pairs = ((b4, b4 + 1), (b4 + 2, b4 + 3))
            else:
                pairs = ((b4 + 3, b4), (b4 + 1, b4 + 2))
            for a, b in pairs:
                ra, rb = find(parent, a), find(parent, b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        loops = len({find(parent, d) for d in range(nd)}) if nd else 0
        s = n - 2 * bits.bit_count()
        lp_iadd(out, delta_power(loops), s)
    return out


def seifert_leading_term(
    diagram: OrientedDiagram, cap: int = DEFAULT_CAP
) -> Tuple[str, Laurent]:
    """Unique maximal-circle-count term of the bracket.

    Asserts the guarantees that make it well defined: the maximal
    configuration is unique, equals the Seifert state's configuration, and
    its coefficient is exactly A^(w(D)).
    """
    b = bracket_br(diagram, cap=cap)
    if not b:
        raise ValueError("empty bracket")
    best = max(b, key=lambda cfg: cfg.count("("))
    top = best.count("(")
    rivals = [cfg for cfg in b if cfg.count("(") == top]
    if len(rivals) != 1:
        raise AssertionError(f"maximal configuration not unique: {sorted(rivals)}")
    sei_cfg = configuration_of(seifert_state(diagram))
    if sei_cfg != best:
        raise AssertionError(
            f"leading configuration {best!r} differs from Seifert {sei_cfg!r}"
        )
    w = diagram.writhe()
    if b[best] != {w: 1}:
        raise AssertionError(f"leading coefficient {b[best]} is not A^{w}")
    return sei_cfg, dict(b[best])
