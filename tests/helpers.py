"""Test-harness utilities kept out of the library surface.

``relabel_crossings`` exists only here: crossing labels are assigned at
parse time and never renumbered by the library itself, so ordering
independence can be tested as a theorem rather than hidden by a
normalization.  ``canonical_code_oracle`` is the exhaustive search that
``OrientedDiagram.canonical_code`` prunes, kept as its cross-check.
"""

from typing import Dict, List, Sequence, Tuple

from braidbracket.diagram import OrientedDiagram
from braidbracket.chain_complex import _dv_terms, _get_table, _koszul_sign
from braidbracket.laurent import lp_add, lp_shift


def relabel_crossings(diagram: OrientedDiagram, perm: Sequence[int]) -> OrientedDiagram:
    """New diagram whose crossing ``perm[i]`` is the old crossing ``i``."""
    n = diagram.n
    assert sorted(perm) == list(range(n))
    b = diagram.to_builder()
    old = b.crossings
    b.crossings = [None] * n
    for i, rec in enumerate(old):
        b.crossings[perm[i]] = rec
    for rec in b.edges.values():
        for role in ("tail", "head"):
            kind, idx, pos = rec[role]
            if kind == "x":
                rec[role] = ("x", perm[idx], pos)
    b.fused = {perm[i]: bit for i, bit in b.fused.items()}
    return b.build()


def bracket_combination(parts) -> dict:
    """Exact sum of (shift, bracket) pairs: sum A^shift * bracket."""
    out: dict = {}
    for shift, bracket in parts:
        for cfg, poly in bracket.items():
            s = lp_add(out.get(cfg, {}), lp_shift(poly, shift))
            if s:
                out[cfg] = s
            elif cfg in out:
                del out[cfg]
    return out


def rule_table_operator(diagram, bits: int, v: int) -> Dict[int, Dict[Tuple[int, int], int]]:
    """The rule-table d_v on every labeling of the state ``bits``."""
    table = _get_table(diagram, diagram.n)
    _, types = table.structure(bits)
    sign = _koszul_sign(bits, v)
    out = {}
    for mask in range(1 << len(types)):
        acc: Dict[Tuple[int, int], int] = {}
        for tkey in _dv_terms(table, bits, mask, v):
            acc[tkey] = acc.get(tkey, 0) + sign
        out[mask] = {k: c for k, c in acc.items() if c}
    return out


def incidence_operator(diagram, bits: int, v: int) -> Dict[int, Dict[Tuple[int, int], int]]:
    """Brute-force d_v from the incidence-number conditions 1..4.

    For each source labeling, every labeling of the target smoothing is
    enumerated and kept iff common circles (matched by dart sets) carry
    the same labels and both j and k are preserved.  Masks make the
    per-pair checks cheap, but every pair is genuinely tested.
    """
    table = _get_table(diagram, diagram.n)
    circ_of, types = table.structure(bits)
    bits2 = bits | (1 << v)
    circ_of2, types2 = table.structure(bits2)
    nc, nc2 = len(types), len(types2)

    darts1: Dict[int, frozenset] = {}
    darts2: Dict[int, frozenset] = {}
    for d, c in enumerate(circ_of):
        darts1.setdefault(c, set()).add(d)  # type: ignore[arg-type]
    for d, c in enumerate(circ_of2):
        darts2.setdefault(c, set()).add(d)  # type: ignore[arg-type]
    by_set = {frozenset(v2): c for c, v2 in darts2.items()}
    match = {}  # source circle -> target circle, for common circles
    for c, ds in darts1.items():
        c2 = by_set.get(frozenset(ds))
        if c2 is not None:
            match[c] = c2

    d_mask1 = sum(1 << c for c, t in enumerate(types) if t == "d")
    h_mask1 = sum(1 << c for c, t in enumerate(types) if t == "h")
    d_mask2 = sum(1 << c for c, t in enumerate(types2) if t == "d")
    h_mask2 = sum(1 << c for c, t in enumerate(types2) if t == "h")

    def tau(mask, dm, hm, total_d, total_h):
        td = 2 * (mask & dm).bit_count() - total_d
        th = 2 * (mask & hm).bit_count() - total_h
        return td, th

    td1_tot = d_mask1.bit_count()
    th1_tot = h_mask1.bit_count()
    td2_tot = d_mask2.bit_count()
    th2_tot = h_mask2.bit_count()
    sign = _koszul_sign(bits, v)
    sigma1 = table.n - 2 * bits.bit_count()
    sigma2 = table.n - 2 * bits2.bit_count()

    out = {}
    for mask in range(1 << nc):
        td1, th1 = tau(mask, d_mask1, h_mask1, td1_tot, th1_tot)
        acc: Dict[Tuple[int, int], int] = {}
        for mask2 in range(1 << nc2):
            ok = True
            for c, c2 in match.items():
                if ((mask >> c) & 1) != ((mask2 >> c2) & 1):
                    ok = False
                    break
            if not ok:
                continue
            td2, th2 = tau(mask2, d_mask2, h_mask2, td2_tot, th2_tot)
            if sigma1 + 2 * td1 != sigma2 + 2 * td2:  # j preserved
                continue
            if th1 != th2:  # k preserved
                continue
            acc[(bits2, mask2)] = acc.get((bits2, mask2), 0) + sign
        out[mask] = {k: c for k, c in acc.items() if c}
    return out


def canonical_code_oracle(diagram: OrientedDiagram, with_seam: bool = False) -> str:
    """Canonical code by the exhaustive search: a full transcript from
    every dart, the least per component, the sorted join of those."""
    nd = diagram.ndarts
    if nd == 0:
        return "empty"
    tags = []
    for d in range(nd):
        v = diagram.vertex_of(d)
        if d < 4 * diagram.n:
            rel = (d & 3) - diagram.over_parity[v]
            tag = (f"x{diagram.signs[v]}o{rel & 1}t{int(diagram.is_tail[d])}"
                   f"f{diagram.fused.get(v, -1)}")
        else:
            tag = f"A{diagram.anchor_bp.get(v - diagram.n, 0)}t{int(diagram.is_tail[d])}"
        if with_seam:
            tag += f",m{diagram.edges[diagram.edge_of[d]][2]}"
        tags.append(tag)
    best: Dict[int, str] = {}
    for start in range(nd):
        ids = {start: 0}
        queue = [start]
        rec: List[str] = []
        qi = 0
        while qi < len(queue):
            d = queue[qi]
            qi += 1
            for nxt_name, nxt in (("s", diagram.sigma(d)), ("a", diagram.alpha[d])):
                if nxt not in ids:
                    ids[nxt] = len(ids)
                    queue.append(nxt)
                rec.append(f"{nxt_name}{ids[nxt]}")
            rec.append(tags[d])
        comp = diagram.comp_of_vertex[diagram.vertex_of(start)]
        code = ",".join(rec)
        if comp not in best or code < best[comp]:
            best[comp] = code
    return ",".join(sorted(best.values()))
