"""Tri-graded chain complex of enhanced states with its signed differential.

An enhanced state is a Kauffman state with a sign on every circle.  Its
gradings are

    i = (sigma - w) / 2,
    j = (sigma - 3w + 2 tau_d) / 2,
    k = tau_h,

where tau_d (tau_h) is #pluses minus #minuses over the d-circles
(h-circles).  The differential switches one A-smoothing to an
A^-1-smoothing and relabels locally so that j and k are preserved; the
resulting merge and split rules are hardcoded below and are cross-checked
against the incidence-number definition (``incidence`` /
``partial_differential_oracle``), which enumerates target labelings and
filters by the grading conditions.  The sign of the partial differential
at crossing v is (-1)^(number of A^-1-smoothed crossings with label > v).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .diagram import OrientedDiagram
from .states import (
    DEFAULT_CAP,
    SizeCapError,
    Smoothing,
    _circle_type,
    _tau,
    _trace_circles,
)

Grading = Tuple[int, int, int]
StateKey = Tuple[int, int]  # (smoothing bits, label bits: 1 = plus)


@dataclass(frozen=True)
class EnhancedState:
    smoothing: Smoothing
    labels: Tuple[int, ...]  # +1 or -1 per circle, in circle-id order
    i: int
    j: int
    k: int

    @property
    def key(self) -> StateKey:
        mask = 0
        for idx, sign in enumerate(self.labels):
            if sign > 0:
                mask |= 1 << idx
        return (self.smoothing.bits, mask)


class _StateTable:
    """Per-smoothing structure shared by the complex routines."""

    def __init__(self, diagram: OrientedDiagram):
        if diagram.fused:
            raise ValueError("chain complex is defined for undecorated diagrams")
        self.diagram = diagram
        self.n = diagram.n
        self.w = diagram.writhe()
        self._cache: Dict[int, Tuple[Tuple[int, ...], Tuple[str, ...]]] = {}

    def structure(self, bits: int) -> Tuple[Tuple[int, ...], Tuple[str, ...]]:
        """(circle id per dart, circle types) for one smoothing."""
        hit = self._cache.get(bits)
        if hit is not None:
            return hit
        tau = _tau(self.diagram, Smoothing(bits, self.n))
        circ_of, bps = _trace_circles(self.diagram, tau)
        out = (tuple(circ_of), tuple(_circle_type(bp) for bp in bps))
        self._cache[bits] = out
        return out

    def gradings(self, bits: int, labelmask: int) -> Grading:
        n = self.n
        sig = n - 2 * bits.bit_count()
        _, types = self.structure(bits)
        tau_d = tau_h = 0
        for idx, t in enumerate(types):
            s = 1 if (labelmask >> idx) & 1 else -1
            if t == "d":
                tau_d += s
            else:
                tau_h += s
        return ((sig - self.w) // 2, (sig - 3 * self.w + 2 * tau_d) // 2, tau_h)


def _get_table(diagram: OrientedDiagram, cap: int) -> _StateTable:
    """Structure tables are cached on the diagram (it is immutable).

    The cap is checked on every call, because the cached table outlives
    the call that built it.
    """
    if diagram.n > cap:
        raise SizeCapError(diagram.n, cap)
    table = diagram.__dict__.get("_state_table")
    if table is None:
        table = _StateTable(diagram)
        diagram.__dict__["_state_table"] = table
    return table


def _merge_label(tx: str, lx: int, ty: str, ly: int, tz: str) -> Optional[int]:
    """Label of the merged circle, or None when the incidence number is 0."""
    if tx == "d" and ty == "d":
        assert tz == "d"
        if lx == 1 and ly == 1:
            return None
        return 1 if lx != ly else -1
    if tx == "h" and ty == "h":
        assert tz == "d"
        return 1 if lx != ly else None
    # one d, one h: the merge keeps the h label and needs the d labelled minus
    assert tz == "h"
    ld, lh = (lx, ly) if tx == "d" else (ly, lx)
    return lh if ld == -1 else None


def _split_labels(tx: str, lx: int, ty: str, tz: str) -> List[Tuple[int, int]]:
    """Label pairs (for the two offspring, in circle-id order) of a split."""
    if tx == "d":
        assert ty == tz, "d-circle splits into two circles of one type"
        if lx == -1:
            return [(1, -1), (-1, 1)]
        return [(1, 1)] if ty == "d" else []
    assert {ty, tz} == {"d", "h"}, "h-circle splits into a d and an h circle"
    if ty == "d":
        return [(1, lx)]
    return [(lx, 1)]


def _dv_terms(
    table: _StateTable, bits: int, labelmask: int, v: int
) -> List[Tuple[int, int]]:
    """Unsigned targets of d_v on one enhanced state, as (bits', labelmask')."""
    circ_of, types = table.structure(bits)
    bits2 = bits | (1 << v)
    circ_of2, types2 = table.structure(bits2)
    base = 4 * v
    at_v = sorted({circ_of[base + p] for p in range(4)})
    at_v2 = sorted({circ_of2[base + p] for p in range(4)})

    # circles away from v keep their dart sets; match them by least dart
    ncirc = len(types)
    ncirc2 = len(types2)
    min_dart = [-1] * ncirc
    for d, c in enumerate(circ_of):
        if min_dart[c] == -1:
            min_dart[c] = d

    def label(idx: int) -> int:
        return 1 if (labelmask >> idx) & 1 else -1

    out: List[Tuple[int, int]] = []
    if len(at_v) == 2:
        x, y = at_v
        assert len(at_v2) == 1 and ncirc2 == ncirc - 1
        z = at_v2[0]
        lz = _merge_label(types[x], label(x), types[y], label(y), types2[z])
        if lz is None:
            return out
        mask2 = 0
        for c in range(ncirc):
            if c in (x, y):
                continue
            c2 = circ_of2[min_dart[c]]
            if (labelmask >> c) & 1:
                mask2 |= 1 << c2
        if lz > 0:
            mask2 |= 1 << z
        out.append((bits2, mask2))
    else:
        x = at_v[0]
        assert len(at_v2) == 2 and ncirc2 == ncirc + 1
        y, z = at_v2
        mask_common = 0
        for c in range(ncirc):
            if c == x:
                continue
            c2 = circ_of2[min_dart[c]]
            if (labelmask >> c) & 1:
                mask_common |= 1 << c2
        for ly, lz in _split_labels(types[x], label(x), types2[y], types2[z]):
            mask2 = mask_common
            if ly > 0:
                mask2 |= 1 << y
            if lz > 0:
                mask2 |= 1 << z
            out.append((bits2, mask2))
    return out


def _koszul_sign(bits: int, v: int) -> int:
    return -1 if (bits >> (v + 1)).bit_count() & 1 else 1


def _make_enhanced(table: _StateTable, bits: int, labelmask: int) -> EnhancedState:
    _, types = table.structure(bits)
    labels = tuple(
        1 if (labelmask >> idx) & 1 else -1 for idx in range(len(types))
    )
    i, j, k = table.gradings(bits, labelmask)
    return EnhancedState(Smoothing(bits, table.n), labels, i, j, k)


def enhanced_states(
    diagram: OrientedDiagram, cap: int = DEFAULT_CAP
) -> Dict[Grading, List[EnhancedState]]:
    """All enhanced states bucketed by (i, j, k), in canonical basis order."""
    table = _get_table(diagram, cap)
    out: Dict[Grading, List[EnhancedState]] = {}
    for bits in range(1 << table.n):
        _, types = table.structure(bits)
        ncirc = len(types)
        keys = sorted(
            range(1 << ncirc),
            key=lambda m: tuple(1 if (m >> idx) & 1 else -1 for idx in range(ncirc)),
        )
        for mask in keys:
            s = _make_enhanced(table, bits, mask)
            out.setdefault((s.i, s.j, s.k), []).append(s)
    return out


def incidence(
    s: EnhancedState, s2: EnhancedState, v: int, diagram: OrientedDiagram
) -> int:
    """Incidence number: 1 iff the four defining conditions hold, else 0.

    This is the slow, definition-level check used as the oracle for the
    rule table: common circles are matched by comparing dart sets.
    """
    bits, bits2 = s.smoothing.bits, s2.smoothing.bits
    if (bits >> v) & 1 or not (bits2 >> v) & 1:
        return 0
    if bits2 ^ bits != 1 << v:
        return 0
    table = _get_table(diagram, diagram.n)
    circ_of, _ = table.structure(bits)
    circ_of2, _ = table.structure(bits2)
    darts1: Dict[int, set] = {}
    darts2: Dict[int, set] = {}
    for d, c in enumerate(circ_of):
        darts1.setdefault(c, set()).add(d)
    for d, c in enumerate(circ_of2):
        darts2.setdefault(c, set()).add(d)
    by_set = {frozenset(ds): c for c, ds in darts2.items()}
    for c, ds in darts1.items():
        c2 = by_set.get(frozenset(ds))
        if c2 is not None and s.labels[c] != s2.labels[c2]:
            return 0
    if s.j != s2.j or s.k != s2.k:
        return 0
    return 1


def partial_differential(
    s: EnhancedState, v: int, diagram: OrientedDiagram
) -> Dict[EnhancedState, int]:
    """d_v by the explicit merge/split rule table, with its Koszul sign."""
    bits = s.smoothing.bits
    if (bits >> v) & 1:
        raise ValueError(f"crossing {v} is not A-smoothed in this state")
    table = _get_table(diagram, diagram.n)
    mask = 0
    for idx, sign in enumerate(s.labels):
        if sign > 0:
            mask |= 1 << idx
    sign = _koszul_sign(bits, v)
    out: Dict[EnhancedState, int] = {}
    for (bits2, mask2) in _dv_terms(table, bits, mask, v):
        t = _make_enhanced(table, bits2, mask2)
        out[t] = out.get(t, 0) + sign
    return {t: c for t, c in out.items() if c}


def partial_differential_oracle(
    s: EnhancedState, v: int, diagram: OrientedDiagram
) -> Dict[EnhancedState, int]:
    """d_v straight from the incidence-number definition (brute force)."""
    bits = s.smoothing.bits
    if (bits >> v) & 1:
        raise ValueError(f"crossing {v} is not A-smoothed in this state")
    table = _get_table(diagram, diagram.n)
    bits2 = bits | (1 << v)
    _, types2 = table.structure(bits2)
    sign = _koszul_sign(bits, v)
    out: Dict[EnhancedState, int] = {}
    for mask2 in range(1 << len(types2)):
        target = _make_enhanced(table, bits2, mask2)
        if incidence(s, target, v, diagram):
            out[target] = out.get(target, 0) + sign
    return out


@dataclass
class DifferentialMatrix:
    """Sparse integer differentials per tridegree, columns in degree i."""

    diagram: OrientedDiagram
    basis: Dict[Grading, List[EnhancedState]]
    index: Dict[Grading, Dict[StateKey, int]]
    matrices: Dict[Grading, Dict[Tuple[int, int], int]]  # (row in i-1, col in i)

    def matrix_dense(self, g: Grading) -> List[List[int]]:
        i, j, k = g
        rows = len(self.basis.get((i - 1, j, k), ()))
        cols = len(self.basis.get(g, ()))
        m = [[0] * cols for _ in range(rows)]
        for (r, c), val in self.matrices.get(g, {}).items():
            m[r][c] = val
        return m

    def to_sparse_json(self) -> List[dict]:
        out = []
        for (i, j, k) in sorted(self.matrices):
            ent = self.matrices[(i, j, k)]
            out.append(
                {
                    "i": i,
                    "j": j,
                    "k": k,
                    "rows": len(self.basis.get((i - 1, j, k), ())),
                    "cols": len(self.basis.get((i, j, k), ())),
                    "entries": [[r, c, v] for (r, c), v in sorted(ent.items())],
                }
            )
        return out

    def check_d_squared(self) -> bool:
        for (i, j, k), m1 in self.matrices.items():
            m0 = self.matrices.get((i - 1, j, k))
            if not m0:
                continue
            by_col: Dict[int, List[Tuple[int, int]]] = {}
            for (r, c), v in m1.items():
                by_col.setdefault(c, []).append((r, v))
            for c, col in by_col.items():
                acc: Dict[int, int] = {}
                for (mid, v1) in col:
                    for (r0, cc), v0 in m0.items():
                        if cc == mid:
                            acc[r0] = acc.get(r0, 0) + v0 * v1
                if any(acc.values()):
                    return False
        return True


def differential_matrices(
    diagram: OrientedDiagram, cap: int = DEFAULT_CAP
) -> DifferentialMatrix:
    """Assemble the full differential, one sparse block per tridegree."""
    table = _get_table(diagram, cap)
    basis = enhanced_states(diagram, cap)
    index = {
        g: {s.key: col for col, s in enumerate(states)} for g, states in basis.items()
    }
    matrices: Dict[Grading, Dict[Tuple[int, int], int]] = {}
    for g, states in basis.items():
        i, j, k = g
        tgt = index.get((i - 1, j, k))
        if tgt is None:
            continue
        block: Dict[Tuple[int, int], int] = {}
        for col, s in enumerate(states):
            bits, mask = s.key
            for v in range(table.n):
                if (bits >> v) & 1:
                    continue
                sgn = _koszul_sign(bits, v)
                for tkey in _dv_terms(table, bits, mask, v):
                    if table.gradings(*tkey) != (i - 1, j, k):
                        raise AssertionError("differential degree drift")
                    row = tgt[tkey]
                    val = block.get((row, col), 0) + sgn
                    if val:
                        block[(row, col)] = val
                    else:
                        block.pop((row, col), None)
        if block:
            matrices[g] = block
    return DifferentialMatrix(diagram, basis, index, matrices)


def verify_anticommute(diagram: OrientedDiagram, cap: int = DEFAULT_CAP) -> dict:
    """Check d_u d_v = -d_v d_u for all distinct A-smoothed pairs.

    Labels on circles not touching u or v are spectators, so only the
    touched circles need to be enumerated.
    """
    table = _get_table(diagram, cap)
    n = table.n
    violations: List[dict] = []
    checked = 0
    for bits in range(1 << n):
        a_sm = [v for v in range(n) if not (bits >> v) & 1]
        if len(a_sm) < 2:
            continue
        circ_of, types = table.structure(bits)
        ncirc = len(types)
        for ui in range(len(a_sm)):
            for vi in range(ui + 1, len(a_sm)):
                u, v = a_sm[ui], a_sm[vi]
                touched = sorted(
                    {circ_of[4 * u + p] for p in range(4)}
                    | {circ_of[4 * v + p] for p in range(4)}
                )
                for combo in range(1 << len(touched)):
                    mask = 0
                    for pos, c in enumerate(touched):
                        if (combo >> pos) & 1:
                            mask |= 1 << c
                    acc: Dict[Tuple[int, int], int] = {}
                    for first, second in ((u, v), (v, u)):
                        s1 = _koszul_sign(bits, first)
                        for mid in _dv_terms(table, bits, mask, first):
                            s2 = s1 * _koszul_sign(mid[0], second)
                            for out in _dv_terms(table, mid[0], mid[1], second):
                                acc[out] = acc.get(out, 0) + s2
                    checked += 1
                    bad = {kk: vv for kk, vv in acc.items() if vv}
                    if bad:
                        violations.append(
                            {
                                "bits": bits,
                                "labels": mask,
                                "u": u,
                                "v": v,
                                "residual": sorted(bad.items()),
                            }
                        )
    return {"checked": checked, "violations": violations}
