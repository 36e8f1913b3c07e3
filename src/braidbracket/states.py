"""Kauffman states: smoothings, traced circles, types, and plane nesting.

Smoothing a crossing re-pairs its four darts into two arcs.  The pairing
depends only on ``(over_parity + choice bit) mod 2``:

* parity 0 pairs positions {3,0} and {1,2},
* parity 1 pairs positions {0,1} and {2,3},

where choice bit 0 is the A-smoothing and bit 1 the A^-1-smoothing.  With
this convention the A-smoothing of a positive crossing is the one
compatible with the edge orientations; the incompatible smoothing of any
crossing makes both of its arcs reverse orientation, contributing one
break point per arc.

Circle nesting is recovered from the faces of the smoothed map: smoothing
a crossing merges the two opposite corner faces that its channel connects,
and a parity walk over the dual graph from the outer face tells which
circles enclose which.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .diagram import NonPlanarError, OrientedDiagram, _uf_find, _uf_union


class SizeCapError(Exception):
    """Raised when a diagram exceeds the state-enumeration cap."""

    def __init__(self, needed: int, cap: int):
        super().__init__(f"diagram needs {needed} crossings but the cap is {cap}")
        self.needed = needed
        self.cap = cap


DEFAULT_CAP = 24


@dataclass(frozen=True)
class Smoothing:
    """Choice bits for the active crossings; bit 0 = A, bit 1 = A^-1."""

    bits: int
    length: int

    def bit(self, i: int) -> int:
        return (self.bits >> i) & 1

    @property
    def count_b(self) -> int:
        return self.bits.bit_count()

    @property
    def count_a(self) -> int:
        return self.length - self.count_b


@dataclass
class StateCircle:
    id: int
    break_points: int
    circle_type: str            # "d" or "h"
    edge_cycle: Tuple[int, ...]  # darts along the canonical traversal
    winding: Optional[int]


@dataclass
class KauffmanState:
    smoothing: Smoothing
    circles: List[StateCircle]
    nesting: Dict[int, Optional[int]]  # circle id -> parent circle id
    diagram: OrientedDiagram
    circle_of_dart: Tuple[int, ...]


@dataclass(frozen=True)
class Configuration:
    """Unordered nesting forest of plane circles, canonically encoded.

    The canonical form of a node is "(" + its children's forms, sorted,
    + ")"; the form of the forest is the sorted concatenation of root
    forms.  Two configurations are equal iff their strings are equal.
    """

    canonical: str

    @property
    def circle_count(self) -> int:
        return self.canonical.count("(")

    def __str__(self) -> str:
        return self.canonical


EMPTY_CONFIGURATION = Configuration("")


def _tau(diagram: OrientedDiagram, smoothing: Smoothing) -> List[int]:
    """Dart pairing of the smoothed diagram (smoothing arcs + anchor passes)."""
    tau = [0] * diagram.ndarts
    active = diagram.active_crossings
    pattern = [0] * diagram.n
    for i, c in enumerate(active):
        pattern[c] = (diagram.over_parity[c] + smoothing.bit(i)) & 1
    for c, bit in diagram.fused.items():
        pattern[c] = (diagram.over_parity[c] + bit) & 1
    for c in range(diagram.n):
        b = 4 * c
        if pattern[c]:
            tau[b], tau[b + 1] = b + 1, b
            tau[b + 2], tau[b + 3] = b + 3, b + 2
        else:
            tau[b + 3], tau[b] = b, b + 3
            tau[b + 1], tau[b + 2] = b + 2, b + 1
    for d in range(4 * diagram.n, diagram.ndarts):
        tau[d] = d ^ 1
    return tau


def _trace_circles(diagram: OrientedDiagram, tau: List[int]) -> Tuple[List[int], List[int]]:
    """Walk each circle once; returns (circle id per dart, break points per circle).

    A circle alternates ``tau`` (smoothing arc) and ``alpha`` (edge) steps.
    Circles are walked in order of their least dart, so ids are stable.  A
    smoothing arc joining two tails or two heads is one break point; an
    anchor adds its decorative marks.
    """
    nd = diagram.ndarts
    n4 = 4 * diagram.n
    alpha = diagram.alpha
    is_tail = diagram.is_tail
    anchor_bp = diagram.anchor_bp
    circ_of = [-1] * nd
    bps: List[int] = []
    for d0 in range(nd):
        if circ_of[d0] != -1:
            continue
        cid = len(bps)
        bp = 0
        d = d0
        while True:
            x = tau[d]
            circ_of[d] = circ_of[x] = cid
            if x >= n4:
                bp += anchor_bp.get((x - n4) >> 1, 0)
            elif is_tail[d] == is_tail[x]:
                bp += 1
            d = alpha[x]
            if d == d0:
                break
        bps.append(bp)
    return circ_of, bps


def _circle_type(break_points: int) -> str:
    return "d" if (break_points // 2) % 2 == 1 else "h"


def resolve(
    diagram: OrientedDiagram,
    smoothing: Smoothing,
    with_nesting: bool = True,
) -> KauffmanState:
    """Trace the circles of one Kauffman state.

    Break points are counted along each circle (one per orientation-
    reversing smoothing arc, plus any decorative marks riding on anchors).
    Edge cycles start at the tail of the circle's lowest edge and follow
    its flow.  Winding numbers are filled in for diagrams built from braid
    words.
    """
    tau = _tau(diagram, smoothing)
    circ_of, bps = _trace_circles(diagram, tau)
    ncirc = len(bps)
    is_tail = diagram.is_tail
    alpha = diagram.alpha
    edges = diagram.edges
    edge_of = diagram.edge_of

    start_of: List[int] = [-1] * ncirc
    for (t, _, _) in edges:
        c = circ_of[t]
        if start_of[c] == -1:
            start_of[c] = t
    circles: List[StateCircle] = []
    for cid in range(ncirc):
        t0 = start_of[cid]
        x = t0
        wind = 0
        cycle: List[int] = []
        while True:
            seam = edges[edge_of[x]][2]
            if seam:
                wind += seam if is_tail[x] else -seam
            cycle.append(x)
            x = tau[alpha[x]]
            if x == t0:
                break
        circles.append(
            StateCircle(
                id=cid,
                break_points=bps[cid],
                circle_type=_circle_type(bps[cid]),
                edge_cycle=tuple(cycle),
                winding=wind if diagram.from_braid else None,
            )
        )

    nesting: Dict[int, Optional[int]] = {c.id: None for c in circles}
    if with_nesting and ncirc:
        nesting = _nesting_forest(diagram, tau, circ_of, ncirc)
    return KauffmanState(
        smoothing=smoothing,
        circles=circles,
        nesting=nesting,
        diagram=diagram,
        circle_of_dart=tuple(circ_of),
    )


def _nesting_forest(
    diagram: OrientedDiagram,
    tau: List[int],
    circ_of: List[int],
    ncirc: int,
) -> Dict[int, Optional[int]]:
    parent = list(diagram._face_root)
    face_of = diagram.face_of
    for c in range(diagram.n):
        b = 4 * c
        if tau[b] == b + 1:  # pairing {0,1},{2,3}: channel joins corners at 2 and 0
            _uf_union(parent, face_of[b + 2], face_of[b])
        else:                # pairing {3,0},{1,2}: channel joins corners at 1 and 3
            _uf_union(parent, face_of[b + 1], face_of[b + 3])
    face = [_uf_find(parent, f) for f in face_of]  # smoothed face per dart

    adj: Dict[int, List[Tuple[int, int]]] = {}

    def add_adj(fa: int, fb: int, circle: int) -> None:
        adj.setdefault(fa, []).append((fb, circle))
        adj.setdefault(fb, []).append((fa, circle))

    for (t, h, _) in diagram.edges:
        add_adj(face[t], face[h], circ_of[t])
    for c in range(diagram.n):
        b = 4 * c
        if tau[b] == b + 1:
            channel = face[b]
            add_adj(face[b + 1], channel, circ_of[b + 1])
            add_adj(face[b + 3], channel, circ_of[b + 3])
        else:
            channel = face[b + 1]
            add_adj(face[b], channel, circ_of[b])
            add_adj(face[b + 2], channel, circ_of[b + 2])

    outer = _uf_find(parent, diagram.outer_face)
    parity: Dict[int, frozenset] = {outer: frozenset()}
    queue = [outer]
    qi = 0
    while qi < len(queue):
        f = queue[qi]
        qi += 1
        for (g, circle) in adj.get(f, ()):
            p = parity[f] ^ {circle}
            if g in parity:
                if parity[g] != p:
                    raise NonPlanarError("inconsistent face parity (embedding bug)")
            else:
                parity[g] = p
                queue.append(g)

    # each circle separates exactly two smoothed faces
    ancestors: Dict[int, frozenset] = {}
    for (t, h, _) in diagram.edges:
        circle = circ_of[t]
        for f in (face[t], face[h]):
            p = parity[f]
            if circle not in p:
                if circle in ancestors:
                    if ancestors[circle] != p:
                        raise NonPlanarError("ambiguous outside face (embedding bug)")
                else:
                    ancestors[circle] = p
    nesting: Dict[int, Optional[int]] = {}
    for cid in range(ncirc):
        anc = ancestors[cid]
        if not anc:
            nesting[cid] = None
        else:
            nesting[cid] = max(anc, key=lambda y: (len(ancestors[y]), -y))
    return nesting


def sigma(state: KauffmanState) -> int:
    """(number of A-smoothings) - (number of A^-1-smoothings)."""
    return state.smoothing.count_a - state.smoothing.count_b


def seifert_state(diagram: OrientedDiagram) -> KauffmanState:
    """The all-oriented smoothing: A at positive crossings, A^-1 at negative."""
    bits = 0
    for i, c in enumerate(diagram.active_crossings):
        if diagram.signs[c] < 0:
            bits |= 1 << i
    return resolve(diagram, Smoothing(bits, len(diagram.active_crossings)))


def configuration_of(state: KauffmanState) -> Configuration:
    """Nesting forest of the h-circles only; d-circles are skipped over."""
    types = [c.circle_type for c in state.circles]
    return Configuration(_configuration_key(types, state.nesting))


def _configuration_key(types: List[str], nesting: Dict[int, Optional[int]]) -> str:
    """Canonical string of the h-circle forest, given circle types and nesting."""
    h_ids = [cid for cid, t in enumerate(types) if t == "h"]
    hset = set(h_ids)

    def h_parent(cid: int) -> Optional[int]:
        p = nesting[cid]
        while p is not None and p not in hset:
            p = nesting[p]
        return p

    children: Dict[Optional[int], List[int]] = {}
    for cid in h_ids:
        children.setdefault(h_parent(cid), []).append(cid)

    def canon(cid: int) -> str:
        return "(" + "".join(sorted(canon(ch) for ch in children.get(cid, ()))) + ")"

    return "".join(sorted(canon(r) for r in children.get(None, ())))


def enumerate_states(
    diagram: OrientedDiagram,
    cap: int = DEFAULT_CAP,
    with_nesting: bool = True,
) -> Iterator[KauffmanState]:
    """All 2^n states in ascending bit-vector order (bit i = crossing i)."""
    n = len(diagram.active_crossings)
    if n > cap:
        raise SizeCapError(n, cap)
    for bits in range(1 << n):
        yield resolve(diagram, Smoothing(bits, n), with_nesting=with_nesting)


def winding_number(diagram: OrientedDiagram, circle: StateCircle) -> int:
    """Net signed seam crossings along the circle (braid closures only)."""
    if not diagram.from_braid:
        raise ValueError("winding numbers need a diagram built from a braid word")
    if circle.winding is None:
        raise ValueError("the circle carries no winding: it was resolved on a "
                         "diagram not built from a braid word")
    return circle.winding
