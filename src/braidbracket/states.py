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
a crossing merges the two opposite corner faces that its channel connects.
Each circle then separates two of these regions, regions and circles form
a tree, and a breadth-first walk of that region tree from the outer face
tells which circles enclose which.
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


def _check_cap(needed: int, cap: int) -> None:
    """The library's size-cap guard: a negative ``cap`` is a bad argument
    (``ValueError``), and a diagram that needs more than ``cap`` crossings
    overruns it (``SizeCapError``)."""
    if cap < 0:
        raise ValueError(f"cap {cap} is negative; it must be >= 0")
    if needed > cap:
        raise SizeCapError(needed, cap)


@dataclass
class StateCircle:
    break_points: int
    circle_type: str            # "d" or "h"
    edge_cycle: Tuple[int, ...]  # darts along the canonical traversal
    winding: Optional[int]


@dataclass
class KauffmanState:
    bits: int    # bit i: choice at active_crossings[i], 0 = A, 1 = A^-1
    sigma: int   # (number of A-smoothings) - (number of A^-1-smoothings)
    circles: List[StateCircle]
    nesting: Dict[int, Optional[int]]  # circle id -> parent circle id
    circle_of_dart: Tuple[int, ...]


def _tau(diagram: OrientedDiagram, bits: int) -> List[int]:
    """Dart pairing of the smoothed diagram (smoothing arcs + anchor passes).

    Bit i of ``bits`` is the choice at ``diagram.active_crossings[i]``.
    """
    tau = [0] * diagram.ndarts
    active = diagram.active_crossings
    pattern = [0] * diagram.n
    for i, c in enumerate(active):
        pattern[c] = (diagram.over_parity[c] + (bits >> i)) & 1
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


def resolve(diagram: OrientedDiagram, bits: int) -> KauffmanState:
    """Trace the circles of the Kauffman state ``bits`` (see ``_tau``).

    Break points are counted along each circle (one per orientation-
    reversing smoothing arc, plus any decorative marks riding on anchors).
    Edge cycles start at the tail of the circle's lowest edge and follow
    its flow.  Winding numbers are filled in for diagrams built from braid
    words.
    """
    n = len(diagram.active_crossings)
    if not 0 <= bits < 1 << n:
        raise ValueError(f"smoothing {bits} is not a bit string over {n} crossings")
    tau = _tau(diagram, bits)
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
                break_points=bps[cid],
                circle_type=_circle_type(bps[cid]),
                edge_cycle=tuple(cycle),
                winding=wind if diagram.from_braid else None,
            )
        )

    nesting = _nesting_forest(diagram, tau, circ_of, ncirc) if ncirc else {}
    return KauffmanState(
        bits=bits,
        sigma=n - 2 * bits.bit_count(),
        circles=circles,
        nesting=nesting,
        circle_of_dart=tuple(circ_of),
    )


def _nesting_forest(
    diagram: OrientedDiagram,
    tau: List[int],
    circ_of: List[int],
    ncirc: int,
) -> Dict[int, Optional[int]]:
    """Parent circle of each circle, read off the tree of regions and circles.

    Each circle separates exactly two regions of the smoothed diagram, and
    the regions, joined by the circles between them, form a tree.  Walked
    breadth-first from the outer region, a circle first met from region f
    is a child of the circle that encloses f.
    """
    parent = list(diagram._face_root)
    face_of = diagram.face_of
    for c in range(diagram.n):
        b = 4 * c
        if tau[b] == b + 1:  # pairing {0,1},{2,3}: channel joins corners at 2 and 0
            _uf_union(parent, face_of[b + 2], face_of[b])
        else:                # pairing {3,0},{1,2}: channel joins corners at 1 and 3
            _uf_union(parent, face_of[b + 1], face_of[b + 3])
    face = [_uf_find(parent, f) for f in face_of]  # smoothed face per dart

    # the regions on both sides of each circle: along its edges, and
    # across the channel at each crossing it turns at
    sides = [set() for _ in range(ncirc)]
    for (t, h, _) in diagram.edges:
        sides[circ_of[t]].update((face[t], face[h]))
    for c in range(diagram.n):
        b = 4 * c
        if tau[b] == b + 1:
            channel = face[b]
            sides[circ_of[b + 1]].update((face[b + 1], channel))
            sides[circ_of[b + 3]].update((face[b + 3], channel))
        else:
            channel = face[b + 1]
            sides[circ_of[b]].update((face[b], channel))
            sides[circ_of[b + 2]].update((face[b + 2], channel))
    circles_at: Dict[int, List[int]] = {}
    for circle, regions in enumerate(sides):
        if len(regions) != 2:
            raise NonPlanarError(
                f"circle {circle} borders {len(regions)} regions, not 2 (embedding bug)"
            )
        for f in regions:
            circles_at.setdefault(f, []).append(circle)

    outer = _uf_find(parent, diagram.outer_face)
    enclosing: Dict[int, Optional[int]] = {outer: None}  # region -> circle around it
    nesting: Dict[int, Optional[int]] = {}
    queue = [outer]
    for f in queue:
        for circle in circles_at.get(f, ()):
            if circle in nesting:
                continue  # the circle f was reached through
            nesting[circle] = enclosing[f]
            a, g = sides[circle]
            if g == f:
                g = a
            if g in enclosing:
                raise NonPlanarError("regions and circles form a cycle (embedding bug)")
            enclosing[g] = circle
            queue.append(g)
    if len(nesting) != ncirc:
        raise NonPlanarError("a circle is not reached from the outer region (embedding bug)")
    return {cid: nesting[cid] for cid in range(ncirc)}


def sigma(state: KauffmanState) -> int:
    """(number of A-smoothings) - (number of A^-1-smoothings)."""
    return state.sigma


def seifert_state(diagram: OrientedDiagram) -> KauffmanState:
    """The all-oriented smoothing: A at positive crossings, A^-1 at negative."""
    bits = 0
    for i, c in enumerate(diagram.active_crossings):
        if diagram.signs[c] < 0:
            bits |= 1 << i
    return resolve(diagram, bits)


def configuration_of(state: KauffmanState) -> str:
    """Canonical string of the nesting forest of the h-circles only.

    d-circles are skipped over.  A node's form is "(" + its children's
    forms, sorted, + ")"; the forest's form is the sorted concatenation
    of its roots' forms, so two configurations are equal iff their
    strings are.
    """
    return _configuration_key([c.circle_type for c in state.circles], state.nesting)


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

    # children before parents (reverse breadth-first order): no recursion
    roots = children.get(None, [])
    order = roots[:]
    for cid in order:
        order.extend(children.get(cid, ()))
    form: Dict[int, str] = {}
    for cid in reversed(order):
        kids = children.get(cid)
        form[cid] = "(" + "".join(sorted([form[ch] for ch in kids])) + ")" if kids else "()"
    return "".join(sorted([form[r] for r in roots]))


def enumerate_states(
    diagram: OrientedDiagram,
    cap: int = DEFAULT_CAP,
) -> Iterator[KauffmanState]:
    """All 2^n states in ascending bit-vector order (bit i = crossing i)."""
    n = len(diagram.active_crossings)
    _check_cap(n, cap)
    for bits in range(1 << n):
        yield resolve(diagram, bits)


def winding_number(diagram: OrientedDiagram, circle: StateCircle) -> int:
    """Net signed seam crossings along the circle (braid closures only)."""
    if not diagram.from_braid:
        raise ValueError("winding numbers need a diagram built from a braid word")
    if circle.winding is None:
        raise ValueError("the circle carries no winding: it was resolved on a "
                         "diagram not built from a braid word")
    return circle.winding
