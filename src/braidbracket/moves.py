"""Braid-like Reidemeister rewriting on embedded diagrams.

Move patterns are matched on faces of the combinatorial map:

* ``IIa_remove``: a bigon face whose two crossings have opposite signs,
  whose strands run coherently (parallel), one strand passing over at both
  crossings.  Removal joins the edges entering and leaving each strand
  into one edge; only a strand that closes into a free loop gets an
  anchor.  Anchors elsewhere in the diagram stay as they are.
* ``IIa_insert``: any two coherently oriented strand sides of a common
  face; the band is pulled across the face and crossed twice, in either
  over/under order.
* ``III`` (variants ``IIIa`` .. ``IIIf``): a triangle face with three
  distinct crossings whose boundary is not cyclically oriented and whose
  over-relation is not cyclic; the triangle is flipped to the other side.
  The variant letter encodes (number of boundary edges traversed with the
  flow, position of the doubly-over strand), an enumeration fixed by this
  library.
* ``RI_insert`` and ``IIb_insert`` are deliberately *excluded* from
  braid-like equivalence and exist as negative controls.

Each surgery rewires the builder of the diagram at its own site only, and
``apply_move`` builds and revalidates the result once; face references
(outer face, component placements) are carried across the surgery by
naming faces through surviving edges.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, NamedTuple, Optional, Tuple

from .diagram import (
    BraidWord,
    DiagramBuilder,
    FaceRef,
    OrientedDiagram,
    SIDE_L,
    SIDE_R,
    anchor_port,
    braid_closure,
    parse_braid_word,
)


class SiteInvalidError(Exception):
    """The move site no longer matches the diagram it is applied to."""


class GenerationError(Exception):
    """No applicable move was available while generating a pair."""


BRAID_LIKE_KINDS = ("IIa_remove", "IIa_insert", "III")
III_VARIANTS = ("IIIa", "IIIb", "IIIc", "IIId", "IIIe", "IIIf")


class MoveSite(NamedTuple):
    kind: str
    anchor: Tuple
    fingerprint: str

    def __repr__(self):
        return f"MoveSite({self.kind}, {self.anchor})"


def _fingerprint(diagram: OrientedDiagram) -> str:
    """Content hash of the diagram, computed once and kept on it."""
    fp = diagram._site_fingerprint
    if fp is None:
        blob = repr(
            (
                diagram.signs,
                diagram.over_parity,
                diagram.nanchors,
                diagram.edges,
                diagram.placements,
                diagram.outer_ref,
                sorted(diagram.fused.items()),
                sorted(diagram.anchor_bp.items()),
            )
        ).encode()
        fp = diagram._site_fingerprint = hashlib.sha256(blob).hexdigest()[:16]
    return fp


def _is_over_at(diagram: OrientedDiagram, dart: int) -> bool:
    v = dart >> 2
    return (dart & 3) % 2 == diagram.over_parity[v]


def _across(d: int) -> int:
    """The dart opposite ``d`` at its crossing, where its strand goes on."""
    return (d & ~3) | ((d + 2) & 3)


def _check_iia_remove(diagram: OrientedDiagram, anchor) -> bool:
    u0, u1 = anchor
    if not (0 <= u0 < diagram.ndarts and 0 <= u1 < diagram.ndarts):
        return False
    if diagram._global_faces[diagram.global_face_of_dart(u0)] != tuple(sorted((u0, u1))):
        return False
    v0, v1 = diagram.vertex_of(u0), diagram.vertex_of(u1)
    if v0 >= diagram.n or v1 >= diagram.n or v0 == v1:
        return False
    if v0 in diagram.fused or v1 in diagram.fused:
        return False
    e0, e1 = diagram.edge_of[u0], diagram.edge_of[u1]
    if e0 == e1:
        return False
    if diagram.signs[v0] != -diagram.signs[v1]:
        return False
    if diagram.is_tail[u0] == diagram.is_tail[u1]:
        return False
    return _is_over_at(diagram, u0) == _is_over_at(diagram, diagram.alpha[u0])


def _check_pair_insert(diagram: OrientedDiagram, anchor, coherent: bool) -> bool:
    a, b, _ = anchor
    if not (0 <= a < diagram.ndarts and 0 <= b < diagram.ndarts) or a == b:
        return False
    if diagram.global_face_of_dart(a) != diagram.global_face_of_dart(b):
        return False
    if diagram.edge_of[a] == diagram.edge_of[b]:
        return False
    if diagram.comp_of_vertex[diagram.vertex_of(a)] != diagram.comp_of_vertex[
        diagram.vertex_of(b)
    ]:
        return False
    if coherent:
        return diagram.is_tail[a] is False and diagram.is_tail[b] is True
    return diagram.is_tail[a] == diagram.is_tail[b]


def _check_iii(diagram: OrientedDiagram, anchor) -> Optional[str]:
    """Returns the variant letter of a braid-like triangle, or None."""
    u0 = anchor[0]
    if not 0 <= u0 < diagram.ndarts:
        return None
    face_next = diagram._face_next
    u1 = face_next[u0]
    u2 = face_next[u1]
    orbit = (u0, u1, u2)
    if orbit != tuple(anchor):
        return None
    if face_next[u2] != u0:
        return None
    if diagram._global_faces[diagram.global_face_of_dart(u0)] != tuple(sorted(orbit)):
        return None
    vs = [diagram._dart_vertex[u] for u in orbit]
    if len(set(vs)) != 3 or any(v >= diagram.n for v in vs):
        return None
    if any(v in diagram.fused for v in vs):
        return None
    es = [diagram.edge_of[u] for u in orbit]
    if len(set(es)) != 3:
        return None
    along = [diagram.is_tail[u] for u in orbit]
    if along[0] == along[1] == along[2]:
        return None  # cyclically oriented triangle: not a braid move
    # strand S_j runs through edge(orbit[j]); who is over at each vertex?
    wins = [0, 0, 0]
    for j in range(3):
        if _is_over_at(diagram, orbit[j]):
            wins[j] += 1          # S_j over at its first vertex vs[j]
        else:
            wins[(j - 1) % 3] += 1  # the arriving strand S_{j-1} is over
    if sorted(wins) != [0, 1, 2]:
        return None  # cyclic over-relation admits no slide
    top = wins.index(2)
    count_along = sum(along)
    marked = along.index(True) if count_along == 1 else along.index(False)
    family = 0 if count_along == 1 else 3
    # offset fixed so the positive braid-relation triangle comes out as IIIa
    return III_VARIANTS[family + (top - marked + 1) % 3]


def find_sites(diagram: OrientedDiagram, kind: str) -> List[MoveSite]:
    """All sites matching the move's left-hand side, deterministically ordered.

    ``kind`` is one of IIa_remove, IIa_insert, IIb_insert, RI_insert, a
    specific III variant (IIIa..IIIf) or the umbrella kind ``III``.  Pair
    insertions are restricted to two strand sides of the same connected
    component (a band between split components would not have a canonical
    side to pass nested pieces on).
    """
    fp = _fingerprint(diagram)
    sites: List[MoveSite] = []
    if kind == "IIa_remove":
        for darts in diagram._global_faces.values():
            if len(darts) == 2 and _check_iia_remove(diagram, darts):
                sites.append(MoveSite(kind, darts, fp))
    elif kind in ("IIa_insert", "IIb_insert"):
        # the distinct-edge and same-component tests of _check_pair_insert;
        # two darts of one global face always pass its face test
        coherent = kind == "IIa_insert"
        is_tail, edge_of = diagram.is_tail, diagram.edge_of
        comp = diagram.comp_of_vertex
        dart_vertex = diagram._dart_vertex
        for ds in diagram._global_faces.values():
            for i, x in enumerate(ds):
                tx, ex, cx = is_tail[x], edge_of[x], comp[dart_vertex[x]]
                for y in ds[i + 1:]:
                    if (is_tail[y] != tx) != coherent:
                        continue
                    if edge_of[y] == ex or comp[dart_vertex[y]] != cx:
                        continue
                    a, b = (y, x) if coherent and tx else (x, y)
                    sites.append(MoveSite(kind, (a, b, False), fp))
                    sites.append(MoveSite(kind, (a, b, True), fp))
    elif kind == "RI_insert":
        for e in range(len(diagram.edges)):
            for side in (0, 1):
                for over_first in (False, True):
                    sites.append(MoveSite(kind, (e, side, over_first), fp))
    elif kind == "III" or kind in III_VARIANTS:
        for darts in diagram._global_faces.values():
            if len(darts) != 3:
                continue
            u0 = darts[0]
            u1 = diagram._face_next[u0]
            orbit = (u0, u1, diagram._face_next[u1])
            variant = _check_iii(diagram, orbit)
            if variant is None:
                continue
            if kind == "III" or kind == variant:
                sites.append(MoveSite(variant, orbit, fp))
    else:
        raise ValueError(f"unknown move kind {kind!r}")
    sites.sort()  # by (kind, anchor): the fingerprint is shared
    return sites


# -- surgeries -----------------------------------------------------------


def _side_ref_of_dart(diagram: OrientedDiagram, dart: int) -> FaceRef:
    """(edge, side) naming the face to the right of the dart."""
    return (diagram.edge_of[dart], SIDE_R if diagram.is_tail[dart] else SIDE_L)


def _remap_dying_refs(
    diagram: OrientedDiagram,
    builder: DiagramBuilder,
    dying_edges: set,
    fallback: FaceRef,
) -> None:
    """Re-express outer/placement refs that point at edges about to die.

    A ref is renamed through a surviving edge of its own component's face,
    or to ``fallback`` when every edge of that face dies.  The global face
    would also offer edges of components placed in it, and a placement
    renamed that way glues a component to itself.
    """

    def fix(ref: FaceRef) -> FaceRef:
        if ref[0] not in dying_edges:
            return ref
        for d in diagram.faces[diagram._ref_face(ref)]:
            if diagram.edge_of[d] not in dying_edges:
                return _side_ref_of_dart(diagram, d)
        return fallback

    if builder.outer is not None:
        builder.outer = fix(builder.outer)
    builder.placements = [(fix(a), fix(b)) for a, b in builder.placements]


def _apply_iia_remove(diagram: OrientedDiagram, b: DiagramBuilder, anchor) -> None:
    u0, u1 = anchor
    e0, e1 = diagram.edge_of[u0], diagram.edge_of[u1]
    corridor_refs = [_side_ref_of_dart(diagram, _across(u)) for u in (u0, u1)]
    # Each bigon edge carries one strand, in across its tail and out across
    # its head; the strands are coherent, so both tails share a crossing.
    strands = []  # [incoming edge, outgoing edge, seam of the bigon edge]
    bigon_edges = (diagram.edges[e0], diagram.edges[e1])
    for x, o, seam in sorted((_across(t), _across(h), seam) for t, h, seam in bigon_edges):
        if diagram.is_tail[x] or not diagram.is_tail[o]:
            raise AssertionError("strand orientation broken through bigon")
        strands.append([diagram.edge_of[x], diagram.edge_of[o], seam])
    _remap_dying_refs(diagram, b, {e0, e1}, corridor_refs[0])
    b.crossings[u0 >> 2] = b.crossings[u1 >> 2] = None
    b.edges[e0] = b.edges[e1] = None
    # Removing the bigon takes 2 vertices and 4 edges from its component, so
    # by Euler it takes 2 faces (the bigon, and one corridor face merged into
    # the other) unless both corridor ends lie on one face: then only the
    # bigon goes, the component splits in two, and the pieces get placed.
    if diagram._ref_face(corridor_refs[0]) == diagram._ref_face(corridor_refs[1]):
        b.placements.append((corridor_refs[0], corridor_refs[1]))
    # Join each strand's two edges, the strand on the lower edge id first,
    # which fixes the ids of the joined edges.  A strand whose two edges are
    # one has closed into a loop: only it keeps an anchor, in strand order.
    for s in sorted(strands, key=lambda s: min(s[:2])):
        e_in, e_out, seam = s
        if e_in == e_out:
            continue
        tail, _, seam_in = b.edges[e_in]
        _, head, seam_out = b.edges[e_out]
        joined = b.add_edge(tail, head, seam_in + seam + seam_out)
        for e in (e_in, e_out):
            b.edges[e] = None
            b._remap_refs(e, joined)
        strands.remove(s)
        for t in strands:
            t[:2] = [joined if e in (e_in, e_out) else e for e in t[:2]]
    for e, _, seam in strands:  # the loops
        ai = b.add_anchor()
        rec = b.edges[e]
        rec[:] = [anchor_port(ai, 1), anchor_port(ai, 0), rec[2] + seam]


# Pair insertion ports, keyed by (is_tail[u], is_tail[v]) of the anchor's
# darts u, v: over parity and sign of crossing 0 when u passes under
# (crossing 1 takes the other parity and sign, and u_over swaps both), then
# the (mid_tail, mid_head) ports splitting u's edge and v's edge, then the
# two band edges.  A port (c, p) is position p of crossing c.
_PAIR_PORTS = {
    # coherent: u runs "down" with the face on its left, v with it on the right
    (False, True): (0, 1, ((1, 2), (0, 1)), ((1, 3), (0, 0)),
                    (((0, 3), (1, 0)), ((0, 2), (1, 1)))),
    # anti-parallel, both face sides left of flow: u down, v up
    (False, False): (0, -1, ((1, 2), (0, 1)), ((0, 0), (1, 3)),
                     (((0, 3), (1, 0)), ((1, 1), (0, 2)))),
    # anti-parallel, both sides right of flow: u up, v down
    (True, True): (1, 1, ((1, 1), (0, 2)), ((0, 3), (1, 0)),
                   (((0, 0), (1, 3)), ((1, 2), (0, 1)))),
}


def _apply_pair_insert(diagram: OrientedDiagram, b: DiagramBuilder, anchor) -> None:
    u, v, u_over = anchor
    parity, sign, split_u, split_v, band = _PAIR_PORTS[
        diagram.is_tail[u], diagram.is_tail[v]
    ]
    if u_over:
        parity, sign = 1 - parity, -sign
    xs = (b.add_crossing(sign, parity), b.add_crossing(-sign, 1 - parity))

    def port(cp: Tuple[int, int]) -> int:
        return 4 * xs[cp[0]] + cp[1]

    for dart, (tail, head) in ((u, split_u), (v, split_v)):
        b.split_edge(diagram.edge_of[dart], mid_tail=port(tail), mid_head=port(head))
    for tail, head in band:
        b.add_edge(port(tail), port(head))


def _apply_iii(diagram: OrientedDiagram, b: DiagramBuilder, anchor) -> None:
    orbit = tuple(anchor)
    vs = [diagram.vertex_of(u) for u in orbit]
    es = [diagram.edge_of[u] for u in orbit]
    dirs = [diagram.is_tail[u] for u in orbit]
    seams = [diagram.edges[e][2] for e in es]
    # at v_j the walk arrives on dart r = alpha(orbit[j-1]) and leaves on u
    w = []
    for j, u in enumerate(orbit):
        if _is_over_at(diagram, u):
            parity = 1
        elif _is_over_at(diagram, diagram.alpha[orbit[j - 1]]):
            parity = 0
        else:
            raise AssertionError(f"no over strand at triangle crossing {vs[j]}")
        w.append(b.add_crossing(diagram.signs[vs[j]], parity))
    # outside edge ends move: sigma(u) of v_j -> slot 3 of W_{j-1}, the end
    # across u -> slot 2 of W_{j+1}
    for j, u in enumerate(orbit):
        for dart, target in (
            (diagram.sigma(u), 4 * w[j - 1] + 3),
            (_across(u), 4 * w[(j + 1) % 3] + 2),
        ):
            b.edges[diagram.edge_of[dart]][0 if diagram.is_tail[dart] else 1] = target
    new_edges = []
    for j in range(3):
        if dirs[j]:
            eid = b.add_edge(4 * w[(j + 1) % 3], 4 * w[j] + 1, seams[j])
        else:
            eid = b.add_edge(4 * w[j] + 1, 4 * w[(j + 1) % 3], seams[j])
        new_edges.append(eid)
    # only the triangle's own face has no surviving edge; it becomes the new one
    new_tri_ref: FaceRef = (new_edges[0], SIDE_L if dirs[0] else SIDE_R)
    _remap_dying_refs(diagram, b, set(es), new_tri_ref)
    for v in vs:
        b.crossings[v] = None
    for e in es:
        b.edges[e] = None


def _apply_ri_insert(diagram: OrientedDiagram, b: DiagramBuilder, anchor) -> None:
    # side 0 puts the loop on the left of the flow, side 1 on the right
    e, side, over_first = anchor
    twist = side ^ over_first
    z = b.add_crossing(sign=1 - 2 * twist, over_parity=twist)
    b.split_edge(e, mid_tail=4 * z + 2 + side, mid_head=4 * z + 1 - side)
    b.add_edge(4 * z + 3 - side, 4 * z + side)


def _anchor_ok(fields: str, anchor) -> bool:
    """Shape of an anchor: "d" a dart or edge id, "f" a flag, "s" a side."""
    if not isinstance(anchor, (tuple, list)) or len(anchor) != len(fields):
        return False
    return all(
        type(x) is (bool if f == "f" else int) and (f != "s" or x in (0, 1))
        for f, x in zip(fields, anchor)
    )


# kind -> (anchor shape, pattern check, surgery); a variant kind names the
# one triangle variant it applies to, the umbrella kind "III" any of them
_MOVES = {
    "IIa_remove": ("dd", _check_iia_remove, _apply_iia_remove),
    "IIa_insert": ("ddf", lambda d, a: _check_pair_insert(d, a, True), _apply_pair_insert),
    "IIb_insert": ("ddf", lambda d, a: _check_pair_insert(d, a, False), _apply_pair_insert),
    "RI_insert": ("dsf", lambda d, a: 0 <= a[0] < len(d.edges), _apply_ri_insert),
    "III": ("ddd", lambda d, a: _check_iii(d, a) is not None, _apply_iii),
    **{
        variant: ("ddd", lambda d, a, v=variant: _check_iii(d, a) == v, _apply_iii)
        for variant in III_VARIANTS
    },
}


def apply_move(diagram: OrientedDiagram, site: MoveSite) -> OrientedDiagram:
    """Apply a move found by ``find_sites``; stale or malformed sites are rejected."""
    if site.fingerprint != _fingerprint(diagram):
        raise SiteInvalidError("site was found on a different diagram")
    kind, anchor = site.kind, site.anchor
    if kind not in _MOVES:
        raise ValueError(f"unknown move kind {kind!r}")
    fields, check, surgery = _MOVES[kind]
    if not _anchor_ok(fields, anchor):
        raise SiteInvalidError(f"malformed {kind} anchor {anchor!r}")
    if not check(diagram, anchor):
        raise SiteInvalidError(f"no {kind} pattern at {anchor!r}")
    b = diagram.to_builder()
    b.from_braid = False
    surgery(diagram, b, anchor)
    return b.build()


def site_to_json(site: MoveSite) -> dict:
    return {"kind": site.kind, "anchor": list(site.anchor)}


def apply_move_script(diagram: OrientedDiagram, script) -> OrientedDiagram:
    """Replay a move script: a JSON list of {"kind", "anchor"} records.

    Every record must match a live pattern on the diagram it is applied
    to, so scripts either replay exactly or fail with SiteInvalidError.
    """
    import json as _json

    if isinstance(script, (str, bytes)):
        try:
            script = _json.loads(script)
        except ValueError as exc:  # not JSON, or bytes that are not UTF-8
            raise SiteInvalidError(f"move script is not JSON: {exc}") from exc
    if not isinstance(script, (list, tuple)):
        raise SiteInvalidError("a move script is a list of records")
    current = diagram
    for rec in script:
        if not (isinstance(rec, dict) and isinstance(rec.get("kind"), str)
                and rec["kind"] in _MOVES and "anchor" in rec):
            raise SiteInvalidError(f"malformed move record {rec!r}")
        site = MoveSite(rec["kind"], rec["anchor"], _fingerprint(current))
        current = apply_move(current, site)
    return current


def random_equivalent_pair(
    seed: int,
    n_moves: int,
    base: BraidWord,
    max_crossings: int = 10,
) -> Tuple[OrientedDiagram, OrientedDiagram]:
    """A deterministic braid-like-isotopic pair (closure(base), moved copy).

    Moves are drawn uniformly from all applicable braid-like sites;
    insertions are withheld once the diagram reaches ``max_crossings``.
    """
    if n_moves < 0:
        raise GenerationError("move count must be nonnegative")
    start = braid_closure(base)
    rng = random.Random(seed)
    current = start
    for _ in range(n_moves):
        sites = list(find_sites(current, "IIa_remove"))
        sites += find_sites(current, "III")
        if current.n + 2 <= max_crossings:
            sites += find_sites(current, "IIa_insert")
        if not sites:
            raise GenerationError("no applicable braid-like move")
        current = apply_move(current, sites[rng.randrange(len(sites))])
    return start, current


def figure4_family(m: int) -> OrientedDiagram:
    """Unknot diagrams with m cancelling curl pairs (writhe 0, fixed Whitney
    index): regularly isotopic to the round circle but generally not
    braid-like isotopic to it, nor to each other."""
    if m < 0:
        raise ValueError("family index must be nonnegative")
    diagram = parse_braid_word("B1")
    edge = 0
    for variant_side in (0, 1):  # left loops (+1 writhe), then right (-1)
        for _ in range(m):
            sites = [
                s
                for s in find_sites(diagram, "RI_insert")
                if s.anchor == (edge, variant_side, False)
            ]
            diagram = apply_move(diagram, sites[0])
            edge = len(diagram.edges) - 2  # downstream half of the split edge
    return diagram
