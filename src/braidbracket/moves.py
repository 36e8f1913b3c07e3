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

Removals and slides are never matched on the outer face: a bigon or
triangle there bounds no disk in the plane.

A site is defined once, by the census of the diagram (``_census``),
computed at most once per diagram and kept on it: one pass over the
global faces for bigons and triangles, and a count of tail darts per face
for pair insertions, which are counted and never listed on a walk.
``find_sites`` lists the sites, walks count them, and ``apply_move``
accepts an anchor only as ``find_sites`` lists it: a rotated triangle
orbit or a reversed pair is no site, so one move has one name.

Each surgery rewires the builder of the diagram at its own site only, and
one helper, ``_rewrite``, makes every moved diagram: ``to_builder``, the
one-component mark, the surgery, then ``DiagramBuilder.build``, which
makes and checks every diagram.  The one fact a move hands over is that
its parent has one component: the builder's mark lets ``build`` take
Euler's formula as one count instead of searching for components.  Face
references (outer face, component placements) are carried across the
surgery by naming faces through surviving edges.

``apply_move`` checks a caller's site against ``find_sites`` itself: its
fingerprint, then that the listing of its kind holds an equal anchor,
field by field in value and in type, before it calls ``_rewrite``.  The
listing is kept on the diagram beside the census.
``random_equivalent_pair`` counts the sites of a step, draws one, and
hands the drawn (kind, anchor) to ``_rewrite`` directly: the draw comes
from the census of the very diagram it is applied to, so each of those
checks holds by construction (``_braid_like_sites`` says why), and no
``MoveSite`` or fingerprint is made on a walk.
"""

from __future__ import annotations

import random
from itertools import product
from operator import mul, sub
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


III_VARIANTS = ("IIIa", "IIIb", "IIIc", "IIId", "IIIe", "IIIf")


class MoveSite(NamedTuple):
    kind: str
    anchor: Tuple
    fingerprint: str

    def __repr__(self):
        return f"MoveSite({self.kind}, {self.anchor})"


def _fingerprint(diagram: OrientedDiagram) -> str:
    """Content hash of the diagram, computed once and kept on it.

    It is Python's hash of the tuples that define the diagram, so equal
    diagrams share it within a process, and hashing the integers costs far
    less than printing them for a digest.
    """
    memo = diagram._moves
    fp = memo.get("fingerprint")
    if fp is None:
        key = (
            diagram.signs,
            diagram.nanchors,
            diagram.edges,
            diagram.placements,
            diagram.outer_ref,
            tuple(sorted(diagram.fused.items())),
            tuple(sorted(diagram.anchor_bp.items())),
        )
        fp = memo["fingerprint"] = format(hash(key) & 0xFFFFFFFFFFFFFFFF, "016x")
    return fp


def _triangle_rule(along, over) -> Optional[str]:
    """The variant letter of a triangle whose three darts, in face order,
    are tails as ``along`` says and over at their crossings as ``over``
    says, or None when the triangle admits no slide."""
    count_along = sum(along)
    if count_along in (0, 3):
        return None  # cyclically oriented triangle: not a braid move
    # strand S_j runs through edge(orbit[j]); who is over at each vertex?
    wins = [0, 0, 0]
    for j in range(3):
        if over[j]:
            wins[j] += 1          # S_j over at its first vertex vs[j]
        else:
            wins[j - 1] += 1      # the arriving strand S_{j-1} is over
    if 1 not in wins or 2 not in wins:
        return None  # cyclic over-relation admits no slide
    top = wins.index(2)
    marked = along.index(True) if count_along == 1 else along.index(False)
    family = 0 if count_along == 1 else 3
    # offset fixed so the positive braid-relation triangle comes out as IIIa
    return III_VARIANTS[family + (top - marked + 1) % 3]


# (is_tail of the three darts, over bit of each) -> variant letter or None:
# the rule read once for every one of the 64 cases
_TRIANGLE_VARIANT = {
    (*along, *over): _triangle_rule(along, over)
    for along in product((False, True), repeat=3)
    for over in product((False, True), repeat=3)
}


def _triangle_variant(diagram: OrientedDiagram, orbit) -> Optional[str]:
    """The variant letter of a braid-like triangle on the 3-face ``orbit``
    (three darts in face order), or None."""
    u0, u1, u2 = orbit
    n4 = 4 * diagram.n
    if u0 >= n4 or u1 >= n4 or u2 >= n4:
        return None
    v0, v1, v2 = u0 >> 2, u1 >> 2, u2 >> 2
    if v0 == v1 or v1 == v2 or v0 == v2:
        return None
    if v0 in diagram.fused or v1 in diagram.fused or v2 in diagram.fused:
        return None
    # the three darts lie on three edges: no face holds both darts of one
    # edge, which would be a bridge (``_census``)
    is_tail, over = diagram.is_tail, diagram.over_parity
    return _TRIANGLE_VARIANT[is_tail[u0], is_tail[u1], is_tail[u2],
                             u0 & 1 == over[v0], u1 & 1 == over[v1], u2 & 1 == over[v2]]


def _census(diagram: OrientedDiagram):
    """The braid-like sites of a diagram, computed once and kept on it.

    One pass over the global faces takes the inner 2-faces that pass the
    bigon check (the IIa_remove anchors, ascending) and the inner 3-faces
    that pass the triangle check (the III sites as (variant, orbit),
    ascending).  A face's darts run in orbit order from its least dart
    when no placement merges faces, so a 3-face is its orbit; with
    placements they are ascending and the orbit is walked.

    The bigon check asks for opposite signs and not for one strand over at
    both crossings, because on the two coherent strands of a bigon each
    implies the other.  Through the bigon the strands run side by side, so
    one passes from the other's left to its right at the first crossing and
    back at the second: the pair (first strand, second strand) turns one
    way at one crossing and the other way at the other.  A crossing's sign
    is that turn, negated when the second strand is over.  So the signs are
    opposite exactly when the same strand is over at both.  The argument
    needs the 2-face to be one orbit, its two edges running between its two
    crossings.  A global face of two darts may instead be two monogons of
    two components glued by a placement (the closure of ``B4 1 -3``), each
    edge a loop at its own crossing, and the check asks for the orbit.
    Neither check compares the edges of a face's darts: a 2- or 3-face
    holding both darts of one edge would have that edge on both of its
    sides, a bridge, and the even degrees below rule bridges out.

    Pair insertions are counted, not listed.  A pair is two darts of one
    global face and one component on two edges: a head dart, then a tail
    dart for IIa_insert (the two sides run coherently), two darts both
    heads or both tails, the lower first, for IIb_insert.  Such a class of
    darts is one face of the map: placements glue faces of distinct
    components along a spanning tree, so no global face holds two faces of
    one component, and every vertex has even degree, so no edge is a
    bridge with one face on both sides.  ``tails`` counts each face's tail
    darts, and the IIa_insert pairs number heads times tails summed over
    the faces.
    """
    memo = diagram._moves
    census = memo.get("census")
    if census is not None:
        return census
    n4 = 4 * diagram.n
    signs, fused = diagram.signs, diagram.fused
    is_tail = diagram.is_tail
    face_next, outer = diagram._face_next, diagram.outer_face
    walk = bool(diagram.placements)
    removals, slides = [], []
    for face, darts in diagram._global_faces.items():
        if len(darts) == 2:
            u0, u1 = darts
            v0, v1 = u0 >> 2, u1 >> 2
            # one orbit, not two monogons glued by a placement, on two
            # crossings of opposite signs, strands running coherently (so one
            # of them is over at both crossings)
            if (face != outer and u1 < n4 and v0 != v1 and signs[v0] != signs[v1]
                    and is_tail[u0] != is_tail[u1] and face_next[u0] == u1
                    and v0 not in fused and v1 not in fused):
                removals.append(darts)
        elif len(darts) == 3 and face != outer:
            if walk:
                u0 = darts[0]
                u1 = face_next[u0]
                darts = (u0, u1, face_next[u1])
            variant = _triangle_variant(diagram, darts)
            if variant is not None:
                slides.append((variant, darts))
    removals.sort()
    slides.sort()
    face_of, faces = diagram.face_of, diagram.faces
    tails = [0] * len(faces)
    for t, _, _ in diagram.edges:
        tails[face_of[t]] += 1
    coherent = sum(map(mul, tails, map(sub, map(len, faces), tails)))
    census = memo["census"] = (removals, slides, tails, coherent)
    return census


def find_sites(diagram: OrientedDiagram, kind: str) -> List[MoveSite]:
    """All sites matching the move's left-hand side, deterministically ordered.

    ``kind`` is one of IIa_remove, IIa_insert, IIb_insert, RI_insert, a
    specific III variant (IIIa..IIIf) or the umbrella kind ``III``.  Pair
    insertions are restricted to two strand sides of the same connected
    component (a band between split components would not have a canonical
    side to pass nested pieces on).  Removals and slides are never on the
    outer face: a bigon or triangle there is no disk in the plane.  This
    listing is the one ``apply_move`` checks a site against.
    """
    fp = _fingerprint(diagram)
    if kind == "IIa_remove":
        return [MoveSite(kind, darts, fp) for darts in _census(diagram)[0]]
    if kind in ("IIa_insert", "IIb_insert"):
        is_tail = diagram.is_tail
        classes: dict = {}  # (face, is_tail) -> its darts, ascending
        for d, k in enumerate(zip(diagram.face_of, is_tail)):
            classes.setdefault(k, []).append(d)
        if kind == "IIa_insert":
            pairs = ((a, b) for a, f in enumerate(diagram.face_of) if not is_tail[a]
                     for b in classes.get((f, True), ()))
        else:
            pairs = ((a, b) for a, k in enumerate(zip(diagram.face_of, is_tail))
                     for b in classes[k] if b > a)
        return [MoveSite(kind, (a, b, flag), fp) for a, b in pairs for flag in (False, True)]
    if kind == "RI_insert":
        return [
            MoveSite(kind, (e, side, over_first), fp)
            for e in range(len(diagram.edges))
            for side in (0, 1)
            for over_first in (False, True)
        ]
    if kind == "III" or kind in III_VARIANTS:
        return [
            MoveSite(variant, orbit, fp)
            for variant, orbit in _census(diagram)[1] if kind in ("III", variant)
        ]
    raise ValueError(f"unknown move kind {kind!r}")


# -- surgeries -----------------------------------------------------------


def _side_ref_of_dart(diagram: OrientedDiagram, dart: int) -> FaceRef:
    """(edge, side) naming the face to the right of the dart."""
    return (diagram.edge_of[dart], SIDE_R if diagram.is_tail[dart] else SIDE_L)


def _remap_dying_refs(diagram: OrientedDiagram, builder: DiagramBuilder, dying_edges: set) -> None:
    """Re-express outer/placement refs that point at edges about to die.

    A ref is renamed through a surviving edge of its own component's face
    (the global face would also offer edges of components placed in it, and
    a placement renamed that way glues a component to itself).  Only the
    site's own bigon or triangle loses all its edges, and no ref names it:
    removals and slides are no sites on the outer face, and a component
    placed in it would give its global face more than 2 or 3 darts.
    """
    outer, placements = builder.outer, builder.placements
    if not placements and (outer is None or outer[0] not in dying_edges):
        return

    def fix(ref: FaceRef) -> FaceRef:
        if ref[0] not in dying_edges:
            return ref
        for d in diagram.faces[diagram._ref_face(ref)]:
            if diagram.edge_of[d] not in dying_edges:
                return _side_ref_of_dart(diagram, d)
        raise AssertionError(f"face reference {ref} names the face of the move site")

    if outer is not None:
        builder.outer = fix(outer)
    builder.placements = [(fix(a), fix(b)) for a, b in placements]


def _apply_iia_remove(diagram: OrientedDiagram, b: DiagramBuilder, anchor) -> None:
    u0, u1 = anchor
    edge_of, is_tail, edges = diagram.edge_of, diagram.is_tail, b.edges
    e0, e1 = edge_of[u0], edge_of[u1]
    # d ^ 2 is the dart across d at its crossing (position p + 2 mod 4),
    # where the strand through d goes on
    x0, x1 = u0 ^ 2, u1 ^ 2
    corridor = _side_ref_of_dart(diagram, x0)
    # Each bigon edge carries one strand, in across its tail and out across
    # its head; the strands are coherent, so both tails share a crossing.
    strands = []  # (incoming edge, outgoing edge, seam of the bigon edge), port order
    bigon_edges = (diagram.edges[e0], diagram.edges[e1])
    for x, o, seam in sorted((t ^ 2, h ^ 2, seam) for t, h, seam in bigon_edges):
        if is_tail[x] or not is_tail[o]:
            raise AssertionError("strand orientation broken through bigon")
        strands.append((edge_of[x], edge_of[o], seam))
    _remap_dying_refs(diagram, b, {e0, e1})
    b.crossings[u0 >> 2] = b.crossings[u1 >> 2] = None
    edges[e0] = edges[e1] = None
    # Removing the bigon takes 2 vertices and 4 edges from its component, so
    # by Euler it takes 2 faces (the bigon, and one corridor face merged into
    # the other) unless both corridor ends lie on one face: then only the
    # bigon goes, the component splits in two, and the pieces get placed.
    if diagram.face_of[x0] == diagram.face_of[x1]:
        b.placements.append((corridor, _side_ref_of_dart(diagram, x1)))
    # Join each strand's two edges, the strand on the lower edge id first,
    # which fixes the ids of the joined edges.  A strand whose two edges are
    # one has closed into a loop: only it keeps an anchor, in port order.
    # No join renames the other strand's edges: an edge R from one strand's
    # exit at Y to the other's entry at X would close, with the first bigon
    # edge, a curve on adjacent darts at X and straight through Y; the second
    # strand leaves Y on its far side, every dart at X and Y is used, and
    # the component could not close.
    for e_in, e_out, seam in sorted(strands, key=lambda s: min(s[:2])):
        if e_in != e_out:
            tail, _, seam_in = edges[e_in]
            _, head, seam_out = edges[e_out]
            joined = b.add_edge(tail, head, seam_in + seam + seam_out)
            edges[e_in] = edges[e_out] = None
            b._remap_refs(e_in, joined)
            b._remap_refs(e_out, joined)
    for e, e_out, seam in strands:
        if e == e_out:  # a loop
            ai = b.add_anchor()
            edges[e] = (anchor_port(ai, 1), anchor_port(ai, 0), edges[e][2] + seam)


# Pair insertion ports, keyed by (is_tail[u], is_tail[v]) of the anchor's
# darts u, v: the sign of crossing 0 when u passes under (crossing 1 takes
# the other sign, and u_over negates both), then the (mid_tail, mid_head)
# ports splitting u's edge and v's edge, then the two band edges.  A port
# (c, p) is position p of crossing c.
_PAIR_PORTS = {
    # coherent: u runs "down" with the face on its left, v with it on the right
    (False, True): (1, ((1, 2), (0, 1)), ((1, 3), (0, 0)),
                    (((0, 3), (1, 0)), ((0, 2), (1, 1)))),
    # anti-parallel, both face sides left of flow: u down, v up
    (False, False): (-1, ((1, 2), (0, 1)), ((0, 0), (1, 3)),
                     (((0, 3), (1, 0)), ((1, 1), (0, 2)))),
    # anti-parallel, both sides right of flow: u up, v down
    (True, True): (1, ((1, 1), (0, 2)), ((0, 3), (1, 0)),
                   (((0, 0), (1, 3)), ((1, 2), (0, 1)))),
}


def _apply_pair_insert(diagram: OrientedDiagram, b: DiagramBuilder, anchor) -> None:
    u, v, u_over = anchor
    sign, split_u, split_v, band = _PAIR_PORTS[diagram.is_tail[u], diagram.is_tail[v]]
    if u_over:
        sign = -sign
    xs = (b.add_crossing(sign), b.add_crossing(-sign))

    def port(cp: Tuple[int, int]) -> int:
        return 4 * xs[cp[0]] + cp[1]

    for dart, (tail, head) in ((u, split_u), (v, split_v)):
        b.split_edge(diagram.edge_of[dart], mid_tail=port(tail), mid_head=port(head))
    for tail, head in band:
        b.add_edge(port(tail), port(head))


def _apply_iii(diagram: OrientedDiagram, b: DiagramBuilder, orbit) -> None:
    edge_of, is_tail, edges = diagram.edge_of, diagram.is_tail, b.edges
    vs = [u >> 2 for u in orbit]  # a triangle's darts are crossing darts
    es = [edge_of[u] for u in orbit]
    dirs = [is_tail[u] for u in orbit]
    seams = [diagram.edges[e][2] for e in es]
    # W_j keeps the sign of v_j, which on the rewired ends below puts the
    # same strand over
    w = [b.add_crossing(diagram.signs[v]) for v in vs]
    # outside edge ends move: sigma(u) of v_j -> slot 3 of W_{j-1}, the end
    # across u -> slot 2 of W_{j+1}
    for j, u in enumerate(orbit):
        for dart, target in (
            (diagram.sigma(u), 4 * w[j - 1] + 3),
            (u ^ 2, 4 * w[(j + 1) % 3] + 2),
        ):
            e = edge_of[dart]
            t, h, seam = edges[e]
            edges[e] = (target, h, seam) if is_tail[dart] else (t, target, seam)
    for j in range(3):
        if dirs[j]:
            b.add_edge(4 * w[(j + 1) % 3], 4 * w[j] + 1, seams[j])
        else:
            b.add_edge(4 * w[j] + 1, 4 * w[(j + 1) % 3], seams[j])
    _remap_dying_refs(diagram, b, set(es))
    for v in vs:
        b.crossings[v] = None
    for e in es:
        edges[e] = None


def _apply_ri_insert(diagram: OrientedDiagram, b: DiagramBuilder, anchor) -> None:
    # side 0 puts the loop on the left of the flow, side 1 on the right
    e, side, over_first = anchor
    twist = side ^ over_first
    z = b.add_crossing(1 - 2 * twist)
    b.split_edge(e, mid_tail=4 * z + 2 + side, mid_head=4 * z + 1 - side)
    b.add_edge(4 * z + 3 - side, 4 * z + side)


# kind -> surgery
_MOVES = {
    "IIa_remove": _apply_iia_remove,
    "IIa_insert": _apply_pair_insert,
    "IIb_insert": _apply_pair_insert,
    "RI_insert": _apply_ri_insert,
    **{kind: _apply_iii for kind in ("III",) + III_VARIANTS},
}


def _rewrite(diagram: OrientedDiagram, kind: str, anchor) -> OrientedDiagram:
    """The diagram moved at a site of ``kind`` at ``anchor``, unchecked.

    The one path from a site to a moved diagram: the parent's builder, the
    one-component mark, the kind's surgery, then ``build``.  The caller
    vouches for the site: ``apply_move`` after its checks, a walk because
    it drew the site from the diagram's own census.
    """
    b = diagram.to_builder()
    b.from_braid = False
    if diagram.ncomponents == 1:
        b._one_component = diagram.nanchors
    _MOVES[kind](diagram, b, anchor)
    return b.build()


def apply_move(diagram: OrientedDiagram, site: MoveSite) -> OrientedDiagram:
    """Apply a site that ``find_sites`` lists on the diagram.

    A stale site raises ``SiteInvalidError`` first.  Then the anchor, a
    tuple or a list, must equal an anchor of ``find_sites(diagram, kind)``
    in value and in the type of every field: a rotated triangle orbit, a
    reversed pair, an int flag, a bool or float dart and a malformed anchor
    raise ``SiteInvalidError``.  A variant kind (``IIIb``, say) applies
    only to a triangle of that variant, the umbrella kind ``III`` to any;
    an unknown kind raises ``ValueError``.  Each kind's listing is kept on
    the diagram, and the caller's anchor is compared with it by ``==``,
    never hashed.
    """
    if site.fingerprint != _fingerprint(diagram):
        raise SiteInvalidError("site was found on a different diagram")
    kind, anchor = site.kind, site.anchor
    listings = diagram._moves.setdefault("listings", {})  # kind -> [(anchor, types)]
    if kind not in listings:
        listings[kind] = [(a, tuple(map(type, a))) for _, a, _ in find_sites(diagram, kind)]
    if not (isinstance(anchor, (tuple, list))
            and (tuple(anchor), tuple(map(type, anchor))) in listings[kind]):
        raise SiteInvalidError(f"no {kind} pattern at {anchor!r}")
    return _rewrite(diagram, kind, anchor)


def site_to_json(site: MoveSite) -> dict:
    return {"kind": site.kind, "anchor": list(site.anchor)}


def apply_move_script(diagram: OrientedDiagram, script) -> OrientedDiagram:
    """Replay a move script: a JSON list of {"kind", "anchor"} records.

    Every record must name a site that ``find_sites`` lists on the diagram
    it is applied to, with the anchor as ``site_to_json`` writes it, so
    scripts either replay exactly or fail with SiteInvalidError.
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
    Each drawn (kind, anchor) goes straight to ``_rewrite``, without
    ``apply_move``'s checks: ``_braid_like_sites`` draws it from the
    census of the diagram it is applied to, which makes every check hold.
    """
    if n_moves < 0:
        raise GenerationError("move count must be nonnegative")
    start = braid_closure(base)
    rng = random.Random(seed)
    current = start
    for _ in range(n_moves):
        total, nth = _braid_like_sites(current, current.n + 2 <= max_crossings)
        if not total:
            raise GenerationError("no applicable braid-like move")
        current = _rewrite(current, *nth(rng.randrange(total)))
    return start, current


def _braid_like_sites(diagram: OrientedDiagram, insertions: bool):
    """The number of braid-like sites and a function giving the r-th as
    (kind, anchor).

    The sites are those of ``find_sites`` for IIa_remove, III and, with
    ``insertions``, IIa_insert, one kind after another, from the census.
    Only the drawn site is made: a drawn pair is found by walking the head
    darts in order, each with as many pairs as its face has tails.

    A drawn site passes each check of ``apply_move`` by construction, so
    the walk makes none of them.  It is not stale: it comes from the
    census kept on ``diagram``, the object it is applied to, which no one
    edits.  ``find_sites`` lists it, from the same census and at the same
    index (``test_counted_sites_are_the_listed_sites`` checks every index),
    with the same field types: census darts are ints, and the flag is a
    bool.
    """
    removals, slides, tails, coherent = _census(diagram)

    def nth(r: int) -> Tuple[str, tuple]:
        if r < len(removals):
            return "IIa_remove", removals[r]
        r -= len(removals)
        if r < len(slides):
            return slides[r]
        r -= len(slides)
        flag, r = bool(r & 1), r >> 1
        is_tail = diagram.is_tail
        for a, f in enumerate(diagram.face_of):
            if not is_tail[a]:
                if r < tails[f]:
                    b = sorted(b for b in diagram.faces[f] if is_tail[b])[r]
                    return "IIa_insert", (a, b, flag)
                r -= tails[f]
        raise IndexError("site index out of range")

    return len(removals) + len(slides) + 2 * coherent * insertions, nth


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
