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

A site is defined once, by ``_face_site`` on one face, which the census
of a diagram (``_census``, kept on it) and of a map read; pair insertions
are counted per face by its tail darts.  ``find_sites`` lists the sites
once per diagram and kind, and ``apply_move`` accepts a site only with
the fingerprint of the diagram and an anchor equal, field by field in
value and type, to one listed: so one move has one name.

Every surgery rewires a ``_Map``, a builder of the diagram that keeps its
dart tables, faces (keyed by their least darts) and census.
``_Map.apply`` runs the surgery, re-wires the edges it wrote or added,
and re-traces and re-counts only the faces of their darts.  Removals
leave ``None`` holes, insertions append, and ``DiagramBuilder.build``
closes the holes by a monotone renumbering, so a map orders darts, faces
and sites as its build does, and a walk on one map draws and ends as one
that builds every step.  A step raises ``DiagramError`` unless each dart
it wrote was free, each dart of a live crossing ends one edge, each new
crossing's darts and sign make a crossing, and V - E + F = 2.  ``build``,
the one constructor, checks the whole diagram where a walk ends and where
it compacts, going on from a fresh map of the build: once the tables,
sized for ``_MAP_STEPS`` steps, have no room for another, and after any
step on a map with anchors or placements (an anchor's darts would come
before a new crossing's, and a placement merges faces).  A map hands
``build`` one fact: its diagram has one component, so Euler's formula is
one count.  Face references are carried across a surgery by naming faces
through surviving edges.  ``apply_move`` steps a map made for no further
steps, which keeps no tables: its surgery reads the diagram.  A walk
applies each draw from its map's census to that map, so each check of
``apply_move`` holds by construction (``_braid_like_sites``), and no
``MoveSite`` or fingerprint is made on a walk.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import chain, product
from operator import mul, sub
from typing import List, NamedTuple, Optional, Tuple

from .diagram import (
    _PARITY_OF_PATTERN,
    _rotation_table,
    BraidWord,
    DiagramBuilder,
    DiagramError,
    FaceRef,
    NonPlanarError,
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


def _face_site(g, u0: int, size: int, n4: int) -> Optional[Tuple[str, tuple]]:
    """The (kind, anchor) of the removal or slide on the face of ``size``
    darts, the least ``u0``, of ``g`` (a diagram or a ``_Map``, anchor darts
    from ``n4`` on), or None, but for the outer face.  The orbit of ``u0``
    is walked: a global face may be two orbits glued by a placement."""
    face_next, fused = g._face_next, g.fused
    u1 = face_next[u0]
    u2 = face_next[u1]
    v0, v1, v2 = u0 >> 2, u1 >> 2, u2 >> 2
    if size == 2:
        # one orbit on two crossings of opposite signs, strands running
        # coherently (so one of them is over at both crossings)
        if (u1 < n4 and v0 != v1 and g.signs[v0] != g.signs[v1]
                and g.is_tail[u0] != g.is_tail[u1] and v0 not in fused and v1 not in fused):
            return "IIa_remove", (u0, u1)
        return None
    if (u1 >= n4 or u2 >= n4 or v0 == v1 or v1 == v2 or v0 == v2
            or v0 in fused or v1 in fused or v2 in fused):
        return None
    # the three darts lie on three edges: no face holds both darts of one
    # edge, which would be a bridge (``_census``); a crossing's over parity
    # is read from its darts and sign, as ``OrientedDiagram`` derives it
    is_tail, signs = g.is_tail, g.signs
    over = [u & 1 == _PARITY_OF_PATTERN[(*is_tail[u & ~3:(u | 3) + 1], signs[u >> 2])]
            for u in (u0, u1, u2)]
    variant = _TRIANGLE_VARIANT[is_tail[u0], is_tail[u1], is_tail[u2], *over]
    return None if variant is None else (variant, (u0, u1, u2))


def _census(diagram: OrientedDiagram):
    """The braid-like sites of a diagram, computed once and kept on it.

    One pass over the global faces but the outer one takes the IIa_remove
    and III sites of ``_face_site``, each as (kind, anchor), ascending.

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
    n4, outer = 4 * diagram.n, diagram.outer_face
    removals, slides = [], []
    for face, darts in diagram._global_faces.items():
        if face != outer and len(darts) < 4 and (site := _face_site(diagram, darts[0],
                                                                      len(darts), n4)):
            (removals if len(darts) == 2 else slides).append(site)
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
    listing, kept on the diagram, is the one ``apply_move`` checks against.
    """
    listings = diagram._moves.setdefault("listings", {})
    if kind not in listings:
        listings[kind] = _list_sites(diagram, kind)
    return list(listings[kind])


def _list_sites(diagram: OrientedDiagram, kind: str) -> List[MoveSite]:
    """The listing of ``find_sites``, made afresh."""
    fp = _fingerprint(diagram)
    if kind == "IIa_remove":
        return [MoveSite(kind, darts, fp) for _, darts in _census(diagram)[0]]
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


_MAP_STEPS = 25  # a walk's map has room for the crossings of this many steps


class _Records(list):
    """A map's edge records or signs, which keep in ``old`` the value each
    index held before its first write since ``old`` was emptied."""

    __slots__ = ("old",)

    def __setitem__(self, i: int, value) -> None:
        self.old.setdefault(i, self[i])
        list.__setitem__(self, i, value)


class _Map(DiagramBuilder):
    """The builder of ``diagram`` that keeps its read interface (``edges``,
    ``signs``, ``edge_of``, ``is_tail``, ``faces``, ``face_of``,
    ``_ref_face``, ``sigma``) and its census up to date, surgery after
    surgery: the module docstring says how."""

    def __init__(self, diagram: OrientedDiagram, steps: int):
        vars(self).update(vars(diagram.to_builder()))
        self.edges = _Records(self.edges)
        self.crossings = self.signs = _Records(self.crossings)
        self.from_braid = False
        if diagram.ncomponents == 1:
            self._one_component = diagram.nanchors
        # a map for no further steps keeps no tables: its surgery reads the
        # diagram, and it is stale from the start
        self.source = None if steps else diagram
        self.stale = not steps
        if not steps:
            return
        # live crossings and edges, and the first anchor dart
        self.n, self.nedges, self.n4 = diagram.n, len(diagram.edges), 4 * diagram.n
        # room for the crossings of ``steps`` steps; a spare dart reads as
        # removed until its crossing is added
        room = 12 * steps
        self.alpha = list(diagram.alpha) + [-2] * room
        self.is_tail = list(diagram.is_tail) + [None] * room
        self.edge_of = list(diagram.edge_of) + [-1] * room
        self._face_next = list(diagram._face_next) + [-1] * room
        self._rot = _rotation_table(len(self.alpha) >> 2, 0)  # sigma of a crossing dart
        faces = diagram.faces  # keyed by their least darts, as the census
        self.faces = {orbit[0]: orbit for orbit in faces}
        self.face_of = [faces[f][0] for f in diagram.face_of] + [-1] * room
        removals, slides, tails, self.coherent = _census(diagram)
        self.sites = {site[1][0]: site for site in removals + slides}
        self.tails = {orbit[0]: t for orbit, t in zip(faces, tails)}

    def sigma(self, d: int) -> int:
        """Next dart counterclockwise around the vertex of ``d``."""
        return (d & ~3) | ((d + 1) & 3) if d < self.n4 else d ^ 1

    def _ref_face(self, ref: FaceRef) -> int:
        t, h, _ = self.edges[ref[0]]
        p = t if ref[1] == SIDE_R else h
        return self.face_of[p if p >= 0 else self.n4 + ~p]

    def compacted(self) -> "_Map":
        """This map, or a fresh one from its build when it is stale or has
        no room for the three crossings a step may add."""
        if self.stale or 4 * (len(self.crossings) + 3) > len(self.alpha):
            return _Map(self.build(), _MAP_STEPS)
        return self

    def apply(self, kind: str, anchor) -> None:
        """Run the kind's surgery at ``anchor`` (the caller vouches for the
        site), then re-read and check what it touched.  In ``alpha`` a free
        dart is -1 and a removed one -2, with no ``is_tail``; a freed dart
        keeps its ``is_tail``, as a surgery never turns an edge end."""
        edges, signs = self.edges, self.crossings
        edges.old, signs.old = {}, {}
        ne, nc = len(edges), len(signs)
        _MOVES[kind](self if self.source is None else self.source, self, anchor)
        if self.stale or self.nanchors or self.placements:
            self.stale = True
            return
        alpha, edge_of, is_tail, rot = self.alpha, self.edge_of, self.is_tail, self._rot
        face_next, face_of, tails = self._face_next, self.face_of, self.tails
        faces, sites, coherent = self.faces, self.sites, self.coherent
        nv, old, freed, written = len(signs), edges.old, [], []
        alpha[4 * nc:4 * nv] = [-1] * (4 * (nv - nc))
        for e, rec in old.items():
            if rec is not None and e < ne:
                t, h, _ = rec
                alpha[t] = alpha[h] = -1
                freed += t, h
        for key in set(map(face_of.__getitem__, freed)):  # the faces that lost a dart
            t = tails[key]
            coherent -= t * (len(faces.pop(key)) - t)
            sites.pop(key, None)
        try:
            # an added edge written again is read once, as added; a written
            # dart is on no face until it is traced
            for e in chain(filter(ne.__gt__, old), range(ne, len(edges))):
                if edges[e] is not None:
                    t, h, _ = edges[e]
                    if ((t | h) < 0 or t == h or alpha[t] != -1 or alpha[h] != -1
                            or is_tail[t] is False or is_tail[h] is True):
                        raise IndexError
                    alpha[t], alpha[h] = h, t
                    edge_of[t] = edge_of[h] = e
                    is_tail[t], is_tail[h] = True, False
                    face_next[t], face_next[h] = rot[h], rot[t]
                    face_of[t] = face_of[h] = -1
                    written += t, h
        except IndexError:
            raise DiagramError(f"edge {e} {edges[e]} ends at a dart that is no free "
                               "crossing dart, or turns it") from None
        # a removed crossing ends no edge; then the darts written, each free
        # and so once, are all free darts of live crossings, or one ends none
        signed, removed = [], 0
        for v in chain(filter(nc.__gt__, signs.old), range(nc, nv)):
            b = 4 * v
            if signs[v] is not None:
                signed.append(v)
                continue
            if alpha[b:b + 4] != [-1, -1, -1, -1]:
                raise DiagramError(f"removed crossing {v} still ends an edge")
            alpha[b:b + 4], is_tail[b:b + 4] = (-2, -2, -2, -2), (None, None, None, None)
            removed += 1
        if len(written) != len(freed) + 4 * (nv - nc - removed):
            d = next(d for d in chain(freed, range(4 * nc, 4 * nv)) if alpha[d] == -1)
            raise DiagramError(f"dart {d} ends no edge")
        for v in signed:
            if (*is_tail[4 * v:4 * v + 4], signs[v]) not in _PARITY_OF_PATTERN:
                raise DiagramError(f"crossing {v}: darts and sign make no crossing")
        n4 = self.n4 = len(alpha)
        for d0 in written:
            if face_of[d0] != -1:
                continue
            orbit, t = [d0], is_tail[d0]
            d = face_next[d0]
            while d != d0:
                orbit.append(d)
                t += is_tail[d]
                d = face_next[d]
            key = min(orbit)
            if key != d0:
                i = orbit.index(key)
                orbit = orbit[i:] + orbit[:i]
            faces[key], tails[key] = orbit, t
            for d in orbit:
                face_of[d] = key
            coherent += t * (len(orbit) - t)
            if len(orbit) < 4 and (site := _face_site(self, key, len(orbit), n4)):
                sites[key] = site
        if self.outer is not None:  # no removal or slide on the outer face
            sites.pop(self._ref_face(self.outer), None)
        n = self.n + nv - nc - removed
        nedges = self.nedges + ((len(written) - len(freed)) >> 1)
        if n - nedges + len(faces) != 2:
            raise NonPlanarError(f"V-E+F = {n - nedges + len(faces)} != 2")
        self.n, self.nedges, self.coherent = n, nedges, coherent


def _rewrite(diagram: OrientedDiagram, kind: str, anchor) -> OrientedDiagram:
    """The diagram moved at a site of ``kind`` at ``anchor``, unchecked:
    the step of a map of the diagram made for no further steps, then its
    build."""
    m = _Map(diagram, 0)
    m.apply(kind, anchor)
    return m.build()


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
    typed = diagram._moves.setdefault("anchors", {})  # kind -> [(anchor, types)]
    if kind not in typed:
        typed[kind] = [(a, tuple(map(type, a))) for _, a, _ in find_sites(diagram, kind)]
    if not (isinstance(anchor, (tuple, list))
            and (tuple(anchor), tuple(map(type, anchor))) in typed[kind]):
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
    One map of the closure takes every drawn (kind, anchor), unchecked.
    """
    if n_moves < 0:
        raise GenerationError("move count must be nonnegative")
    start = braid_closure(base)
    rng = random.Random(seed)
    m = _Map(start, _MAP_STEPS)
    for _ in range(n_moves):
        m = m.compacted()
        total, nth = _braid_like_sites(m, m.n + 2 <= max_crossings)
        if not total:
            raise GenerationError("no applicable braid-like move")
        m.apply(*nth(rng.randrange(total)))
    return start, m.build()


def _braid_like_sites(m: _Map, insertions: bool):
    """The number of braid-like sites of a map and a function giving the
    r-th as (kind, anchor).

    The sites are those of ``find_sites`` for IIa_remove, III and, with
    ``insertions``, IIa_insert, one kind after another: a map orders them
    as its build does, so the r-th is the r-th listed there
    (``test_counted_sites_are_the_listed_sites``), with the same field
    types.  Only the drawn site is made, a pair by walking the head darts,
    each with as many pairs as its face has tails.  It comes from the
    census of the map it is applied to, so it passes each check of
    ``apply_move`` by construction.
    """
    sites = m.sites

    def nth(r: int) -> Tuple[str, tuple]:
        if r < len(sites):
            ordered = sorted(sites.values())
            k = bisect_left(ordered, ("IIa_remove",))  # "III..." sorts before "IIa_remove"
            return ordered[(k + r) % len(ordered)]
        r -= len(sites)
        flag, r = bool(r & 1), r >> 1
        is_tail, tails, face_of = m.is_tail, m.tails, m.face_of
        a = -1
        while True:
            a = is_tail.index(False, a + 1)  # the next head dart
            t = tails[face_of[a]]
            if r < t:
                b = sorted(b for b in m.faces[face_of[a]] if is_tail[b])[r]
                return "IIa_insert", (a, b, flag)
            r -= t

    return len(sites) + 2 * m.coherent * insertions, nth


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
