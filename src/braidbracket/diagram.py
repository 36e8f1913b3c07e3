"""Oriented link diagrams as planar combinatorial maps.

A diagram is stored as a dart structure.  Crossing ``c`` owns the four darts
``4c .. 4c+3``; the dart position (0..3) is its index in the counterclockwise
rotation around the crossing.  Two-valent "anchor" vertices carry circles
that pass through no crossing (and survive as splice points after moves);
anchor ``a`` owns darts ``4n + 2a`` and ``4n + 2a + 1``.

Each edge is a directed arc of the link: a (tail dart, head dart) pair plus
a seam multiplicity.  For braid closures the seam marks the edges that cross
the cut of the annulus, which is what winding numbers count.

Faces are the orbits of ``sigma o alpha``; the orbit of a dart is the face
to the *right* of that dart read as an outgoing directed edge end.  A
diagram may be disconnected (split components, free loops); the relative
placement of components in the plane is recorded as a list of face merges,
each face named by an (edge, side) reference that surgeries can track.

The over strand at a crossing occupies two opposite rotation positions;
``over_parity`` is 0 when the over line sits at positions {0, 2} and 1 for
{1, 3}.  Given the edge orientations, a crossing's sign fixes its over
strand, so the sign is the one crossing record a diagram is made from, and
the constructor derives ``over_parity`` from it.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Dict, Iterator, List, Optional, Tuple

SIDE_R = 0  # face to the right of the edge flow: orbit of the tail dart
SIDE_L = 1  # face to the left: orbit of the head dart

FaceRef = Tuple[int, int]  # (edge id, side)


class DiagramError(Exception):
    """Base class for diagram construction and validation failures."""


class MalformedWordError(DiagramError):
    pass


class NonPlanarError(DiagramError):
    pass


class OrientationError(DiagramError):
    pass


class FormatError(DiagramError):
    pass


@dataclass(frozen=True)
class BraidWord:
    """A braid word: ``strands`` >= 0 and letters g with 0 < |g| < strands."""

    strands: int
    letters: Tuple[int, ...]

    def __post_init__(self):
        if self.strands < 0:
            raise MalformedWordError("strand count must be nonnegative")
        for g in self.letters:
            if g == 0 or abs(g) >= self.strands:
                raise MalformedWordError(
                    f"letter {g} invalid for {self.strands} strands"
                )

    @property
    def writhe(self) -> int:
        return sum(1 if g > 0 else -1 for g in self.letters)

    def reduced(self) -> "BraidWord":
        """The freely and cyclically reduced word.  Each adjacent pair
        g, -g cancels, nested pairs such as ``1 2 -2 -1`` too; then each
        pair g ... -g at the two ends goes, which conjugates by g."""
        stack: List[int] = []
        for g in self.letters:
            if stack and stack[-1] == -g:
                stack.pop()
            else:
                stack.append(g)
        lo, hi = 0, len(stack)
        while hi - lo > 1 and stack[lo] == -stack[hi - 1]:
            lo, hi = lo + 1, hi - 1
        return BraidWord(self.strands, tuple(stack[lo:hi]))

    def rewrites(self) -> Iterator["BraidWord"]:
        """The words one braid-like rewrite away from this one, as a cyclic
        word.  For each start s in turn, the word is rotated to begin at
        letter s and its first letters are rewritten: sigma_i^e sigma_j^f
        becomes sigma_j^f sigma_i^e when |i - j| >= 2 (far commutation),
        and sigma_i^e sigma_j^f sigma_i^g becomes sigma_j^g sigma_i^f
        sigma_j^e when |i - j| = 1 (a braid relation), unless e = g = -f,
        where the two sides are different braids."""
        letters = self.letters
        if len(letters) < 2:
            return
        for s in range(len(letters)):
            e, f, *rest = letters[s:] + letters[:s]
            i, j = abs(e), abs(f)
            if abs(i - j) >= 2:
                yield BraidWord(self.strands, (f, e, *rest))
            elif i != j and rest and abs(rest[0]) == i:
                g, *rest = rest
                if not (e == g and e * f < 0):
                    yield BraidWord(self.strands, (g // i * j, f // j * i, e // i * j, *rest))


def _uf_find(parent: List[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _uf_union(parent: List[int], a: int, b: int) -> None:
    ra, rb = _uf_find(parent, a), _uf_find(parent, b)
    if ra != rb:
        parent[rb] = ra


@lru_cache(maxsize=64)
def _vertex_table(n: int, nanchors: int) -> Tuple[int, ...]:
    """dart -> vertex, as ``vertex_of`` computes it; shared, never written."""
    return tuple(d >> 2 for d in range(4 * n)) + tuple(n + (a >> 1) for a in range(2 * nanchors))


@lru_cache(maxsize=64)
def _rotation_table(n: int, nanchors: int) -> Tuple[int, ...]:
    """dart -> the next dart counterclockwise around its vertex, as ``sigma``."""
    n4 = 4 * n
    return tuple((d & ~3) | ((d + 1) & 3) for d in range(n4)) + tuple(
        d ^ 1 for d in range(n4, n4 + 2 * nanchors))


def _crossing_sign(tails, q: int) -> int:
    """The sign of a crossing whose strand lines run through, from ``tails``
    (``is_tail`` of its four darts) and its over parity ``q``: +1 when the
    under strand leaves just counterclockwise of the over strand."""
    over_out = q if tails[q] else q + 2
    under_out = q + 1 if tails[(q + 1) & 3] else q + 3
    return 1 if (under_out - over_out) % 4 == 1 else -1


# (is_tail of a crossing's four darts, sign) -> the crossing's over parity,
# for every valid pattern: both strand lines run through and the sign is +-1
_PARITY_OF_PATTERN = {
    (*tails, _crossing_sign(tails, q)): q
    for tails in product((False, True), repeat=4)
    if tails[0] != tails[2] and tails[1] != tails[3]
    for q in (0, 1)
}


def anchor_port(a: int, p: int) -> int:
    """Builder port of position ``p`` (0 or 1) of anchor ``a``."""
    return ~(2 * a + p)


class DiagramBuilder:
    """Mutable construction/surgery buffer; ``build()`` freezes and validates.

    A port is an ``int`` in dart numbering: ``4*c + p`` is position ``p`` of
    crossing ``c`` and ``anchor_port(a, p)`` position ``p`` of anchor ``a``.
    A removed crossing or edge is set to ``None``; ``build`` closes the
    gaps, keeping the relative order, and anchors keep their numbers.  A
    port or fused mark on no crossing, an anchor port of no anchor, and a
    port of a removed crossing are a ``DiagramError``.

    An edge record is a ``(tail port, head port, seam)`` tuple.  Records
    are replaced, never edited, so ``to_builder`` and ``build`` share them
    with the diagram: a builder with no anchor and no removed crossing
    hands its records to the diagram as they are.
    """

    def __init__(self):
        self.crossings: List[Optional[int]] = []    # signs
        self.nanchors = 0
        self.edges: List[Optional[Tuple[int, int, int]]] = []  # (tail port, head port, seam)
        self.fused: Dict[int, int] = {}             # crossing -> frozen smoothing bit
        self.anchor_bp: Dict[int, int] = {}         # anchor -> decorative break points
        self.placements: List[Tuple[FaceRef, FaceRef]] = []
        self.outer: Optional[FaceRef] = None
        self.from_braid = False
        # set only by a moves._Map: the anchor count of its diagram, which
        # has one component; build then counts instead of searching components
        self._one_component: Optional[int] = None

    def add_crossing(self, sign: int) -> int:
        self.crossings.append(sign)
        return len(self.crossings) - 1

    def add_anchor(self) -> int:
        self.nanchors += 1
        return self.nanchors - 1

    def add_edge(self, tail: int, head: int, seam: int = 0) -> int:
        self.edges.append((tail, head, seam))
        return len(self.edges) - 1

    def split_edge(self, eid: int, mid_tail: int, mid_head: int) -> Tuple[int, int]:
        """Replace edge ``eid`` by two halves through a new vertex.

        ``mid_head`` receives the incoming half, ``mid_tail`` emits the
        outgoing half.  Face references to ``eid`` are remapped to the first
        half (either half bounds the same two faces).
        """
        tail, head, seam = self.edges[eid]
        e1 = self.add_edge(tail, mid_head, seam)
        e2 = self.add_edge(mid_tail, head, 0)
        self.edges[eid] = None
        self._remap_refs(eid, e1)
        return e1, e2

    def _remap_refs(self, old_eid: int, new_eid: int) -> None:
        if self.outer is not None and self.outer[0] == old_eid:
            self.outer = (new_eid, self.outer[1])
        if self.placements:
            self.placements = [
                (
                    (new_eid, a[1]) if a[0] == old_eid else a,
                    (new_eid, b[1]) if b[0] == old_eid else b,
                )
                for (a, b) in self.placements
            ]

    def build(self) -> "OrientedDiagram":
        crossings, bedges = self.crossings, self.edges
        for c in self.fused:
            if not 0 <= c < len(crossings):
                raise DiagramError(f"fused mark on {c}, not a crossing")
        if None in crossings:
            removed = [c for c, rec in enumerate(crossings) if rec is None]
            kept = [rec for rec in crossings if rec is not None]
        else:
            removed, kept = [], crossings
        n4 = 4 * len(kept)
        fused = self.fused
        renumber = bool(removed or self.nanchors)
        if renumber:
            # port[p]: the dart of crossing port p once the gaps are closed, and
            # -1, a dart no diagram accepts, at a removed crossing; anchor port
            # ~i is dart n4 + i
            port: List[int] = []
            for k, c in enumerate(removed):
                port += range(len(port) - 4 * k, 4 * (c - k))
                port += (-1, -1, -1, -1)
            port += range(len(port) - 4 * len(removed), n4)
            fused = {port[4 * c] >> 2: bit for c, bit in fused.items() if port[4 * c] >= 0}

        holes = [i for i, rec in enumerate(bedges) if rec is None]  # removed edges

        def ref(r: FaceRef) -> FaceRef:
            e = r[0]
            if not 0 <= e < len(bedges):
                raise DiagramError(f"face reference to edge {e}, not an edge")
            if bedges[e] is None:
                raise DiagramError(f"face reference to removed edge {e}")
            return (e - bisect_left(holes, e), r[1])

        try:
            if renumber:
                edges = [
                    (port[t] if t >= 0 else n4 + ~t, port[h] if h >= 0 else n4 + ~h, seam)
                    for t, h, seam in filter(None, bedges)
                ]
            else:
                # every port is its own dart: the records go over as they are,
                # and a stray port is named below when the diagram rejects it
                edges = list(filter(None, bedges))
            return OrientedDiagram(
                # from a list: a tuple grown from an iterator of unknown length
                # is resized, and the blocks it leaves pile up in the tuple free lists
                signs=tuple(kept),
                nanchors=self.nanchors,
                edges=tuple(edges),
                placements=tuple((ref(a), ref(b)) for a, b in self.placements),
                outer_ref=ref(self.outer) if self.outer is not None else None,
                from_braid=self.from_braid,
                fused=fused,
                anchor_bp=self.anchor_bp,
                _one_component=self._one_component == self.nanchors and not self.placements,
            )
        except (IndexError, DiagramError):
            # a port on no crossing or no anchor, or on a removed crossing, is
            # what to name
            for i, rec in enumerate(bedges):
                if rec is None:
                    continue
                for p in rec[:2]:
                    if p < 0:
                        if ~p >= 2 * self.nanchors:
                            raise DiagramError(
                                f"edge {i} names anchor port {p}, not an anchor port")
                    elif p >= 4 * len(crossings):
                        raise DiagramError(f"edge {i} names port {p}, not a crossing port")
                    elif crossings[p >> 2] is None:
                        raise DiagramError(f"edge {i} references a removed crossing")
            raise


class OrientedDiagram:
    """Immutable oriented diagram with planar embedding data.

    Construction validates the combinatorial map: every dart ends exactly
    one edge, every crossing has its strand lines oriented through and a
    sign of +1 or -1, Euler's formula holds on every connected component,
    and placements form a spanning tree over the components.  The checks
    run in bulk: the dart tables are filled unchecked and accepted when
    ``2*E`` writes fill all darts with no negative dart left in ``alpha``,
    each crossing's over parity is read off one table of (in/out pattern,
    sign), which holds exactly the valid crossings, and Euler's formula is
    one count, ``V - E + F == 2 * ncomponents``, which every component
    meets only when each does.  Only a failed check walks the darts,
    crossings or components, to name the first fault.

    A crossing is given by its sign alone: with the orientations, the sign
    fixes which strand is over, and ``over_parity`` is derived from it.

    ``DiagramBuilder.build`` is the one caller.  For a ``moves._Map`` made
    from a diagram of one component, and that gained no anchor or
    placement, it passes ``_one_component``: then the component search is
    skipped while the count gives ``V - E + F == 2``.

    ``braid_word`` is the word a diagram was made from by ``braid_closure``
    and ``None`` otherwise.  ``to_builder`` does not carry it over, so a
    diagram rebuilt from a closure (decorated, reversed, moved) has none.
    """

    def __init__(
        self,
        signs: Tuple[int, ...],
        nanchors: int,
        edges: Tuple[Tuple[int, int, int], ...],
        placements: Tuple[Tuple[FaceRef, FaceRef], ...] = (),
        outer_ref: Optional[FaceRef] = None,
        from_braid: bool = False,
        fused: Optional[Dict[int, int]] = None,
        anchor_bp: Optional[Dict[int, int]] = None,
        *,
        _one_component: bool = False,
    ):
        self.signs = signs
        self.n = len(signs)
        self.nanchors = nanchors
        self.edges = edges
        self.placements = placements
        self.outer_ref = outer_ref
        self.from_braid = from_braid
        self.braid_word: Optional[BraidWord] = None
        self.fused = dict(fused or {})
        self.anchor_bp = dict(anchor_bp or {})
        self.ndarts = 4 * self.n + 2 * nanchors
        self._moves: dict = {}  # kept by moves: fingerprint, census, listings
        self._index(_one_component)
        self._validate()

    # -- structure tables ------------------------------------------------

    def _index(self, one_component: bool) -> None:
        nd = self.ndarts
        n = self.n
        edges = self.edges
        alpha = [-1] * nd
        edge_of = [-1] * nd
        is_tail = [False] * nd
        # 2*E writes fill all nd slots only when no two darts share one; a
        # negative dart names a slot from the end but leaves itself in alpha
        try:
            for ei, (t, h, _) in enumerate(edges):
                alpha[t], alpha[h] = h, t
                edge_of[t] = edge_of[h] = ei
                is_tail[t] = True
            filled = 2 * len(edges) == nd and (not nd or min(alpha) >= 0)
        except IndexError:
            filled = False
        if not filled:
            self._name_dart_fault()
        self.alpha = alpha
        self.edge_of = edge_of
        self.is_tail = is_tail
        self._dart_vertex = dart_vertex = _vertex_table(n, self.nanchors)

        self._trace_faces()

        nv = n + self.nanchors
        if one_component and nv - len(edges) + len(self.faces) == 2:
            self.comp_of_vertex, self.ncomponents = [0] * nv, 1
        else:
            # connected components over vertices, labelled in order of root
            parent = list(range(nv))
            for (t, h, _) in edges:
                _uf_union(parent, dart_vertex[t], dart_vertex[h])
            comp_of = [_uf_find(parent, v) for v in range(nv)]
            labels = {r: i for i, r in enumerate(sorted(set(comp_of)))}
            self.comp_of_vertex = [labels[r] for r in comp_of]
            self.ncomponents = len(labels)

        self._place_faces()

    def _name_dart_fault(self) -> None:
        """Raise for the first dart that does not end exactly one edge."""
        nd = self.ndarts
        used = [False] * nd
        for t, h, _ in self.edges:
            for d in (t, h):
                if not 0 <= d < nd:
                    raise FormatError(f"dart {d} out of range")
                if used[d]:
                    raise OrientationError(f"dart {d} used by two edges")
                used[d] = True
        raise FormatError(f"dart {used.index(False)} not covered by any edge")

    def _trace_faces(self) -> None:
        """faces, face_of and _face_next from alpha.

        Faces are the orbits of sigma o alpha, each from its least dart and
        numbered in order of it.  ``_index`` has checked that every dart
        ends exactly one edge, so alpha, and with it sigma o alpha, is a
        permutation, and each orbit closes on its start dart.
        """
        nd = self.ndarts
        succ = list(map(_rotation_table(self.n, self.nanchors).__getitem__, self.alpha))
        face_of = [-1] * nd
        faces: List[Tuple[int, ...]] = []
        for d0 in range(nd):
            if face_of[d0] != -1:
                continue
            f = len(faces)
            face_of[d0] = f
            orbit = [d0]
            d = succ[d0]
            while d != d0:
                face_of[d] = f
                orbit.append(d)
                d = succ[d]
            faces.append(tuple(orbit))
        self.faces = faces
        self.face_of = face_of
        self._face_next = succ  # sigma(alpha(d)): the next dart of d's face

    def _place_faces(self) -> None:
        """Global faces: per-component orbits merged through placements.

        _face_root maps each face to its global root; _global_faces maps
        each root to the darts of its global face, from its least dart: the
        orbit itself where no placement merges faces, ascending otherwise.
        Faces are numbered in order of their least dart, so without
        placements the roots are the faces themselves, in that order.
        """
        faces = self.faces
        if not self.placements:
            self._face_root = list(range(len(faces)))
            self._global_faces = dict(enumerate(faces))
        else:
            gparent = list(range(len(faces)))
            for (ra, rb) in self.placements:
                _uf_union(gparent, self._ref_face(ra), self._ref_face(rb))
            self._face_root = [_uf_find(gparent, f) for f in range(len(faces))]
            global_faces: Dict[int, List[int]] = {}
            for d in range(self.ndarts):
                global_faces.setdefault(self._face_root[self.face_of[d]], []).append(d)
            self._global_faces = {r: tuple(ds) for r, ds in global_faces.items()}
        self.outer_face = (
            self.global_face(self._ref_face(self.outer_ref))
            if self.outer_ref is not None
            else None
        )

    def sigma(self, d: int) -> int:
        """Next dart counterclockwise around the vertex of ``d``."""
        if d < 4 * self.n:
            return (d & ~3) | ((d + 1) & 3)
        return d ^ 1

    def vertex_of(self, d: int) -> int:
        if d < 4 * self.n:
            return d >> 2
        return self.n + ((d - 4 * self.n) >> 1)

    def _ref_face(self, ref: FaceRef) -> int:
        e, side = ref
        t, h, _ = self.edges[e]
        return self.face_of[t if side == SIDE_R else h]

    def global_face(self, face: int) -> int:
        return self._face_root[face]

    def global_face_of_dart(self, d: int) -> int:
        return self._face_root[self.face_of[d]]

    def global_face_of_ref(self, ref: FaceRef) -> int:
        return self._face_root[self._ref_face(ref)]

    # -- validation --------------------------------------------------------

    def _check_crossing(self, c: int) -> None:
        if self.signs[c] not in (1, -1):
            raise FormatError(f"crossing {c}: sign must be +1 or -1")
        is_tail = self.is_tail
        b = 4 * c
        for p in (0, 1):
            if is_tail[b + p] == is_tail[b + p + 2]:
                raise OrientationError(
                    f"crossing {c}: strand line {p},{p+2} not oriented through"
                )

    def _validate(self) -> None:
        darts = iter(self.is_tail)  # four at a time: one crossing's pattern
        patterns = zip(darts, darts, darts, darts, self.signs)
        over = list(map(_PARITY_OF_PATTERN.get, patterns))  # a list: see build
        if None in over:
            for c in range(self.n):
                self._check_crossing(c)
        self.over_parity = tuple(over)
        # Euler per component: V - E + F = 2 on the sphere, and no component
        # exceeds 2, so the sum is 2 * ncomponents only if each is 2
        nv = self.n + self.nanchors
        if nv:
            comp = self.comp_of_vertex
            dart_vertex = self._dart_vertex
            if nv - len(self.edges) + len(self.faces) != 2 * self.ncomponents:
                chi = [0] * self.ncomponents
                for k in comp:
                    chi[k] += 1
                for (t, _, _) in self.edges:
                    chi[comp[dart_vertex[t]]] -= 1
                for orbit in self.faces:
                    chi[comp[dart_vertex[orbit[0]]]] += 1
                for k, x in enumerate(chi):
                    if x != 2:
                        raise NonPlanarError(f"component {k}: V-E+F = {x} != 2")
            if self.outer_ref is None:
                raise FormatError("missing outer-face marker")
            # placements must glue the components into one plane picture
            cparent = list(range(self.ncomponents))
            cross = 0
            for (ra, rb) in self.placements:
                ca = comp[dart_vertex[self.faces[self._ref_face(ra)][0]]]
                cb = comp[dart_vertex[self.faces[self._ref_face(rb)][0]]]
                if ca == cb:
                    if self._ref_face(ra) != self._ref_face(rb):
                        raise NonPlanarError(
                            "placement glues two faces of one component"
                        )
                else:
                    if _uf_find(cparent, ca) == _uf_find(cparent, cb):
                        raise NonPlanarError("placement cycle between components")
                    _uf_union(cparent, ca, cb)
                    cross += 1
            if cross != self.ncomponents - 1:
                raise NonPlanarError(
                    f"{self.ncomponents} components glued by {cross} placements; "
                    "nesting is ambiguous"
                )
        for ci, bit in self.fused.items():
            if not 0 <= ci < self.n or bit not in (0, 1):
                raise FormatError(f"bad fused mark {bit!r} on crossing {ci}")
        for ai, bp in self.anchor_bp.items():
            if not 0 <= ai < self.nanchors or bp < 0 or bp % 2:
                raise FormatError(f"bad decorative break-point count on anchor {ai}")

    # -- basic operations --------------------------------------------------

    @property
    def active_crossings(self) -> List[int]:
        """Crossings that still carry a smoothing choice (not fused)."""
        return [c for c in range(self.n) if c not in self.fused]

    def writhe(self) -> int:
        return sum(self.signs[c] for c in self.active_crossings)

    def to_builder(self) -> DiagramBuilder:
        b = DiagramBuilder()
        b.crossings = list(self.signs)
        b.nanchors = self.nanchors
        n4 = 4 * self.n  # crossing darts are their own ports
        # records are shared: a builder replaces a record and never edits one
        b.edges = list(self.edges) if not self.nanchors else [
            (t if t < n4 else ~(t - n4), h if h < n4 else ~(h - n4), seam)
            for t, h, seam in self.edges
        ]
        b.fused = dict(self.fused)
        b.anchor_bp = dict(self.anchor_bp)
        b.placements = list(self.placements)
        b.outer = self.outer_ref
        b.from_braid = self.from_braid
        return b

    def canonical_code(self) -> str:
        """Canonical encoding up to relabelling (plane isomorphism).

        Runs a deterministic traversal from each dart that can start the
        least transcript of its connected component (see below) and keeps,
        per component, the lexicographically smallest transcript; the code
        is the sorted join of those.  A transcript records the
        crossing data, fused bits and anchor break points, but not seam
        marks or which face a component sits in.
        Orientation of the plane is preserved (no mirror identification).

        Transcripts are compared with their "," separators, as whole
        strings are.  The transcript from dart d begins ",s1", then ",a1"
        when alpha(d) = sigma(d) and ",a2" otherwise, then the tag of d.
        No tag is a proper prefix of another, so a start whose (second
        piece, tag) is not the least of its component has a greater
        transcript, and only the least starts are traversed.  A traversal
        stops as soon as its transcript so far is greater than the
        component's best.  Neither can change the minimum.
        """
        nd = self.ndarts
        if nd == 0:
            return "empty"
        n, n4 = self.n, 4 * self.n
        sigma, alpha, is_tail = _rotation_table(n, self.nanchors), self.alpha, self.is_tail
        tags = []
        for d in range(nd):
            if d < n4:
                v = d >> 2
                rel = (d & 3) - self.over_parity[v]
                tags.append(f",x{self.signs[v]}o{rel & 1}t{int(is_tail[d])}"
                            f"f{self.fused.get(v, -1)}")
            else:
                tags.append(f",A{self.anchor_bp.get((d - n4) >> 1, 0)}t{int(is_tail[d])}")
        comp_of = list(map(self.comp_of_vertex.__getitem__, self._dart_vertex))
        # lead[d]: whether the second piece is ",a2", and the tag
        lead = list(zip(map(int.__ne__, alpha, sigma), tags))
        least: Dict[int, Tuple[bool, str]] = {}
        for comp, key in zip(comp_of, lead):
            if comp not in least or key < least[comp]:
                least[comp] = key
        # best[comp] is "," + the component's least transcript so far
        best: Dict[int, str] = {}
        for start in range(nd):
            comp = comp_of[start]
            if lead[start] != least[comp]:
                continue
            bound = best.get(comp)
            # the transcript so far equals bound[:pos]; pos is None once it is below
            pos = None if bound is None else 0
            above = False
            ids = {start: 0}
            queue = [start]
            rec: List[str] = []
            for d in queue:
                s, a = sigma[d], alpha[d]
                if s not in ids:
                    ids[s] = len(ids)
                    queue.append(s)
                if a not in ids:
                    ids[a] = len(ids)
                    queue.append(a)
                for piece in (f",s{ids[s]}", f",a{ids[a]}", tags[d]):
                    rec.append(piece)
                    if pos is None:
                        continue
                    if bound.startswith(piece, pos):
                        pos += len(piece)
                    elif piece < bound[pos:pos + len(piece)]:
                        pos = None
                    else:
                        above = True
                        break
                if above:
                    break
            if not above and (pos is None or pos < len(bound)):
                best[comp] = "".join(rec)
        return ",".join(sorted(code[1:] for code in best.values()))

    # -- serialization -----------------------------------------------------

    def to_pd_json(self) -> str:
        """Oriented-PD JSON; extension keys appear only when needed."""
        end_name = lambda d: [self.edge_of[d], "tail" if self.is_tail[d] else "head"]
        obj: dict = {
            "crossings": [
                {
                    "id": c,
                    "sign": self.signs[c],
                    "rotation": [end_name(4 * c + p) for p in range(4)],
                }
                for c in range(self.n)
            ],
            "edges": [],
        }
        for ei, (t, h, seam) in enumerate(self.edges):
            rec = {"id": ei, "from": self._port_json(t), "to": self._port_json(h)}
            obj["edges"].append(rec)
        if self.outer_ref is not None:
            orbit = self.faces[self._ref_face(self.outer_ref)]
            obj["outer_face"] = [end_name(d) for d in orbit]
        else:
            obj["outer_face"] = []
        if self.nanchors:
            obj["anchors"] = []
            for a in range(self.nanchors):
                ends = [end_name(4 * self.n + 2 * a + p) for p in (0, 1)]
                rec = {"id": a, "rotation": ends}
                if self.anchor_bp.get(a):
                    rec["break_points"] = self.anchor_bp[a]
                obj["anchors"].append(rec)
        seams = {str(ei): s for ei, (_, _, s) in enumerate(self.edges) if s}
        if seams:
            obj["closure_arcs"] = seams
        if self.fused:
            obj["fused"] = {str(c): bit for c, bit in self.fused.items()}
        if self.placements:
            obj["placements"] = [
                [[a[0], "RL"[a[1]]], [b[0], "RL"[b[1]]]] for a, b in self.placements
            ]
        return json.dumps(obj, sort_keys=True)

    def _port_json(self, d: int):
        if d < 4 * self.n:
            return [d >> 2, d & 3]
        return [["a", (d - 4 * self.n) >> 1], d & 1]


def parse_braid_word(text: str) -> OrientedDiagram:
    """Build the closure of a braid word given as ``"Bk g1 g2 ..."``.

    Strands are numbered 1..k inward to outward; the closure is embedded in
    an annulus around the braid axis, strand k's closure arc outermost.
    Crossing i of the word gets label i.
    """
    return braid_closure(parse_word(text))


def parse_word(text: str) -> BraidWord:
    """The braid word ``"Bk g1 g2 ..."``, with no closure built."""
    tokens = text.split()
    if not tokens or not tokens[0].startswith("B"):
        raise MalformedWordError("expected strand count token like 'B3'")
    try:
        k = int(tokens[0][1:])
    except ValueError:
        raise MalformedWordError(f"bad strand count token {tokens[0]!r}")
    try:
        letters = tuple(int(t) for t in tokens[1:])
    except ValueError:
        raise MalformedWordError("letters must be integers")
    return BraidWord(k, letters)


def braid_closure(word: BraidWord) -> OrientedDiagram:
    """Closure of a braid word as an embedded annular diagram."""
    k = word.strands
    b = DiagramBuilder()
    b.from_braid = True
    pending: List[Optional[int]] = [None] * (k + 1)
    first_entry: List[Optional[int]] = [None] * (k + 1)
    track_parent = list(range(k + 1))
    for g in word.letters:
        i = abs(g)
        ci = b.add_crossing(1 if g > 0 else -1)
        # positions: 0 = exit on track i, 1 = entry on track i, 2 = entry on
        # track i+1, 3 = exit on track i+1 (counterclockwise in the plane)
        for track, pos in ((i, 1), (i + 1, 2)):
            head = 4 * ci + pos
            if pending[track] is None:
                first_entry[track] = head
            else:
                b.add_edge(pending[track], head, 0)
        pending[i] = 4 * ci
        pending[i + 1] = 4 * ci + 3
        _uf_union(track_parent, i, i + 1)
    arc: Dict[int, int] = {}
    for j in range(1, k + 1):
        if pending[j] is None:
            ai = b.add_anchor()
            arc[j] = b.add_edge(anchor_port(ai, 0), anchor_port(ai, 1), seam=1)
        else:
            arc[j] = b.add_edge(pending[j], first_entry[j], seam=1)
    comps: Dict[int, List[int]] = {}
    for j in range(1, k + 1):
        comps.setdefault(_uf_find(track_parent, j), []).append(j)
    ordered = sorted(comps.values(), key=min)
    for prev, nxt in zip(ordered, ordered[1:]):
        b.placements.append(((arc[min(nxt)], SIDE_L), (arc[max(prev)], SIDE_R)))
    if k:
        b.outer = (arc[k], SIDE_R)
    diagram = b.build()
    diagram.braid_word = word
    return diagram


def writhe(diagram: OrientedDiagram) -> int:
    """Sum of crossing signs."""
    return diagram.writhe()


def reverse_orientation(diagram: OrientedDiagram) -> OrientedDiagram:
    """Reverse every edge; crossing signs and labels are unchanged."""
    b = diagram.to_builder()
    b.edges = [(h, t, seam) for t, h, seam in b.edges]
    # a side reference names the same geometric region through the swap
    b.placements = [((a[0], 1 - a[1]), (c[0], 1 - c[1])) for a, c in b.placements]
    if b.outer is not None:
        b.outer = (b.outer[0], 1 - b.outer[1])
    return b.build()


def _pd_int(value, what: str) -> int:
    """A PD integer field: a JSON integer, never a float or a boolean."""
    if type(value) is not int:
        raise FormatError(f"{what} must be an integer, got {value!r}")
    return value


def _pd_side(value) -> int:
    """A placement side: exactly ``"R"`` or ``"L"``."""
    if value not in ("R", "L"):
        raise FormatError(f"placement side must be 'R' or 'L', got {value!r}")
    return SIDE_R if value == "R" else SIDE_L


def _pd_by_id(obj, count: int, what: str) -> Dict[int, int]:
    """A PD map from ids ``0..count-1``, written as decimal ``str(id)`` keys,
    to integers."""
    ids = {str(i): i for i in range(count)}
    out = {}
    for k, v in obj.items():
        if k not in ids:
            raise FormatError(f"{what} key must be a declared id, got {k!r}")
        out[ids[k]] = _pd_int(v, f"{what} value")
    return out


def _parse_port(obj, n: int, m: int) -> int:
    """Builder port of ``[crossing, pos]`` or ``[["a", anchor], pos]``."""
    if not (isinstance(obj, list) and len(obj) == 2):
        raise FormatError(f"bad port reference {obj!r}")
    if isinstance(obj[0], list) and obj[0] and obj[0][0] == "a":
        ai, pos = _pd_int(obj[0][1], "anchor id"), _pd_int(obj[1], "port")
        if not (0 <= ai < m and 0 <= pos < 2):
            raise FormatError(f"port {obj!r} is not a port of a declared anchor")
        return anchor_port(ai, pos)
    ci, pos = _pd_int(obj[0], "crossing id"), _pd_int(obj[1], "port")
    if not (0 <= ci < n and 0 <= pos < 4):
        raise FormatError(f"port {obj!r} is not a port of a declared crossing")
    return 4 * ci + pos


def parse_pd(data) -> OrientedDiagram:
    """Parse oriented-PD JSON (bytes, str, or a parsed object).

    The core schema has ``crossings`` (id, sign, rotation of 4 edge-end
    refs, counterclockwise), ``edges`` (id, from, to as [crossing, port])
    and ``outer_face``.  Extension keys ``anchors``, ``closure_arcs`` and
    ``placements`` round-trip diagrams with free loops or several
    components, and ``fused`` and an anchor's ``break_points`` round-trip
    skein expansions and marked circles; plain connected diagrams need
    none of them.
    """
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf8")
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise FormatError("invalid JSON: nested too deeply") from exc
    if not isinstance(data, dict):
        raise FormatError("top-level PD value must be an object")
    try:
        b, outer = _pd_builder(data)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed PD field ({type(exc).__name__}: {exc})") from exc
    diagram = b.build()
    # every reference names an edge before any two are compared as faces
    for ei, _ in outer:
        if not 0 <= ei < len(diagram.edges):
            raise DiagramError(f"face reference to edge {ei}, not an edge")
    if any(diagram.global_face_of_ref(ref) != diagram.outer_face for ref in outer):
        raise FormatError("outer_face edge ends do not bound a single face")
    return diagram


def _pd_builder(data: dict) -> Tuple[DiagramBuilder, List[FaceRef]]:
    """Builder for a parsed PD object, plus its outer-face references.

    Fields of the wrong type surface as the TypeError, KeyError, ...
    that ``parse_pd`` turns into ``FormatError``.
    """
    for key in ("crossings", "edges"):
        if key not in data:
            raise FormatError(f"missing {key!r}")
    if "outer_face" not in data:
        raise FormatError("missing outer-face marker")

    crossings = sorted(
        data["crossings"], key=lambda r: _pd_int(r["id"], "crossing id")
    )
    if [r["id"] for r in crossings] != list(range(len(crossings))):
        raise FormatError("crossing ids must be 0..n-1")
    anchors = sorted(
        data.get("anchors", ()), key=lambda r: _pd_int(r["id"], "anchor id")
    )
    if [r["id"] for r in anchors] != list(range(len(anchors))):
        raise FormatError("anchor ids must be 0..m-1")
    n = len(crossings)

    edges_in = sorted(data["edges"], key=lambda r: _pd_int(r["id"], "edge id"))
    if [r["id"] for r in edges_in] != list(range(len(edges_in))):
        raise FormatError("edge ids must be 0..e-1")
    seams = _pd_by_id(data.get("closure_arcs", {}), len(edges_in), "closure_arcs")

    b = DiagramBuilder()
    for rec in crossings:
        b.add_crossing(_pd_int(rec["sign"], "sign"))
    b.nanchors = m = len(anchors)
    for rec in anchors:
        if "break_points" in rec:
            b.anchor_bp[rec["id"]] = _pd_int(rec["break_points"], "break_points")
    b.fused = _pd_by_id(data.get("fused", {}), n, "fused")
    port_used: Dict[int, Tuple[int, str]] = {}
    for rec in edges_in:
        ends = []
        for obj, role in ((rec["from"], "tail"), (rec["to"], "head")):
            p = _parse_port(obj, n, m)
            if p in port_used:
                raise OrientationError(
                    f"port {obj!r} referenced twice (edges {port_used[p][0]} "
                    f"and {rec['id']})"
                )
            port_used[p] = (rec["id"], role)
            ends.append(p)
        b.add_edge(ends[0], ends[1], seams.get(rec["id"], 0))

    # check the declared rotations against the edge endpoints
    def end_of(ref) -> Tuple[int, str]:
        if not (isinstance(ref, list) and len(ref) == 2 and ref[1] in ("tail", "head")):
            raise FormatError(f"bad edge-end reference {ref!r}")
        return _pd_int(ref[0], "edge id"), ref[1]

    vertices = [(f"crossing {c}", rec, [4 * c + p for p in range(4)])
                for c, rec in enumerate(crossings)]
    vertices += [(f"anchor {a}", rec, [anchor_port(a, p) for p in (0, 1)])
                 for a, rec in enumerate(anchors)]
    for name, rec, ports in vertices:
        rot = rec.get("rotation")
        if not isinstance(rot, list) or len(rot) != len(ports):
            raise FormatError(f"{name}: rotation must list {len(ports)} edge ends")
        for pos, (port, ref) in enumerate(zip(ports, rot)):
            end, want = end_of(ref), port_used.get(port)
            if want != end:
                raise OrientationError(
                    f"{name} rotation slot {pos} names edge end {end} "
                    f"but edges give {want}"
                )
    for pair in data.get("placements", ()):
        (ea, sa), (eb, sb) = pair
        b.placements.append((
            (_pd_int(ea, "placement edge"), _pd_side(sa)),
            (_pd_int(eb, "placement edge"), _pd_side(sb)),
        ))

    outer: List[FaceRef] = []
    if n + len(anchors) > 0:
        if not data["outer_face"]:
            raise FormatError("missing outer-face marker")
        for ref in data["outer_face"]:
            ei, role = end_of(ref)
            outer.append((ei, SIDE_R if role == "tail" else SIDE_L))
        b.outer = outer[0]
    return b, outer
