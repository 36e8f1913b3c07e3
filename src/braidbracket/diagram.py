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
{1, 3}.  Crossing signs are redundant with orientation plus over data and
are validated on construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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


def _uf_find(parent: List[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _uf_union(parent: List[int], a: int, b: int) -> None:
    ra, rb = _uf_find(parent, a), _uf_find(parent, b)
    if ra != rb:
        parent[rb] = ra


Port = Tuple[str, int, int]  # ("x", crossing, pos 0..3) or ("a", anchor, pos 0..1)


class DiagramBuilder:
    """Mutable construction/surgery buffer; ``build()`` freezes and validates."""

    def __init__(self):
        self.crossings: List[Optional[dict]] = []   # None marks a removed crossing
        self.nanchors = 0
        self.edges: Dict[int, Optional[dict]] = {}  # id -> {tail, head, seam} or None
        self._next_edge = 0
        self.fused: Dict[int, int] = {}             # crossing -> frozen smoothing bit
        self.anchor_bp: Dict[int, int] = {}         # anchor -> decorative break points
        self.placements: List[Tuple[FaceRef, FaceRef]] = []
        self.outer: Optional[FaceRef] = None
        self.from_braid = False

    def add_crossing(self, sign: int, over_parity: int) -> int:
        self.crossings.append({"sign": sign, "over_parity": over_parity})
        return len(self.crossings) - 1

    def add_anchor(self) -> int:
        self.nanchors += 1
        return self.nanchors - 1

    def add_edge(self, tail: Port, head: Port, seam: int = 0) -> int:
        eid = self._next_edge
        self._next_edge += 1
        self.edges[eid] = {"tail": tail, "head": head, "seam": seam}
        return eid

    def remove_crossing(self, ci: int) -> None:
        self.crossings[ci] = None

    def remove_edge(self, eid: int) -> None:
        self.edges[eid] = None

    def split_edge(self, eid: int, mid_tail: Port, mid_head: Port) -> Tuple[int, int]:
        """Replace edge ``eid`` by two halves through a new vertex.

        ``mid_head`` receives the incoming half, ``mid_tail`` emits the
        outgoing half.  Face references to ``eid`` are remapped to the first
        half (either half bounds the same two faces).
        """
        rec = self.edges[eid]
        e1 = self.add_edge(rec["tail"], mid_head, rec["seam"])
        e2 = self.add_edge(mid_tail, rec["head"], 0)
        self.remove_edge(eid)
        self._remap_refs(eid, e1)
        return e1, e2

    def _remap_refs(self, old_eid: int, new_eid: int) -> None:
        if self.outer is not None and self.outer[0] == old_eid:
            self.outer = (new_eid, self.outer[1])
        self.placements = [
            (
                (new_eid, a[1]) if a[0] == old_eid else a,
                (new_eid, b[1]) if b[0] == old_eid else b,
            )
            for (a, b) in self.placements
        ]

    def build(self) -> "OrientedDiagram":
        # Compact crossing labels, preserving relative order.
        xmap: Dict[int, int] = {}
        signs: List[int] = []
        over: List[int] = []
        for old, rec in enumerate(self.crossings):
            if rec is None:
                continue
            xmap[old] = len(signs)
            signs.append(rec["sign"])
            over.append(rec["over_parity"])
        fused = {}
        for ci, bit in self.fused.items():
            if self.crossings[ci] is not None:
                fused[xmap[ci]] = bit
        n = len(signs)

        def dart(port: Port) -> int:
            kind, idx, pos = port
            if kind == "x":
                if self.crossings[idx] is None:
                    raise DiagramError(f"edge references removed crossing {idx}")
                return 4 * xmap[idx] + pos
            return 4 * n + 2 * idx + pos

        emap: Dict[int, int] = {}
        edges: List[Tuple[int, int, int]] = []
        for eid in sorted(k for k, v in self.edges.items() if v is not None):
            rec = self.edges[eid]
            emap[eid] = len(edges)
            edges.append((dart(rec["tail"]), dart(rec["head"]), rec["seam"]))

        def ref(r: FaceRef) -> FaceRef:
            if r[0] not in emap:
                raise DiagramError(f"face reference to removed edge {r[0]}")
            return (emap[r[0]], r[1])

        placements = tuple((ref(a), ref(b)) for a, b in self.placements)
        outer = ref(self.outer) if self.outer is not None else None
        return OrientedDiagram(
            signs=tuple(signs),
            over_parity=tuple(over),
            nanchors=self.nanchors,
            edges=tuple(edges),
            placements=placements,
            outer_ref=outer,
            from_braid=self.from_braid,
            fused=dict(fused),
            anchor_bp=dict(self.anchor_bp),
        )


class OrientedDiagram:
    """Immutable oriented diagram with planar embedding data.

    Construction validates the combinatorial map: in/out pattern at every
    crossing, sign consistency, Euler's formula per connected component, and
    that placements form a spanning tree over the components.

    ``braid_word`` is the word a diagram was made from by ``braid_closure``
    and ``None`` otherwise.  ``to_builder`` does not carry it over, so a
    diagram rebuilt from a closure (decorated, reversed, moved) has none.
    """

    def __init__(
        self,
        signs: Tuple[int, ...],
        over_parity: Tuple[int, ...],
        nanchors: int,
        edges: Tuple[Tuple[int, int, int], ...],
        placements: Tuple[Tuple[FaceRef, FaceRef], ...] = (),
        outer_ref: Optional[FaceRef] = None,
        from_braid: bool = False,
        fused: Optional[Dict[int, int]] = None,
        anchor_bp: Optional[Dict[int, int]] = None,
    ):
        self.signs = signs
        self.over_parity = over_parity
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
        self._site_fingerprint: Optional[str] = None  # kept by moves._fingerprint
        self._index()
        self._validate()

    # -- structure tables ------------------------------------------------

    def _index(self) -> None:
        nd = self.ndarts
        n, n4 = self.n, 4 * self.n
        alpha = [-1] * nd
        edge_of = [-1] * nd
        is_tail = [False] * nd
        for ei, (t, h, _) in enumerate(self.edges):
            for d in (t, h):
                if not 0 <= d < nd:
                    raise FormatError(f"dart {d} out of range")
                if edge_of[d] != -1:
                    raise OrientationError(f"dart {d} used by two edges")
            alpha[t], alpha[h] = h, t
            edge_of[t] = edge_of[h] = ei
            is_tail[t] = True
        if -1 in edge_of:
            raise FormatError(f"dart {edge_of.index(-1)} not covered by any edge")
        self.alpha = alpha
        self.edge_of = edge_of
        self.is_tail = is_tail
        # dart -> vertex, as vertex_of computes it
        dart_vertex = [d >> 2 for d in range(n4)]
        dart_vertex += [n + (a >> 1) for a in range(nd - n4)]
        self._dart_vertex = dart_vertex

        # faces: orbits of sigma o alpha, through one successor table
        sig = [d ^ 1 if d >= n4 else (d & ~3) | ((d + 1) & 3) for d in range(nd)]
        succ = [sig[a] for a in alpha]
        face_of = [-1] * nd
        faces: List[Tuple[int, ...]] = []
        for d0 in range(nd):
            if face_of[d0] != -1:
                continue
            f = len(faces)
            orbit = []
            d = d0
            while face_of[d] == -1:
                face_of[d] = f
                orbit.append(d)
                d = succ[d]
            faces.append(tuple(orbit))
        self.faces = faces
        self.face_of = face_of
        self._face_next = succ  # sigma(alpha(d)): the next dart of d's face

        # connected components over vertices (the _uf_union rule, inlined:
        # the root of the tail's vertex becomes the root of the union)
        nv = n + self.nanchors
        parent = list(range(nv))
        for (t, h, _) in self.edges:
            a, b = dart_vertex[t], dart_vertex[h]
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[b] = a
        comp_of = []
        for v in range(nv):
            while parent[v] != v:
                v = parent[v]
            comp_of.append(v)
        labels = {r: i for i, r in enumerate(sorted(set(comp_of)))}
        self.comp_of_vertex = [labels[r] for r in comp_of]
        self.ncomponents = len(labels)

        # global faces: per-component orbits merged through placements.
        # _face_root maps each face to its global root; _global_faces maps
        # each root to the darts of its global face, ascending.  Faces are
        # numbered in order of their least dart, so without placements the
        # roots are the faces themselves, in that order.
        if not self.placements:
            self._face_root = list(range(len(faces)))
            self._global_faces = {f: tuple(sorted(orbit)) for f, orbit in enumerate(faces)}
        else:
            gparent = list(range(len(faces)))
            for (ra, rb) in self.placements:
                _uf_union(gparent, self._ref_face(ra), self._ref_face(rb))
            self._face_root = [_uf_find(gparent, f) for f in range(len(faces))]
            global_faces: Dict[int, List[int]] = {}
            for d in range(nd):
                global_faces.setdefault(self._face_root[face_of[d]], []).append(d)
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

    def _validate(self) -> None:
        is_tail = self.is_tail
        for c, (sign, q) in enumerate(zip(self.signs, self.over_parity)):
            if sign not in (1, -1):
                raise FormatError(f"crossing {c}: sign must be +1 or -1")
            if q not in (0, 1):
                raise FormatError(f"crossing {c}: bad over data")
            b = 4 * c
            for p in (0, 1):
                if is_tail[b + p] == is_tail[b + p + 2]:
                    raise OrientationError(
                        f"crossing {c}: strand line {p},{p+2} not oriented through"
                    )
            # outs now sit at cyclically adjacent positions; check the sign
            over_out = q if is_tail[b + q] else q + 2
            under_out = q + 1 if is_tail[b + ((q + 1) & 3)] else q + 3
            want = 1 if (under_out - over_out) % 4 == 1 else -1
            if want != sign:
                raise OrientationError(
                    f"crossing {c}: sign {sign} inconsistent with "
                    f"orientation and over/under data"
                )
            outs = is_tail[b] + is_tail[b + 1] + is_tail[b + 2] + is_tail[b + 3]
            if outs != 2:
                raise OrientationError(f"crossing {c}: {outs} outgoing ends, not 2")
        # Euler per component: V - E + F = 2 on the sphere
        nv = self.n + self.nanchors
        if nv:
            comp = self.comp_of_vertex
            dart_vertex = self._dart_vertex
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
        for ci in self.fused:
            if not 0 <= ci < self.n:
                raise FormatError(f"fused mark on unknown crossing {ci}")
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

    def over_out_dart(self, c: int) -> int:
        q = self.over_parity[c]
        return 4 * c + (q if self.is_tail[4 * c + q] else q + 2)

    def to_builder(self) -> DiagramBuilder:
        b = DiagramBuilder()
        for c in range(self.n):
            b.add_crossing(self.signs[c], self.over_parity[c])
        b.nanchors = self.nanchors
        b.fused = dict(self.fused)
        b.anchor_bp = dict(self.anchor_bp)
        b.from_braid = self.from_braid

        def port(d: int) -> Port:
            if d < 4 * self.n:
                return ("x", d >> 2, d & 3)
            return ("a", (d - 4 * self.n) >> 1, d & 1)

        for (t, h, seam) in self.edges:
            b.add_edge(port(t), port(h), seam)
        b.placements = [tuple(p) for p in self.placements]
        b.outer = self.outer_ref
        return b

    def canonical_code(self, with_seam: bool = False) -> str:
        """Canonical encoding up to relabelling (plane isomorphism).

        Runs a deterministic traversal from every dart and keeps, per
        connected component, the lexicographically smallest transcript;
        the code is the sorted join of those.  A transcript records the
        crossing data, fused bits, anchor break points and (with
        ``with_seam``) seam marks, but not which face a component sits in.
        Orientation of the plane is preserved (no mirror identification).

        A traversal stops as soon as its transcript so far is greater than
        the component's best, which cannot change the minimum.  Transcripts
        are compared with their "," separators, as whole strings are.
        """
        nd = self.ndarts
        if nd == 0:
            return "empty"
        n4 = 4 * self.n
        tags = []
        for d in range(nd):
            v = self.vertex_of(d)
            if d < n4:
                rel = (d & 3) - self.over_parity[v]
                tag = (f"x{self.signs[v]}o{rel & 1}t{int(self.is_tail[d])}"
                       f"f{self.fused.get(v, -1)}")
            else:
                tag = f"A{self.anchor_bp.get(v - self.n, 0)}t{int(self.is_tail[d])}"
            if with_seam:
                tag += f",m{self.edges[self.edge_of[d]][2]}"
            tags.append("," + tag)
        alpha = self.alpha
        # best[comp] is "," + the component's least transcript so far
        best: Dict[int, str] = {}
        for start in range(nd):
            comp = self.comp_of_vertex[self._dart_vertex[start]]
            bound = best.get(comp)
            # the transcript so far equals bound[:pos]; pos is None once it is below
            pos = None if bound is None else 0
            above = False
            ids = {start: 0}
            queue = [start]
            rec: List[str] = []
            for d in queue:
                s, a = self.sigma(d), alpha[d]
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
            obj["anchors"] = [
                {"id": a, "rotation": [end_name(4 * self.n + 2 * a + p) for p in (0, 1)]}
                for a in range(self.nanchors)
            ]
        seams = {str(ei): s for ei, (_, _, s) in enumerate(self.edges) if s}
        if seams:
            obj["closure_arcs"] = seams
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
    return braid_closure(BraidWord(k, letters))


def braid_closure(word: BraidWord) -> OrientedDiagram:
    """Closure of a braid word as an embedded annular diagram."""
    k = word.strands
    b = DiagramBuilder()
    b.from_braid = True
    pending: List[Optional[Port]] = [None] * (k + 1)
    first_entry: List[Optional[Port]] = [None] * (k + 1)
    track_parent = list(range(k + 1))
    for g in word.letters:
        i = abs(g)
        ci = b.add_crossing(sign=1 if g > 0 else -1, over_parity=1 if g > 0 else 0)
        # positions: 0 = exit on track i, 1 = entry on track i, 2 = entry on
        # track i+1, 3 = exit on track i+1 (counterclockwise in the plane)
        for track, pos in ((i, 1), (i + 1, 2)):
            head = ("x", ci, pos)
            if pending[track] is None:
                first_entry[track] = head
            else:
                b.add_edge(pending[track], head, 0)
        pending[i] = ("x", ci, 0)
        pending[i + 1] = ("x", ci, 3)
        _uf_union(track_parent, i, i + 1)
    arc: Dict[int, int] = {}
    for j in range(1, k + 1):
        if pending[j] is None:
            ai = b.add_anchor()
            arc[j] = b.add_edge(("a", ai, 0), ("a", ai, 1), seam=1)
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
    for rec in b.edges.values():
        rec["tail"], rec["head"] = rec["head"], rec["tail"]
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


def _parse_port(obj, n: int) -> Port:
    if (
        isinstance(obj, list)
        and len(obj) == 2
        and isinstance(obj[0], list)
        and obj[0] and obj[0][0] == "a"
    ):
        return ("a", _pd_int(obj[0][1], "anchor id"), _pd_int(obj[1], "port"))
    if not (isinstance(obj, list) and len(obj) == 2):
        raise FormatError(f"bad port reference {obj!r}")
    return ("x", _pd_int(obj[0], "crossing id"), _pd_int(obj[1], "port"))


def parse_pd(data) -> OrientedDiagram:
    """Parse oriented-PD JSON (bytes, str, or a parsed object).

    The core schema has ``crossings`` (id, sign, rotation of 4 edge-end
    refs, counterclockwise), ``edges`` (id, from, to as [crossing, port])
    and ``outer_face``.  Extension keys ``anchors``, ``closure_arcs`` and
    ``placements`` round-trip diagrams with free loops or several
    components; plain connected diagrams need none of them.
    """
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf8")
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError("top-level PD value must be an object")
    try:
        b, outer = _pd_builder(data)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed PD field ({type(exc).__name__}: {exc})") from exc
    diagram = b.build()
    for ei, side in outer:
        if not 0 <= ei < len(diagram.edges) or (
            diagram.global_face_of_ref((ei, side)) != diagram.outer_face
        ):
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
    seams = {}
    for k, v in data.get("closure_arcs", {}).items():
        if not (isinstance(k, str) and k.isdigit()):
            raise FormatError(f"closure_arcs key must be an edge id, got {k!r}")
        seams[int(k)] = _pd_int(v, "closure_arcs value")

    b = DiagramBuilder()
    for rec in crossings:
        b.add_crossing(_pd_int(rec["sign"], "sign"), 0)  # over parity fixed later
    for _ in anchors:
        b.add_anchor()
    port_used: Dict[Port, Tuple[int, str]] = {}
    for rec in edges_in:
        t = _parse_port(rec["from"], n)
        h = _parse_port(rec["to"], n)
        for p, role in ((t, "tail"), (h, "head")):
            if p in port_used:
                raise OrientationError(
                    f"port {p} referenced twice (edges {port_used[p][0]} "
                    f"and {rec['id']})"
                )
            port_used[p] = (rec["id"], role)
        b.add_edge(t, h, seams.get(rec["id"], 0))

    # check the declared rotations against the edge endpoints
    def end_of(ref) -> Tuple[int, str]:
        if not (isinstance(ref, list) and len(ref) == 2 and ref[1] in ("tail", "head")):
            raise FormatError(f"bad edge-end reference {ref!r}")
        return _pd_int(ref[0], "edge id"), ref[1]

    for rec in crossings:
        rot = rec.get("rotation")
        if not isinstance(rot, list) or len(rot) != 4:
            raise FormatError(f"crossing {rec['id']}: rotation must list 4 edge ends")
        for pos, ref in enumerate(rot):
            ei, role = end_of(ref)
            want = port_used.get(("x", rec["id"], pos))
            if want != (ei, role):
                raise OrientationError(
                    f"crossing {rec['id']} rotation slot {pos} names edge end "
                    f"{(ei, role)} but edges give {want}"
                )
    # fix over parity from sign + directions
    for rec in crossings:
        ci = rec["id"]
        outs = [
            pos for pos in range(4) if port_used[("x", ci, pos)][1] == "tail"
        ]
        if len(outs) != 2 or (outs[1] - outs[0]) % 4 == 2:
            raise OrientationError(
                f"crossing {ci}: outgoing ends at positions {outs}; "
                "over/under strands must alternate in the rotation"
            )
        x, y = outs
        if (y - x) % 4 != 1:
            x, y = y, x
        over_out = x if rec["sign"] == 1 else y
        b.crossings[ci]["over_parity"] = over_out % 2

    for pair in data.get("placements", ()):
        (ea, sa), (eb, sb) = pair
        b.placements.append((
            (_pd_int(ea, "placement edge"), "RL".index(sa)),
            (_pd_int(eb, "placement edge"), "RL".index(sb)),
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
