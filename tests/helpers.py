"""Test-harness utilities kept out of the library surface.

``relabel_crossings`` exists only here: crossing labels are assigned at
parse time, and the library renumbers them only to close the gaps that
deleted crossings leave, keeping their relative order.  So ordering
independence can be tested as a theorem rather than hidden by a
normalization.  ``canonical_code_oracle`` is the exhaustive search that
``OrientedDiagram.canonical_code`` prunes, and ``nesting_oracle`` the
parity walk that ``states._nesting_forest`` replaced by the region tree;
both are kept as cross-checks, as is ``relabel_oracle``, which matches
circles by least dart where ``_StateTable.rule`` shifts their ids.
``homology_table_oracle`` reduces every block of the complex on its own
by the dense Smith reduction, and ``homology_table_all_blocks`` by the
sparse elimination, where ``homology.homology_groups`` carries unit
pivots from one block to the next and copies the blocks with k < 0 from
those with k > 0.  ``homology_table_of_given_blocks`` makes the same
reduction as ``homology._homology_table`` over the full complex, each
block given all its rows at once, where the library's layer walk
assembles each block as it reduces it.  ``burau`` is the exact unreduced
Burau representation, which checks that a rewrite of a braid word keeps
the braid.  ``site_oracle`` lists the braid-like and II_b sites of a
diagram by brute force over faces and dart pairs, where ``moves`` counts
them from one census per diagram.  ``face_oracle`` traces the faces of a
diagram from the ``sigma`` method, where the constructor reads a shared
rotation table and closes each orbit on its start dart.
``reference_walk`` replays ``random_equivalent_pair`` by listing every
step's sites with ``find_sites`` and applying the drawn one with
``apply_move``, where the library draws from the census and rewrites
without the checks.
"""

import json
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from braidbracket.diagram import (
    BraidWord,
    DiagramError,
    FormatError,
    NonPlanarError,
    OrientedDiagram,
    _uf_find,
    _uf_union,
    braid_closure,
    parse_braid_word,
)
from braidbracket.chain_complex import (
    DifferentialMatrix,
    _StateTable,
    _dv_terms,
    _koszul_sign,
)
from braidbracket.homology import _Block, smith_normal_form
from braidbracket.moves import apply_move, find_sites, random_equivalent_pair

# Walks are pinned by the sha256 of the moved diagram's PD JSON: a change in
# site order or surgery shows here, not only in benchmark digests.  Each is
# ``random_equivalent_pair(seed, 100, BraidWord(strands, letters),
# max_crossings=14)``.
WALK_PINS = [
    # (seed, strands, letters, crossings, components, digest)
    (11, 2, (1, 1, 1), 11, 1, "52a20895ecc5361e"),
    (12, 3, (1, -2, 1, -2), 12, 1, "75afdc11404650bf"),
    (13, 4, (1, 2, 3, -1, 2), 13, 1, "b9c4a76f58ff9c23"),
    (14, 2, (1, 1, -1, 1), 12, 1, "86301d5b4af467b6"),
    (15, 3, (1, 2, -1, 2, 1, 2), 12, 1, "97cb50f4f99194c8"),
    (16, 4, (2, -2, 3, -1), 14, 1, "38f0669a2621c440"),
    (861703, 4, (2, -2, 3, -1), 12, 2, "14ab6bc9de38687b"),
]


def pd_with(word, field, value):
    """PD JSON of ``word`` with the value at the key path ``field`` replaced."""
    obj = json.loads(parse_braid_word(word).to_pd_json())
    node = obj
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = value
    return obj


# Face references that parse_pd refuses, as (word, field, value) for
# ``pd_with``, and the error type and message: an edge id the PD never
# declared, at the outer face and in a placement; a placement on one
# component, and a cycle of placements, on the two free loops of ``B2``;
# outer-face edge ends on two faces of the trefoil; and an undeclared edge
# id after a declared one at the outer face, which is named before any two
# references are compared as faces.
REJECTED_FACE_REFERENCES = [
    ("B2 1 1 1", ("outer_face",), [[99, "tail"]],
     DiagramError, "face reference to edge 99, not an edge"),
    ("B2", ("placements", 0, 0, 0), 99,
     DiagramError, "face reference to edge 99, not an edge"),
    ("B2", ("placements",), [[[0, "L"], [0, "R"]]],
     NonPlanarError, "placement glues two faces of one component"),
    ("B2", ("placements",), [[[1, "L"], [0, "R"]], [[1, "R"], [0, "L"]]],
     NonPlanarError, "placement cycle between components"),
    ("B2 1 1 1", ("outer_face",), [[1, "tail"], [0, "tail"]],
     FormatError, "outer_face edge ends do not bound a single face"),
    ("B2 1 1 1", ("outer_face",), [[1, "tail"], [99, "tail"]],
     DiagramError, "face reference to edge 99, not an edge"),
]


def reference_walk(seed, strands, letters, n_moves=100, max_crossings=14):
    """(diagram, site) of each step of random_equivalent_pair, with every
    step's sites listed by find_sites and applied by apply_move, and the
    final diagram."""
    import random

    d = braid_closure(BraidWord(strands, letters))
    rng = random.Random(seed)
    steps = []
    for _ in range(n_moves):
        sites = find_sites(d, "IIa_remove") + find_sites(d, "III")
        if d.n + 2 <= max_crossings:
            sites += find_sites(d, "IIa_insert")
        site = sites[rng.randrange(len(sites))]
        steps.append((d, site))
        d = apply_move(d, site)
    return steps, d


def face_oracle(diagram: OrientedDiagram):
    """(faces, face_of, face_next) by the definition: the orbits of
    d -> sigma(alpha(d)), read through the ``sigma`` method, each from its
    least dart and numbered in order of it.  An orbit ends where a dart
    repeats, and the repeat must be its start."""
    nd = diagram.ndarts
    face_next = [diagram.sigma(diagram.alpha[d]) for d in range(nd)]
    faces: List[Tuple[int, ...]] = []
    face_of: List[Optional[int]] = [None] * nd
    for d0 in range(nd):
        if face_of[d0] is not None:
            continue
        orbit, d = [], d0
        while d not in orbit:
            orbit.append(d)
            d = face_next[d]
        assert d == d0, "sigma o alpha is no permutation"
        for d in orbit:
            face_of[d] = len(faces)
        faces.append(tuple(orbit))
    return faces, face_of, face_next


def moved_diagrams():
    """Twelve diagrams of at most 8 crossings, each the end of a short
    seeded walk of braid-like moves: not closures, and not as regular."""
    bases = [BraidWord(2, (1, 1, 1)), BraidWord(3, (1, 2, -1, 2)),
             BraidWord(3, (1, -2, 1)), BraidWord(4, (1, 2, 3))]
    for seed in range(12):
        yield random_equivalent_pair(seed, 5 + seed, bases[seed % 4], max_crossings=8)[1]


def relabel_crossings(diagram: OrientedDiagram, perm: Sequence[int]) -> OrientedDiagram:
    """New diagram whose crossing ``perm[i]`` is the old crossing ``i``."""
    n = diagram.n
    assert sorted(perm) == list(range(n))
    b = diagram.to_builder()
    old = b.crossings
    b.crossings = [None] * n
    for i, rec in enumerate(old):
        b.crossings[perm[i]] = rec

    def relabel(port: int) -> int:
        # a crossing port; anchor ports are negative
        return 4 * perm[port >> 2] + (port & 3) if port >= 0 else port

    # a builder replaces records and never edits one
    b.edges = [(relabel(t), relabel(h), seam) for t, h, seam in b.edges]
    b.fused = {perm[i]: bit for i, bit in b.fused.items()}
    return b.build()


def mirror(diagram: OrientedDiagram) -> OrientedDiagram:
    """The mirror image: every crossing switched, which negates its sign,
    on the same embedding."""
    b = diagram.to_builder()
    b.crossings = [-sign for sign in b.crossings]
    return b.build()


BURAU_POINTS = (Fraction(2), Fraction(-3), Fraction(1, 5))


def burau(word: BraidWord, t: Fraction) -> List[List[Fraction]]:
    """The unreduced Burau matrix of ``word`` at ``t``, exactly: sigma_i
    acts on strands i and i + 1 by [[1 - t, t], [1, 0]], sigma_i^-1 by
    [[0, 1], [1/t, 1 - 1/t]], and the identity elsewhere."""
    n = word.strands
    m = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for g in word.letters:
        a = abs(g) - 1
        block = ((1 - t, t), (1, 0)) if g > 0 else ((0, 1), (1 / t, 1 - 1 / t))
        for row in m:
            x, y = row[a], row[a + 1]
            row[a] = x * block[0][0] + y * block[1][0]
            row[a + 1] = x * block[0][1] + y * block[1][1]
    return m


def burau_power_traces(word: BraidWord, t: Fraction) -> List[Fraction]:
    """tr(B), tr(B^2), ..., tr(B^n) of the Burau matrix B of ``word`` at
    ``t``: by Newton's identities they fix the characteristic polynomial,
    so conjugate braids share them."""
    b = burau(word, t)
    n = len(b)
    power, traces = b, []
    for _ in range(n):
        traces.append(sum(power[r][r] for r in range(n)))
        power = [[sum(power[r][m] * b[m][c] for m in range(n)) for c in range(n)]
                 for r in range(n)]
    return traces


def drop_zeros(element: dict) -> dict:
    """``element`` with zero coefficients, then empty polynomials, removed."""
    out = {}
    for key, poly in element.items():
        nonzero = {e: c for e, c in poly.items() if c}
        if nonzero:
            out[key] = nonzero
    return out


def bracket_combination(parts) -> dict:
    """Exact sum of (shift, bracket) pairs: sum A^shift * bracket.

    Plain dict arithmetic, kept apart from the library's accumulator
    (``laurent.lp_iadd``), which the brackets it sums are checked against.
    """
    out: dict = {}
    for shift, bracket in parts:
        for cfg, poly in bracket.items():
            acc = out.setdefault(cfg, {})
            for e, c in poly.items():
                acc[e + shift] = acc.get(e + shift, 0) + c
    return drop_zeros(out)


def laurent_mul_reference(p, q) -> dict:
    """Product of two one-variable Laurent polynomials by a plain double
    loop, independent of ``laurent.lp_mul``."""
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def rule_table_operator(diagram, bits: int, v: int) -> Dict[int, Dict[Tuple[int, int], int]]:
    """The rule-table d_v on every labeling of the state ``bits``."""
    table = _StateTable(diagram)
    types = table.structure(bits)[1]
    sign = _koszul_sign(bits, v)
    out = {}
    for mask in range(1 << len(types)):
        acc: Dict[Tuple[int, int], int] = {}
        for tkey in _dv_terms(table, bits, mask, v):
            acc[tkey] = acc.get(tkey, 0) + sign
        out[mask] = {k: c for k, c in acc.items() if c}
    return out


def relabel_oracle(table: _StateTable, bits: int, v: int) -> List[int]:
    """Where d_v sends the labels of the circles of the smoothing ``bits``
    that do not touch v: the target bit of each mask, the touched circles'
    labels left out.  Each circle is matched to the target circle holding
    its least dart, found by a scan of the circle ids per dart (a common
    circle keeps its dart set), and a mask's image is the union of its
    circles' images."""
    circ_of, types, _, _ = table.structure(bits)
    circ_of2 = table.structure(bits | (1 << v))[0]
    img = [1 << circ_of2[circ_of.index(c)] for c in range(len(types))]
    for d in range(4 * v, 4 * v + 4):
        img[circ_of[d]] = 0
    images = [0]
    for bit in img:
        images += [image | bit for image in images]
    return images


def incidence_operator(diagram, bits: int, v: int) -> Dict[int, Dict[Tuple[int, int], int]]:
    """Brute-force d_v from the incidence-number conditions 1..4.

    For each source labeling, every labeling of the target smoothing is
    enumerated and kept iff common circles (matched by dart sets) carry
    the same labels and both j and k are preserved.  Masks make the
    per-pair checks cheap, but every pair is genuinely tested.
    """
    table = _StateTable(diagram)
    circ_of, types, _, _ = table.structure(bits)
    bits2 = bits | (1 << v)
    circ_of2, types2, _, _ = table.structure(bits2)
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


def canonical_code_oracle(diagram: OrientedDiagram) -> str:
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


def nesting_oracle(
    diagram: OrientedDiagram,
    tau: List[int],
    circ_of: List[int],
    ncirc: int,
) -> Dict[int, Optional[int]]:
    """Circle nesting by the parity walk that ``states._nesting_forest``
    replaced: each face gets the set of circles around it, and a circle's
    parent is its deepest ancestor."""
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


def homology_table_oracle(dm: DifferentialMatrix) -> dict:
    """Betti numbers and torsion per (i, j, k), each block reduced on its
    own: the invariant factors of ``smith_normal_form(dm.matrix_dense(g))``
    for every block g, with trivial groups omitted."""
    return _table_of_factors(
        dm, {g: smith_normal_form(dm.matrix_dense(g)) for g in dm.matrices})


def rows_of(entries: dict) -> dict:
    """The nonzero entries ``{(row, col): value}`` of a block as rows
    ``{row: {col: value}}``, to give a block all its rows at once."""
    rows: Dict[int, Dict[int, int]] = {}
    for (r, c), v in entries.items():
        if v:
            row = rows.get(r)
            if row is None:
                rows[r] = {c: v}
            else:
                row[c] = v
    return rows


def sparse_factors(entries: dict, cancelled=(), pivot_rows: set = None) -> list:
    """The invariant factors of the block ``{(row, col): entry}`` by the
    sparse elimination, ``homology._Block``: every row taken at once, the
    columns ``cancelled`` gone; ``pivot_rows``, when given, receives the
    rows pivoted on."""
    block = _Block(cancelled)
    block.take(rows_of(entries))
    factors = block.invariant_factors()
    if pivot_rows is not None:
        pivot_rows |= block.pivot_rows
    return factors


def homology_table_all_blocks(dm: DifferentialMatrix) -> dict:
    """Betti numbers and torsion per (i, j, k), each block reduced on its
    own by the sparse elimination: ``sparse_factors`` of every block g of
    ``dm``, k < 0 included, with no column skipped and no block read for
    another."""
    return _table_of_factors(
        dm, {g: sparse_factors(entries) for g, entries in dm.matrices.items()})


def homology_table_of_given_blocks(dm: DifferentialMatrix) -> dict:
    """Betti numbers and torsion per (i, j, k) by the reduction of
    ``homology._homology_table``, each block read whole from ``dm``: layer
    by layer, i from the highest down, every block with k >= 0 takes all
    its rows at once (``sparse_factors``) with the rows that the block
    above pivoted on gone as columns, and a block with k < 0 has the
    factors of the block at (i, j, -k)."""
    top, bottom = max(i for i, _, _ in dm.dims), min(i for i, _, _ in dm.dims)
    factors: dict = {}
    cancelled: dict = {}
    for i in range(top, bottom - 1, -1):
        pivots = {}
        for g in dm.dims:
            if g[0] == i and g[2] >= 0:
                pivots[(i - 1, g[1], g[2])] = pivot_rows = set()
                factors[g] = sparse_factors(
                    dm.matrices.get(g, {}), cancelled.get(g, ()), pivot_rows)
        cancelled = pivots
    for i, j, k in dm.dims:
        factors[(i, j, k)] = factors[(i, j, abs(k))]
    return _table_of_factors(dm, factors)


def _table_of_factors(dm: DifferentialMatrix, factors: dict) -> dict:
    table = {}
    for g, dim in dm.dims.items():
        i, j, k = g
        incoming = factors.get((i + 1, j, k), [])
        betti = dim - len(factors.get(g, [])) - len(incoming)
        assert betti >= 0, (g, betti)
        torsion = tuple(f for f in incoming if f > 1)
        if betti or torsion:
            table[g] = (betti, torsion)
    return table


def site_oracle(diagram: OrientedDiagram, pairs: bool = True) -> Dict[str, list]:
    """The (kind, anchor) lists of ``find_sites`` for IIa_remove, III,
    IIa_insert and IIb_insert, by brute force from the definitions in the
    ``moves`` docstring: every global face but the outer one for removals
    and slides, every ordered pair of darts for insertions (without
    ``pairs``, the removals and slides only).  It reads the diagram's
    tables only, and calls nothing of ``moves``."""
    n4 = 4 * diagram.n
    gface = [diagram.global_face_of_dart(d) for d in range(diagram.ndarts)]
    comp = [diagram.comp_of_vertex[diagram.vertex_of(d)] for d in range(diagram.ndarts)]
    edges, edge_of, is_tail = diagram.edges, diagram.edge_of, diagram.is_tail

    def over(d):
        return d & 1 == diagram.over_parity[d >> 2]

    def plain(darts):
        # darts at distinct unfused crossings, on distinct edges
        crossings = {d >> 2 for d in darts}
        return (all(d < n4 for d in darts) and len(crossings) == len(darts)
                and not crossings & set(diagram.fused)
                and len({edge_of[d] for d in darts}) == len(darts))

    inner: Dict[int, List[int]] = {}
    for d in range(diagram.ndarts):
        if gface[d] != diagram.outer_face:
            inner.setdefault(gface[d], []).append(d)
    removals, slides = [], []
    for darts in inner.values():
        if len(darts) == 2 and plain(darts):
            (t0, h0, _), (t1, _, _) = edges[edge_of[darts[0]]], edges[edge_of[darts[1]]]
            # two edges leaving one crossing (coherent), of opposite signs,
            # one strand over at both of its ends
            if (t0 >> 2 == t1 >> 2 and diagram.signs[darts[0] >> 2] != diagram.signs[darts[1] >> 2]
                    and over(t0) == over(h0)):
                removals.append(("IIa_remove", tuple(darts)))
        if len(darts) == 3:
            u = [darts[0]]
            while len(u) < 3:
                u.append(diagram.sigma(diagram.alpha[u[-1]]))
            tails = [is_tail[d] for d in u]
            if not plain(u) or sorted(u) != sorted(darts) or sum(tails) in (0, 3):
                continue
            # strand j runs on edge(u[j]); at u[j]'s crossing it meets strand j - 1
            wins = [0, 0, 0]
            for j in range(3):
                wins[j if over(u[j]) else j - 1] += 1
            if sorted(wins) != [0, 1, 2]:
                continue  # a cyclic over-relation
            lone = tails.index(sum(tails) == 1)
            # the variant letter: (edges along the flow, the doubly-over strand
            # counted from the lone edge), with the positive braid relation IIIa
            family = 0 if sum(tails) == 1 else 3
            slides.append(("III" + "abcdef"[family + (wins.index(2) - lone + 1) % 3], tuple(u)))
    coherent, antiparallel = [], []
    for a in range(diagram.ndarts if pairs else 0):
        for b in range(diagram.ndarts):
            if gface[a] != gface[b] or comp[a] != comp[b] or edge_of[a] == edge_of[b]:
                continue
            for flag in (False, True):
                if not is_tail[a] and is_tail[b]:
                    coherent.append(("IIa_insert", (a, b, flag)))
                if a < b and is_tail[a] == is_tail[b]:
                    antiparallel.append(("IIb_insert", (a, b, flag)))
    return {"IIa_remove": sorted(removals), "III": sorted(slides),
            "IIa_insert": coherent, "IIb_insert": antiparallel}
