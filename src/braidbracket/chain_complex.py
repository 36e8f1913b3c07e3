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

A labeling is a bit mask over circle ids (1 = plus).  Everything about
d_v that does not depend on the labels is computed once per (smoothing,
crossing) by ``_StateTable.rule``; applying it to one labeling is a few integer
operations.  The blocks of d are assembled in one place, ``_Cube.blocks``,
one layer of the cube of smoothings at a time and target-major: the rows
of one smoothing of the next layer are completed together and handed to
their blocks.  ``differential_matrices`` keeps every row of every layer;
``homology._homology_table`` pivots on one-entry rows as it takes them,
and the walk assembles no entry in a column already pivoted.

The basis is placed one layer at a time too, when the walk first needs
the layer (``_Cube.place``).  Every state of a tridegree lies in one
layer, as i depends only on the number of A^-1-smoothed crossings, and
its generators are numbered by smoothing in ascending order (bit v is
crossing v), then by labeling in canonical order (circle 0's label
first, minus before plus).  ``enhanced_states`` lists the same basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Tuple

from .diagram import BraidWord, OrientedDiagram
from .states import (
    DEFAULT_CAP,
    _check_cap,
    _circle_type,
    _tau,
    _trace_circles,
)

Grading = Tuple[int, int, int]
StateKey = Tuple[int, int]  # (smoothing bits, label bits: 1 = plus)


@dataclass(frozen=True)
class EnhancedState:
    bits: int  # the smoothing, bit v = choice at crossing v
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
        return (self.bits, mask)


# (circ_of, types, dmask, hmask): see ``_StateTable.structure``
_Structure = Tuple[Tuple[int, ...], Tuple[str, ...], int, int]
# (cell, rank, firsts, count): see ``_StateTable.template``
_Template = Tuple[List[int], List[int], List[Tuple[int, int, int]], List[int]]
# (bits2, x, y, keep, lo, hi, extra): see ``_StateTable.rule``
_Rule = Tuple[int, int, int, int, int, int, Tuple[Tuple[int, ...], ...]]


class _StateTable:
    """Per-smoothing structure shared by the complex routines."""

    def __init__(self, diagram: OrientedDiagram):
        if diagram.fused:
            raise ValueError("chain complex is defined for undecorated diagrams")
        self.diagram = diagram
        self.n = diagram.n
        self.w = diagram.writhe()
        # traced structures; ``_Cube.blocks`` drops each after its last use
        self._smoothings: Dict[int, _Structure] = {}
        # rules for ``_dv_terms``, which asks for each one once per labeling
        self.rules: Dict[Tuple[int, int], _Rule] = {}
        self._orders: Dict[int, List[int]] = {}
        self._templates: Dict[Tuple[int, int], _Template] = {}
        # ``extra`` of the rules, by the types and target ids of their circles
        self._extras: Dict[Tuple[str, str, str, str, int, int], Tuple[Tuple[int, ...], ...]] = {}

    def structure(self, bits: int) -> _Structure:
        """(circle id per dart, circle types, d-circle mask, h-circle mask)
        of one smoothing."""
        hit = self._smoothings.get(bits)
        if hit is None:
            tau = _tau(self.diagram, bits)
            circ_of, bps = _trace_circles(self.diagram, tau)
            types = tuple(_circle_type(bp) for bp in bps)
            dmask = sum(1 << idx for idx, t in enumerate(types) if t == "d")
            hmask = ((1 << len(types)) - 1) ^ dmask
            hit = self._smoothings[bits] = (tuple(circ_of), types, dmask, hmask)
        return hit

    def gradings(self, bits: int, labelmask: int) -> Grading:
        _, _, dmask, hmask = self.structure(bits)
        tau_d = 2 * (labelmask & dmask).bit_count() - dmask.bit_count()
        tau_h = 2 * (labelmask & hmask).bit_count() - hmask.bit_count()
        return self.grading(bits, tau_d, tau_h)

    def grading(self, bits: int, tau_d: int, tau_h: int) -> Grading:
        sig = self.n - 2 * bits.bit_count()
        return ((sig - self.w) // 2, (sig - 3 * self.w + 2 * tau_d) // 2, tau_h)

    def label_order(self, ncirc: int) -> List[int]:
        """Label masks of ``ncirc`` circles in canonical basis order: by the
        label of circle 0, then circle 1, and so on, minus before plus."""
        hit = self._orders.get(ncirc)
        if hit is None:
            hit = self._orders[ncirc] = sorted(
                range(1 << ncirc), key=lambda m: [(m >> idx) & 1 for idx in range(ncirc)]
            )
        return hit

    def template(self, ncirc: int, dmask: int) -> _Template:
        """Where the labelings of a smoothing with ``ncirc`` circles and
        d-circle mask ``dmask`` fall among its tridegrees.

        Returns ``(cell, rank, firsts, count)``.  A labeling's tridegree
        depends only on its numbers of plus d- and h-circles, its cell:
        ``cell[m]`` is that of mask ``m`` and ``rank[m]`` its place among
        the masks of its cell in canonical basis order.  ``firsts`` lists
        each cell with its tau_d and tau_h, in order of first appearance in
        that order, and ``count`` the size of each cell.
        """
        hit = self._templates.get((ncirc, dmask))
        if hit is None:
            hmask = ((1 << ncirc) - 1) ^ dmask
            nd, nh = dmask.bit_count(), hmask.bit_count()
            count = [0] * ((nd + 1) * (nh + 1))
            cell = [0] * (1 << ncirc)
            rank = [0] * (1 << ncirc)
            firsts: List[Tuple[int, int, int]] = []
            for m in self.label_order(ncirc):
                plus_d, plus_h = (m & dmask).bit_count(), (m & hmask).bit_count()
                c = cell[m] = plus_d * (nh + 1) + plus_h
                if not count[c]:
                    firsts.append((c, 2 * plus_d - nd, 2 * plus_h - nh))
                rank[m] = count[c]
                count[c] += 1
            hit = self._templates[(ncirc, dmask)] = (cell, rank, firsts, count)
        return hit

    def rule(self, bits: int, v: int) -> _Rule:
        """d_v on every labeling of the smoothing ``bits`` (v A-smoothed).

        Returns ``(bits2, x, y, keep, lo, hi, extra)``.  The circles
        touching v are ``x`` and ``y`` (``y == x`` for a split).  Every
        other circle keeps its dart set and its label, and its new id is a
        shift of its old one: the untouched labels of mask ``m`` are
        ``(m & keep) | (m >> lo << hi)`` in the target.  This holds because
        circle ids are the ranks of the circles' least darts
        (``_trace_circles`` walks them in that order).  A merge of x < y
        leaves one circle with x's least dart, so it keeps id x; the
        circles below y keep their ids and those above y move down by one
        (``keep`` is the bits below y but x, ``lo = y + 1``, ``hi = y``).
        A split of x leaves the circle with x's least dart at id x and a
        new circle z > x; the circles below z keep their ids and those
        from z up move up by one (``keep`` is the bits below z but x,
        ``lo = z``, ``hi = z + 1``).  That x keeps its id is checked.  The
        touched labels give the key ``(mask >> x & 1) | (mask >> y & 1) << 1``,
        and ``extra[key]`` lists the target bits of the new circles, one
        entry per term of d_v (0, 1 or 2 of them).
        """
        circ_of, types, _, _ = self.structure(bits)
        bits2 = bits | (1 << v)
        circ_of2, types2, _, _ = self.structure(bits2)
        # the four darts at v lie on one circle or two, before and after
        at_v = circ_of[4 * v:4 * v + 4]
        at_v2 = circ_of2[4 * v:4 * v + 4]
        x, y = min(at_v), max(at_v)
        y2, z = min(at_v2), max(at_v2)
        if y2 != x:
            raise AssertionError(f"crossing {v}: circle {x} became circle {y2}")
        if x != y:
            if y2 != z or len(types2) != len(types) - 1:
                raise AssertionError(f"crossing {v}: a merge must leave one circle")
            keep, lo, hi = ((1 << y) - 1) ^ (1 << x), y + 1, y
        elif y2 == z or len(types2) != len(types) + 1:
            raise AssertionError(f"crossing {v}: a split must leave two circles")
        else:
            keep, lo, hi = ((1 << z) - 1) ^ (1 << x), z, z + 1

        key = (types[x], types[y], types2[y2], types2[z], y2, z)
        extra = self._extras.get(key)
        if extra is None:
            extra = self._extras[key] = _rule_extra(*key)
        return (bits2, x, y, keep, lo, hi, extra)


def _rule_extra(
    tx: str, ty: str, ty2: str, tz: str, y2: int, z: int
) -> Tuple[Tuple[int, ...], ...]:
    """``extra`` of a rule whose circles ``x`` and ``y`` (types ``tx``,
    ``ty``) become ``y2`` and ``z`` (types ``ty2``, ``tz``); one circle on
    either side when the two are equal."""
    extra: List[Tuple[int, ...]] = [()] * 4
    if y2 == z:
        for key in range(4):
            lz = _merge_label(tx, 1 if key & 1 else -1, ty, 1 if key & 2 else -1, tz)
            if lz is not None:
                extra[key] = (1 << z if lz > 0 else 0,)
    else:
        for key, lx in ((0, -1), (3, 1)):
            extra[key] = tuple(
                (1 << y2 if ly > 0 else 0) | (1 << z if lz > 0 else 0)
                for ly, lz in _split_labels(tx, lx, ty2, tz)
            )
    return tuple(extra)


def _check_complex_cap(diagram: OrientedDiagram, cap: int) -> None:
    """The complex's size-cap guard.  A component without a crossing counts
    as one crossing: its circle doubles the labelings of every smoothing,
    as a crossing doubles the smoothings."""
    comp = diagram.comp_of_vertex
    loops = len(set(comp[diagram.n:]).difference(comp[:diagram.n]))
    _check_cap(diagram.n + loops, cap)


def _check_word_cap(word: BraidWord, cap: int) -> None:
    """``_check_complex_cap`` on the closure of ``word``, read off the word
    before the closure is built: a letter is a crossing, and a strand that
    no letter touches closes into a component without one."""
    touched = {abs(g) for g in word.letters} | {abs(g) + 1 for g in word.letters}
    _check_cap(len(word.letters) + word.strands - len(touched), cap)


def _get_table(diagram: OrientedDiagram, cap: int) -> _StateTable:
    """A fresh structure table for ``diagram``, after the size-cap check."""
    _check_complex_cap(diagram, cap)
    return _StateTable(diagram)


def _merge_label(tx: str, lx: int, ty: str, ly: int, tz: str) -> Optional[int]:
    """Label of the merged circle, or None when the incidence number is 0."""
    if tx == "d" and ty == "d":
        if tz != "d":
            raise AssertionError("two d-circles merge into a d-circle")
        if lx == 1 and ly == 1:
            return None
        return 1 if lx != ly else -1
    if tx == "h" and ty == "h":
        if tz != "d":
            raise AssertionError("two h-circles merge into a d-circle")
        return 1 if lx != ly else None
    # one d, one h: the merge keeps the h label and needs the d labelled minus
    if tz != "h":
        raise AssertionError("a d-circle and an h-circle merge into an h-circle")
    ld, lh = (lx, ly) if tx == "d" else (ly, lx)
    return lh if ld == -1 else None


def _split_labels(tx: str, lx: int, ty: str, tz: str) -> List[Tuple[int, int]]:
    """Label pairs (for the two offspring, in circle-id order) of a split."""
    if tx == "d":
        if ty != tz:
            raise AssertionError("d-circle splits into two circles of one type")
        if lx == -1:
            return [(1, -1), (-1, 1)]
        return [(1, 1)] if ty == "d" else []
    if {ty, tz} != {"d", "h"}:
        raise AssertionError("h-circle splits into a d and an h circle")
    if ty == "d":
        return [(1, lx)]
    return [(lx, 1)]


def _dv_terms(
    table: _StateTable, bits: int, labelmask: int, v: int
) -> List[Tuple[int, int]]:
    """Unsigned targets of d_v on one enhanced state, as (bits', labelmask')."""
    rule = table.rules.get((bits, v))
    if rule is None:
        rule = table.rules[(bits, v)] = table.rule(bits, v)
    bits2, x, y, keep, lo, hi, extra = rule
    common = (labelmask & keep) | (labelmask >> lo << hi)
    key = ((labelmask >> x) & 1) | ((labelmask >> y) & 1) << 1
    return [(bits2, common | e) for e in extra[key]]


def _koszul_sign(bits: int, v: int) -> int:
    return -1 if (bits >> (v + 1)).bit_count() & 1 else 1


def _make_enhanced(table: _StateTable, bits: int, labelmask: int) -> EnhancedState:
    ncirc = len(table.structure(bits)[1])
    labels = tuple(1 if (labelmask >> idx) & 1 else -1 for idx in range(ncirc))
    i, j, k = table.gradings(bits, labelmask)
    return EnhancedState(bits, labels, i, j, k)


def enhanced_states(
    diagram: OrientedDiagram, cap: int = DEFAULT_CAP
) -> Dict[Grading, List[EnhancedState]]:
    """All enhanced states bucketed by (i, j, k), in canonical basis order."""
    return _enhanced_states(_get_table(diagram, cap))


def _enhanced_states(table: _StateTable) -> Dict[Grading, List[EnhancedState]]:
    buckets: Dict[Grading, List[EnhancedState]] = {}
    for bits in range(1 << table.n):
        for m in table.label_order(len(table.structure(bits)[1])):
            s = _make_enhanced(table, bits, m)
            buckets.setdefault((s.i, s.j, s.k), []).append(s)
    return buckets


def incidence(
    s: EnhancedState, s2: EnhancedState, v: int, diagram: OrientedDiagram
) -> int:
    """Incidence number: 1 iff the four defining conditions hold, else 0.

    This is the slow, definition-level check used as the oracle for the
    rule table: common circles are matched by comparing dart sets.
    """
    bits, bits2 = s.bits, s2.bits
    if (bits >> v) & 1 or not (bits2 >> v) & 1:
        return 0
    if bits2 ^ bits != 1 << v:
        return 0
    table = _StateTable(diagram)
    circ_of = table.structure(bits)[0]
    circ_of2 = table.structure(bits2)[0]
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
    bits = s.bits
    if (bits >> v) & 1:
        raise ValueError(f"crossing {v} is not A-smoothed in this state")
    table = _StateTable(diagram)
    sign = _koszul_sign(bits, v)
    out: Dict[EnhancedState, int] = {}
    for (bits2, mask2) in _dv_terms(table, bits, s.key[1], v):
        t = _make_enhanced(table, bits2, mask2)
        out[t] = out.get(t, 0) + sign
    return {t: c for t, c in out.items() if c}


def partial_differential_oracle(
    s: EnhancedState, v: int, diagram: OrientedDiagram
) -> Dict[EnhancedState, int]:
    """d_v straight from the incidence-number definition (brute force)."""
    bits = s.bits
    if (bits >> v) & 1:
        raise ValueError(f"crossing {v} is not A-smoothed in this state")
    table = _StateTable(diagram)
    bits2 = bits | (1 << v)
    types2 = table.structure(bits2)[1]
    sign = _koszul_sign(bits, v)
    out: Dict[EnhancedState, int] = {}
    for mask2 in range(1 << len(types2)):
        target = _make_enhanced(table, bits2, mask2)
        if incidence(s, target, v, diagram):
            out[target] = out.get(target, 0) + sign
    return out


@dataclass
class DifferentialMatrix:
    """Sparse integer differentials per tridegree, columns in degree i.

    ``dims`` holds the size of every tridegree of the basis; ``basis``
    lists its enhanced states, built on first read.
    """

    diagram: OrientedDiagram
    dims: Dict[Grading, int]
    matrices: Dict[Grading, Dict[Tuple[int, int], int]]  # (row in i-1, col in i)

    @cached_property
    def basis(self) -> Dict[Grading, List[EnhancedState]]:
        return _enhanced_states(_StateTable(self.diagram))

    def matrix_dense(self, g: Grading) -> List[List[int]]:
        i, j, k = g
        rows = self.dims.get((i - 1, j, k), 0)
        cols = self.dims.get(g, 0)
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
                    "rows": self.dims.get((i - 1, j, k), 0),
                    "cols": self.dims.get((i, j, k), 0),
                    "entries": [[r, c, v] for (r, c), v in sorted(ent.items())],
                }
            )
        return out

    def check_d_squared(self) -> bool:
        for (i, j, k), m1 in self.matrices.items():
            m0 = self.matrices.get((i - 1, j, k))
            if not m0:
                continue
            # m0 by column: the middle basis index of the product
            m0_cols: Dict[int, List[Tuple[int, int]]] = {}
            for (r0, mid), v0 in m0.items():
                m0_cols.setdefault(mid, []).append((r0, v0))
            by_col: Dict[int, List[Tuple[int, int]]] = {}
            for (mid, c), v1 in m1.items():
                by_col.setdefault(c, []).append((mid, v1))
            for col in by_col.values():
                acc: Dict[int, int] = {}
                for mid, v1 in col:
                    for r0, v0 in m0_cols.get(mid, ()):
                        acc[r0] = acc.get(r0, 0) + v0 * v1
                if any(acc.values()):
                    return False
        return True


class _Whole:
    """A block of d kept whole, as ``differential_matrices`` returns it: no
    column is gone, and ``take`` writes every entry of the rows it is given
    into ``entries``, ``{(row, col): entry}``, the rows in the order taken."""

    gone: FrozenSet[int] = frozenset()

    def __init__(self) -> None:
        self.entries: Dict[Tuple[int, int], int] = {}

    def take(self, rows: Dict[int, Dict[int, int]]) -> None:
        entries = self.entries
        for r, row in rows.items():
            for c, val in row.items():
                entries[r, c] = val


def _layer(n: int, p: int) -> Iterator[int]:
    """The smoothings of ``n`` crossings with ``p`` bits set, ascending:
    each is the next integer with as many bits (Gosper's hack)."""
    bits = (1 << p) - 1
    while bits < 1 << n:
        yield bits
        if not bits:
            return
        low = bits & -bits
        high = bits + low
        bits = high | (bits ^ high) // low >> 2


class _Cube:
    """The basis of the complex, and its blocks assembled one layer of the
    cube of smoothings at a time.

    Layer ``p`` holds the smoothings with ``p`` A^-1-smoothed crossings,
    ascending, generated each time they are read (``_layer``); their
    states sit in degree ``i = i_top - p``, and d maps layer ``p`` into
    layer ``p + 1``.  A layer is traced and placed, and its tridegrees'
    sizes added to ``dims``, when first asked for (``place``); placements
    are listed only for the layers in hand.
    """

    def __init__(self, table: _StateTable):
        self.table = table
        self.dims: Dict[Grading, int] = {}
        self._tridegrees: Dict[int, Dict[Grading, int]] = {}
        # (tridegree id in its layer, column) per labeling of a smoothing,
        # kept until its last use as a source of d
        self._placed: Dict[int, Tuple[List[int], List[int]]] = {}

    def place(self, p: int) -> Dict[Grading, int]:
        """The tridegrees of layer ``p`` in order of first appearance, each
        with its id in the layer; the layer is placed on the first call.
        Mask ``m`` of a smoothing falls in its template's cell ``cell[m]``
        and gets the column after those of the cell's tridegree placed so
        far, plus ``rank[m]``."""
        ids = self._tridegrees.get(p)
        if ids is None:
            table = self.table
            taus: Dict[Tuple[int, int], int] = {}  # i is the layer's
            sizes: List[int] = []
            for bits in _layer(table.n, p):
                _, types, dmask, _ = table.structure(bits)
                cell, rank, firsts, count = table.template(len(types), dmask)
                gid = [0] * len(count)
                base = [0] * len(count)
                for c, tau_d, tau_h in firsts:
                    g = gid[c] = taus.setdefault((tau_d, tau_h), len(taus))
                    if g == len(sizes):
                        sizes.append(0)
                    base[c] = sizes[g]
                    sizes[g] += count[c]
                self._placed[bits] = (
                    [gid[c] for c in cell], [base[c] + r for c, r in zip(cell, rank)]
                )
            ids = self._tridegrees[p] = {
                table.grading((1 << p) - 1, tau_d, tau_h): g for (tau_d, tau_h), g in taus.items()
            }
            self.dims.update(zip(ids, sizes))
        return ids

    def blocks(self, p: int, blocks: Dict[Grading, Any]) -> None:
        """Assemble the blocks of d out of layer ``p`` into ``blocks``.

        Only the blocks ``g`` listed are assembled, each into its
        ``blocks[g]``, which has a set ``gone`` of columns not to assemble
        and a method ``take(rows)`` that receives complete rows ``{row:
        {column: entry}}`` (rows are generators in degree i - 1).
        ``homology._Block`` pivots online as it takes rows, and its
        ``gone`` grows as it does; ``_Whole`` writes every entry.

        The walk is target-major.  For each smoothing ``bits2`` of layer
        ``p + 1``, ascending, and each of its A^-1-smoothed crossings v,
        the rule of (``bits2`` less v, v) is applied to the live
        labelings of that source, read from its placements: those with a
        block whose column is not gone.  The rule is made only once a
        labeling is live.  Two shifts carry the untouched labels of a mask
        to the target, and the touched labels pick the new circles' bits.
        Every entry of a row of ``bits2`` comes from one of these sources,
        so its rows are then complete, and each block takes those that are
        its own: the rows are grouped by the source tridegree g, whose
        block ``blocks[g]`` maps into the one tridegree ``down[g]`` of the
        layer (i is the layer's, so (j, k) names both ends).  Rows follow
        smoothings and then canonical labelings, so a block takes its rows
        in ascending order, smoothing by smoothing.
        Skipping a column the block pivoted on loses nothing: such a
        one-entry pivot changes no entry outside its row and column, so a
        complete row's entries in the block reduced so far are its entries
        less the columns gone (the ``homology`` module docstring).

        Layers ``p`` and ``p + 1`` are placed if they are not yet.  A
        source's placements and its structure in the table are dropped
        after its last use, the target through its highest A-smoothed
        crossing, so ``blocks`` is called once per layer, ``p``
        ascending, and when it returns the table holds layer ``p + 1``
        only.
        """
        if p == self.table.n:
            # the top layer: d out of it is zero
            self._placed.clear()
            self.table._smoothings.clear()
            return
        table = self.table
        sources, targets = self.place(p), self.place(p + 1)
        down = [targets.get((i - 1, j, k), -1) for (i, j, k) in sources]
        sinks = [blocks.get(g) for g in sources]
        gones = [None if sink is None else sink.gone for sink in sinks]
        top = (1 << table.n) - 1
        for bits2 in _layer(table.n, p + 1):
            gtgt, ptgt = self._placed[bits2]
            # the rows of bits2, by the source tridegree id of their block
            groups: Dict[int, Dict[int, Dict[int, int]]] = {}
            for v in range(table.n):
                if not (bits2 >> v) & 1:
                    continue
                bits = bits2 ^ (1 << v)
                gids, cols = self._placed[bits]
                rule = None
                for m, g in enumerate(gids):
                    gone = gones[g]
                    if gone is None:
                        continue
                    col = cols[m]
                    if col in gone:
                        continue
                    if rule is None:
                        _, x, y, keep, lo, hi, extra = rule = table.rule(bits, v)
                        sgn = _koszul_sign(bits, v)
                    terms = extra[((m >> x) & 1) | ((m >> y) & 1) << 1]
                    if not terms:
                        continue
                    want = down[g]
                    common = (m & keep) | (m >> lo << hi)
                    rows = groups.get(g)
                    if rows is None:
                        rows = groups[g] = {}
                    for e in terms:
                        t = common | e
                        if gtgt[t] != want:
                            raise AssertionError("differential degree drift")
                        # the source fixes v, and the terms of one rule are
                        # distinct: no entry is reached twice
                        row = rows.get(ptgt[t])
                        if row is None:
                            rows[ptgt[t]] = {col: sgn}
                        else:
                            row[col] = sgn
                if v == (top ^ bits).bit_length() - 1:  # the last use of bits
                    del self._placed[bits], table._smoothings[bits]
            for g, group in groups.items():
                sinks[g].take(group)


def differential_matrices(
    diagram: OrientedDiagram, cap: int = DEFAULT_CAP
) -> DifferentialMatrix:
    """Assemble the full differential, one sparse block per tridegree, from
    every layer of the cube with nothing left out (``_Cube.blocks`` into
    a ``_Whole`` per tridegree), each block held once, as the ``{(row,
    col): entry}`` its ``_Whole`` writes."""
    cube = _Cube(_get_table(diagram, cap))
    blocks: Dict[Grading, _Whole] = {}
    for p in range(cube.table.n + 1):
        layer = {g: _Whole() for g in cube.place(p)}
        cube.blocks(p, layer)
        blocks.update(layer)
    matrices = {g: block.entries for g, block in blocks.items() if block.entries}
    return DifferentialMatrix(diagram, cube.dims, matrices)


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
        circ_of, types, _, _ = table.structure(bits)
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
