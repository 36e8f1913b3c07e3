"""Integer homology of the tri-graded complex via Smith normal form.

For each tridegree, H = ker(outgoing d) / im(incoming d); the Betti number
is dim C - rank(out) - rank(in) and the torsion coefficients are the
invariant factors of the incoming matrix that exceed 1.  Everything is
exact arbitrary-precision integer arithmetic; an independent fraction-free
rank (Bareiss) is provided as an oracle for the SNF-derived ranks.

The differential d_i: C_i -> C_(i-1) keeps j and k, and the engine under
``homology_groups``, ``_homology_table``, walks the cube of smoothings one
layer at a time, i from the highest down
(layer p holds the smoothings with p A^-1-smoothed crossings, in degree
i_top - p).  Bar-Natan's Gaussian-elimination lemma (*Fast Khovanov
homology computations*, arXiv math/0606318) says what a unit pivot leaves
behind.  Split off the pivot's column c of C_i and row r of C_(i-1):

    C_i = <c> + D  --[[phi, delta], [gamma, eps]]-->  <r> + E = C_(i-1)
        --(mu  nu)-->  C_(i-2),

with phi = +-1.  This complex is homotopy equivalent to D --(eps - gamma
phi^-1 delta)--> E --nu--> C_(i-2): d_i becomes the Schur complement that
the elimination leaves, and d_(i-1) keeps its entries but loses column r.
Its invariant factors do not change.  The first column of d_(i-1) d_i = 0
reads mu phi + nu gamma = 0, so mu = -nu gamma phi^-1 is an integer
combination of the other columns; a unimodular column operation clears
it, and a zero column has no invariant factor.  The same holds pivot by
pivot on the reduced matrices, so the rows that d_i pivots on are
generators that the next layer never assembles as columns of d_(i-1),
and that block starts smaller and fills in less.  Only the current
layer's blocks are held.

Within a block, most unit pivots are rows with a single entry.  In the
notation above such a row r is (phi, delta) with delta = 0, so the Schur
complement eps - gamma phi^-1 delta is eps: the pivot deletes row r and
column c and changes nothing else.  Such a pivot can therefore be taken
as soon as its row is complete, before the rows after it are known: no
earlier one-entry pivot changed an entry, so a complete row's entries in
the block reduced so far are its entries less the columns already
pivoted.  ``chain_complex._Cube.blocks`` walks each layer target-major,
completing the rows of one smoothing of the next layer at a time, and
each block takes them in ascending row order (``_Block.take``): it
pivots on a row left with one +-1 entry, drops a row left empty, and
stores any other.  A column once pivoted is never assembled again, since
its entries are what the pivot deletes.  (Finding pivots while the
boundary is enumerated is Ripser's emergent pairs; Bauer,
arXiv:1908.02518.)  What is stored then loses, in one sweep, the
columns pivoted since, and only the few entries left are indexed by
column, for the general search and the dense Smith form.

Only the blocks with k >= 0 are assembled and reduced.  Flipping the
label of every h-circle, (bits, m) -> (bits, m ^ hmask), maps the states
at (i, j, k) one to one onto those at (i, j, -k), and it is a chain
isomorphism on any undecorated diagram: the merge and split rules read
h-labels only through whether two of them differ, or carry them over
unchanged, and a d-circle that splits into two h-circles labels them
(+, -) and (-, +) alike; j reads d-labels only; and the Koszul sign reads
the smoothing only.  So the block at (i, j, -k) is the block at (i, j, k)
with rows and columns renamed, and it has the same invariant factors.
The Betti numbers and torsion are read off the factors as above.
"""

from __future__ import annotations

from math import gcd
from typing import Collection, Dict, List, Set, Tuple

from .diagram import OrientedDiagram, braid_closure
from .laurent import Laurent2, delta_power, lp_iadd
from .states import DEFAULT_CAP
from .bracket import bracket_br, lighten, normalize
from .chain_complex import Grading, _Cube, _check_complex_cap, _get_table

HomologyTable = Dict[Grading, Tuple[int, Tuple[int, ...]]]  # (betti, torsion)


def smith_normal_form(matrix: List[List[int]]) -> List[int]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    Each step pivots on an entry of least magnitude and reduces its row and
    column by it with remainder; a nonzero remainder is smaller, so the
    step repeats until both are clear, and then the pivot is a diagonal
    entry and its row and column go.  Replacing two diagonal entries by
    their gcd and lcm keeps the group they present, which puts the diagonal
    in divisibility order.
    """
    m = [list(row) for row in matrix]
    diagonal: List[int] = []
    while True:
        entries = [(abs(v), i, j) for i, row in enumerate(m) for j, v in enumerate(row) if v]
        if not entries:
            break
        p, i, j = min(entries)
        pivot_row = m[i]
        for r, row in enumerate(m):
            if r != i and row[j]:
                q = row[j] // pivot_row[j]
                for c, v in enumerate(pivot_row):
                    row[c] -= q * v
        for c, v in enumerate(pivot_row):
            if c != j and v:
                q = v // pivot_row[j]
                for row in m:
                    row[c] -= q * row[j]
        rest_of_column = any(row[j] for r, row in enumerate(m) if r != i)
        rest_of_row = any(v for c, v in enumerate(pivot_row) if c != j)
        if rest_of_column or rest_of_row:
            continue  # a remainder is left: the next step pivots on it
        diagonal.append(p)
        del m[i]
        for row in m:
            del row[j]
    for a in range(len(diagonal)):
        for b in range(a + 1, len(diagonal)):
            g = gcd(diagonal[a], diagonal[b])
            diagonal[a], diagonal[b] = g, diagonal[a] // g * diagonal[b]
    for a, b in zip(diagonal, diagonal[1:]):
        if b % a:
            raise AssertionError("invariant factors out of divisibility order")
    return diagonal


class _Block:
    """One block of d under reduction, fed its rows as they are completed.

    ``gone`` holds the columns no longer in the block: at first those the
    block above cancelled, then also every column pivoted on.  The walk,
    ``_Cube.blocks``, feeds ``take``, which pivots online, and reads
    ``gone`` to assemble no entry in a column in it.
    ``invariant_factors`` reduces what ``take`` stored, and
    ``pivot_rows`` collects every row pivoted on.

    A one-entry pivot deletes its row and column and changes no other
    entry (the module docstring), so a complete row's entries in the
    block reduced so far are its entries less the columns gone, and it
    can be pivoted on before the rows after it are known.  An entry left
    unassembled because its column is gone is one ``take`` would drop.
    Rows fed in ascending order give the same pivots in one group or in
    several, however each group is listed.
    """

    def __init__(self, cancelled: Collection[int] = ()):
        self.gone: Set[int] = set(cancelled)
        self.rows: Dict[int, Dict[int, int]] = {}
        self.pivot_rows: Set[int] = set()

    def take(self, rows: Dict[int, Dict[int, int]]) -> None:
        """Take complete rows ``{row: {col: value}}`` in ascending row
        order: drop from each the columns gone, pivot on a row left with
        one +-1 entry (its column is then gone), drop a row left empty
        and store any other.  ``rows`` is used up."""
        gone, stored, pivot_rows = self.gone, self.rows, self.pivot_rows
        for r in sorted(rows):
            row = rows[r]
            if not gone.isdisjoint(row):
                for c in gone.intersection(row):
                    del row[c]
            if len(row) == 1:
                ((c, v),) = row.items()
                if v == 1 or v == -1:
                    gone.add(c)
                    pivot_rows.add(r)
                    continue
            if row:
                stored[r] = row

    def invariant_factors(self) -> List[int]:
        """The invariant factors of the block: a 1 for each row pivoted on,
        and those of what the elimination leaves.  The stored rows are
        used up.

        Differential blocks are overwhelmingly eliminable on unit pivots,
        so rows with a +-1 entry are pivoted away sparsely and only the
        small remainder goes through the dense Smith reduction.

        Most pivots are one-entry rows, which ``take`` pivots on as they
        arrive.  One sweep drops the columns gone since from the stored
        rows, and the rows it leaves empty.  What is left is indexed by
        column.  Each pass visits the rows shortest first, by (length,
        row), so a row that later pivots left with one entry is pivoted
        on before any longer row; a row pivots on its +-1 entry in the
        column with the fewest rows, the least such column on a tie,
        which keeps fill-in low.  A row with no unit waits for the next
        pass, and elimination stops when a pass pivots nothing.  Every
        choice is by row and column number, never by dict order, so the
        same rows give the same pivots however they are listed.
        """
        rows, gone, pivot_rows = self.rows, self.gone, self.pivot_rows
        for r in [r for r, row in rows.items() if not gone.isdisjoint(row)]:
            row = rows[r]
            for c in gone.intersection(row):
                del row[c]
            if not row:
                del rows[r]

        col_rows: Dict[int, Set[int]] = {}
        for r, row in rows.items():
            for c in row:
                col_rows.setdefault(c, set()).add(r)
        pivoted = True
        while pivoted:
            pivoted = False
            for r in sorted(rows, key=lambda r: (len(rows[r]), r)):
                row = rows.get(r)
                if row is None:
                    continue  # eliminated to zero earlier in this pass
                c = None
                fewest = 0
                for cc, v in row.items():
                    if v == 1 or v == -1:
                        n = len(col_rows[cc])
                        if c is None or n < fewest or (n == fewest and cc < c):
                            c, fewest = cc, n
                if c is None:
                    continue
                piv = row[c]
                for r2 in col_rows.pop(c):
                    if r2 == r:
                        continue
                    row2 = rows[r2]
                    mult = row2[c] * piv
                    for cc, vv in row.items():
                        nv = row2.get(cc, 0) - mult * vv
                        if nv:
                            if cc not in row2:
                                col_rows[cc].add(r2)
                            row2[cc] = nv
                        else:
                            del row2[cc]
                            if cc != c:
                                col_rows[cc].discard(r2)
                    if not row2:
                        del rows[r2]
                for cc in row:
                    if cc != c:
                        col_rows[cc].discard(r)
                del rows[r]
                pivot_rows.add(r)
                pivoted = True
        rest: List[int] = []
        if rows:
            rids = sorted(rows)
            cset = sorted({c for row in rows.values() for c in row})
            cmap = {c: i for i, c in enumerate(cset)}
            dense = [[0] * len(cset) for _ in rids]
            for i, r in enumerate(rids):
                for c, v in rows[r].items():
                    dense[i][cmap[c]] = v
            rest = smith_normal_form(dense)
        return [1] * len(pivot_rows) + rest


def rank_bareiss(matrix: List[List[int]]) -> int:
    """Rank over Q by fraction-free elimination; independent of SNF."""
    if not matrix or not matrix[0]:
        return 0
    m = [list(row) for row in matrix]
    rows, cols = len(m), len(m[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        for i in range(r + 1, rows):
            mic = m[i][c]
            mi, mr = m[i], m[r]
            for j in range(c, cols):
                mi[j] = (mi[j] * p - mic * mr[j]) // prev
        prev = p
        rank += 1
        r += 1
        if r == rows:
            break
    return rank


def homology_groups(diagram: OrientedDiagram, cap: int = DEFAULT_CAP) -> HomologyTable:
    """Betti numbers and torsion per (i, j, k); trivial groups are omitted.

    The homology of a braid closure is computed on the closure of its
    freely and cyclically reduced word (``BraidWord.reduced``), once the
    size cap holds on ``diagram``.
    Cancelling an adjacent pair sigma_i sigma_i^-1 removes a bigon whose
    two strands run the same way, as every strand of a braid does: a II_a
    move, under which the paper's refined homology is invariant, gradings
    and all.  Stripping g u -g to u rotates the word to u -g g and cancels
    the last pair.  Rotating a word rotates its closure about the braid
    axis: the same planar map, with the same outer face and the same face
    around the axis, so every state circle keeps its winding number, and
    only the crossings are numbered in another order, which the homology
    does not see.  So the reduced closure has the same table.

    The reduced word then descends: each step takes the first of its
    rewrites (``BraidWord.rewrites``) that reduces to a shorter word, and
    the descent stops when none does.  Each step drops at least two
    letters, so it ends.  A far commutation sigma_i^e sigma_j^f =
    sigma_j^f sigma_i^e, |i - j| >= 2, slides two crossings on disjoint
    strands past each other: the same planar map, with only the crossings
    numbered in another order.  A braid relation sigma_i^e sigma_j^f
    sigma_i^g = sigma_j^g sigma_i^f sigma_j^e, |i - j| = 1, is a III move
    on three strands that all run upward, so coherently oriented: a
    braid-like move.  So the descended closure has the same table too.

    A diagram that is no closure is computed as given, and so is
    everything that shows or checks the complex of ``diagram``
    (``_homology_table``).
    """
    word = diagram.braid_word
    if word is not None:
        _check_complex_cap(diagram, cap)  # the cap is read on the input
        # the reduced word, then the first rewrite that reduces shorter,
        # until none does: each step drops at least two letters
        short, candidates = None, iter((word,))
        while (w := next(candidates, None)) is not None:
            w = w.reduced()
            if short is None or len(w.letters) < len(short.letters):
                short, candidates = w, w.rewrites()
        if short != word:
            diagram = braid_closure(short)
    return _homology_table(diagram, cap)


def _homology_table(diagram: OrientedDiagram, cap: int = DEFAULT_CAP) -> HomologyTable:
    """The homology table of ``diagram`` as given, with no reduction of
    its word: the engine under ``homology_groups``, and the computation
    that the checks of the complex and of invariance call.

    The cube is walked one layer at a time, i from the highest down.  The
    blocks out of a layer with k >= 0 are reduced, and the rows that d_i
    pivots on are generators of C_(i-1) that the Gaussian-elimination
    lemma cancels: the next layer's blocks, d_(i-1), leave those columns
    out, and their invariant factors do not change, because d_(i-1) d_i = 0
    puts each such column in the span of the others.  A block with k < 0
    has the factors of the block at (i, j, -k), which flipping h-labels
    maps onto it.  The module docstring gives both arguments.

    Each block is a ``_Block`` that starts with the cancelled columns
    gone.  ``chain_complex._Cube.blocks`` assembles each layer's blocks
    into them as the walk reaches it, one target smoothing at a time, in
    ascending row order, and assembles no entry in a column gone.
    """
    cube = _Cube(_get_table(diagram, cap))
    # the block at g is the differential out of g, so each is read twice:
    # as g's outgoing map and as the incoming map of (i - 1, j, k)
    factors: Dict[Grading, List[int]] = {}
    cancelled: Dict[Grading, Set[int]] = {}  # pivot rows of the layer above
    for p in range(cube.table.n + 1):
        blocks = {g: _Block(cancelled.get(g, ())) for g in cube.place(p) if g[2] >= 0}
        cube.blocks(p, blocks)
        cancelled = {}
        for g, block in blocks.items():
            i, j, k = g
            factors[g] = block.invariant_factors()
            cancelled[(i - 1, j, k)] = block.pivot_rows
    table: HomologyTable = {}
    for g, dim in cube.dims.items():
        i, j, k = g
        k = abs(k)
        incoming = factors.get((i + 1, j, k), ())
        betti = dim - len(factors.get((i, j, k), ())) - len(incoming)
        torsion = tuple(f for f in incoming if f > 1)
        if betti < 0:
            raise AssertionError(f"negative Betti number {betti} at {g}")
        if betti or torsion:
            table[g] = (betti, torsion)
    return table


def homology_to_json(table: HomologyTable, euler: Laurent2) -> dict:
    return {
        "groups": [
            {"i": i, "j": j, "k": k, "betti": b, "torsion": list(tor)}
            for (i, j, k), (b, tor) in sorted(table.items())
        ],
        "euler": {f"({a},{h})": c for (a, h), c in sorted(euler.items())},
    }


def euler_characteristic(table: HomologyTable) -> Laurent2:
    """Sum of (-1)^i (-A^2)^j (-H^2)^k betti over the table, in (A, H)."""
    out: Laurent2 = {}
    for (i, j, k), (betti, _) in table.items():
        sign = -1 if (i + j + k) % 2 else 1
        lp_iadd(out, {(2 * j, 2 * k): sign * betti})
    return out


def lightened_in_h(diagram: OrientedDiagram, cap: int = DEFAULT_CAP) -> Laurent2:
    """Normalized lightened bracket with chi expanded as -H^2 - H^-2."""
    lightened = lighten(normalize(diagram, bracket_br(diagram, cap=cap)))
    out: Laurent2 = {}
    for (a, m), c in lightened.items():
        # chi^m has the coefficients of DELTA^m, read in H
        lp_iadd(out, {(a, h): hc for h, hc in delta_power(m).items()}, factor=c)
    return out


def check_euler_identity(diagram: OrientedDiagram, cap: int = DEFAULT_CAP) -> bool:
    """Graded Euler characteristic of the homology vs the lightened bracket.

    Both sides are compared in the H variable: chi powers of the bracket
    expand through chi = -H^2 - H^-2, while each homology class at level k
    contributes the monomial (-H^2)^k.  The homology is computed on
    ``diagram`` as given, never on a reduced word.
    """
    return lightened_in_h(diagram, cap=cap) == euler_characteristic(
        _homology_table(diagram, cap)
    )
