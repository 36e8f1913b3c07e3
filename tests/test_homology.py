import random

import pytest

from braidbracket import chain_complex, homology
from braidbracket.bracket import _bracket_range, add_marked_circle, bracket_br
from braidbracket.diagram import (
    BraidWord,
    braid_closure,
    parse_braid_word,
    parse_pd,
    reverse_orientation,
)
from braidbracket.chain_complex import _StateTable, differential_matrices
from braidbracket.homology import (
    _Block,
    _homology_table,
    check_euler_identity,
    euler_characteristic,
    homology_groups,
    homology_to_json,
    lightened_in_h,
    rank_bareiss,
    smith_normal_form,
)
from braidbracket.moves import random_equivalent_pair

import helpers
from helpers import (
    WALK_PINS,
    homology_table_all_blocks,
    homology_table_of_given_blocks,
    homology_table_oracle,
    mirror,
    moved_diagrams,
    relabel_crossings,
    sparse_factors,
)


def test_snf_classical_examples():
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[1, 1], [1, 1]]) == [1]
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    assert smith_normal_form([]) == []


def test_snf_matches_sparse_fast_path():
    rnd = random.Random(11)
    for _ in range(40):
        rows, cols = rnd.randrange(1, 6), rnd.randrange(1, 6)
        m = [[rnd.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
        entries = {
            (r, c): m[r][c] for r in range(rows) for c in range(cols) if m[r][c]
        }
        assert sparse_factors(entries) == smith_normal_form(m)


def test_snf_sparse_fast_path_on_larger_sparse_matrices():
    # mostly +-1 entries with a few 2s and 3s: unit pivots fill in, and a
    # remainder with torsion is left for the dense reduction
    rnd = random.Random(29)
    torsion = 0
    for _ in range(60):
        rows, cols = rnd.randrange(5, 31), rnd.randrange(5, 31)
        density = rnd.uniform(0.05, 0.25)
        m = [[0] * cols for _ in range(rows)]
        for r in range(rows):
            for c in range(cols):
                if rnd.random() < density:
                    m[r][c] = rnd.choice((1, -1, 1, -1, 1, -1, 2, -2, 3))
        entries = {
            (r, c): m[r][c] for r in range(rows) for c in range(cols) if m[r][c]
        }
        factors = smith_normal_form(m)
        assert sparse_factors(entries) == factors
        torsion += any(f > 1 for f in factors)
    assert torsion
    # row 0 has no unit until row 1 is pivoted away, so it waits a pass
    deferred = {(0, 0): 2, (0, 1): 3, (1, 0): 1, (1, 1): 1}
    assert sparse_factors(deferred) == [1, 1]


def _reducer_matrix(rnd):
    """A random sparse matrix, as a dense list, built so that every part of
    the reducer runs: several one-entry unit rows in one column, one-entry
    rows of 2 or 3, rows emptied as their columns are cancelled, chains
    that leave a row with one unit only after a round, and a core without
    units that needs the dense Smith form; rows and columns shuffled."""
    rows, ncols = [], [0]

    def column():
        ncols[0] += 1
        return ncols[0] - 1

    core = [column() for _ in range(rnd.randrange(2, 6))]
    for _ in range(rnd.randrange(2, 6)):
        rows.append({c: rnd.choice((2, -2, 3, 4, 6, 0, 0)) for c in core})
    units = [column() for _ in range(rnd.randrange(1, 5))]
    for c in units:  # one-entry unit rows, several in one column
        rows += [{c: rnd.choice((1, -1))} for _ in range(rnd.randrange(1, 4))]
    for _ in range(rnd.randrange(1, 3)):  # one-entry rows that are not units
        rows.append({rnd.choice(core + [column()]): rnd.choice((2, -2, 3))})
    for _ in range(rnd.randrange(1, 4)):  # emptied once the unit columns go
        rows.append({c: rnd.choice((1, -1, 2, 3)) for c in rnd.sample(units, rnd.randint(1, len(units)))})
    previous = units
    for _ in range(rnd.randrange(1, 4)):  # each link waits a round for the one before
        link = column()
        rows.append({link: rnd.choice((1, -1)), rnd.choice(previous): rnd.choice((1, -2, 3))})
        previous = [link]
    for _ in range(rnd.randrange(0, 6)):  # noise over every column
        rows.append({rnd.randrange(ncols[0]): rnd.choice((1, -1, 2, -3))
                     for _ in range(rnd.randrange(1, 4))})
    rnd.shuffle(rows)
    perm = list(range(ncols[0]))
    rnd.shuffle(perm)
    m = [[0] * ncols[0] for _ in rows]
    for r, row in enumerate(rows):
        for c, v in row.items():
            m[r][perm[c]] = v
    return m


def test_cascade_matches_smith_normal_form_on_matrices_built_for_it():
    rnd = random.Random(41)
    torsion = remainder = 0
    for _ in range(150):
        m = _reducer_matrix(rnd)
        pivots = set()
        factors = sparse_factors(_sparse(m), pivot_rows=pivots)
        assert factors == smith_normal_form(m)
        torsion += any(f > 1 for f in factors)
        remainder += len(factors) > len(pivots)  # the dense Smith form ran
    assert torsion >= 30 and remainder >= 30


def _take(rows, cuts=()):
    """A ``_Block`` that has taken ``rows``, ``{row: {col: entry}}``, in
    ascending groups, a new group starting at each index in ``cuts`` of
    the sorted row numbers; each group is listed in descending order."""
    block = _Block()
    order = sorted(rows)
    cuts = list(cuts)
    for a, b in zip([0] + cuts, cuts + [len(order)]):
        block.take({r: dict(rows[r]) for r in reversed(order[a:b])})
    return block


def _dense(rows):
    ncols = 1 + max((c for row in rows.values() for c in row), default=-1)
    return [[rows.get(r, {}).get(c, 0) for c in range(ncols)]
            for r in range(1 + max(rows, default=-1))]


def test_online_intake_pivots_complete_rows_and_leaves_the_rest_to_the_cascade():
    # each case: the rows; the rows pivoted on as they are taken; the rows
    # stored for the reduction; and whether the dense Smith form is reached.
    # Every split into ascending groups pivots on the same rows.
    cases = [
        # row 0 pivots on column 0, which row 1 of the same group lists
        # too: row 1 is left with one unit entry and pivots on column 1
        ({0: {0: 1}, 1: {0: -1, 1: 1}}, {0, 1}, set(), False),
        # row 2 is emptied by the columns rows 0 and 1 pivot on
        ({0: {0: 1}, 1: {1: -1}, 2: {0: 2, 1: 1}}, {0, 1}, set(), False),
        # a one-entry 2 is no pivot: it waits, and reaches the dense form
        ({0: {0: 2}, 1: {1: 1, 2: 1}}, set(), {0, 1}, True),
        # ... or is emptied in the sweep when a later row takes its column
        ({0: {0: -2}, 1: {0: 1}}, {1}, {0}, False),
        # a chain that resolves only in the reduction: row 2 pivots on
        # column 2, which leaves row 1 with one unit entry, which in turn
        # leaves row 0
        ({0: {0: 1, 1: 1}, 1: {1: 1, 2: -1}, 2: {2: 1}}, {2}, {0, 1}, False),
    ]
    for rows, online, stored, dense in cases:
        factors = smith_normal_form(_dense(rows))
        pivots = None
        for split in range(1 << (len(rows) - 1)):
            block = _take(rows, [t + 1 for t in range(len(rows) - 1) if split >> t & 1])
            assert block.pivot_rows == online, rows
            assert set(block.rows) == stored, rows
            assert block.invariant_factors() == factors, rows
            assert len(block.pivot_rows) == factors.count(1)
            assert (len(factors) > len(block.pivot_rows)) == dense
            assert pivots in (None, block.pivot_rows)
            pivots = block.pivot_rows


def test_pivot_rows_do_not_depend_on_the_order_rows_are_listed_in():
    # the reducer picks by row and column number, so a block listed in
    # another order, row by row and within each row, or taken in several
    # ascending groups instead of one, pivots on the same rows
    rnd = random.Random(43)
    matrices = [_reducer_matrix(rnd) for _ in range(60)]
    for _ in range(60):  # denser, where the general search meets ties
        rows, cols = rnd.randrange(5, 25), rnd.randrange(5, 25)
        matrices.append([[rnd.choice((1, -1, 2, 0, 0, 0, 0, 0)) for _ in range(cols)]
                         for _ in range(rows)])
    dm = differential_matrices(parse_braid_word("B3 1 -2 1 -2 1 2"))
    matrices += [dm.matrix_dense(g) for g in dm.matrices]
    grouped = 0
    for m in matrices:
        entries = list(_sparse(m).items())
        pivots = set()
        factors = sparse_factors(dict(entries), pivot_rows=pivots)
        for _ in range(3):
            rnd.shuffle(entries)
            shuffled = set()
            assert sparse_factors(dict(entries), pivot_rows=shuffled) == factors
            assert shuffled == pivots
            rows = {}
            for (r, c), v in entries:
                rows.setdefault(r, {})[c] = v
            if len(rows) > 1:
                count = rnd.randint(1, min(5, len(rows) - 1))
                cuts = sorted(rnd.sample(range(1, len(rows)), count))
                block = _take(rows, cuts)
                assert block.invariant_factors() == factors
                assert block.pivot_rows == pivots
                grouped += 1
    assert grouped >= 400


def test_the_search_pivots_on_the_rows_later_pivots_leave_with_one_entry(monkeypatch):
    # rows 0 and 1 are stored with two entries each.  Row 2 pivots on
    # column 2 as it is taken; the sweep then leaves row 1 with one unit
    # entry, and row 1's pivot does the same to row 0.  The column-indexed
    # search visits the shortest rows first, so it pivots on row 1, then
    # on row 0, and on row 3; row 4 is left with a 2 for the dense form.
    # No row is taken again while the block is reduced
    rows = {0: {0: 1, 1: 1}, 1: {1: 1, 2: -1}, 2: {2: 1},
            3: {3: 1, 4: 1}, 4: {3: 1, 4: -1}}
    block = _take(rows)
    assert block.pivot_rows == {2} and set(block.rows) == {0, 1, 3, 4}

    def refuse(*args):
        raise AssertionError("a row taken while the block is reduced")

    monkeypatch.setattr(_Block, "take", refuse)
    assert block.invariant_factors() == smith_normal_form(_dense(rows)) == [1, 1, 1, 1, 2]
    assert block.pivot_rows == {0, 1, 2, 3}


def test_rank_bareiss_examples():
    assert rank_bareiss([[2, 0], [0, 3]]) == 2
    assert rank_bareiss([[1, 1], [1, 1]]) == 1
    assert rank_bareiss([[0, 0], [0, 0]]) == 0


def test_homology_zero_crossing_circle():
    t = homology_groups(parse_braid_word("B1"))
    assert t == {(0, 0, 1): (1, ()), (0, 0, -1): (1, ())}
    assert euler_characteristic(t) == {(0, 2): -1, (0, -2): -1}


def test_homology_one_crossing_closure_vs_rank_oracle():
    d = parse_braid_word("B2 1")
    table = homology_groups(d)
    dm = differential_matrices(d)
    for g, states in dm.basis.items():
        i, j, k = g
        out = dm.matrix_dense(g) if g in dm.matrices else []
        inc = dm.matrix_dense((i + 1, j, k)) if (i + 1, j, k) in dm.matrices else []
        betti = len(states) - rank_bareiss(out) - rank_bareiss(inc)
        assert betti == table.get(g, (0, ()))[0]


def test_trefoil_homology_table_and_torsion():
    t = homology_groups(parse_braid_word("B2 1 1 1"))
    assert t[(-3, -7, 0)] == (0, (2,))
    assert t[(0, -3, 2)] == (1, ())
    assert t[(0, -3, -2)] == (1, ())
    assert check_euler_identity(parse_braid_word("B2 1 1 1"))


def test_betti_numbers_match_bareiss_on_batch(corpus_small):
    for d in corpus_small[:12]:
        table = homology_groups(d)
        dm = differential_matrices(d)
        for g, states in dm.basis.items():
            i, j, k = g
            out = dm.matrix_dense(g) if g in dm.matrices else []
            inc = dm.matrix_dense((i + 1, j, k)) if (i + 1, j, k) in dm.matrices else []
            betti = len(states) - rank_bareiss(out) - rank_bareiss(inc)
            assert betti == table.get(g, (0, ()))[0]


def test_euler_identity_examples():
    assert check_euler_identity(parse_braid_word("B1"))
    assert check_euler_identity(parse_braid_word("B2 1"))
    assert check_euler_identity(parse_braid_word("B3 1 -2 1"))


def test_acyclic_summand_does_not_change_euler():
    # adding a matched generator pair is invisible: compare two diagrams of
    # the same braid-like class with different state counts
    d1, d2 = random_equivalent_pair(3, 4, BraidWord(2, (1, 1)), max_crossings=8)
    assert d1.n != d2.n or d1.canonical_code() == d2.canonical_code()
    t1, t2 = homology_groups(d1), homology_groups(d2)
    assert euler_characteristic(t1) == euler_characteristic(t2)


def test_homology_invariant_under_relabelling():
    d = parse_braid_word("B3 1 2 -1 2")
    base = homology_groups(d)
    rnd = random.Random(2)
    for _ in range(4):
        perm = list(range(d.n))
        rnd.shuffle(perm)
        assert homology_groups(relabel_crossings(d, perm)) == base


def test_homology_orientation_reversal():
    for word in ("B2 1 1 1", "B3 1 2 1", "B2 1 -1"):
        d = parse_braid_word(word)
        assert homology_groups(d) == homology_groups(reverse_orientation(d))


def test_lightened_in_h_zero_crossing():
    assert lightened_in_h(parse_braid_word("B1")) == {(0, 2): -1, (0, -2): -1}


def test_homology_json_shape():
    t = homology_groups(parse_braid_word("B1"))
    obj = homology_to_json(t, euler_characteristic(t))
    assert obj["groups"] == [
        {"i": 0, "j": 0, "k": -1, "betti": 1, "torsion": []},
        {"i": 0, "j": 0, "k": 1, "betti": 1, "torsion": []},
    ]
    assert obj["euler"] == {"(0,-2)": -1, "(0,2)": -1}


def test_euler_identity_random_batch():
    from braidbracket.diagram import BraidWord, braid_closure

    rnd = random.Random(77)
    for _ in range(25):
        k = rnd.choice((2, 3))
        length = rnd.randrange(0, 9)
        letters = list(range(1, k)) + list(range(-k + 1, 0))
        word = BraidWord(k, tuple(rnd.choice(letters) for _ in range(length)))
        assert check_euler_identity(braid_closure(word))


def test_empty_diagram_homology():
    d = parse_braid_word("B0")
    assert homology_groups(d) == {(0, 0, 0): (1, ())}
    assert check_euler_identity(d)


# The oracle reduces every block densely, which is cubic in the block's
# size: it is run on complexes whose largest tridegree has at most this
# many generators.  A 2-strand closure of 8 crossings has 560, and its
# dense reduction takes over 10 s; the benchmark digests of
# tests/test_source.py cover such sizes.
DENSE_LIMIT = 240


def _check_against_block_by_block(d):
    """The engine under ``homology_groups``, on ``d`` as given, against
    the block-by-block dense oracle; the table, or None when the complex
    is too large for the oracle."""
    dm = differential_matrices(d)
    if max(dm.dims.values()) > DENSE_LIMIT:
        return None
    table = _homology_table(d)
    assert table == homology_table_oracle(dm)
    return table


def _random_closures(seed, count, max_crossings):
    rnd = random.Random(seed)
    for _ in range(count):
        k = rnd.choice((2, 3, 4))
        letters = list(range(1, k)) + list(range(-k + 1, 0))
        length = rnd.randrange(0, max_crossings + 1)
        yield braid_closure(BraidWord(k, tuple(rnd.choice(letters) for _ in range(length))))


def test_elimination_matches_block_by_block_snf_on_corpus(corpus_small):
    checked = [d for d in corpus_small if _check_against_block_by_block(d) is not None]
    assert len(checked) >= 50


def test_elimination_matches_block_by_block_snf_on_random_closures():
    tables = [_check_against_block_by_block(d) for d in _random_closures(5, 40, 9)]
    tables = [t for t in tables if t is not None]
    assert len(tables) >= 25
    assert any(tor for t in tables for _, tor in t.values())


def test_elimination_matches_block_by_block_snf_on_moved_diagrams():
    for d in moved_diagrams():
        assert _check_against_block_by_block(d) is not None


def test_elimination_matches_all_blocks_on_workload_sized_closures():
    # 2- and 3-strand closures of 8 crossings, the largest the homology
    # benchmark sends: their blocks are past the dense oracle's limit, and
    # the online intake takes nearly every pivot
    words = ("B2 1 1 1 1 1 1 1 1", "B2 1 1 -1 1 1 1 -1 1", "B2 1 -1 1 -1 1 -1 1 -1",
             "B3 1 -2 1 -2 1 -2 1 -2", "B3 1 2 -1 2 1 -2 -1 2", "B3 1 1 2 -1 2 2 -1 2")
    tables = []
    for word in words:
        d = parse_braid_word(word)
        dm = differential_matrices(d)
        tables.append(homology_groups(d))
        assert tables[-1] == _homology_table(d) == homology_table_all_blocks(dm)
    assert any(tor for t in tables for _, tor in t.values())


def _unimodular(n, rnd):
    """A random n x n unimodular matrix and its inverse, made of row
    operations row_a += m row_b."""
    p = [[int(r == c) for c in range(n)] for r in range(n)]
    pinv = [row[:] for row in p]
    for _ in range(2 * n if n > 1 else 0):
        a, b = rnd.sample(range(n), 2)
        m = rnd.choice((-2, -1, 1, 2))
        for c in range(n):
            p[a][c] += m * p[b][c]
        for row in pinv:  # right-multiply by the inverse operation
            row[b] -= m * row[a]
    return p, pinv


def _matmul(x, y):
    return [[sum(x[r][t] * y[t][c] for t in range(len(y))) for c in range(len(y[0]))]
            for r in range(len(x))]


def _sparse(m):
    return {(r, c): v for r, row in enumerate(m) for c, v in enumerate(row) if v}


def test_skipping_the_pivot_rows_of_the_block_above_keeps_the_factors():
    # exact pairs C2 --d2--> C1 --d1--> C0 with d1 d2 = 0: a block-diagonal
    # core, whose d2 hits generators of C1 that d1 kills, in random bases
    rnd = random.Random(16)
    torsion = skipped = 0
    for _ in range(60):
        n2, n1, n0 = rnd.randrange(1, 8), rnd.randrange(2, 12), rnd.randrange(1, 8)
        a = rnd.randrange(0, min(n2, n1) + 1)
        b = rnd.randrange(0, min(n0, n1 - a) + 1)
        core2 = [[0] * n2 for _ in range(n1)]
        core1 = [[0] * n1 for _ in range(n0)]
        for t in range(a):
            core2[t][t] = rnd.choice((1, 1, 1, -1, 2, 3, 6))
        for t in range(b):
            core1[t][a + t] = rnd.choice((1, 1, 1, -1, 2, 3, 6))
        p1, p1inv = _unimodular(n1, rnd)
        d2 = _matmul(_matmul(p1, core2), _unimodular(n2, rnd)[0])
        d1 = _matmul(_matmul(_unimodular(n0, rnd)[0], core1), p1inv)
        assert not any(any(row) for row in _matmul(d1, d2))
        e2, e1 = _sparse(d2), _sparse(d1)

        # without the optional arguments: the Smith normal form's factors
        assert sparse_factors(e2) == smith_normal_form(d2)
        factors = sparse_factors(e1)
        assert factors == smith_normal_form(d1) == smith_normal_form(core1)

        pivots = set()
        assert sparse_factors(e2, pivot_rows=pivots) == smith_normal_form(d2)
        assert pivots <= set(range(n1))
        assert sparse_factors(e1, cancelled=pivots) == factors
        torsion += any(f > 1 for f in factors)
        skipped += bool(pivots and any(c in pivots for _, c in e1))
    assert torsion >= 5 and skipped >= 10


def _claim_words(corpus):
    """Braid words for the claim ``homology_groups`` rests on: the
    corpus's, the bases of the walk pins, and seeded words on 2-4 strands,
    every other one built to reduce (cancelling pairs put into a random
    core, and a conjugation around it)."""
    words = [d.braid_word for d in corpus if d.braid_word is not None]
    words += [BraidWord(strands, letters) for _, strands, letters, *_ in WALK_PINS]
    rnd = random.Random(2121)
    for n in range(60):
        k = rnd.choice((2, 3, 4))
        gens = [g for g in range(1 - k, k) if g]
        letters = [rnd.choice(gens) for _ in range(rnd.randrange(6))]
        if n % 2:
            for _ in range(rnd.randrange(1, 3)):
                g, at = rnd.choice(gens), rnd.randrange(len(letters) + 1)
                letters[at:at] = [g, -g]
            g = rnd.choice(gens)
            letters = [g, *letters, -g]
        words.append(BraidWord(k, tuple(letters)))
    return words


def _rotations(word):
    a = word.letters
    return [BraidWord(word.strands, a[s:] + a[:s]) for s in range(max(len(a), 1))]


def _state_sum(word):
    # the state sum over the closure's planar map, read back from its PD
    # JSON, so that nothing of the word is left to the bracket
    return _bracket_range(parse_pd(braid_closure(word).to_pd_json()))


def test_rotating_a_word_keeps_its_table_and_its_bracket(corpus):
    # a rotation of the word rotates its closure about the braid axis;
    # neither the unreduced table nor the state sum may see it
    rotated = 0
    for word in _claim_words(corpus):
        rotations = _rotations(word)
        if len(word.letters) <= 7:
            tables = [_homology_table(braid_closure(w)) for w in rotations]
            assert all(t == tables[0] for t in tables), word
        if len(word.letters) <= 9:
            brackets = [_state_sum(w) for w in rotations]
            assert all(b == brackets[0] for b in brackets), word
            rotated += len(set(rotations)) > 1
    assert rotated >= 80


def test_the_reduced_closure_has_the_table_and_the_bracket_of_the_input(corpus):
    # homology_groups computes a closure on its freely and cyclically
    # reduced word: II_a moves and a rotation
    reduced = 0
    for word in _claim_words(corpus):
        d, short = braid_closure(word), word.reduced()
        if len(word.letters) <= 10:
            assert homology_groups(d) == _homology_table(d) == _homology_table(
                braid_closure(short)), word
        assert bracket_br(braid_closure(short)) == bracket_br(d), word
        if len(word.letters) <= 9:
            assert _state_sum(short) == _state_sum(word), word
        reduced += short != word
    assert reduced >= 50


def test_words_that_reduce_to_the_empty_braid_give_the_crossingless_closure():
    for word, empty in (("B2 1 -1", "B2"), ("B3 1 2 -2 -1", "B3"), ("B3 -2 1 -1 2", "B3")):
        d = parse_braid_word(word)
        assert d.braid_word.reduced().letters == ()
        assert homology_groups(d) == _homology_table(d) == _homology_table(
            parse_braid_word(empty)), word


def test_homology_builds_the_cube_of_the_reduced_word_only(monkeypatch):
    # a closure's cube has only the crossings its reduced and descended
    # word keeps; the engine under homology_groups, and the full complex,
    # are built on the input
    built = []
    init = chain_complex._Cube.__init__

    def spy(cube, table):
        built.append(table.diagram)
        init(cube, table)

    monkeypatch.setattr(chain_complex._Cube, "__init__", spy)
    d = parse_braid_word("B2 1 -1 1 1 -1")
    table = homology_groups(d)
    assert [(c.n, c.braid_word) for c in built] == [(1, BraidWord(2, (1,)))]
    built.clear()
    assert _homology_table(d) == table
    differential_matrices(d)
    assert built == [d, d]
    for text, short in (("B3 -2 1 2 1 -2 -2 1", (1, -2, 1)),
                        ("B3 -2 -2 -1 2 1 -2 -2 -1", (-1, -2, -2, -2)),
                        ("B4 1 3 -1 -3", ())):
        d = parse_braid_word(text)
        built.clear()
        homology_groups(d)
        word = BraidWord(d.braid_word.strands, short)
        assert [(c.n, c.braid_word) for c in built] == [(len(short), word)], text
    irreducible = parse_braid_word("B3 1 -2 1")  # e = g = -f: no braid relation
    built.clear()
    homology_groups(irreducible)
    assert built == [irreducible]


def _descent_words(corpus):
    """Braid words for the descent: the corpus's, the bases of the walk
    pins, and seeded words on 3-4 strands, every other one built to
    shorten (a relation u v^-1, where u and v are the two sides of a
    braid relation or of a far commutation, put into a random core)."""
    words = [d.braid_word for d in corpus if d.braid_word is not None]
    words += [BraidWord(strands, letters) for _, strands, letters, *_ in WALK_PINS]
    rnd = random.Random(2525)
    for n in range(60):
        k = rnd.choice((3, 4))
        gens = [g for g in range(1 - k, k) if g]
        letters = [rnd.choice(gens) for _ in range(rnd.randrange(1, 5))]
        if n % 2:
            e, f, g = (rnd.choice((1, -1)) for _ in range(3))
            if k == 4 and rnd.randrange(2):
                a, b = rnd.choice(((1, 3), (3, 1)))
                u, v = [e * a, f * b], [f * b, e * a]
            else:
                a = rnd.randrange(1, k - 1)
                a, b = rnd.choice(((a, a + 1), (a + 1, a)))
                if e == g == -f:
                    g = -g
                u, v = [e * a, f * b, g * a], [g * b, f * a, e * b]
            at = rnd.randrange(len(letters) + 1)
            letters[at:at] = u + [-x for x in reversed(v)]
        words.append(BraidWord(k, tuple(letters)))
    return words


def _descended(monkeypatch, d):
    """The diagram whose table ``homology_groups(d)`` takes."""
    seen = []
    with monkeypatch.context() as m:
        m.setattr(homology, "_homology_table", lambda diagram, cap: seen.append(diagram))
        homology_groups(d)
    return seen[0]


def test_the_descended_closure_has_the_table_and_the_bracket_of_the_input(
        monkeypatch, corpus):
    # homology_groups computes a closure on its reduced word, descended by
    # braid relations and far commutation until no single rewrite shortens
    # it: a conjugate of the same braid (Burau traces of its powers, and
    # the writhe), with the table and the state sum of the input
    shortened = 0
    for word in _descent_words(corpus):
        d = braid_closure(word)
        short = _descended(monkeypatch, d).braid_word
        assert short.strands == word.strands and short.writhe == word.writhe
        assert short.reduced() == short
        assert len(short.letters) <= len(word.reduced().letters)
        assert all(len(w.reduced().letters) >= len(short.letters) for w in short.rewrites())
        for t in helpers.BURAU_POINTS:
            assert helpers.burau_power_traces(short, t) == helpers.burau_power_traces(word, t)
        if len(word.letters) <= 10:
            assert homology_groups(d) == _homology_table(d) == _homology_table(
                braid_closure(short)), word
        if len(word.letters) <= 9:
            assert _state_sum(short) == _state_sum(word), word
        shortened += len(short.letters) < len(word.reduced().letters)
    assert shortened >= 20


def _reductions(monkeypatch, d, dm=None):
    """The table of ``d`` as given and each block reduced that takes rows:
    grading -> (columns gone at first, groups taken, columns gone before
    the reduction, factors, pivot rows).  A group is (columns gone before
    it, rows as ``{row: [(column, entry), ...]}``).  Without ``dm`` the
    table is the engine's under ``homology_groups``, ``_homology_table``,
    and blocks are named as ``_Cube.blocks`` is given them; given ``dm``,
    the full complex of ``d``, it is the reference
    ``homology_table_of_given_blocks``, and blocks are named by the
    matrices their rows come from.  Also the number of blocks reduced."""
    names = {id(b): g for g, b in dm.matrices.items()} if dm else {}
    held, first, groups, calls, reduced = [], {}, {}, {}, []
    assemble = chain_complex._Cube.blocks
    to_rows = helpers.rows_of
    take = _Block.take
    reduce = _Block.invariant_factors

    def name(block, g):
        names[id(block)] = g
        held.append(block)
        first[g] = set(block.gone)
        groups[g] = []

    def assemble_spy(cube, p, blocks):
        for g, block in blocks.items():
            name(block, g)
        return assemble(cube, p, blocks)

    def rows_spy(entries):
        rows = to_rows(entries)
        held.append(rows)
        if id(entries) in names:  # not the empty rows of a block without entries
            names[id(rows)] = names[id(entries)]
        return rows

    def take_spy(block, rows):
        if id(block) not in names and id(rows) in names:
            name(block, names[id(rows)])
        if id(block) in names:
            groups[names[id(block)]].append(
                (set(block.gone), {r: list(row.items()) for r, row in rows.items()}))
        take(block, rows)

    def reduce_spy(block):
        reduced.append(block)
        g = names.get(id(block))
        gone = set(block.gone)
        factors = reduce(block)
        if g is not None and groups[g]:
            calls[g] = (first[g], groups[g], gone, factors, set(block.pivot_rows))
        return factors

    with monkeypatch.context() as patch:
        patch.setattr(chain_complex._Cube, "blocks", assemble_spy)
        patch.setattr(helpers, "rows_of", rows_spy)
        patch.setattr(_Block, "take", take_spy)
        patch.setattr(_Block, "invariant_factors", reduce_spy)
        table = homology_table_of_given_blocks(dm) if dm else _homology_table(d)
    return table, calls, len(reduced)


def test_each_block_skips_the_rows_pivoted_on_in_the_block_above(monkeypatch):
    # the walk runs down the layers, and a block is reduced without the
    # columns that the block above it pivoted on, if there is one; the
    # blocks with k < 0 are not reduced
    dm = differential_matrices(parse_braid_word("B3 1 -2 1 -2 1"))
    _, calls, reduced = _reductions(monkeypatch, dm.diagram)
    assert set(calls) == {g for g in dm.matrices if g[2] >= 0}
    assert len(calls) < len(dm.matrices)
    assert reduced == sum(k >= 0 for _, _, k in dm.dims) < len(dm.dims)
    for (i, j, k), (skipped, *_) in calls.items():
        above = calls.get((i + 1, j, k))
        assert skipped == (above[4] if above else set()), (i, j, k)
    assert sum(bool(c[0]) for c in calls.values()) >= 5


def test_streamed_walk_equals_the_walk_over_given_matrices(monkeypatch, corpus_small):
    # the engine under homology_groups assembles each layer as it goes; the
    # reference over the given matrices of the full complex gives each
    # block its rows at once.  The two must pivot on the same rows of the
    # same blocks.  The walk must reduce no block with k < 0, assemble no
    # column that the block above pivoted on or that the block itself has
    # pivoted on, take its rows in ascending order, and list the rest of
    # each row as the full block does.  Every block with k >= 0 and
    # entries takes rows
    diagrams = list(corpus_small) + list(moved_diagrams())
    diagrams += [add_marked_circle(parse_braid_word("B2 1 1 1"), 2),
                 add_marked_circle(parse_braid_word("B3 1 -2 1"), 0),
                 add_marked_circle(diagrams[-1], 4)]
    diagrams += [parse_braid_word(w) for w in ("B3 1", "B2", "B0")]
    skipped = online = 0
    for d in diagrams:
        dm = differential_matrices(d)
        streamed, calls, reduced = _reductions(monkeypatch, d)
        given, given_calls, given_reduced = _reductions(monkeypatch, d, dm)
        assert streamed == given == homology_table_all_blocks(dm)
        assert reduced == given_reduced == sum(k >= 0 for _, _, k in dm.dims)
        assert set(calls) == set(given_calls) == {g for g in dm.matrices if g[2] >= 0}
        assert {g: c[3:] for g, c in calls.items()} == {
            g: c[3:] for g, c in given_calls.items()}
        for (i, j, k), (cancelled, taken, gone, _, _) in calls.items():
            assert k >= 0
            above = calls.get((i + 1, j, k))
            assert cancelled == (above[4] if above else set())
            full = {}
            for (r, c), v in dm.matrices[(i, j, k)].items():
                full.setdefault(r, []).append((c, v))
            # given: one group of the full rows, the cancelled columns gone
            given_first, given_taken = given_calls[(i, j, k)][:2]
            assert given_first == cancelled
            assert given_taken == [(cancelled, full)]
            # streamed: groups of ascending rows, each the full row less the
            # columns gone before its group; a row never taken had every
            # column gone.  Within a group, take sorts the rows
            order = [r for _, rows in taken for r in sorted(rows)]
            assert order == sorted(order) and len(set(order)) == len(order)
            for before, rows in taken:
                for r, row in rows.items():
                    assert row and row == [(c, v) for c, v in full[r] if c not in before]
            assert all(c in gone for r in set(full) - set(order) for c, _ in full[r])
            skipped += bool(cancelled)
            online += len(gone) > len(cancelled)
    assert skipped >= 50 and online >= 200


def test_flipping_h_labels_carries_each_block_onto_its_k_negation(corpus_small):
    # (bits, m) -> (bits, m ^ hmask) maps the states at (i, j, k) onto those
    # at (i, j, -k); on rows and columns it carries every block onto the
    # block at (i, j, -k) entry for entry, signs included
    seed, strands, letters = SMALL_WALK_PINS[1]
    diagrams = list(corpus_small) + [random_equivalent_pair(
        seed, 100, BraidWord(strands, letters), max_crossings=14)[1]]
    flipped_blocks = 0
    for d in diagrams:
        dm = differential_matrices(d)
        table = _StateTable(d)
        where = {s.key: (g, col) for g, states in dm.basis.items()
                 for col, s in enumerate(states)}
        flip = {}
        for (i, j, k), states in dm.basis.items():
            flip[(i, j, k)] = cols = []
            for s in states:
                bits, m = s.key
                g, col = where[(bits, m ^ table.structure(bits)[3])]
                assert g == (i, j, -k)
                cols.append(col)
        for (i, j, k), block in dm.matrices.items():
            rows, cols = flip[(i - 1, j, k)], flip[(i, j, k)]
            image = {(rows[r], cols[c]): v for (r, c), v in block.items()}
            assert image == dm.matrices[(i, j, -k)], (i, j, k)
            flipped_blocks += k != 0
    assert flipped_blocks >= 100


# Homology of a walk end takes 1.5-15 s on a 2-core machine, and its
# mirror's as long again; the symmetry tests use the two ends whose
# complexes have fewer than 100,000 generators.
SMALL_WALK_PINS = [p[:3] for p in WALK_PINS if p[0] in (12, 15)]


@pytest.fixture(scope="module")
def symmetry_tables(corpus_small):
    # each block of the complex reduced on its own: homology_groups copies
    # the factors of k < 0 from k > 0, so its tables are symmetric in k by
    # construction
    diagrams = list(corpus_small)
    for seed, strands, letters in SMALL_WALK_PINS:
        diagrams.append(random_equivalent_pair(
            seed, 100, BraidWord(strands, letters), max_crossings=14)[1])
    return [(d, homology_table_all_blocks(differential_matrices(d))) for d in diagrams]


def test_homology_is_symmetric_under_k_negation(symmetry_tables):
    for _, table in symmetry_tables:
        for (i, j, k), group in table.items():
            assert table.get((i, j, -k)) == group, (i, j, k)


def test_mirror_homology_is_the_dual(symmetry_tables):
    # the mirror's Betti number at (i, j, k) is the original's at
    # (-i, -j, k); torsion moves with the incoming differential, so its
    # torsion is the original's at (-i - 1, -j, k)
    def betti(t, g):
        return t.get(g, (0, ()))[0]

    def torsion(t, g):
        return t.get(g, (0, ()))[1]

    with_torsion = 0
    for d, table in symmetry_tables:
        mirrored = homology_groups(mirror(d))
        keys = set(mirrored)
        keys |= {(-i, -j, k) for i, j, k in table}
        keys |= {(-i - 1, -j, k) for i, j, k in table}
        for i, j, k in keys:
            assert betti(mirrored, (i, j, k)) == betti(table, (-i, -j, k)), (i, j, k)
            assert torsion(mirrored, (i, j, k)) == torsion(table, (-i - 1, -j, k)), (i, j, k)
        with_torsion += any(tor for _, tor in table.values())
    assert with_torsion


def test_mirror_of_a_closure_is_the_closure_of_the_negated_word():
    for word in ("B2 1 1 1", "B3 1 -2 1 2", "B4 1 2 -3"):
        d = parse_braid_word(word)
        flipped = parse_braid_word(" ".join(
            [word.split()[0]] + [str(-int(g)) for g in word.split()[1:]]))
        assert mirror(d).to_pd_json() == flipped.to_pd_json()
