import os
import random
import subprocess
import sys
from pathlib import Path

from braidbracket import chain_complex
from braidbracket.diagram import parse_braid_word
from braidbracket.chain_complex import (
    differential_matrices,
    enhanced_states,
    incidence,
    partial_differential,
    partial_differential_oracle,
    verify_anticommute,
)
from braidbracket.bracket import add_marked_circle
from braidbracket.homology import _homology_table, homology_groups
from braidbracket.states import SizeCapError

from helpers import incidence_operator, moved_diagrams, relabel_oracle, rule_table_operator

import pytest


def test_enhanced_states_zero_crossing_circle():
    d = parse_braid_word("B1")
    es = enhanced_states(d)
    assert sorted(es) == [(0, 0, -1), (0, 0, 1)]
    assert all(len(v) == 1 for v in es.values())


def test_enhanced_states_one_crossing_gradings():
    d = parse_braid_word("B2 1")
    es = enhanced_states(d)
    at_i0 = sorted(g for g in es if g[0] == 0)
    assert at_i0 == [(0, -1, -2), (0, -1, 0), (0, -1, 2)]
    assert len(es[(0, -1, 0)]) == 2
    at_i1 = sorted(g for g in es if g[0] == -1)
    assert at_i1 == [(-1, -3, 0), (-1, -1, 0)]


def test_enhanced_state_count(corpus_small):
    for d in corpus_small[:20]:
        es = enhanced_states(d)
        total = sum(len(v) for v in es.values())
        from braidbracket.states import enumerate_states

        expected = sum(2 ** len(s.circles) for s in enumerate_states(d))
        assert total == expected


def test_basis_built_on_read_matches_enhanced_states(corpus_small):
    for d in corpus_small:
        dm = differential_matrices(d)
        assert dm.basis == enhanced_states(d)
        assert {g: len(v) for g, v in dm.basis.items()} == dm.dims


def test_the_cube_traces_and_places_one_layer_at_a_time(monkeypatch, corpus_small):
    # the walk traces and places a layer when it first needs it: when
    # blocks(p) starts, no smoothing above layer p has been traced, and
    # when it ends none above p + 1.  A smoothing's structure is dropped
    # after its last use as a source of d, so when blocks(p) ends the
    # table holds layer p + 1 only, and nothing after the top layer; no
    # smoothing is traced twice.  Placing layer by layer gives every
    # tridegree the size of its part of the enhanced-state basis
    diagrams = list(corpus_small) + list(moved_diagrams())
    diagrams.append(add_marked_circle(parse_braid_word("B3 1 -2 1"), 0))
    structure, assemble = chain_complex._StateTable.structure, chain_complex._Cube.blocks
    tau = chain_complex._tau
    traced, taus, spans, cubes = [], [], [], []

    def structure_spy(table, bits):
        traced.append(bits.bit_count())
        return structure(table, bits)

    def tau_spy(diagram, bits):
        taus.append(bits)
        return tau(diagram, bits)

    def blocks_spy(cube, p, blocks):
        cubes.append(cube)
        before = max(traced)
        assemble(cube, p, blocks)
        spans.append((p, before, max(traced)))
        held = sorted(cube.table._smoothings)
        above = [b for b in range(1 << cube.table.n) if b.bit_count() == p + 1]
        assert held == above, p

    monkeypatch.setattr(chain_complex._StateTable, "structure", structure_spy)
    monkeypatch.setattr(chain_complex, "_tau", tau_spy)
    monkeypatch.setattr(chain_complex._Cube, "blocks", blocks_spy)
    for d in diagrams:
        sizes = {g: len(v) for g, v in enhanced_states(d).items()}
        for entry in (_homology_table, differential_matrices):
            del traced[:], taus[:], spans[:], cubes[:]
            entry(d)
            assert spans == [(p, p, min(p + 1, d.n)) for p in range(d.n + 1)], d
            assert sorted(taus) == list(range(1 << d.n)), d
            assert len(set(map(id, cubes))) == 1
            assert cubes[0].dims == sizes


@pytest.mark.parametrize("word", ["B2 1 1 1", "B3 1 -2 1 -2 1 -2"])
def test_homology_builds_no_enhanced_state(monkeypatch, word):
    from braidbracket.homology import _homology_table

    def refuse(*args, **kwargs):
        raise AssertionError("EnhancedState built on the homology path")

    monkeypatch.setattr(chain_complex, "EnhancedState", refuse)
    d = parse_braid_word(word)
    assert differential_matrices(d).matrices and _homology_table(d)


def test_incidence_basic_conditions():
    d = parse_braid_word("B2 1")
    es = enhanced_states(d)
    merge_sources = es[(0, -1, 0)]
    target = es[(-1, -1, 0)][0]
    for s in merge_sources:
        assert incidence(s, target, 0, d) == 1
        assert incidence(s, s, 0, d) == 0
    wrong_j = es[(-1, -3, 0)][0]
    for s in merge_sources:
        assert incidence(s, wrong_j, 0, d) == 0
    # k-preserving condition kills the all-plus source
    top = es[(0, -1, 2)][0]
    assert incidence(top, target, 0, d) == 0
    assert partial_differential(top, 0, d) == {}


def test_partial_differential_merge_sign():
    d = parse_braid_word("B2 1")
    es = enhanced_states(d)
    target = es[(-1, -1, 0)][0]
    for s in es[(0, -1, 0)]:
        out = partial_differential(s, 0, d)
        assert out == {target: 1}


def test_partial_differential_requires_a_smoothing():
    d = parse_braid_word("B2 1")
    es = enhanced_states(d)
    s = es[(-1, -1, 0)][0]
    with pytest.raises(ValueError):
        partial_differential(s, 0, d)


def test_rule_table_equals_oracle_per_state():
    for word in ("B2 1", "B2 1 -1", "B2 1 1 1", "B3 1 2 1", "B3 1 -2"):
        d = parse_braid_word(word)
        for states in enhanced_states(d).values():
            for s in states:
                for v in range(d.n):
                    if (s.bits >> v) & 1:
                        continue
                    assert partial_differential(s, v, d) == partial_differential_oracle(
                        s, v, d
                    )


def test_operator_level_rule_vs_incidence():
    rnd = random.Random(5)
    for word in ("B2 1 1 1", "B3 1 2 -1", "B2 1 -1 1 -1"):
        d = parse_braid_word(word)
        for bits in range(1 << d.n):
            for v in range(d.n):
                if (bits >> v) & 1:
                    continue
                assert rule_table_operator(d, bits, v) == incidence_operator(d, bits, v)


def test_rule_relabels_untouched_circles_by_two_shifts(corpus_small):
    # circle ids are ranks of least darts, so the rule's (keep, lo, hi)
    # gives every mask the image that matching circles by least dart does
    checked = 0
    for d in list(corpus_small) + list(moved_diagrams()):
        table = chain_complex._StateTable(d)
        for bits in range(1 << d.n):
            for v in range(d.n):
                if (bits >> v) & 1:
                    continue
                _, _, _, keep, lo, hi, _ = table.rule(bits, v)
                images = relabel_oracle(table, bits, v)
                assert [(m & keep) | (m >> lo << hi) for m in range(len(images))] == images
                checked += 1
    assert checked > 10000


def test_rule_refuses_a_target_where_the_kept_circle_moves():
    # the shifts hold only if circle x keeps its id; a target smoothing
    # whose circles are numbered otherwise raises a real exception
    d = parse_braid_word("B3 1 2 1 2")
    moved = 0
    for bits in range(1 << d.n):
        for v in range(d.n):
            if (bits >> v) & 1:
                continue
            table = chain_complex._StateTable(d)
            table.rule(bits, v)
            circ_of, types, dmask, hmask = table.structure(bits | 1 << v)
            top = len(types) - 1
            flip = sum(1 << top - c for c in range(len(types)) if dmask >> c & 1)
            table._smoothings[bits | 1 << v] = (
                tuple(top - c for c in circ_of), types[::-1], flip, flip ^ (dmask | hmask))
            if min(circ_of[4 * v:4 * v + 4]) == top - max(circ_of[4 * v:4 * v + 4]):
                continue  # reversing the ids leaves x's id as it was
            with pytest.raises(AssertionError, match="became circle"):
                table.rule(bits, v)
            moved += 1
    assert moved >= 10


def test_differential_degree_and_matrix_shapes():
    d = parse_braid_word("B2 1")
    dm = differential_matrices(d)
    assert list(dm.matrices) == [(0, -1, 0)]
    assert dm.matrix_dense((0, -1, 0)) == [[1, 1]]


def test_d_squared_zero_small_batch():
    for word in ("B2 1 1 1", "B2 1 -1", "B3 1 2 1", "B3 1 -2 1 2"):
        assert differential_matrices(parse_braid_word(word)).check_d_squared()


def test_anticommutation_small_batch():
    for word in ("B2 1 1 1", "B2 1 -1", "B3 1 2 -1"):
        rep = verify_anticommute(parse_braid_word(word))
        assert rep["violations"] == []
        assert rep["checked"] > 0


def test_i_range_bound(corpus_small):
    for d in corpus_small[:25]:
        n, w = d.n, d.writhe()
        for (i, j, k) in enhanced_states(d):
            assert -(n + w) / 2 <= i <= (n - w) / 2


def test_split_offspring_type_parity(corpus_small):
    # d-parents split into (d,d) or (h,h); h-parents into (d,h): the rule
    # table raises otherwise, so exercising a batch is the assertion
    from braidbracket.chain_complex import _StateTable, _dv_terms

    for d in corpus_small[:15]:
        table = _StateTable(d)
        for bits in range(1 << d.n):
            for v in range(d.n):
                if (bits >> v) & 1:
                    continue
                _dv_terms(table, bits, 0, v)


def test_sparse_matrix_dump_shape():
    d = parse_braid_word("B2 1")
    dump = differential_matrices(d).to_sparse_json()
    assert dump == [
        {"i": 0, "j": -1, "k": 0, "rows": 1, "cols": 2, "entries": [[0, 0, 1], [0, 1, 1]]}
    ]


@pytest.mark.parametrize("entry", [enhanced_states, differential_matrices, verify_anticommute])
def test_cap_enforced_with_cached_table(entry):
    d = parse_braid_word("B2 1 1 1 1 1")
    enhanced_states(d)  # caches the structure table under the default cap
    with pytest.raises(SizeCapError):
        entry(d, cap=3)


@pytest.mark.parametrize("entry", [
    enhanced_states, differential_matrices, verify_anticommute, homology_groups,
])
def test_free_loops_count_against_the_cap(entry):
    # k free loops give one smoothing 2^k labelings, as k crossings give
    # 2^k smoothings: the guard fires before any of them is listed
    with pytest.raises(SizeCapError, match="needs 25 crossings"):
        entry(parse_braid_word("B25"))
    d = parse_braid_word("B3 1")  # one crossing and one free loop
    with pytest.raises(SizeCapError, match="needs 2 crossings"):
        entry(d, cap=1)
    entry(d, cap=2)


def test_a_built_complex_lists_its_basis_and_operators_past_the_cap():
    # the basis of a complex that was built, and the one-crossing
    # operators, need no cap: the free loop of B3 1 does not stop them
    d = parse_braid_word("B3 1")
    dm = differential_matrices(d)
    assert dm.basis == enhanced_states(d)
    # two circles, then one, each smoothing's labelings doubled by the loop
    assert sum(map(len, dm.basis.values())) == (4 + 2) * 2
    sources = [s for states in dm.basis.values() for s in states if not s.bits]
    assert len(sources) == 8
    for s in sources:
        assert partial_differential(s, 0, d) == partial_differential_oracle(s, 0, d)


def test_matrices_equal_incidence_oracle_blocks(corpus_small):
    # every block rebuilt from the brute-force incidence operator (which
    # carries the Koszul sign), placed by the enhanced-state basis order
    for d in corpus_small:
        basis = enhanced_states(d)
        where = {
            s.key: (g, col)
            for g, states in basis.items()
            for col, s in enumerate(states)
        }
        expected = {}
        for bits in range(1 << d.n):
            for v in range(d.n):
                if (bits >> v) & 1:
                    continue
                for mask, terms in incidence_operator(d, bits, v).items():
                    g, col = where[(bits, mask)]
                    for tkey, coef in terms.items():
                        g2, row = where[tkey]
                        assert g2 == (g[0] - 1, g[1], g[2])
                        block = expected.setdefault(g, {})
                        block[(row, col)] = block.get((row, col), 0) + coef
        expected = {
            g: {rc: c for rc, c in block.items() if c} for g, block in expected.items()
        }
        expected = {g: block for g, block in expected.items() if block}
        assert differential_matrices(d).matrices == expected


def test_d_squared_detects_one_flipped_sign():
    dm = differential_matrices(parse_braid_word("B2 1 1 1"))
    assert dm.check_d_squared()
    flipped = 0
    for (i, j, k), m1 in dm.matrices.items():
        m0 = dm.matrices.get((i - 1, j, k))
        if not m0:
            continue
        mids = {mid for (_, mid) in m0}
        for (row, col), val in sorted(m1.items()):
            if row in mids:
                m1[(row, col)] = -val
                assert not dm.check_d_squared()
                m1[(row, col)] = val
                flipped += 1
    assert flipped and dm.check_d_squared()


def test_rule_guards_survive_optimize():
    script = (
        "import sys\n"
        "from braidbracket.chain_complex import _merge_label\n"
        "if __debug__:\n"
        "    sys.exit('not optimized')\n"
        "try:\n"
        "    _merge_label('d', 1, 'd', 1, 'h')\n"
        "except AssertionError:\n"
        "    print('raised')\n"
    )
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\n"
