import itertools
import json
import random

import pytest

from braidbracket.diagram import (
    BraidWord,
    DiagramError,
    FormatError,
    MalformedWordError,
    NonPlanarError,
    OrientationError,
    anchor_port,
    braid_closure,
    parse_braid_word,
    parse_pd,
    reverse_orientation,
    writhe,
)
from braidbracket.moves import random_equivalent_pair

import helpers
from helpers import (
    REJECTED_FACE_REFERENCES, WALK_PINS, canonical_code_oracle, face_oracle, mirror, pd_with)


def test_empty_braid_closure_is_empty_diagram():
    d = parse_braid_word("B0")
    assert d.n == 0 and d.nanchors == 0 and d.ndarts == 0


def test_one_strand_closure_is_round_circle():
    d = parse_braid_word("B1")
    assert d.n == 0 and d.nanchors == 1
    assert len(d.faces) == 2
    assert d.outer_face is not None


def test_trefoil_word_basics():
    d = parse_braid_word("B2 1 1 1")
    assert d.n == 3
    assert writhe(d) == 3
    assert d.signs == (1, 1, 1)


def test_writhe_cancels():
    assert writhe(parse_braid_word("B2 1 -1")) == 0
    assert writhe(parse_braid_word("B3 1 -2 -2 1")) == 0


def test_reduced_word_cancels_adjacent_and_end_pairs():
    examples = {
        (1, -1): (),
        (1, 2, -2, -1): (),
        (1, -1, 1, 1, -1): (1,),
        (2, 1, -1, 3, -2): (3,),
        (1, 2, -1): (2,),
        (-2, 1, 1, 2): (1, 1),
        (1, 2, 1): (1, 2, 1),
        (1, 3, -1): (3,),
        (1, 3, -1, -3): (1, 3, -1, -3),  # letters are not commuted
    }
    for letters, reduced in examples.items():
        assert BraidWord(4, letters).reduced() == BraidWord(4, reduced), letters
    rnd = random.Random(7)
    for _ in range(300):
        k = rnd.choice((2, 3, 4))
        gens = [g for g in range(1 - k, k) if g]
        word = BraidWord(k, tuple(rnd.choice(gens) for _ in range(rnd.randrange(12))))
        short = word.reduced()
        a = short.letters
        # freely reduced, cyclically reduced, and a fixed point
        assert all(x != -y for x, y in zip(a, a[1:])), word
        assert len(a) < 2 or a[0] != -a[-1], word
        assert short.reduced() == short and short.strands == k
        assert short.writhe == word.writhe
        assert (len(word.letters) - len(a)) % 2 == 0


def _same_braid(u, v):
    return all(helpers.burau(u, t) == helpers.burau(v, t) for t in helpers.BURAU_POINTS)


def test_every_rewrite_is_the_same_braid():
    # each word one rewrite away is a rotation of the word with its first
    # two or three letters replaced by another spelling of the same braid:
    # equal unreduced Burau matrices, exactly, at three values of t
    rnd = random.Random(25)
    rewritten = 0
    for _ in range(300):
        k = rnd.choice((3, 4))
        gens = [g for g in range(1 - k, k) if g]
        word = BraidWord(k, tuple(rnd.choice(gens) for _ in range(rnd.randrange(2, 9))))
        a = word.letters
        rotations = [BraidWord(k, a[s:] + a[:s]) for s in range(len(a))]
        for rewrite in word.rewrites():
            sources = [r for r in rotations
                       if r.letters[3:] == rewrite.letters[3:] and r != rewrite]
            assert any(_same_braid(r, rewrite) for r in sources), (word, rewrite)
            rewritten += 1
    assert rewritten >= 300


def test_braid_relations_hold_for_six_sign_triples_of_eight():
    # sigma_i^e sigma_j^f sigma_i^g with |i - j| = 1 is rewritten to
    # sigma_j^g sigma_i^f sigma_j^e for every sign triple but e = g = -f,
    # where the two words are different braids; |i - j| >= 2 commutes
    for i, j in ((1, 2), (2, 1), (2, 3), (3, 2)):
        valid = 0
        for e, f, g in itertools.product((1, -1), repeat=3):
            word = BraidWord(4, (e * i, f * j, g * i))
            other = BraidWord(4, (g * j, f * i, e * j))
            if e == g == -f:
                assert list(word.rewrites()) == [], word
                assert not _same_braid(word, other), word
            else:
                assert list(word.rewrites()) == [other], word
                valid += 1
        assert valid == 6
    for e, f in itertools.product((1, -1), repeat=2):
        word = BraidWord(4, (e, 3 * f))
        assert list(word.rewrites()) == [BraidWord(4, (3 * f, e)), word]
        assert _same_braid(word, BraidWord(4, (3 * f, e)))
    assert list(BraidWord(3, (1, 1, 1)).rewrites()) == []
    assert list(BraidWord(4, (1, 2, 3)).rewrites()) == [BraidWord(4, (1, 3, 2))]


def test_malformed_words():
    with pytest.raises(MalformedWordError):
        parse_braid_word("B2 2")
    with pytest.raises(MalformedWordError):
        parse_braid_word("B1 1")
    with pytest.raises(MalformedWordError):
        parse_braid_word("2 1 1")
    with pytest.raises(MalformedWordError):
        BraidWord(2, (0,))


def test_euler_formula_every_component(corpus):
    # validation would have raised otherwise; recount explicitly
    for d in corpus:
        nv = d.n + d.nanchors
        if not nv:
            continue
        v = [0] * d.ncomponents
        e = [0] * d.ncomponents
        f = [0] * d.ncomponents
        for vert in range(nv):
            v[d.comp_of_vertex[vert]] += 1
        for (t, _, _) in d.edges:
            e[d.comp_of_vertex[d.vertex_of(t)]] += 1
        for orbit in d.faces:
            f[d.comp_of_vertex[d.vertex_of(orbit[0])]] += 1
        for k in range(d.ncomponents):
            assert v[k] - e[k] + f[k] == 2


def test_reverse_orientation_is_involution():
    d = parse_braid_word("B3 1 -2 1")
    r = reverse_orientation(d)
    assert writhe(r) == writhe(d)
    assert r.signs == d.signs
    rr = reverse_orientation(r)
    assert rr.canonical_code() == d.canonical_code()
    assert rr.edges == d.edges


def test_reverse_zero_crossing_circle():
    d = parse_braid_word("B1")
    r = reverse_orientation(d)
    assert r.canonical_code() == d.canonical_code()


def test_pd_round_trip_all_shapes():
    for word in ("B2 1 1 1", "B3 1 2 1", "B1", "B3 1", "B2 1 -1"):
        d = parse_braid_word(word)
        d2 = parse_pd(d.to_pd_json())
        assert d2.canonical_code() == d.canonical_code()


ONE_CROSSING_UNKNOT_PD = {
    "crossings": [
        {
            "id": 0,
            "sign": 1,
            "rotation": [[0, "tail"], [0, "head"], [1, "head"], [1, "tail"]],
        }
    ],
    "edges": [
        {"id": 0, "from": [0, 0], "to": [0, 1]},
        {"id": 1, "from": [0, 3], "to": [0, 2]},
    ],
    "outer_face": [[1, "tail"]],
}


def test_parse_plain_pd_one_crossing():
    d = parse_pd(json.dumps(ONE_CROSSING_UNKNOT_PD).encode("utf8"))
    assert d.n == 1 and writhe(d) == 1
    ref = parse_braid_word("B2 1")
    assert d.canonical_code() == ref.canonical_code()


def test_parse_pd_missing_outer_face():
    bad = {k: v for k, v in ONE_CROSSING_UNKNOT_PD.items() if k != "outer_face"}
    with pytest.raises(FormatError):
        parse_pd(json.dumps(bad))


def test_parse_pd_orientation_error_non_alternating():
    # both ends of each strand at adjacent rotation slots: the over/under
    # lines cannot alternate around the crossing
    bad = {
        "crossings": [
            {
                "id": 0,
                "sign": 1,
                "rotation": [[0, "tail"], [0, "head"], [1, "tail"], [1, "head"]],
            }
        ],
        "edges": [
            {"id": 0, "from": [0, 0], "to": [0, 1]},
            {"id": 1, "from": [0, 2], "to": [0, 3]},
        ],
        "outer_face": [[0, "tail"]],
    }
    with pytest.raises(OrientationError):
        parse_pd(json.dumps(bad))


def test_parse_pd_rejects_port_reuse():
    bad = json.loads(json.dumps(ONE_CROSSING_UNKNOT_PD))
    bad["edges"][1]["from"] = [0, 0]
    with pytest.raises((OrientationError, FormatError)):
        parse_pd(json.dumps(bad))


def test_parse_pd_bad_json():
    with pytest.raises(FormatError):
        parse_pd(b"{not json")


def test_parse_pd_json_nested_too_deeply():
    # json.loads recurses per level and raises RecursionError past the
    # interpreter's limit: that is malformed input too
    for text in ("[" * 100_000, '{"a": ' * 100_000):
        with pytest.raises(FormatError, match="nested too deeply"):
            parse_pd(text)


def test_figure4_first_member_pd_round_trip():
    from braidbracket.moves import figure4_family

    f1 = figure4_family(1)
    assert f1.n == 2 and writhe(f1) == 0
    d = parse_pd(f1.to_pd_json())
    assert d.canonical_code() == f1.canonical_code()


def test_sign_convention_forced():
    d = braid_closure(BraidWord(3, (2, -1)))
    assert d.signs == (1, -1)


def test_closure_crossings_are_over_on_odd_positions_exactly_at_positive_letters(corpus):
    # the over parity is derived from the sign: a closure's positive letter
    # puts its over strand at positions 1 and 3, a negative one at 0 and 2
    closures = [d for d in corpus if d.braid_word is not None]
    assert any(g < 0 for d in closures for g in d.braid_word.letters)
    for d in closures:
        assert d.over_parity == tuple(int(g > 0) for g in d.braid_word.letters)


def test_pd_round_trip_keeps_the_over_parity(corpus):
    # PD JSON carries signs and rotations only; parsing derives the same
    # over strand at every crossing
    from braidbracket.bracket import add_marked_circle, skein_expand

    diagrams = list(corpus)
    diagrams += [random_equivalent_pair(seed, 100, BraidWord(strands, letters),
                                        max_crossings=14)[1]
                 for seed, strands, letters, *_ in WALK_PINS]
    for d in diagrams[::5]:
        if d.n:
            diagrams += skein_expand(d, d.n // 2)
        diagrams.append(add_marked_circle(d, 2))
    diagrams += [reverse_orientation(d) for d in diagrams]
    assert any(d.fused for d in diagrams) and any(d.anchor_bp for d in diagrams)
    for d in diagrams:
        assert parse_pd(d.to_pd_json()).over_parity == d.over_parity


def test_mirror_switches_every_over_strand(corpus):
    for d in corpus + _moved_diagrams():
        assert mirror(d).over_parity == tuple(1 - q for q in d.over_parity)


def test_nested_components_need_placements():
    d = parse_braid_word("B3")
    assert d.ncomponents == 3
    assert len(d.placements) == 2
    with pytest.raises(NonPlanarError):
        b = d.to_builder()
        b.placements = []
        b.build()


def test_face_references_after_removed_edges_are_renumbered():
    # build closes the gaps that removed edges leave, and every face
    # reference moves down by the number of removed edges before it: here
    # removed edges lie before, between and after the references
    from braidbracket.bracket import add_marked_circle
    from braidbracket.diagram import anchor_port

    d = add_marked_circle(add_marked_circle(parse_braid_word("B3 1 1"), 2), 0)
    b = d.to_builder()
    assert len(b.placements) == 3 and b.outer is not None
    # the last split removes the second half of edge 0, which no reference
    # names: a split moves references to the first half
    for eid in (0, 3, 8):
        ai = b.add_anchor()
        b.split_edge(eid, anchor_port(ai, 0), anchor_port(ai, 1))
    refs = [r for pair in b.placements for r in pair] + [b.outer]
    holes = [e for e, rec in enumerate(b.edges) if rec is None]
    assert holes == [0, 3, 8]
    assert any(h < r[0] for h in holes for r in refs)
    assert any(h > r[0] for h in holes for r in refs)

    def renumbered(r):
        return (r[0] - sum(h < r[0] for h in holes), r[1])

    built = b.build()
    assert built.placements == tuple((renumbered(x), renumbered(y)) for x, y in b.placements)
    assert built.outer_ref == renumbered(b.outer)
    assert built.ncomponents == d.ncomponents and built.nanchors == d.nanchors + 3
    assert parse_pd(built.to_pd_json()).to_pd_json() == built.to_pd_json()


def _marked_trefoil(break_points):
    from braidbracket.bracket import add_marked_circle

    return add_marked_circle(parse_braid_word("B2 1 1 1"), break_points)


@pytest.mark.parametrize(
    "d1, d2",
    [
        # a split component's anchor break points are part of its code
        (_marked_trefoil(0), _marked_trefoil(2)),
    ],
    ids=["marked-circle"],
)
def test_canonical_code_of_split_diagram_keeps_decorations(d1, d2):
    assert d1.ncomponents == d2.ncomponents == 2
    assert d1.canonical_code() != d2.canonical_code()


def _split_closures():
    from braidbracket.bracket import add_marked_circle

    words = [(0, ()), (1, ()), (3, ()), (3, (1, 1)), (4, (1, -1, 3)),
             (4, (3, 1, -3)), (5, (-4, -3, -1, -3)), (5, (1, 1, 4, -4, 4))]
    return [braid_closure(BraidWord(k, w)) for k, w in words] + [
        _marked_trefoil(0), _marked_trefoil(2),
        add_marked_circle(parse_braid_word("B3 1 -2 1"), 4),
    ]


def _moved_diagrams():
    bases = [BraidWord(2, (1, 1, 1)), BraidWord(3, (1, -2, 1, -2)),
             BraidWord(4, (2, -2, 3, -1)), BraidWord(3, (1, 2, -1, 2, 1, 2))]
    out = [random_equivalent_pair(861703, 100, bases[2], max_crossings=14)[1]]
    for seed in range(12):
        _, d = random_equivalent_pair(seed, 10 + 7 * seed, bases[seed % 4],
                                      max_crossings=14)
        out += [d, reverse_orientation(d)]
    return out


def test_canonical_code_matches_exhaustive_search(corpus):
    diagrams = corpus + _split_closures() + _moved_diagrams()
    assert any(d.ncomponents > 1 for d in diagrams)
    assert max(d.ndarts for d in diagrams) > 40  # dart ids reach two digits
    for d in diagrams:
        assert d.canonical_code() == canonical_code_oracle(d)


def _start_filter_cases():
    """Diagrams whose canonical code takes each branch of the start filter:
    anchor tags, fused tags, a curl (alpha(d) = sigma(d), so the least
    starts take ",a1"), and the walk-pin ends as they are, reversed and
    relabelled."""
    from braidbracket.bracket import add_marked_circle, skein_expand
    from braidbracket.moves import figure4_family

    cases = {
        "marked-trefoil": _marked_trefoil(2),
        "marked-free-loops": add_marked_circle(braid_closure(BraidWord(3, (1,))), 4),
        "figure4-1": figure4_family(1),
        "figure4-3": figure4_family(3),
    }
    for bit, d in enumerate(skein_expand(parse_braid_word("B3 1 -2 1 -2"), 2)):
        cases[f"skein-{bit}"] = d
    for seed, strands, letters, *_ in WALK_PINS:
        _, end = random_equivalent_pair(seed, 100, BraidWord(strands, letters),
                                        max_crossings=14)
        perm = random.Random(seed).sample(range(end.n), end.n)
        cases[f"walk-{seed}-reversed"] = reverse_orientation(end)
        cases[f"walk-{seed}"] = end
        cases[f"walk-{seed}-relabelled"] = helpers.relabel_crossings(end, perm)
        cases[f"walk-{seed}-both"] = helpers.relabel_crossings(reverse_orientation(end), perm)
    return cases


def test_the_canonical_start_filter_keeps_the_exhaustive_code():
    cases = _start_filter_cases()
    curls = [name for name, d in cases.items()
             if any(d.alpha[x] == d.sigma(x) for x in range(d.ndarts))]
    assert "figure4-1" in curls and "figure4-3" in curls
    assert cases["marked-trefoil"].nanchors == 1
    assert cases["marked-free-loops"].nanchors == 2
    assert cases["skein-0"].fused == {2: 0} and cases["skein-1"].fused == {2: 1}
    for name, d in cases.items():
        assert d.canonical_code() == canonical_code_oracle(d), name
    # relabelling the crossings changes no code
    for seed, *_ in WALK_PINS:
        code = cases[f"walk-{seed}"].canonical_code()
        assert cases[f"walk-{seed}-relabelled"].canonical_code() == code
        code = cases[f"walk-{seed}-reversed"].canonical_code()
        assert cases[f"walk-{seed}-both"].canonical_code() == code


def test_component_labels_follow_the_union_find(corpus):
    # labels rank the roots that _uf_union leaves, edge by edge, tail first
    from braidbracket.diagram import _uf_find, _uf_union

    diagrams = corpus + _split_closures() + _moved_diagrams()
    for d in diagrams:
        parent = list(range(d.n + d.nanchors))
        for t, h, _ in d.edges:
            _uf_union(parent, d.vertex_of(t), d.vertex_of(h))
        roots = [_uf_find(parent, v) for v in range(len(parent))]
        rank = {r: i for i, r in enumerate(sorted(set(roots)))}
        assert d.comp_of_vertex == [rank[r] for r in roots]


def _pd_of(diagram, edit):
    """PD object of ``diagram`` after ``edit`` changes it in place."""
    obj = json.loads(diagram.to_pd_json())
    edit(obj)
    return obj


def _alias_anchor_1(obj):
    # positions 2 and 3 of anchor 0 would be the darts of anchor 1
    obj["edges"][1].update({"from": [["a", 0], 2], "to": [["a", 0], 3]})


def _rekey_closure_arc(key):
    def edit(obj):
        obj["closure_arcs"][key] = obj["closure_arcs"].pop("4")
    return edit


def _placement_side(side):
    def edit(obj):
        assert obj["placements"] == [[[6, "R"], [5, "R"]]]
        obj["placements"][0][0][1] = side
    return edit


_CLOSURE_ARC_KEYS = ["99", "\u0664", "04", "+4", " 4", "4.0", "-0", "6"]
_SIDES = ["", "RL", "LR", "r", "Right", None, 0, ["R"]]
_DECORATIONS = {
    "fused-bit-2": lambda o: o.update({"fused": {"0": 2}}),
    "fused-bit-true": lambda o: o.update({"fused": {"0": True}}),
    "fused-unknown-crossing": lambda o: o.update({"fused": {"3": 0}}),
    "fused-key-00": lambda o: o.update({"fused": {"00": 1}}),
    "fused-not-a-map": lambda o: o.update({"fused": [[0, 1]]}),
    "bp-odd": lambda o: o["anchors"][0].update({"break_points": 3}),
    "bp-negative": lambda o: o["anchors"][0].update({"break_points": -2}),
    "bp-float": lambda o: o["anchors"][0].update({"break_points": 2.0}),
    "bp-true": lambda o: o["anchors"][0].update({"break_points": True}),
}


def _marked_b3():
    from braidbracket.bracket import add_marked_circle

    return add_marked_circle(parse_braid_word("B3 1 -2 1"), 2)


@pytest.mark.parametrize(
    "obj, error",
    [
        (_pd_of(parse_braid_word("B2"), _alias_anchor_1), FormatError),
        (_pd_of(_marked_trefoil(2), lambda o: o["edges"][6].update(
            {"from": [["a", -1], 0]})), FormatError),
        (_pd_of(_marked_trefoil(2), lambda o: o["anchors"][0].update(
            {"rotation": [[7, "tail"], [9, "head"]]})), OrientationError),
    ]
    + [(_pd_of(parse_braid_word("B2 1 1 1"), _rekey_closure_arc(key)), FormatError)
       for key in _CLOSURE_ARC_KEYS]
    + [(_pd_of(_marked_b3(), _placement_side(side)), FormatError) for side in _SIDES]
    + [(_pd_of(_marked_trefoil(2), edit), FormatError) for edit in _DECORATIONS.values()],
    ids=["anchor-port-alias", "negative-anchor", "anchor-rotation", "closure-arc-key"]
    + [f"closure-arc-key-{key!r}" for key in _CLOSURE_ARC_KEYS[1:]]
    + [f"placement-side-{side!r}" for side in _SIDES]
    + list(_DECORATIONS),
)
def test_parse_pd_checks_anchor_ports_rotations_and_closure_arcs(obj, error):
    with pytest.raises(error):
        parse_pd(json.dumps(obj))


def _removals_keeping_loop_anchors():
    from braidbracket.moves import apply_move, find_sites

    out = []
    for w in itertools.product((1, -1, 2, -2), repeat=4):
        d = braid_closure(BraidWord(3, w))
        for site in find_sites(d, "IIa_remove"):
            moved = apply_move(d, site)
            if moved.nanchors > d.nanchors:
                out.append(moved)
    return out


def test_pd_round_trip_keeps_anchors_and_marked_circles():
    from braidbracket.bracket import add_marked_circle, bracket_br, skein_expand

    moved = _moved_diagrams() + _removals_keeping_loop_anchors()
    diagrams = moved + _split_closures() + [add_marked_circle(d, 4) for d in moved[:8]]
    trefoil = parse_braid_word("B2 1 1 1")
    diagrams += list(skein_expand(trefoil, 0)) + list(skein_expand(moved[1], 2))
    diagrams.append(add_marked_circle(skein_expand(trefoil, 1)[1], 2))
    assert any(d.n and d.nanchors for d in diagrams)
    assert any(d.fused for d in diagrams) and any(d.anchor_bp for d in diagrams)
    for d in diagrams:
        text = d.to_pd_json()
        back = parse_pd(text)
        assert back.to_pd_json() == text
        assert back.canonical_code() == d.canonical_code()
        decorated = d.fused or any(d.anchor_bp.values())
        # the undecorated moved diagrams have up to 14 crossings, where a
        # state sum takes about a second; their codes already agree
        if decorated or d.n <= 8:
            assert bracket_br(back) == bracket_br(d)
        if not decorated:
            assert '"fused"' not in text and '"break_points"' not in text


BUILDER_FIELDS = ("signs", "over_parity", "nanchors", "edges", "placements",
                  "outer_ref", "fused", "anchor_bp", "from_braid")


def test_builder_round_trip_reproduces_every_field(corpus):
    from braidbracket.bracket import add_marked_circle, skein_expand

    removals = _removals_keeping_loop_anchors()
    diagrams = list(corpus) + removals
    for d in corpus[::4]:
        if d.n:
            diagrams += skein_expand(d, d.n - 1)
            diagrams.append(add_marked_circle(d, 2))
    diagrams += [reverse_orientation(d) for d in diagrams]
    assert any(d.fused for d in diagrams)
    assert any(d.n and d.nanchors for d in removals)
    for d in diagrams:
        rebuilt = d.to_builder().build()
        for field in BUILDER_FIELDS:
            assert getattr(rebuilt, field) == getattr(d, field), field


def test_build_rejects_references_to_removed_parts():
    b = parse_braid_word("B2 1 1 1").to_builder()
    b.crossings[1] = None  # its four edges still name its ports, edge 0 at port 5
    with pytest.raises(DiagramError) as info:
        b.build()
    assert (info.type, str(info.value)) == (DiagramError, "edge 0 references a removed crossing")
    b = parse_braid_word("B2 1 1 1").to_builder()
    b.edges[b.outer[0]] = None
    with pytest.raises(DiagramError, match="removed edge"):
        b.build()


@pytest.mark.parametrize("word, field, value, error, message", REJECTED_FACE_REFERENCES)
def test_parse_pd_names_what_is_wrong_with_a_face_reference(word, field, value, error, message):
    # an edge id the PD never declared is no edge, not a removed one
    with pytest.raises(DiagramError) as info:
        parse_pd(json.dumps(pd_with(word, field, value)))
    assert (info.type, str(info.value)) == (error, message)


def test_build_names_a_reference_to_an_undeclared_edge():
    for edge in (6, 99, -1):
        b = parse_braid_word("B2 1 1 1").to_builder()
        b.outer = (edge, 0)
        with pytest.raises(DiagramError) as info:
            b.build()
        assert str(info.value) == f"face reference to edge {edge}, not an edge"


def _trefoil_fields(**change):
    """Constructor arguments of the closure of ``B2 1 1 1``, some replaced.

    Its edges are (0, 5) (3, 6) (4, 9) (7, 10) (8, 1) (11, 2), darts 8 .. 11
    belonging to crossing 2.
    """
    d = parse_braid_word("B2 1 1 1")
    fields = dict(signs=d.signs, nanchors=d.nanchors, edges=d.edges, outer_ref=d.outer_ref)
    fields.update(change)
    return fields


def _trefoil_edges(*replaced):
    edges = list(parse_braid_word("B2 1 1 1").edges)
    for i, rec in replaced:
        edges[i] = rec
    return tuple(rec for rec in edges if rec is not None)


_REJECTED = {
    "dart-out-of-range": (_trefoil_fields(edges=_trefoil_edges((5, (11, 12, 1)))),
                          FormatError, "dart 12 out of range"),
    # as a list index, dart -1 would land on dart 11, the one it leaves uncovered
    "dart-minus-one": (_trefoil_fields(edges=_trefoil_edges((5, (-1, 2, 1)))),
                       FormatError, "dart -1 out of range"),
    "dart-used-twice": (_trefoil_fields(edges=_trefoil_edges((5, (11, 1, 1)))),
                        OrientationError, "dart 1 used by two edges"),
    "dart-uncovered": (_trefoil_fields(edges=_trefoil_edges((5, None))),
                       FormatError, "dart 2 not covered by any edge"),
    "bad-sign": (_trefoil_fields(signs=(1, 2, 1)),
                 FormatError, "crossing 1: sign must be +1 or -1"),
    "unoriented-line": (_trefoil_fields(edges=_trefoil_edges((0, (5, 0, 0)))),
                        OrientationError, "crossing 0: strand line 0,2 not oriented through"),
    # one crossing whose strands close up through the opposite positions: a torus
    "nonplanar": (dict(signs=(1,), nanchors=0,
                       edges=((0, 2, 0), (1, 3, 0)), outer_ref=(0, 0)),
                  NonPlanarError, "component 0: V-E+F = 0 != 2"),
    "no-outer-marker": (_trefoil_fields(outer_ref=None),
                        FormatError, "missing outer-face marker"),
}


def test_sign_table_accepts_what_the_crossing_check_accepts():
    # the constructor's bulk lookup and its naming loop agree on every
    # pattern of outgoing ends and sign, and the parity the table gives
    # has that sign
    from types import SimpleNamespace

    from braidbracket.diagram import OrientedDiagram, _PARITY_OF_PATTERN, _crossing_sign

    accepted = set()
    for tails in itertools.product((False, True), repeat=4):
        for sign in (1, -1, 0, 2):
            crossing = SimpleNamespace(signs=(sign,), is_tail=list(tails))
            try:
                OrientedDiagram._check_crossing(crossing, 0)
            except DiagramError:
                continue
            accepted.add((*tails, sign))
    assert accepted == set(_PARITY_OF_PATTERN)
    assert len(accepted) == 8
    for (*tails, sign), q in _PARITY_OF_PATTERN.items():
        assert q in (0, 1) and _crossing_sign(tails, q) == sign


@pytest.mark.parametrize("name", list(_REJECTED))
def test_constructor_names_each_rejection(name):
    from braidbracket.diagram import OrientedDiagram

    fields, error, message = _REJECTED[name]
    with pytest.raises(DiagramError) as info:
        OrientedDiagram(**fields)
    assert (info.type, str(info.value)) == (error, message)


def _set_head(b, e, port):
    """Replace edge ``e`` of builder ``b`` by one with head ``port``: a
    builder replaces records and never edits one."""
    tail, _, seam = b.edges[e]
    b.edges[e] = (tail, port, seam)


@pytest.mark.parametrize("edit", [
    lambda b: _set_head(b, 0, 999),
    lambda b: b.fused.__setitem__(7, 1),
    # a negative index would fuse the last crossing
    lambda b: b.fused.__setitem__(-1, 1),
], ids=["edge-port-999", "fused-crossing-7", "fused-crossing-minus-one"])
def test_build_rejects_indices_outside_the_crossings(edit):
    b = parse_braid_word("B2 1 1 1").to_builder()
    edit(b)
    with pytest.raises(DiagramError, match="not a crossing"):
        b.build()


@pytest.mark.parametrize("word, removed", [
    ("B2 1 1 1", False), ("B2 1 1 1", True), ("B3 1 1 1", False), ("B3 1 1 1", True),
], ids=["no-anchor", "no-anchor-crossing-removed", "one-anchor", "one-anchor-crossing-removed"])
def test_build_names_an_anchor_port_of_no_anchor(word, removed):
    # with and without the port renumbering: no anchor and no crossing
    # removed hands the records to the diagram as they are
    b = parse_braid_word(word).to_builder()
    stray = anchor_port(b.nanchors, 0)
    _set_head(b, 0, stray)
    if removed:
        b.crossings[2] = None
    with pytest.raises(DiagramError) as info:
        b.build()
    assert (info.type, str(info.value)) == (
        DiagramError, f"edge 0 names anchor port {stray}, not an anchor port")


def _add_crossing(b, sign, pairs):
    """Add a crossing to ``b`` with an edge between each pair of its positions."""
    c = b.add_crossing(sign)
    for p, q in pairs:
        b.add_edge(4 * c + p, 4 * c + q)


def test_a_torus_beside_a_sphere_is_not_planar():
    # Euler's formula summed over both components gives 2 + 0 = 2, which a
    # count alone would take for one planar component
    b = parse_braid_word("B2 1 1 1").to_builder()
    _add_crossing(b, 1, [(0, 2), (1, 3)])
    with pytest.raises(NonPlanarError, match="component 1: V-E"):
        b.build()


def test_the_one_component_mark_does_not_hide_a_second_component():
    # a builder marked as coming from a one-component diagram, edited into
    # two planar pieces without a placement: V-E+F is 4, and build searches
    d = parse_braid_word("B2 1 1 1")
    b = d.to_builder()
    b._one_component = d.nanchors
    _add_crossing(b, -1, [(0, 1), (3, 2)])  # a one-crossing curl
    with pytest.raises(NonPlanarError, match="2 components glued by 0 placements"):
        b.build()


def test_faces_match_an_independent_trace_on_the_corpus(corpus_small):
    # each corpus diagram, its reversal, a marked circle added to it (an
    # anchor and a placement), and both skein expansions at every crossing
    from braidbracket.bracket import add_marked_circle, skein_expand

    checked = 0
    for d in corpus_small:
        family = [d, reverse_orientation(d), add_marked_circle(d)]
        family += [half for v in d.active_crossings for half in skein_expand(d, v)]
        for x in family:
            faces, face_of, face_next = face_oracle(x)
            assert (x.faces, x.face_of, x._face_next) == (faces, face_of, face_next)
            checked += 1
    assert checked > 3 * len(corpus_small)
