import json

import pytest

from braidbracket.diagram import (
    BraidWord,
    FormatError,
    MalformedWordError,
    NonPlanarError,
    OrientationError,
    braid_closure,
    parse_braid_word,
    parse_pd,
    reverse_orientation,
    writhe,
)


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


def test_figure4_first_member_pd_round_trip():
    from braidbracket.moves import figure4_family

    f1 = figure4_family(1)
    assert f1.n == 2 and writhe(f1) == 0
    d = parse_pd(f1.to_pd_json())
    assert d.canonical_code() == f1.canonical_code()


def test_sign_convention_forced():
    d = braid_closure(BraidWord(3, (2, -1)))
    assert d.signs == (1, -1)


def test_nested_components_need_placements():
    d = parse_braid_word("B3")
    assert d.ncomponents == 3
    assert len(d.placements) == 2
    with pytest.raises(NonPlanarError):
        b = d.to_builder()
        b.placements = []
        b.build()


def _marked_trefoil(break_points):
    from braidbracket.bracket import add_marked_circle

    return add_marked_circle(parse_braid_word("B2 1 1 1"), break_points)


@pytest.mark.parametrize(
    "d1, seam1, d2, seam2",
    [
        # a split component's anchor break points are part of its code
        (_marked_trefoil(0), False, _marked_trefoil(2), False),
        # and so are its seam marks
        (parse_braid_word("B3 1 1"), False, parse_braid_word("B3 1 1"), True),
    ],
    ids=["marked-circle", "split-seams"],
)
def test_canonical_code_of_split_diagram_keeps_decorations(d1, seam1, d2, seam2):
    assert d1.ncomponents == d2.ncomponents == 2
    assert d1.canonical_code(with_seam=seam1) != d2.canonical_code(with_seam=seam2)
