import hashlib
import itertools
import json

import pytest

from braidbracket.diagram import (
    BraidWord, braid_closure, parse_braid_word, parse_pd, reverse_orientation)
from braidbracket.bracket import bracket_br, skein_expand
from braidbracket.homology import homology_groups
from braidbracket.moves import (
    III_VARIANTS,
    GenerationError,
    SiteInvalidError,
    apply_move,
    apply_move_script,
    figure4_family,
    find_sites,
    random_equivalent_pair,
)

from helpers import WALK_PINS, face_oracle, reference_walk, site_oracle


def test_iia_remove_sites_on_cancelling_pair():
    d = parse_braid_word("B2 1 -1")
    sites = find_sites(d, "IIa_remove")
    # the cancelling pair bounds a removable bigon on both sides of the
    # annulus, so the face-level matcher reports two sites
    assert len(sites) == 2
    for s in sites:
        res = apply_move(d, s)
        assert res.n == 0
        assert bracket_br(res) == {"(())": {0: 1}}


def test_no_bigon_on_positive_trefoil():
    assert find_sites(parse_braid_word("B2 1 1 1"), "IIa_remove") == []


def test_same_sign_bigon_is_not_removable():
    assert find_sites(parse_braid_word("B2 1 1"), "IIa_remove") == []


def test_triangle_slide_is_braid_relation():
    d = parse_braid_word("B3 1 2 1")
    sites = find_sites(d, "III")
    assert [s.kind for s in sites] == ["IIIa"]
    moved = apply_move(d, sites[0])
    target = parse_braid_word("B3 2 1 2")
    assert moved.canonical_code() == target.canonical_code()


def test_iiia_filter_matches_umbrella():
    d = parse_braid_word("B3 1 2 1")
    assert find_sites(d, "IIIa") == find_sites(d, "III")
    assert find_sites(d, "IIIb") == []


def test_triangle_double_slide_round_trip():
    d = parse_braid_word("B3 1 2 1")
    one = apply_move(d, find_sites(d, "III")[0])
    two = apply_move(one, find_sites(one, "III")[0])
    assert bracket_br(two) == bracket_br(d)
    assert homology_groups(two) == homology_groups(d)


def test_insert_then_remove_round_trip():
    d = parse_braid_word("B2 1 1 1")
    for site in find_sites(d, "IIa_insert")[:4]:
        bigger = apply_move(d, site)
        assert bigger.n == 5
        assert bigger.writhe() == d.writhe()
        back_sites = find_sites(bigger, "IIa_remove")
        assert back_sites
        back = apply_move(bigger, back_sites[0])
        assert bracket_br(back) == bracket_br(d)


def test_moves_preserve_writhe_and_ri_does_not():
    d = parse_braid_word("B3 1 2 1")
    for kind in ("IIa_insert", "IIb_insert"):
        moved = apply_move(d, find_sites(d, kind)[0])
        assert moved.writhe() == d.writhe()
    for site in find_sites(d, "RI_insert")[:4]:
        moved = apply_move(d, site)
        assert abs(moved.writhe() - d.writhe()) == 1


def test_stale_site_rejected():
    d = parse_braid_word("B2 1 -1")
    site = find_sites(d, "IIa_remove")[0]
    moved = apply_move(d, site)
    with pytest.raises(SiteInvalidError):
        apply_move(moved, site)


def test_unknown_kind():
    with pytest.raises(ValueError):
        find_sites(parse_braid_word("B2 1"), "IV")


def test_a_stale_site_is_refused_before_its_kind_and_anchor_are_read():
    from braidbracket.moves import MoveSite, _fingerprint

    d = parse_braid_word("B2 1")
    for anchor in ((0, 1), [[0], 1]):
        with pytest.raises(SiteInvalidError):
            apply_move(d, MoveSite("IV", anchor, "stale"))
        with pytest.raises(ValueError):
            apply_move(d, MoveSite("IV", anchor, _fingerprint(d)))


def test_random_pair_zero_moves_identity():
    d1, d2 = random_equivalent_pair(1, 0, BraidWord(2, (1, 1, 1)))
    assert d1.canonical_code() == d2.canonical_code()


def test_random_pair_deterministic_in_seed():
    a1, a2 = random_equivalent_pair(9, 6, BraidWord(2, (1, 1, 1)))
    b1, b2 = random_equivalent_pair(9, 6, BraidWord(2, (1, 1, 1)))
    assert a2.canonical_code() == b2.canonical_code()


def test_random_pair_invariance_small_batch():
    for seed in range(6):
        d1, d2 = random_equivalent_pair(seed, 8, BraidWord(2, (1, 1, 1)), max_crossings=9)
        assert bracket_br(d1) == bracket_br(d2)
        assert homology_groups(d1) == homology_groups(d2)


def test_generation_error_when_no_moves():
    # a bare circle admits no braid-like move at all
    with pytest.raises(GenerationError):
        random_equivalent_pair(0, 1, BraidWord(1, ()))


def test_ri_negative_control():
    d = parse_braid_word("B1")
    base = bracket_br(d)
    for site in find_sites(d, "RI_insert"):
        moved = apply_move(d, site)
        assert bracket_br(moved) != base


def test_iib_negative_control_exists():
    d = parse_braid_word("B2 1 1 1")
    base = bracket_br(d)
    sites = find_sites(d, "IIb_insert")
    assert sites
    hits = 0
    for site in sites[:6]:
        moved = apply_move(d, site)
        assert moved.writhe() == d.writhe()
        if bracket_br(moved) != base:
            hits += 1
    assert hits > 0


def test_figure4_family_members():
    f0 = figure4_family(0)
    assert f0.n == 0 and bracket_br(f0) == {"()": {0: 1}}
    f1 = figure4_family(1)
    assert f1.n == 2 and f1.writhe() == 0
    f2 = figure4_family(2)
    assert f2.n == 4 and f2.writhe() == 0
    brackets = [bracket_br(figure4_family(m)) for m in range(3)]
    assert brackets[0] != brackets[1]
    assert brackets[0] != brackets[2]
    assert brackets[1] != brackets[2]


def test_moved_diagrams_lose_winding_support():
    d = parse_braid_word("B2 1 -1")
    moved = apply_move(d, find_sites(d, "IIa_remove")[0])
    assert not moved.from_braid


def test_move_script_round_trip():
    from braidbracket.moves import site_to_json

    d = parse_braid_word("B3 1 2 1")
    s1 = find_sites(d, "III")[0]
    mid = apply_move(d, s1)
    s2 = find_sites(mid, "IIa_insert")[0]
    end = apply_move(mid, s2)
    script = json.dumps([site_to_json(s1), site_to_json(s2)])
    replayed = apply_move_script(d, script)
    assert replayed.canonical_code() == end.canonical_code()
    with pytest.raises(SiteInvalidError):
        apply_move_script(end, script)


def test_iia_remove_keeps_placement_of_split_link_component():
    # a bigon removal on a link component placed inside a face of another
    # one used to rename that placement through the host's edges
    base = BraidWord(4, (2, -2, 3, -1))
    d1, d2 = random_equivalent_pair(861703, 100, base, max_crossings=14)
    assert d2.ncomponents == 2 and len(d2.placements) == 1
    assert d2.writhe() == d1.writhe()
    assert parse_pd(d2.to_pd_json()).canonical_code() == d2.canonical_code()
    assert bracket_br(d2) == bracket_br(d1)


def test_triangle_slide_keeps_placement_of_link_component():
    d = braid_closure(BraidWord(5, (-4, -3, -1, -3)))
    sites = find_sites(d, "III")
    assert sites
    for site in sites:
        moved = apply_move(d, site)
        assert moved.ncomponents == d.ncomponents == 2
        assert bracket_br(moved) == bracket_br(d)


# Walks are pinned by the sha256 of the moved diagram's PD JSON (WALK_PINS).
@pytest.mark.parametrize("seed, strands, letters, n, ncomp, digest", WALK_PINS)
def test_walk_is_pinned(seed, strands, letters, n, ncomp, digest):
    _, d = random_equivalent_pair(seed, 100, BraidWord(strands, letters), max_crossings=14)
    assert (d.n, d.ncomponents) == (n, ncomp)
    assert hashlib.sha256(d.to_pd_json().encode()).hexdigest()[:16] == digest


ALL_KINDS = ("IIa_remove", "IIa_insert", "IIb_insert", "RI_insert", "III",
             "IIIa", "IIIb", "IIIc", "IIId", "IIIe", "IIIf")

# per diagram: the number of sites of each kind in ALL_KINDS, and the sha256
# of the repr of the (kind, anchor) lists in find_sites order
SITE_PINS = {
    "moved-3-strand": ((1, 40, 70, 80, 3, 1, 0, 1, 0, 1, 0), "d214514aa3a058e4"),
    "moved-2-strand-link": ((4, 18, 144, 72, 0, 0, 0, 0, 0, 0, 0), "d3a8d19907f37152"),
    "moved-4-strand": ((4, 62, 114, 96, 1, 1, 0, 0, 0, 0, 0), "e51102263ad84d86"),
    "moved-split": ((6, 24, 220, 96, 0, 0, 0, 0, 0, 0, 0), "79c965c33c37b467"),
    "split-closure": ((0, 14, 10, 32, 1, 0, 0, 1, 0, 0, 0), "c1ca1eb60e5e1f5e"),
    "free-strand": ((2, 6, 12, 28, 0, 0, 0, 0, 0, 0, 0), "d6cdf7f3eae61236"),
}


def _site_pin_diagram(name):
    if name == "moved-3-strand":
        return random_equivalent_pair(21, 30, BraidWord(3, (1, 2, -1, 2)), max_crossings=12)[1]
    if name == "moved-2-strand-link":
        return random_equivalent_pair(
            22, 30, BraidWord(2, (1, -1, 1, 1, 1)), max_crossings=12)[1]
    if name == "moved-4-strand":
        return random_equivalent_pair(23, 30, BraidWord(4, (1, 3, -2, 1)), max_crossings=12)[1]
    if name == "moved-split":
        return random_equivalent_pair(
            861703, 100, BraidWord(4, (2, -2, 3, -1)), max_crossings=14)[1]
    if name == "split-closure":
        return braid_closure(BraidWord(5, (-4, -3, -1, -3)))
    return braid_closure(BraidWord(3, (1, 1, -1)))  # strand 3 is a free loop


@pytest.mark.parametrize("name", sorted(SITE_PINS))
def test_site_lists_are_pinned(name):
    d = _site_pin_diagram(name)
    lists = [[(s.kind, s.anchor) for s in find_sites(d, kind)] for kind in ALL_KINDS]
    counts, digest = SITE_PINS[name]
    assert tuple(map(len, lists)) == counts
    assert hashlib.sha256(repr(lists).encode()).hexdigest()[:16] == digest


def test_sites_are_sorted_and_share_the_fingerprint():
    d = _site_pin_diagram("moved-4-strand")
    for kind in ALL_KINDS:
        sites = find_sites(d, kind)
        assert [(s.kind, s.anchor) for s in sites] == sorted((s.kind, s.anchor) for s in sites)
        assert len({s.fingerprint for s in sites}) <= 1
        assert all(repr(s) == f"MoveSite({s.kind}, {s.anchor})" for s in sites)


def test_fingerprint_is_kept_and_content_based():
    from braidbracket.moves import _fingerprint

    d = parse_braid_word("B3 1 2 1")
    fp = _fingerprint(d)
    assert _fingerprint(d) is fp
    assert _fingerprint(parse_braid_word("B3 1 2 1")) == fp
    assert _fingerprint(parse_braid_word("B3 2 1 2")) != fp


# Anchors that are no list, or of the wrong length or type: float or bool ids,
# non-bool flags, a side other than 0 or 1, a list or a dict as a field, a
# string.  A script must fail on them with SiteInvalidError, neither with
# another error nor by applying a move.
MALFORMED_ANCHORS = [
    [0.0, 6.0], [None, None, None], [0, 1], [0, 7, "x"], [1, 2, "t"],
    [0.0, 1.0, False], [True, 1, False], [0, True, False], [0, 1, 0], [], 5, None,
    [[0], 1, False], [[0, 1], False], [{"0": 1}, 2], "01",
]


@pytest.mark.parametrize("anchor", MALFORMED_ANCHORS, ids=repr)
@pytest.mark.parametrize("kind", ("IIa_remove", "IIa_insert", "IIb_insert", "RI_insert", "III"))
def test_malformed_script_anchor_is_site_invalid(kind, anchor):
    script = json.dumps([{"kind": kind, "anchor": anchor}])
    with pytest.raises(SiteInvalidError):
        apply_move_script(parse_braid_word("B3 1 -1 2"), script)


# Per diagram and insertion kind: the number of sites, and the sha256 of the
# PD JSON lines of the results of applying each site in find_sites order.
# The pinned walks use only braid-like kinds, so these pin the IIb and RI
# surgeries.
INSERT_PINS = [
    ("B1", "IIb_insert", 0, "e3b0c44298fc1c14"),
    ("B1", "RI_insert", 4, "db9d3825b3f490ab"),
    ("B2 1 1 1", "IIb_insert", 12, "e418933486015661"),
    ("B2 1 1 1", "RI_insert", 24, "af3f45b10f6660ad"),
    ("B3 1 2 1", "IIb_insert", 10, "6ae0fe04194cc501"),
    ("B3 1 2 1", "RI_insert", 24, "1f5cea6c0cf89474"),
    ("moved-3-strand", "IIb_insert", 70, "5a6510e8fb76f912"),
    ("moved-3-strand", "RI_insert", 80, "f92db744b2bdc009"),
]


@pytest.mark.parametrize("name, kind, count, digest", INSERT_PINS)
def test_insertions_are_pinned(name, kind, count, digest):
    d = _site_pin_diagram(name) if name in SITE_PINS else parse_braid_word(name)
    sites = find_sites(d, kind)
    h = hashlib.sha256()
    for site in sites:
        h.update(apply_move(d, site).to_pd_json().encode() + b"\n")
    assert (len(sites), h.hexdigest()[:16]) == (count, digest)


def test_bigon_removal_keeps_anchors_away_from_its_site():
    # a curl on the free loop of strand 3 leaves that loop's anchor between
    # two distinct edges; removing the bigon of strands 1 and 2 keeps that
    # anchor and adds one for each of its own strands, which close into loops
    d = parse_braid_word("B3 1 -1")
    loop = d.edge_of[4 * d.n]
    curl = apply_move(d, next(
        s for s in find_sites(d, "RI_insert") if s.anchor == (loop, 0, False)))
    assert curl.nanchors == 1
    moved = apply_move(curl, find_sites(curl, "IIa_remove")[0])
    assert (moved.n, moved.nanchors) == (1, 3)
    a0 = 4 * moved.n
    assert {moved.vertex_of(moved.alpha[a0]), moved.vertex_of(moved.alpha[a0 + 1])} == {0}
    assert parse_pd(moved.to_pd_json()).to_pd_json() == moved.to_pd_json()
    assert bracket_br(moved) == bracket_br(curl)


def test_bigon_removal_renumbers_the_anchor_it_keeps():
    # after a curl on B2 -1 1 the bigon's first strand joins into a plain
    # edge and its second one, closed into a loop, takes the one new anchor
    # number
    d = parse_braid_word("B2 -1 1")
    curl = apply_move(d, find_sites(d, "RI_insert")[0])
    moved = apply_move(curl, find_sites(curl, "IIa_remove")[0])
    assert (moved.n, moved.nanchors, moved.ncomponents) == (1, 1, 2)
    assert hashlib.sha256(moved.to_pd_json().encode()).hexdigest()[:16] == "049a5d2e4d5c6b98"


def test_triangle_kind_must_name_its_variant():
    d = parse_braid_word("B3 1 2 1")
    (site,) = find_sites(d, "III")
    assert site.kind == "IIIa"
    for variant in III_VARIANTS[1:]:
        with pytest.raises(SiteInvalidError):
            apply_move(d, site._replace(kind=variant))
    assert apply_move(d, site._replace(kind="III")).to_pd_json() == apply_move(
        d, site).to_pd_json()


# A record that is no {"kind", "anchor"} object of a known kind, and a script
# that is no list or no JSON, fail with SiteInvalidError like a malformed
# anchor does.
@pytest.mark.parametrize("script", [
    '[{"kind": "III"}]',
    '[{"kind": "Zz", "anchor": [1]}]',
    '[[1, 2]]',
    '[5]',
    '{"kind": "IIIa", "anchor": [0, 10, 5]}',
    '[{"kind": "III", "anchor": [0, 10, 5]}',
    b'\xff',
])
def test_malformed_script_record_is_site_invalid(script):
    with pytest.raises(SiteInvalidError):
        apply_move_script(parse_braid_word("B3 1 2 1"), script)


def test_bigon_removal_places_exactly_the_pieces_it_splits_off():
    # a placement is added iff the removal splits a component, so each
    # component more comes with one placement more
    splits = 0
    for k, letters in ((2, (1, -1)), (3, (1, -1, 2, -2)), (4, (1, -1, 2, -2, 3, -3))):
        for w in itertools.product(letters, repeat=4):
            d = braid_closure(BraidWord(k, w))
            for site in find_sites(d, "IIa_remove"):
                moved = apply_move(d, site)
                more = moved.ncomponents - d.ncomponents
                assert more in (0, 1)
                assert len(moved.placements) - len(d.placements) == more
                splits += more
    assert splits > 0


def _removals_and_slides(d):
    for kind in ("IIa_remove", "III"):
        for site in find_sites(d, kind):
            yield kind, apply_move(d, site)


# Per move family: the number of sites, and the sha256 of the PD JSON lines
# of the results, over every IIa_remove and III site on the closures of all
# words with k <= 4 strands (length <= 4, <= 3 for k = 4) and on each result
# one level deeper.  232 of the removals keep two loop anchors, 208 keep one.
def test_removals_and_slides_are_pinned():
    h = {"IIa_remove": hashlib.sha256(), "III": hashlib.sha256()}
    count = {"IIa_remove": 0, "III": 0}
    for k, length in ((2, 4), (3, 4), (4, 3)):
        letters = [g for i in range(1, k) for g in (i, -i)]
        for n in range(length + 1):
            for w in itertools.product(letters, repeat=n):
                d = braid_closure(BraidWord(k, w))
                for x in [d] + [m for _, m in _removals_and_slides(d)]:
                    for kind, moved in _removals_and_slides(x):
                        h[kind].update(moved.to_pd_json().encode() + b"\n")
                        count[kind] += 1
    assert count == {"IIa_remove": 832, "III": 840}
    assert h["IIa_remove"].hexdigest()[:16] == "0a3fa1381f22aa03"
    assert h["III"].hexdigest()[:16] == "2c25ace178ece88b"


# A bigon or triangle on the outer face bounds no disk in the plane, so it
# is no removal or slide site: moving across it changes nesting, and here
# the term "(())" would become "()()".
OUTER_FACE_SCRIPT = json.dumps([
    {"kind": "RI_insert", "anchor": [1, 1, False]},
    {"kind": "IIa_insert", "anchor": [6, 0, False]},
    {"kind": "IIa_remove", "anchor": [15, 17]},
    {"kind": "IIIc", "anchor": [0, 6, 8]},
])


def test_outer_face_bigon_is_no_removal_site():
    d = apply_move_script(parse_braid_word("B3 2 -2"), OUTER_FACE_SCRIPT)
    assert d.global_face_of_dart(3) == d.outer_face
    assert find_sites(d, "IIa_remove") == []
    with pytest.raises(SiteInvalidError):
        apply_move_script(d, '[{"kind": "IIa_remove", "anchor": [3, 7]}]')


def _built(d, site):
    """The move applied through to_builder, the surgery and a build that
    searches the components: moves._rewrite marks its builder as coming
    from a diagram of one component, and this one carries no mark."""
    from braidbracket.moves import _MOVES

    b = d.to_builder()
    b.from_braid = False
    _MOVES[site.kind](d, b, site.anchor)
    b._one_component = None
    return b.build()


INDEX_TABLES = ("signs", "over_parity", "nanchors", "edges", "placements", "outer_ref",
                "fused", "anchor_bp", "alpha", "edge_of", "is_tail", "_dart_vertex",
                "faces", "face_of", "_face_next", "comp_of_vertex", "ncomponents",
                "_face_root", "_global_faces", "outer_face")


def _assert_same_diagram(got, want):
    assert got.to_pd_json() == want.to_pd_json()
    for name in INDEX_TABLES:
        assert getattr(got, name) == getattr(want, name), name
    assert list(got._global_faces) == list(want._global_faces)
    for kind in ALL_KINDS:
        assert find_sites(got, kind) == find_sites(want, kind), kind


@pytest.mark.parametrize("seed, strands, letters", [p[:3] for p in WALK_PINS])
def test_moves_match_a_full_build_along_the_pinned_walks(seed, strands, letters):
    # apply_move's build counts one component; _built's searches for them
    steps, end = reference_walk(seed, strands, letters)
    for d, site in steps:
        _assert_same_diagram(apply_move(d, site), _built(d, site))
    _, d2 = random_equivalent_pair(seed, 100, BraidWord(strands, letters), max_crossings=14)
    assert d2.to_pd_json() == end.to_pd_json()


@pytest.mark.parametrize("name, kind", [(p[0], p[1]) for p in INSERT_PINS])
def test_negative_controls_match_a_full_build(name, kind):
    d = _site_pin_diagram(name) if name in SITE_PINS else parse_braid_word(name)
    for site in find_sites(d, kind):
        _assert_same_diagram(apply_move(d, site), _built(d, site))


def _assert_faces_match_the_oracle(d):
    # the constructor traces faces from the shared rotation table and closes
    # each orbit on its start dart; the oracle reads sigma and alpha afresh
    faces, face_of, face_next = face_oracle(d)
    assert d.faces == faces
    assert d.face_of == face_of
    assert d._face_next == face_next


@pytest.mark.parametrize("seed, strands, letters", [p[:3] for p in WALK_PINS])
def test_faces_match_an_independent_trace_along_the_pinned_walks(seed, strands, letters):
    steps, end = reference_walk(seed, strands, letters)
    for d in [d for d, _ in steps] + [end, reverse_orientation(end)]:
        _assert_faces_match_the_oracle(d)


@pytest.mark.parametrize("name", sorted(SITE_PINS))
def test_faces_match_an_independent_trace_on_the_site_pins(name):
    # placed (split) and anchored (free-loop) diagrams among them
    d = _site_pin_diagram(name)
    _assert_faces_match_the_oracle(d)
    _assert_faces_match_the_oracle(reverse_orientation(d))


def _assert_no_move_edits_its_parent(d):
    # a diagram and the builders made from it share their edge records, so
    # a surgery that edited a record in place would change the parent
    edges, pd = [list(rec) for rec in d.edges], d.to_pd_json()
    moved = 0
    for kind in ALL_KINDS:
        for site in find_sites(d, kind):
            apply_move(d, site)
            assert [list(rec) for rec in d.edges] == edges, site
            assert d.to_pd_json() == pd, site
            moved += 1
    assert moved


@pytest.mark.parametrize("name", sorted(SITE_PINS))
def test_no_move_edits_its_parent_on_the_site_pins(name):
    _assert_no_move_edits_its_parent(_site_pin_diagram(name))


@pytest.mark.parametrize("seed, strands, letters", [p[:3] for p in WALK_PINS])
def test_no_move_edits_its_parent_along_the_pinned_walks(seed, strands, letters):
    # every 10th diagram of the walk and its end
    steps, end = reference_walk(seed, strands, letters)
    for d in [d for d, _ in steps[::10]] + [end]:
        _assert_no_move_edits_its_parent(d)


def _assert_counted_sites_are_listed(d):
    from braidbracket.moves import _braid_like_sites

    for insertions in (False, True):
        listed = find_sites(d, "IIa_remove") + find_sites(d, "III")
        if insertions:
            listed += find_sites(d, "IIa_insert")
        total, nth = _braid_like_sites(d, insertions)
        assert [nth(r) for r in range(total)] == [(s.kind, s.anchor) for s in listed]


@pytest.mark.parametrize("seed, strands, letters", [p[:3] for p in WALK_PINS])
def test_counted_sites_are_the_listed_sites(seed, strands, letters):
    # the walk draws a site by its index among the counted ones and builds
    # only that one; every index must give find_sites' site
    steps, _ = reference_walk(seed, strands, letters)
    for d, _ in steps:
        _assert_counted_sites_are_listed(d)


@pytest.mark.parametrize("name", sorted(SITE_PINS))
def test_counted_sites_are_the_listed_sites_on_the_site_pins(name):
    # split, placed and anchored diagrams, whose pair classes are keyed by
    # global face and component; the walks above are all on knots
    _assert_counted_sites_are_listed(_site_pin_diagram(name))


def _assert_the_oracle_lists_the_sites(d):
    oracle = site_oracle(d)
    for kind, want in oracle.items():
        assert [(s.kind, s.anchor) for s in find_sites(d, kind)] == want, kind


@pytest.mark.parametrize("seed, strands, letters", [p[:3] for p in WALK_PINS])
def test_a_brute_force_oracle_lists_the_sites_along_the_pinned_walks(seed, strands, letters):
    steps, end = reference_walk(seed, strands, letters)
    for d in [d for d, _ in steps] + [end]:
        _assert_the_oracle_lists_the_sites(d)


@pytest.mark.parametrize("name", sorted(SITE_PINS))
def test_a_brute_force_oracle_lists_the_sites_of_the_site_pins(name):
    _assert_the_oracle_lists_the_sites(_site_pin_diagram(name))


def _skein_expansions(d):
    return [half for v in d.active_crossings for half in skein_expand(d, v)]


def test_a_brute_force_oracle_lists_the_sites_of_the_site_pins_skein_expansions():
    # a fused crossing is no site crossing, in a triangle as in a bigon, and
    # the expansions hold inner triangles of three crossings, one fused
    expansions = [x for name in sorted(SITE_PINS)
                  for x in _skein_expansions(_site_pin_diagram(name))]
    fused_triangles = 0
    for d in expansions:
        _assert_the_oracle_lists_the_sites(d)
        for face, darts in d._global_faces.items():
            crossings = {u >> 2 for u in darts}
            fused_triangles += (len(darts) == len(crossings) == 3 and face != d.outer_face
                                and max(darts) < 4 * d.n and bool(crossings & set(d.fused)))
    assert fused_triangles


def _assert_no_site_is_an_impossible_configuration(d):
    # the configurations that the census and the surgeries of moves keep no
    # code for: a 2- or 3-face holding both darts of one edge, a bigon whose
    # two strands share an outside edge, a face reference naming the face
    # of a removal or slide site
    edge_of = d.edge_of
    for darts in list(d.faces) + list(d._global_faces.values()):
        if len(darts) in (2, 3):
            assert len({edge_of[u] for u in darts}) == len(darts), darts
    for site in find_sites(d, "IIa_remove"):
        bigon_edges = [d.edges[edge_of[u]] for u in site.anchor]
        ends = [{edge_of[t ^ 2], edge_of[h ^ 2]} for t, h, _ in bigon_edges]
        assert not ends[0] & ends[1], site
    refs = [r for pair in d.placements for r in pair]
    named = {d._ref_face(r) for r in refs + [d.outer_ref] if r is not None}
    for kind in ("IIa_remove", "III"):
        for site in find_sites(d, kind):
            assert d.face_of[site.anchor[0]] not in named, site


@pytest.mark.parametrize("word, kind", [("B3 1 -2 2 -1", "IIa_remove"), ("B3 1 2 1", "III")])
def test_a_surgery_refuses_a_reference_to_the_face_of_its_site(word, kind):
    # no listed site has one (the tests below); a builder whose outer face
    # is moved onto the site's own face raises instead of renaming it
    from braidbracket.moves import _MOVES, _side_ref_of_dart

    d = parse_braid_word(word)
    site = find_sites(d, kind)[0]
    b = d.to_builder()
    b.outer = _side_ref_of_dart(d, site.anchor[0])
    with pytest.raises(AssertionError, match="names the face of the move site"):
        _MOVES[site.kind](d, b, site.anchor)


@pytest.mark.parametrize("seed, strands, letters", [p[:3] for p in WALK_PINS])
def test_no_site_is_an_impossible_configuration_along_the_pinned_walks(seed, strands, letters):
    steps, end = reference_walk(seed, strands, letters)
    for d in [d for d, _ in steps] + [end]:
        _assert_no_site_is_an_impossible_configuration(d)


@pytest.mark.parametrize("name", sorted(SITE_PINS))
def test_no_site_is_an_impossible_configuration_on_the_site_pins(name):
    d = _site_pin_diagram(name)
    for x in [d] + _skein_expansions(d):
        _assert_no_site_is_an_impossible_configuration(x)


@pytest.mark.parametrize("seed, strands, letters, digest", [p[:3] + p[5:] for p in WALK_PINS])
def test_pinned_walks_replay_as_json_scripts(seed, strands, letters, digest):
    # a script carries each anchor as a JSON list, which must name the site
    # that find_sites lists as a tuple
    from braidbracket.moves import site_to_json

    steps, _ = reference_walk(seed, strands, letters)
    script = json.dumps([site_to_json(site) for _, site in steps])
    end = apply_move_script(braid_closure(BraidWord(strands, letters)), script)
    assert hashlib.sha256(end.to_pd_json().encode()).hexdigest()[:16] == digest


def _candidate_anchors(d, kind):
    """Anchors of the kind's shape: every pair of darts and flag, every edge,
    side and flag (one id out of range at each end), every ordering of the
    darts of each 3-dart face."""
    if kind == "RI_insert":
        return list(itertools.product(range(-1, len(d.edges) + 1), (0, 1), (False, True)))
    darts = range(-1, d.ndarts + 1)
    if kind == "IIa_remove":
        return list(itertools.product(darts, darts))
    if kind in ("IIa_insert", "IIb_insert"):
        return list(itertools.product(darts, darts, (False, True)))
    return [p for face in d.faces if len(face) == 3 for p in itertools.permutations(face)]


def _accepts(d, kind, anchor):
    from braidbracket.moves import MoveSite, _fingerprint

    try:
        apply_move(d, MoveSite(kind, anchor, _fingerprint(d)))
    except SiteInvalidError:
        return False
    return True


def _pinned_diagram(pin):
    """A SITE_PINS diagram by name, or the end of a WALK_PINS walk."""
    if pin in SITE_PINS:
        return _site_pin_diagram(pin)
    seed, strands, letters = pin
    return random_equivalent_pair(seed, 100, BraidWord(strands, letters), max_crossings=14)[1]


@pytest.mark.parametrize("pin", sorted(SITE_PINS) + [p[:3] for p in WALK_PINS], ids=str)
def test_apply_move_accepts_exactly_the_listed_anchors(pin):
    # one definition of a site: apply_move accepts an anchor iff find_sites
    # lists it; the candidates hold every rotation of a triangle orbit and
    # every reversed pair, and SiteInvalidError is the only rejection.  A
    # listed anchor with one field of another type (an int flag, True for a
    # 1, a float) is equal to it and still no site
    d = _pinned_diagram(pin)
    for kind in ALL_KINDS:
        listed = {s.anchor for s in find_sites(d, kind)}
        candidates = _candidate_anchors(d, kind)
        assert listed <= set(candidates), kind
        assert {a for a in candidates if _accepts(d, kind, a)} == listed, kind
        retyped = [a[:i] + (other,) + a[i + 1:] for a in listed for i, x in enumerate(a)
                   for other in ([int(x)] if type(x) is bool else [float(x)] + [True] * (x == 1))]
        assert all(a in listed for a in retyped), kind
        assert not any(_accepts(d, kind, a) for a in retyped), kind


def test_applying_every_listed_site_lists_each_kind_once(monkeypatch):
    # apply_move reads find_sites' listing, made once per diagram and kind
    from braidbracket import moves

    find, calls = moves.find_sites, []

    def spy(diagram, kind):
        calls.append(kind)
        return find(diagram, kind)

    monkeypatch.setattr(moves, "find_sites", spy)
    d = parse_braid_word("B3 1 2 1")
    sites = [site for kind in ALL_KINDS for site in find(d, kind)]
    for site in sites:
        apply_move(d, site)
    assert calls == list(dict.fromkeys(site.kind for site in sites))
