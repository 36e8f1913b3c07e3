import hashlib
import json

import pytest

from braidbracket.diagram import BraidWord, braid_closure, parse_braid_word, parse_pd
from braidbracket.bracket import bracket_br
from braidbracket.homology import homology_groups
from braidbracket.moves import (
    GenerationError,
    SiteInvalidError,
    apply_move,
    apply_move_script,
    figure4_family,
    find_sites,
    random_equivalent_pair,
)


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


# Walks are pinned by the sha256 of the moved diagram's PD JSON: a change in
# site order or surgery shows here, not only in benchmark digests.
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


def test_pair_insert_sites_pass_the_full_check():
    from braidbracket.moves import _check_pair_insert

    for name in ("moved-2-strand-link", "moved-split", "split-closure"):
        d = _site_pin_diagram(name)
        for kind in ("IIa_insert", "IIb_insert"):
            for s in find_sites(d, kind):
                assert _check_pair_insert(d, s.anchor, kind == "IIa_insert")


def test_fingerprint_is_kept_and_content_based():
    from braidbracket.moves import _fingerprint

    d = parse_braid_word("B3 1 2 1")
    fp = _fingerprint(d)
    assert _fingerprint(d) is fp
    assert _fingerprint(parse_braid_word("B3 1 2 1")) == fp
    assert _fingerprint(parse_braid_word("B3 2 1 2")) != fp


# Anchors that are no list, or of the wrong length or type: float or bool ids,
# non-bool flags, a side other than 0 or 1.  A script must fail on them with
# SiteInvalidError, neither with another error nor by applying a move.
MALFORMED_ANCHORS = [
    [0.0, 6.0], [None, None, None], [0, 1], [0, 7, "x"], [1, 2, "t"],
    [0.0, 1.0, False], [True, 1, False], [0, True, False], [0, 1, 0], [], 5, None,
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
    # two distinct edges; removing the bigon of strands 1 and 2 dissolves
    # only its own splice anchors, which stay here as both strands close
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
    # after a curl on B2 -1 1 the bigon's first splice anchor dissolves and
    # its second one, on a strand closed into a loop, stays with the freed
    # number
    d = parse_braid_word("B2 -1 1")
    curl = apply_move(d, find_sites(d, "RI_insert")[0])
    moved = apply_move(curl, find_sites(curl, "IIa_remove")[0])
    assert (moved.n, moved.nanchors, moved.ncomponents) == (1, 1, 2)
    assert hashlib.sha256(moved.to_pd_json().encode()).hexdigest()[:16] == "049a5d2e4d5c6b98"
