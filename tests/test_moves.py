import pytest

from braidbracket.diagram import BraidWord, braid_closure, parse_braid_word, parse_pd
from braidbracket.bracket import bracket_br
from braidbracket.homology import homology_groups
from braidbracket.moves import (
    GenerationError,
    SiteInvalidError,
    apply_move,
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
    import json

    from braidbracket.moves import apply_move_script, site_to_json

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
