import copy
import itertools
import random

import pytest

from braidbracket import bracket as bracket_module
from braidbracket.diagram import (
    BraidWord,
    braid_closure,
    parse_braid_word,
    parse_pd,
    reverse_orientation,
)
from braidbracket.bracket import (
    _add_into,
    _bracket_range,
    add_marked_circle,
    bracket_br,
    kauffman_oracle,
    lighten,
    normalize,
    seifert_leading_term,
    skein_expand,
    specialize_chi_to_delta,
)
from braidbracket.laurent import DELTA, lp_mul
from braidbracket.moves import apply_move, find_sites
from braidbracket.states import SizeCapError

from helpers import bracket_combination


def test_bracket_zero_crossing_circle():
    assert bracket_br(parse_braid_word("B1")) == {"()": {0: 1}}


def test_bracket_one_crossing_closure():
    b = bracket_br(parse_braid_word("B2 1"))
    assert b == {"(())": {1: 1}, "": {1: -1, -3: -1}}


def test_bracket_hopf_closure():
    b = bracket_br(parse_braid_word("B2 1 1"))
    assert b == {"(())": {2: 1}, "": {-6: 1, 2: -1}}


def test_bracket_cap():
    with pytest.raises(SizeCapError):
        bracket_br(parse_braid_word("B2" + " 1" * 6), cap=5)


def test_skein_identity_trefoil_every_crossing():
    d = parse_braid_word("B2 1 1 1")
    whole = bracket_br(d)
    for v in range(3):
        d0, d1 = skein_expand(d, v)
        assert whole == bracket_combination(
            [(1, bracket_br(d0)), (-1, bracket_br(d1))]
        )


def test_skein_recursion_reproduces_state_sum():
    d = parse_braid_word("B2 1 1 1")

    def expand(diagram):
        active = diagram.active_crossings
        if not active:
            return bracket_br(diagram)
        d0, d1 = skein_expand(diagram, active[0])
        return bracket_combination([(1, expand(d0)), (-1, expand(d1))])

    assert expand(d) == bracket_br(d)


def test_marked_circle_multiplies_by_delta():
    d = parse_braid_word("B2 1")
    base = bracket_br(d)
    marked = bracket_br(add_marked_circle(d, 2))
    assert marked == {cfg: lp_mul(p, DELTA) for cfg, p in base.items()}


def test_marked_h_circle_adds_nested_configuration():
    d = parse_braid_word("B1")
    got = bracket_br(add_marked_circle(d, 0))
    assert got == {"()()": {0: 1}}


def test_the_oracle_identity_holds_on_skein_expansions_and_marked_circles(corpus_small):
    # criterion 01 past closures: fused crossings are the only way into
    # kauffman_oracle's fixed-smoothing unions, and marked circles carry
    # break points; an expansion is taken at every crossing, and a
    # d-circle and an h-circle are added to the first two
    checked = 0
    for d in corpus_small:
        expanded = [half for v in d.active_crossings for half in skein_expand(d, v)]
        marked = [add_marked_circle(x, bp) for x in [d] + expanded[:2] for bp in (0, 2)]
        for x in expanded + marked:
            assert specialize_chi_to_delta(lighten(bracket_br(x))) == kauffman_oracle(x)
            checked += 1
    assert checked == 752


def test_skein_expand_bad_crossing():
    d = parse_braid_word("B2 1")
    with pytest.raises(ValueError):
        skein_expand(d, 5)


def test_lighten_counts_circles():
    b = {"(())": {1: 1}, "": {1: -1, -3: -1}}
    assert lighten(b) == {(1, 2): 1, (1, 0): -1, (-3, 0): -1}
    assert lighten({}) == {}
    assert lighten({"()()": {0: 1}, "(())": {0: 1}}) == {(0, 2): 2}


def test_normalize_shifts_by_writhe():
    d = parse_braid_word("B2 1")
    assert normalize(d, {"": {1: 1}}) == {"": {-2: -1}}
    flat = parse_braid_word("B2 1 -1")
    b = bracket_br(flat)
    assert normalize(flat, b) == b


def test_specialization_small_cases():
    assert specialize_chi_to_delta({(0, 1): 1}) == dict(DELTA)
    assert specialize_chi_to_delta({}) == {}


def test_oracle_identity_on_corpus(corpus_brackets):
    for d, b in corpus_brackets:
        assert specialize_chi_to_delta(lighten(b)) == kauffman_oracle(d)


def test_oracle_trefoil_matches_jones_normalization():
    # (-A)^(-3w) <trefoil> / delta must be the Jones polynomial bracket form
    d = parse_braid_word("B2 1 1 1")
    oracle = kauffman_oracle(d)
    # divide by one unknot factor: <T> = delta * (-A^5 - A^-3 + A^-7)
    reduced = {5: -1, -3: -1, -7: 1}
    assert lp_mul(DELTA, reduced) == oracle


def test_seifert_leading_term_examples():
    cfg, coeff = seifert_leading_term(parse_braid_word("B2 1"))
    assert cfg == "(())" and coeff == {1: 1}
    cfg, coeff = seifert_leading_term(parse_braid_word("B2 1 1"))
    assert cfg == "(())" and coeff == {2: 1}
    cfg, coeff = seifert_leading_term(parse_braid_word("B1"))
    assert cfg == "()" and coeff == {0: 1}


def test_bracket_orientation_reversal(corpus_brackets):
    for d, b in corpus_brackets[:30]:
        assert bracket_br(reverse_orientation(d)) == b


def test_disjoint_union_with_circle_in_oracle():
    d = parse_braid_word("B2 1 1")
    with_circle = add_marked_circle(d, 0)
    assert kauffman_oracle(with_circle) == lp_mul(kauffman_oracle(d), DELTA)


def test_empty_diagram_pipeline():
    d = parse_braid_word("B0")
    assert bracket_br(d) == {"": {0: 1}}
    cfg, coeff = seifert_leading_term(d)
    assert cfg == "" and coeff == {0: 1}
    assert kauffman_oracle(d) == {0: 1}


def _mirror(b):
    return {cfg: {-e: c for e, c in poly.items()} for cfg, poly in b.items()}


@pytest.mark.parametrize("k, maxlen", [(1, 0), (2, 7), (3, 7), (4, 5)])
def test_sweep_equals_state_sum_on_all_short_words(k, maxlen):
    # A cyclic rotation of a word has the same closure diagram, and the
    # mirror word swaps the two smoothings at every crossing, which maps
    # A to A^-1.  So the state sum runs once per class of words, and the
    # sweep is compared with it on every word of the class.
    letters = [g for g in range(-k + 1, k) if g]
    sums = {}
    for length in range(maxlen + 1):
        for w in itertools.product(letters, repeat=length):
            rotations = [w[i:] + w[:i] for i in range(length)] or [w]
            own = min(rotations)
            rep = min(own, min(tuple(-g for g in r) for r in rotations))
            if rep not in sums:
                sums[rep] = _bracket_range(braid_closure(BraidWord(k, rep)))
            want = sums[rep] if rep == own else _mirror(sums[rep])
            assert bracket_br(braid_closure(BraidWord(k, w))) == want, (k, w)


def test_sweep_on_empty_and_free_strands():
    for word in ("B0", "B1", "B3", "B4 2 -2"):
        d = parse_braid_word(word)
        assert bracket_br(d) == _bracket_range(d), word
    assert bracket_br(parse_braid_word("B3")) == {"((()))": {0: 1}}


def test_only_braid_closures_take_the_sweep(monkeypatch):
    d = parse_braid_word("B3 1 -2 1 2")
    moved = apply_move(d, find_sites(d, "IIa_insert")[0])
    rebuilt = list(skein_expand(d, 1)) + [
        add_marked_circle(d, 2), reverse_orientation(d), moved, parse_pd(d.to_pd_json())
    ]
    assert d.braid_word == BraidWord(3, (1, -2, 1, 2))
    want = {x: bracket_br(x) for x in [d] + rebuilt}
    assert all(x.braid_word is None for x in rebuilt)

    def refuse(*args):
        raise AssertionError("unexpected path")

    monkeypatch.setattr(bracket_module, "_bracket_sweep", refuse)
    for x in rebuilt:
        assert bracket_br(x) == want[x]
    monkeypatch.undo()
    monkeypatch.setattr(bracket_module, "_bracket_range", refuse)
    assert bracket_br(d) == want[d]


@pytest.mark.parametrize("word", [
    "B4 1 2 3 -1 2 -3 1 2", "B5 1 -2 3 -4 2 1 3", "B4 -3 -3 2 1 -2 3 3 1 -1 2",
    "B3 1 2 -1 2 1 2 -1 2 1 2 -1 2",
])
def test_sweep_oracle_identity(word):
    d = parse_braid_word(word)
    assert specialize_chi_to_delta(lighten(bracket_br(d))) == kauffman_oracle(d)


@pytest.mark.parametrize("route", ["sweep", "state sum"])
def test_bracket_pipeline_leaves_its_inputs_alone(route):
    d = parse_braid_word("B3 1 -2 1 1 -2 -2")
    if route == "state sum":
        d = parse_pd(d.to_pd_json())
    pd = d.to_pd_json()
    first = bracket_br(d)
    kept = copy.deepcopy(first)
    for poly in first.values():
        poly.clear()  # a result shares no polynomial with the next call
    b = bracket_br(d)
    assert b == kept and d.to_pd_json() == pd
    light = lighten(b)
    for call, arg in ((lighten, b), (lambda x: normalize(d, x), b),
                      (specialize_chi_to_delta, light)):
        before = copy.deepcopy(arg)
        call(arg)
        assert arg == before, call
    assert bracket_br(d) == kept


def test_add_into_never_stores_its_argument():
    poly = {1: 2, -1: 1}
    out = {}
    _add_into(out, "k", poly)
    _add_into(out, "s", poly, 3, -1)
    assert out == {"k": {1: 2, -1: 1}, "s": {4: -2, 2: -1}}
    assert out["k"] is not poly
    _add_into(out, "k", poly)
    assert poly == {1: 2, -1: 1} and out["k"] == {1: 4, -1: 2}
    _add_into(out, "k", {1: -4, -1: -2})
    assert out == {"s": {4: -2, 2: -1}}
