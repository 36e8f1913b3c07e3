import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from braidbracket.bracket import (
    add_marked_circle,
    bracket_br,
    kauffman_oracle,
    seifert_leading_term,
    skein_expand,
)
from braidbracket.chain_complex import (
    differential_matrices,
    enhanced_states,
    verify_anticommute,
)
from braidbracket.diagram import (
    BraidWord,
    NonPlanarError,
    parse_braid_word,
    parse_pd,
    reverse_orientation,
)
from braidbracket.homology import check_euler_identity, homology_groups
from braidbracket.laurent import DELTA
from braidbracket.moves import apply_move, find_sites, random_equivalent_pair
from braidbracket.states import (
    SizeCapError,
    configuration_of,
    enumerate_states,
    resolve,
    seifert_state,
    sigma,
    winding_number,
)
from helpers import drop_zeros, laurent_mul_reference, nesting_oracle


def test_zero_crossing_circle_state():
    d = parse_braid_word("B1")
    s = resolve(d, 0)
    assert len(s.circles) == 1
    c = s.circles[0]
    assert c.break_points == 0 and c.circle_type == "h"
    assert winding_number(d, c) == 1
    assert configuration_of(s) == "()"


def test_one_crossing_closure_both_states():
    d = parse_braid_word("B2 1")
    oriented = resolve(d, 0)
    assert [c.break_points for c in oriented.circles] == [0, 0]
    assert {c.circle_type for c in oriented.circles} == {"h"}
    assert configuration_of(oriented) == "(())"
    disoriented = resolve(d, 1)
    assert len(disoriented.circles) == 1
    c = disoriented.circles[0]
    assert c.break_points == 2 and c.circle_type == "d"
    assert winding_number(d, c) == 0


def test_sigma_counts():
    d = parse_braid_word("B2 1 1 1")
    assert sigma(resolve(d, 0b000)) == 3
    assert sigma(resolve(d, 0b111)) == -3
    assert sigma(resolve(d, 0b100)) == 1


@pytest.mark.parametrize("word", ["B1", "B2 1 1 1"])
def test_resolve_rejects_bits_outside_the_active_crossings(word):
    d = parse_braid_word(word)
    n = len(d.active_crossings)
    assert resolve(d, (1 << n) - 1).bits == (1 << n) - 1
    for bits in (-1, 1 << n):
        with pytest.raises(ValueError):
            resolve(d, bits)


def test_resolve_counts_bits_over_the_active_crossings_only():
    d = skein_expand(parse_braid_word("B2 1 1 1"), 1)[0]
    assert [sigma(resolve(d, bits)) for bits in range(4)] == [2, 0, 0, -2]
    with pytest.raises(ValueError):
        resolve(d, 4)


def test_seifert_state_properties():
    d = parse_braid_word("B2 1 1 1")
    sei = seifert_state(d)
    assert len(sei.circles) == 2
    assert all(c.circle_type == "h" and c.break_points == 0 for c in sei.circles)
    assert sigma(sei) == d.writhe()
    assert all(winding_number(d, c) == 1 for c in sei.circles)

    u = parse_braid_word("B2 1 -1")
    sei2 = seifert_state(u)
    assert len(sei2.circles) == 2 and sigma(sei2) == 0


def test_seifert_sigma_equals_writhe_everywhere(corpus):
    for d in corpus:
        if d.from_braid:
            assert sigma(seifert_state(d)) == d.writhe()


def test_hopf_state_census():
    d = parse_braid_word("B2 1 1")
    states = list(enumerate_states(d))
    assert len(states) == 4
    kinds = []
    for s in states:
        kinds.append(sorted(c.circle_type for c in s.circles))
    assert kinds[0] == ["h", "h"]
    assert kinds[1] == ["d"] and kinds[2] == ["d"]
    assert kinds[3] == ["d", "d"]


def test_enumeration_count_and_cap():
    assert len(list(enumerate_states(parse_braid_word("B1")))) == 1
    assert len(list(enumerate_states(parse_braid_word("B2 1 1 1")))) == 8
    with pytest.raises(SizeCapError):
        list(enumerate_states(parse_braid_word("B2" + " 1" * 5), cap=4))


NEGATIVE_CAP_CALLS = {
    "bracket_br sweep": lambda d, cap: bracket_br(d, cap=cap),
    "bracket_br state sum": lambda d, cap: bracket_br(reverse_orientation(d), cap=cap),
    "kauffman_oracle": lambda d, cap: kauffman_oracle(d, cap=cap),
    "seifert_leading_term": lambda d, cap: seifert_leading_term(d, cap=cap),
    "enumerate_states": lambda d, cap: list(enumerate_states(d, cap=cap)),
    "enhanced_states": lambda d, cap: enhanced_states(d, cap=cap),
    "differential_matrices": lambda d, cap: differential_matrices(d, cap=cap),
    "verify_anticommute": lambda d, cap: verify_anticommute(d, cap=cap),
    "homology_groups": lambda d, cap: homology_groups(d, cap=cap),
    "check_euler_identity": lambda d, cap: check_euler_identity(d, cap=cap),
}
# the complex counts each component without a crossing as one crossing
COMPLEX_ENTRIES = {"differential_matrices", "enhanced_states", "verify_anticommute",
                   "homology_groups", "check_euler_identity"}


@pytest.mark.parametrize("entry", sorted(NEGATIVE_CAP_CALLS))
@pytest.mark.parametrize("word", ["B1", "B2 1 1 1"])
def test_negative_cap_is_a_bad_argument(entry, word):
    # a negative cap is rejected as an argument, not reported as an overrun,
    # even for a diagram with no crossings; the state-sum route is taken by
    # a reversed closure, which carries no braid word
    call = NEGATIVE_CAP_CALLS[entry]
    d = parse_braid_word(word)
    with pytest.raises(ValueError, match="cap -1 is negative"):
        call(d, -1)
    # a closure's anchors are its free loops
    needed = d.n + (d.nanchors if entry in COMPLEX_ENTRIES else 0)
    call(d, needed)  # a cap that fits is accepted
    if needed:
        with pytest.raises(SizeCapError):
            call(d, needed - 1)


def test_configurations_nested_vs_disjoint():
    nested = parse_braid_word("B3")
    s = resolve(nested, 0)
    assert configuration_of(s) == "((()))"
    # the all-oriented state of a split pair of distant strands stays nested
    d = parse_braid_word("B2 1")
    s = seifert_state(d)
    assert configuration_of(s) == "(())"


def test_configuration_strings_need_no_recursion_per_nesting_level(corpus_small):
    # 600 concentric loops: the PD round trip takes the state sum, whose
    # configuration string is built bottom-up, not one call per level
    loops = parse_braid_word("B600")
    pd = parse_pd(json.loads(loops.to_pd_json()))
    assert bracket_br(pd) == bracket_br(loops) == {"(" * 600 + ")" * 600: {0: 1}}
    assert seifert_leading_term(pd) == ("(" * 600 + ")" * 600, {0: 1})

    def recursive(state):
        kids = {}
        for cid, c in enumerate(state.circles):
            if c.circle_type == "h":
                p = state.nesting[cid]
                while p is not None and state.circles[p].circle_type != "h":
                    p = state.nesting[p]
                kids.setdefault(p, []).append(cid)

        def canon(cid):
            return "(" + "".join(sorted(canon(ch) for ch in kids.get(cid, ()))) + ")"
        return "".join(sorted(canon(r) for r in kids.get(None, ())))

    for d in corpus_small:
        for s in enumerate_states(d):
            assert configuration_of(s) == recursive(s)


def test_break_point_total_per_state(corpus_small):
    for d in corpus_small:
        n = len(d.active_crossings)
        for s in enumerate_states(d):
            disoriented = 0
            for i, c in enumerate(d.active_crossings):
                bit = (s.bits >> i) & 1
                oriented_bit = 0 if d.signs[c] > 0 else 1
                if bit != oriented_bit:
                    disoriented += 1
            assert sum(c.break_points for c in s.circles) == 2 * disoriented


def test_type_from_break_points_mod_4(corpus_small):
    for d in corpus_small:
        for s in enumerate_states(d):
            for c in s.circles:
                if c.break_points % 4 == 0:
                    assert c.circle_type == "h"
                else:
                    assert c.break_points % 4 == 2 and c.circle_type == "d"


def test_circles_partition_edges(corpus_small):
    for d in corpus_small[:25]:
        for s in enumerate_states(d):
            covered = sorted(
                d.edge_of[dart] for c in s.circles for dart in c.edge_cycle
            )
            assert covered == list(range(len(d.edges)))


def test_winding_requires_braid_input():
    from braidbracket.moves import figure4_family

    f = figure4_family(1)
    s = resolve(f, 0)
    with pytest.raises(ValueError):
        winding_number(f, s.circles[0])


def test_reversal_preserves_state_data(corpus_small):
    for d in corpus_small[:20]:
        r = reverse_orientation(d)
        for s, s2 in zip(
            enumerate_states(d), enumerate_states(r)
        ):
            assert [c.break_points for c in s.circles] == [
                c.break_points for c in s2.circles
            ]
            assert sigma(s) == sigma(s2)
            assert configuration_of(s) == configuration_of(s2)


def test_seifert_maximizes_h_circles(corpus_small):
    for d in corpus_small:
        if not d.from_braid:
            continue
        sei = seifert_state(d)
        sei_cfg = configuration_of(sei)
        h_max = sum(1 for c in sei.circles if c.circle_type == "h")
        for s in enumerate_states(d):
            h = sum(1 for c in s.circles if c.circle_type == "h")
            assert h <= h_max
            if configuration_of(s) == sei_cfg:
                assert s.bits == sei.bits


def test_nesting_forest_rejects_a_circle_map_that_contradicts_the_embedding():
    from braidbracket.states import _nesting_forest, _tau, _trace_circles

    d = parse_braid_word("B2 1")
    tau = _tau(d, 0)
    assert _trace_circles(d, tau) == ([0, 0, 1, 1], [0, 0])
    # darts 1 and 3 swap circles: the faces' parities no longer agree
    with pytest.raises(NonPlanarError):
        _nesting_forest(d, tau, [0, 1, 1, 0], 2)


def _nesting_cases(corpus_small):
    # closures, moved diagrams, split and decorated ones, fused crossings,
    # and the results of the moves that are not braid-like
    yield from corpus_small
    for seed in range(6):
        k = 2 + seed % 3
        word = BraidWord(k, tuple((1 + i % (k - 1)) * (-1) ** i for i in range(4)))
        moved = random_equivalent_pair(seed, 25, word, max_crossings=7)[1]
        yield moved
        yield reverse_orientation(moved)
    yield parse_braid_word("B3")
    yield parse_braid_word("B4 1 -3")
    for d in (parse_braid_word("B2 1 -1"), parse_braid_word("B4 1 -3")):
        yield add_marked_circle(d, 0)
        yield add_marked_circle(add_marked_circle(d, 2), 0)
    d = parse_braid_word("B3 1 -2 1 2")
    yield from skein_expand(d, 1)
    for kind in ("RI_insert", "IIb_insert"):
        sites = find_sites(d, kind)
        for i in (0, len(sites) // 2):
            yield apply_move(d, sites[i])


def test_nesting_forest_matches_the_parity_walk(corpus_small):
    from braidbracket.states import _tau

    states = split = 0
    for d in _nesting_cases(corpus_small):
        split += d.ncomponents > 1
        n = len(d.active_crossings)
        for bits in range(1 << n):
            s = resolve(d, bits)
            tau = _tau(d, s.bits)
            expected = nesting_oracle(d, tau, list(s.circle_of_dart), len(s.circles))
            assert s.nesting == expected, (d.to_pd_json(), bits)
            states += 1
    assert states > 3000 and split >= 8


def test_winding_guard_survives_optimize():
    # a circle without a winding, on a closure, must raise under python -O
    script = (
        "import dataclasses, sys\n"
        "from braidbracket.diagram import parse_braid_word\n"
        "from braidbracket.states import resolve, winding_number\n"
        "if __debug__:\n"
        "    sys.exit('not optimized')\n"
        "d = parse_braid_word('B2 1')\n"
        "circle = dataclasses.replace(resolve(d, 0).circles[0], winding=None)\n"
        "try:\n"
        "    winding_number(d, circle)\n"
        "except ValueError:\n"
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


def test_state_by_state_sum_equals_the_bracket(corpus_small):
    # resolve, sigma and configuration_of against the bracket's own routes:
    # the sweep on closures, the state sum on everything else; the sum here
    # is plain dict arithmetic, apart from the library's accumulator
    cases = 0
    for d in _nesting_cases(corpus_small):
        out = {}
        for s in enumerate_states(d):
            loop_value = {0: 1}
            for c in s.circles:
                if c.circle_type == "d":
                    loop_value = laurent_mul_reference(loop_value, DELTA)
            acc = out.setdefault(configuration_of(s), {})
            for e, c in loop_value.items():
                acc[e + sigma(s)] = acc.get(e + sigma(s), 0) + c
        assert drop_zeros(out) == bracket_br(d), d.to_pd_json()
        cases += 1
    assert cases > len(corpus_small) + 20
