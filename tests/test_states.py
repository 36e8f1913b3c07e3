import os
import subprocess
import sys
from pathlib import Path

import pytest

from braidbracket.diagram import NonPlanarError, parse_braid_word, reverse_orientation
from braidbracket.states import (
    Smoothing,
    SizeCapError,
    configuration_of,
    enumerate_states,
    resolve,
    seifert_state,
    sigma,
    winding_number,
)


def test_zero_crossing_circle_state():
    d = parse_braid_word("B1")
    s = resolve(d, Smoothing(0, 0))
    assert len(s.circles) == 1
    c = s.circles[0]
    assert c.break_points == 0 and c.circle_type == "h"
    assert winding_number(d, c) == 1
    assert configuration_of(s).canonical == "()"


def test_one_crossing_closure_both_states():
    d = parse_braid_word("B2 1")
    oriented = resolve(d, Smoothing(0, 1))
    assert [c.break_points for c in oriented.circles] == [0, 0]
    assert {c.circle_type for c in oriented.circles} == {"h"}
    assert configuration_of(oriented).canonical == "(())"
    disoriented = resolve(d, Smoothing(1, 1))
    assert len(disoriented.circles) == 1
    c = disoriented.circles[0]
    assert c.break_points == 2 and c.circle_type == "d"
    assert winding_number(d, c) == 0


def test_sigma_counts():
    d = parse_braid_word("B2 1 1 1")
    assert sigma(resolve(d, Smoothing(0b000, 3))) == 3
    assert sigma(resolve(d, Smoothing(0b111, 3))) == -3
    assert sigma(resolve(d, Smoothing(0b100, 3))) == 1


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


def test_configurations_nested_vs_disjoint():
    nested = parse_braid_word("B3")
    s = resolve(nested, Smoothing(0, 0))
    assert configuration_of(s).canonical == "((()))"
    # the all-oriented state of a split pair of distant strands stays nested
    d = parse_braid_word("B2 1")
    s = seifert_state(d)
    assert configuration_of(s).canonical == "(())"


def test_break_point_total_per_state(corpus_small):
    for d in corpus_small:
        n = len(d.active_crossings)
        for s in enumerate_states(d, with_nesting=False):
            disoriented = 0
            for i, c in enumerate(d.active_crossings):
                bit = s.smoothing.bit(i)
                oriented_bit = 0 if d.signs[c] > 0 else 1
                if bit != oriented_bit:
                    disoriented += 1
            assert sum(c.break_points for c in s.circles) == 2 * disoriented


def test_type_from_break_points_mod_4(corpus_small):
    for d in corpus_small:
        for s in enumerate_states(d, with_nesting=False):
            for c in s.circles:
                if c.break_points % 4 == 0:
                    assert c.circle_type == "h"
                else:
                    assert c.break_points % 4 == 2 and c.circle_type == "d"


def test_circles_partition_edges(corpus_small):
    for d in corpus_small[:25]:
        for s in enumerate_states(d, with_nesting=False):
            covered = sorted(
                d.edge_of[dart] for c in s.circles for dart in c.edge_cycle
            )
            assert covered == list(range(len(d.edges)))


def test_winding_requires_braid_input():
    from braidbracket.moves import figure4_family

    f = figure4_family(1)
    s = resolve(f, Smoothing(0, 2))
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
            assert configuration_of(s).canonical == configuration_of(s2).canonical


def test_seifert_maximizes_h_circles(corpus_small):
    for d in corpus_small:
        if not d.from_braid:
            continue
        sei = seifert_state(d)
        sei_cfg = configuration_of(sei).canonical
        h_max = sum(1 for c in sei.circles if c.circle_type == "h")
        for s in enumerate_states(d):
            h = sum(1 for c in s.circles if c.circle_type == "h")
            assert h <= h_max
            if configuration_of(s).canonical == sei_cfg:
                assert s.smoothing.bits == sei.smoothing.bits


def test_nesting_forest_rejects_a_circle_map_that_contradicts_the_embedding():
    from braidbracket.states import _nesting_forest, _tau, _trace_circles

    d = parse_braid_word("B2 1")
    tau = _tau(d, Smoothing(0, 1))
    assert _trace_circles(d, tau) == ([0, 0, 1, 1], [0, 0])
    # darts 1 and 3 swap circles: the faces' parities no longer agree
    with pytest.raises(NonPlanarError):
        _nesting_forest(d, tau, [0, 1, 1, 0], 2)


def test_winding_guard_survives_optimize():
    # a circle without a winding, on a closure, must raise under python -O
    script = (
        "import dataclasses, sys\n"
        "from braidbracket.diagram import parse_braid_word\n"
        "from braidbracket.states import Smoothing, resolve, winding_number\n"
        "if __debug__:\n"
        "    sys.exit('not optimized')\n"
        "d = parse_braid_word('B2 1')\n"
        "circle = dataclasses.replace(resolve(d, Smoothing(0, 1)).circles[0], winding=None)\n"
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
