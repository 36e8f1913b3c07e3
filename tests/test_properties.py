"""Hypothesis properties: diagrams produced by seeded move walks, and the
CLI's exit codes on malformed input."""

import contextlib
import copy
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from braidbracket.cli import main  # noqa: E402
from braidbracket.diagram import BraidWord, parse_braid_word, parse_pd  # noqa: E402
from braidbracket.bracket import bracket_br  # noqa: E402
from braidbracket.moves import (  # noqa: E402
    apply_move,
    figure4_family,
    find_sites,
    random_equivalent_pair,
)

BASES = [
    BraidWord(2, (1, 1, 1)),
    BraidWord(3, (1, -2, 1, -2)),
    BraidWord(3, (1, 2, -1, 2, 1, 2)),
    BraidWord(4, (2, -2, 3, -1)),
    BraidWord(4, (1, 2, 3, -1, 2)),
]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10**6), base=st.sampled_from(BASES),
       n_moves=st.integers(0, 60))
def test_pd_round_trip_keeps_canonical_code(seed, base, n_moves):
    _, d = random_equivalent_pair(seed, n_moves, base, max_crossings=14)
    back = parse_pd(d.to_pd_json())
    assert back.canonical_code() == d.canonical_code()
    assert back.edges == d.edges


# PD objects to mutate: knots, a two-component link, free loops (anchors,
# placements) and the one-circle diagram
PD_BASES = [
    json.loads(parse_braid_word(w).to_pd_json())
    for w in ("B2 1 1 1", "B3 1 -2", "B2 1 1", "B2", "B1")
]
JUNK = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([None, "x", "a", "tail", 1.5, True, [], {}, [0], [["a", 0], 0]]),
)


def _paths(obj, path=()):
    """Key path of every value inside a parsed JSON object."""
    if isinstance(obj, dict):
        items = list(obj.items())
    elif isinstance(obj, list):
        items = list(enumerate(obj))
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutated_pd(draw):
    obj = copy.deepcopy(draw(st.sampled_from(PD_BASES)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(obj))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        node = obj
        for k in parents:
            node = node[k]
        if draw(st.booleans()):
            del node[key]
        else:
            node[key] = copy.deepcopy(draw(JUNK))
    return obj


def _undeclared_crossing_edge():
    obj = copy.deepcopy(PD_BASES[0])
    obj["edges"].append({"id": 6, "from": [7, 0], "to": [8, 1]})
    return obj


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(argv)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(pd=mutated_pd(), command=st.sampled_from(["bracket", "homology"]))
@example(pd=_undeclared_crossing_edge(), command="bracket")
def test_cli_exit_codes_on_mutated_pd(tmp_path_factory, pd, command):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(pd))
    assert _exit_code([command, str(path)]) in (0, 2, 3)


# letters run to +-k, so 0 and |g| = k (no such generator) occur as well
WORDS = st.integers(0, 5).flatmap(
    lambda k: st.lists(st.integers(-k, k), max_size=8).map(
        lambda letters: " ".join([f"B{k}"] + [str(g) for g in letters])
    )
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(word=WORDS, command=st.sampled_from(["bracket", "homology"]))
def test_cli_exit_codes_on_random_words(word, command):
    assert _exit_code([command, "-w", word]) in (0, 2, 3)


def _curled(word, anchors):
    """The closure of ``word`` with an RI curl at each (edge, side, over) anchor."""
    d = parse_braid_word(word)
    for anchor in anchors:
        d = apply_move(d, next(s for s in find_sites(d, "RI_insert") if s.anchor == anchor))
    return d


WALK_STARTS = [
    figure4_family(1),
    figure4_family(2),
    _curled("B3 2 -2", [(1, 1, False)]),
    _curled("B2 1 1 1", [(0, 0, False)]),
    _curled("B2 1 -1", [(0, 1, True), (2, 0, False)]),
    _curled("B3 1 -2", [(1, 0, True), (3, 1, False)]),
]


# Braid-like moves keep the refined bracket, also on diagrams that are no
# closures and on the outer face of the plane, where a bigon or triangle is
# no disk and so no site.
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(start=st.integers(0, len(WALK_STARTS) - 1),
       picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=12))
# the picks reach the diagram of test_moves.OUTER_FACE_SCRIPT, whose only
# bigon lies on the outer face, and draw once more there
@example(start=2, picks=[4, 1, 1, 0])
def test_braid_like_walks_keep_the_bracket(start, picks):
    d = WALK_STARTS[start]
    want = bracket_br(d)
    for pick in picks:
        sites = find_sites(d, "IIa_remove") + find_sites(d, "III")
        if d.n + 2 <= 8:
            sites += find_sites(d, "IIa_insert")
        if not sites:
            break
        d = apply_move(d, sites[pick % len(sites)])
        assert bracket_br(d) == want
