"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything is an exact identity or an exhaustively checked property; there
are no tolerances anywhere.  The corpus fixture holds braid closures on at
most 3 strands with up to 10 crossings plus the first curl-pair unknots.
"""

import random
import time

from braidbracket.diagram import BraidWord, braid_closure, parse_braid_word, reverse_orientation
from braidbracket.bracket import (
    bracket_br,
    kauffman_oracle,
    lighten,
    seifert_leading_term,
    skein_expand,
    specialize_chi_to_delta,
)
from braidbracket.chain_complex import differential_matrices, verify_anticommute
from braidbracket.homology import (
    check_euler_identity,
    euler_characteristic,
    homology_groups,
    lightened_in_h,
)
from braidbracket.moves import figure4_family, random_equivalent_pair
from braidbracket.states import configuration_of, enumerate_states, seifert_state

from helpers import bracket_combination, incidence_operator, relabel_crossings, rule_table_operator

import pytest


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {status}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


@pytest.fixture(scope="module")
def corpus_homology(corpus):
    return [(d, homology_groups(d)) for d in corpus]


def test_criterion_01_oracle_identity(corpus_brackets):
    t0 = time.perf_counter()
    bad = []
    for d, b in corpus_brackets:
        if specialize_chi_to_delta(lighten(b)) != kauffman_oracle(d):
            bad.append(d)
    elapsed = time.perf_counter() - t0
    _report(1, "oracle identity over the corpus", not bad and elapsed < 60.0,
            f"{len(corpus_brackets)} diagrams, {elapsed:.1f}s")


def test_criterion_02_skein_relation(corpus_brackets):
    bad = 0
    for d, whole in corpus_brackets:
        for v in d.active_crossings:
            d0, d1 = skein_expand(d, v)
            rhs = bracket_combination([(1, bracket_br(d0)), (-1, bracket_br(d1))])
            if rhs != whole:
                bad += 1
    _report(2, "skein relation at every crossing of every corpus diagram", bad == 0)


def test_criterion_03_seifert_leading_term(corpus):
    bad = 0
    for d in corpus:
        try:
            cfg, coeff = seifert_leading_term(d)
        except AssertionError:
            bad += 1
            continue
        if cfg != configuration_of(seifert_state(d)):
            bad += 1
        elif coeff != {d.writhe(): 1}:
            bad += 1
    _report(3, "unique Seifert leading term with coefficient A^w", bad == 0)


def test_criterion_04_winding_type_check():
    rnd = random.Random(404)
    bad = 0
    for _ in range(500):
        k = rnd.choice((2, 3, 4))
        length = rnd.randrange(0, 9)
        letters = list(range(1, k)) + list(range(-k + 1, 0))
        word = BraidWord(k, tuple(rnd.choice(letters) for _ in range(length)))
        d = braid_closure(word)
        for s in enumerate_states(d):
            for c in s.circles:
                if (c.winding == 0) != (c.circle_type == "d") or abs(c.winding) > 1:
                    bad += 1
    _report(4, "closed-braid circles: winding 0 iff type d, winding in {-1,0,1}",
            bad == 0, "500 random closures <= 8 crossings")


def test_criterion_05_d_squared_and_anticommutation():
    rnd = random.Random(505)
    t0 = time.perf_counter()
    bad = 0
    for _ in range(100):
        k = rnd.choice((2, 3))
        length = rnd.randrange(0, 9)
        letters = list(range(1, k)) + list(range(-k + 1, 0))
        d = braid_closure(BraidWord(k, tuple(rnd.choice(letters) for _ in range(length))))
        if not differential_matrices(d).check_d_squared():
            bad += 1
        if verify_anticommute(d)["violations"]:
            bad += 1
    elapsed = time.perf_counter() - t0
    _report(5, "d^2 = 0 and pairwise anticommutation",
            bad == 0 and elapsed < 120.0, f"100 seeded diagrams, {elapsed:.1f}s")


def test_criterion_06_rule_table_fidelity(corpus_small):
    bad = 0
    for d in corpus_small:
        for bits in range(1 << d.n):
            for v in range(d.n):
                if (bits >> v) & 1:
                    continue
                if rule_table_operator(d, bits, v) != incidence_operator(d, bits, v):
                    bad += 1
    _report(6, "partial differential matches the incidence-number oracle",
            bad == 0, f"{len(corpus_small)} diagrams <= 8 crossings, every state")


def test_criterion_07_euler_identity(corpus, corpus_homology):
    bad = 0
    for d, table in corpus_homology:
        if lightened_in_h(d) != euler_characteristic(table):
            bad += 1
    _report(7, "graded Euler characteristic equals the normalized lightened bracket",
            bad == 0, f"{len(corpus_homology)} diagrams, compared in H")


def test_criterion_08_braid_like_invariance():
    bases = [
        BraidWord(2, (1, 1, 1)),
        BraidWord(3, (1, 2, 1)),
        BraidWord(2, (1, 1)),
        BraidWord(3, (1, 2, -1, 2)),
    ]
    t0 = time.perf_counter()
    bad = 0
    for seed in range(200):
        base = bases[seed % len(bases)]
        d1, d2 = random_equivalent_pair(seed, seed % 13, base, max_crossings=9)
        if bracket_br(d1) != bracket_br(d2):
            bad += 1
        if homology_groups(d1) != homology_groups(d2):
            bad += 1
    elapsed = time.perf_counter() - t0
    _report(8, "bracket and homology invariant on 200 braid-like pairs",
            bad == 0 and elapsed < 600.0, f"{elapsed:.1f}s")


def test_criterion_09_ordering_independence(corpus):
    rnd = random.Random(909)
    eligible = [d for d in corpus if 2 <= d.n <= 7]
    diagrams = (eligible * 3)[:50]
    bad = 0
    for d in diagrams:
        base = homology_groups(d)
        for _ in range(5):
            perm = list(range(d.n))
            rnd.shuffle(perm)
            if homology_groups(relabel_crossings(d, perm)) != base:
                bad += 1
    _report(9, "homology independent of crossing ordering",
            bad == 0, "50 diagrams x 5 permutations")


def test_criterion_10_orientation_reversal(corpus_brackets, corpus_homology):
    bad = 0
    tables = dict((id(d), t) for d, t in corpus_homology)
    for d, b in corpus_brackets:
        r = reverse_orientation(d)
        if bracket_br(r) != b:
            bad += 1
        if homology_groups(r) != tables[id(d)]:
            bad += 1
    _report(10, "bracket and homology invariant under orientation reversal", bad == 0)


def test_criterion_11_negative_controls():
    brackets = [bracket_br(figure4_family(m)) for m in range(3)]
    distinct = all(
        brackets[i] != brackets[j] for i in range(3) for j in range(i + 1, 3)
    )
    _report(11, "curl-pair family members 0,1,2 pairwise distinguished", distinct)


def test_criterion_12_performance_floor():
    t0 = time.perf_counter()
    homology_groups(parse_braid_word("B2 1 1 1"))
    trefoil_time = time.perf_counter() - t0
    word = "B3 " + " ".join("1 2 -1 2".split() * 3)
    d12 = parse_braid_word(word)
    assert d12.n == 12
    t0 = time.perf_counter()
    bracket_br(d12)
    bracket_time = time.perf_counter() - t0
    _report(12, "trefoil homology < 1 s and 12-crossing bracket < 10 s",
            trefoil_time < 1.0 and bracket_time < 10.0,
            f"trefoil {trefoil_time:.2f}s, 12-crossing bracket {bracket_time:.2f}s")
