import copy
import random

import pytest

from braidbracket.laurent import (
    DELTA,
    delta_power,
    lp_iadd,
    lp_mul,
    lp_pow,
    lp_str,
    lp2_str,
)
from helpers import laurent_mul_reference


def test_add_cancels_zero_terms():
    assert lp_iadd({1: 2, 3: -1}, {1: -2, 0: 5}) == {3: -1, 0: 5}
    assert lp_iadd({1: 2}, {1: 0, 3: 0}) == {1: 2}


def test_mul_and_pow():
    assert lp_mul({1: 1}, {-1: 1}) == {0: 1}
    assert lp_pow(DELTA, 0) == {0: 1}
    assert lp_pow(DELTA, 2) == {4: 1, 0: 2, -4: 1}
    assert lp_mul({}, {5: 3}) == {}


def test_shift_scale():
    assert lp_iadd({}, {2: 7}, -3) == {-1: 7}
    assert lp_iadd({}, {2: 7}, factor=0) == {}
    assert lp_iadd({}, {2: 7, 0: -1}, factor=-2) == {2: -14, 0: 2}


def _random_poly(rnd, two_vars):
    terms = {}
    for _ in range(rnd.randrange(0, 7)):
        e = rnd.randrange(-6, 7)
        key = (e, rnd.randrange(-3, 4)) if two_vars else e
        terms[key] = rnd.choice((-3, -2, -1, 1, 1, 2, 5))
    return terms


def _iadd_reference(acc, p, shift, factor):
    """acc + factor * A^shift * p, one term at a time, zeros removed last."""
    out = dict(acc)
    for e, c in p.items():
        key = e + shift if shift else e
        out[key] = out.get(key, 0) + factor * c
    return {e: c for e, c in out.items() if c}


@pytest.mark.parametrize("two_vars", [False, True], ids=["A", "A,H"])
def test_iadd_matches_a_term_by_term_sum(two_vars):
    rnd = random.Random(20260415 + two_vars)
    for _ in range(400):
        acc = _random_poly(rnd, two_vars)
        p = _random_poly(rnd, two_vars)
        shift = 0 if two_vars else rnd.randrange(-5, 6)
        factor = rnd.choice((0, 1, -1, 2, -3, 7))
        if rnd.random() < 0.2:
            # the sum cancels completely
            acc = _iadd_reference({}, p, shift, -factor)
        p_before = copy.deepcopy(p)
        expected = _iadd_reference(acc, p, shift, factor)
        result = lp_iadd(acc, p, shift, factor)
        assert result is acc and acc == expected
        assert p == p_before
        assert all(acc.values())


def test_mul_matches_a_double_loop():
    rnd = random.Random(20260416)
    for _ in range(300):
        p, q = _random_poly(rnd, False), _random_poly(rnd, False)
        assert lp_mul(p, q) == laurent_mul_reference(p, q)


def test_delta_power_matches_repeated_multiplication():
    expected = {0: 1}
    for m in range(13):
        assert delta_power(m) == expected
        assert lp_pow(DELTA, m) == expected
        expected = laurent_mul_reference(expected, {2: -1, -2: -1})


def test_shared_constants_are_read_only():
    with pytest.raises(TypeError):
        DELTA[0] = 1
    with pytest.raises(TypeError):
        delta_power(3)[0] = 1
    assert DELTA == {2: -1, -2: -1}
    assert delta_power(3) == {6: -1, 2: -3, -2: -3, -6: -1}


def test_pretty_strings():
    assert lp_str({}) == "0"
    assert lp_str({1: 1, -3: -1}) == "A - A^-3"
    assert lp2_str({(0, 2): -1, (0, -2): -1}) == "-H^2 - H^-2"


# pretty output pinned byte for byte: coefficients +-1 and +-k, constant
# terms, and monomials in one and in two variables
@pytest.mark.parametrize("poly, text", [
    ({0: 1}, "1"),
    ({0: -7}, "-7"),
    ({1: 1}, "A"),
    ({1: -1}, "-A"),
    ({1: 3}, "3A"),
    ({-1: -4}, "-4A^-1"),
    ({3: 1, 0: 1}, "A^3 + 1"),
    ({5: 2, 0: -3, -1: 1, -9: -1}, "2A^5 - 3 + A^-1 - A^-9"),
])
def test_one_variable_terms(poly, text):
    assert lp_str(poly) == text
    assert lp_str(poly, "q") == text.replace("A", "q")


@pytest.mark.parametrize("poly, text", [
    ({}, "0"),
    ({(0, 0): -2}, "-2"),
    ({(1, 1): 2, (0, 0): -1, (-2, 3): -1}, "2AH - 1 - A^-2H^3"),
    ({(1, 0): 1, (0, 1): -1}, "A - H"),
    ({(3, -1): -5, (-1, 1): 1, (2, 0): 4}, "-5A^3H^-1 + 4A^2 + A^-1H"),
])
def test_two_variable_terms(poly, text):
    assert lp2_str(poly) == text
    assert lp2_str(poly, "q", "t") == text.replace("A", "q").replace("H", "t")
