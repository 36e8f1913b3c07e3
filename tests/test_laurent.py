import pytest

from braidbracket.laurent import (
    DELTA,
    lp,
    lp_add,
    lp_mul,
    lp_pow,
    lp_scale,
    lp_shift,
    lp_str,
    lp2_str,
)


def test_add_cancels_zero_terms():
    assert lp_add({1: 2, 3: -1}, {1: -2, 0: 5}) == {3: -1, 0: 5}


def test_mul_and_pow():
    assert lp_mul({1: 1}, {-1: 1}) == {0: 1}
    assert lp_pow(DELTA, 0) == {0: 1}
    assert lp_pow(DELTA, 2) == {4: 1, 0: 2, -4: 1}
    assert lp_mul({}, {5: 3}) == {}


def test_shift_scale():
    assert lp_shift({2: 7}, -3) == {-1: 7}
    assert lp_scale({2: 7}, 0) == {}
    assert lp_scale({2: 7, 0: -1}, -2) == {2: -14, 0: 2}


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
