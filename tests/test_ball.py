import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chensieve.ball import (
    GAMMA_STR,
    Ball,
    ball_exp,
    ball_fsum,
    ball_literal,
    ball_log,
    ball_pow,
    ball_prod,
    ball_sqrt,
    exp_gamma_ball,
    exp_neg_gamma_ball,
    gamma_ball,
    validate_gamma_literal,
)


def test_exact_ball_has_zero_radius():
    b = Ball.exact(1.5)
    assert b.value == 1.5 and b.radius == 0.0


def test_radius_never_negative():
    with pytest.raises(ValueError):
        Ball(1.0, -1e-20)
    with pytest.raises(ValueError):
        Ball(float("nan"), 0.0)


def test_arithmetic_contains_exact_results():
    a = Ball(1.0, 1e-12)
    b = Ball(3.0, 1e-12)
    assert _inside(a + b, Fraction(4))
    assert _inside(a - b, Fraction(-2))
    assert _inside(a * b, Fraction(3))
    assert _inside(a / b, Fraction(1, 3))
    assert _inside(2.0 * a, Fraction(2))
    assert _inside(1.0 - a, Fraction(0))


def test_division_by_ball_containing_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        Ball(1.0) / Ball(1e-13, 1e-12)


def test_radii_grow_monotonically_through_operations():
    a = Ball(2.0, 1e-10)
    assert (a + 1.0).radius >= a.radius
    assert (a * 1.0).radius >= a.radius
    assert (a / 1.0).radius >= a.radius
    assert ball_sqrt(a).radius > 0.0


def test_strict_comparisons():
    b = Ball(1.0, 0.1)
    assert b.strictly_below(1.2)
    assert not b.strictly_below(1.05)
    assert b.strictly_above(0.8)
    assert not b.strictly_above(0.95)


def test_gamma_literal_validates():
    validate_gamma_literal()
    with mp.workdps(50):
        assert abs(mp.mpf(GAMMA_STR) - mp.euler) < mp.mpf("1e-40")
        assert _inside(gamma_ball(), mp.euler)


def test_exp_gamma_consistency():
    # e^gamma * e^-gamma = 1 within propagated radii
    prod = exp_gamma_ball() * exp_neg_gamma_ball()
    assert _inside(prod, Fraction(1))
    assert prod.radius < 1e-14


def test_elementary_functions_enclose_true_values():
    with mp.workdps(40):
        for v, r in [(2.0, 1e-13), (0.5, 1e-14), (100.0, 1e-10)]:
            b = Ball(v, r)
            assert _inside(ball_log(b), mp.log(v))
            assert _inside(ball_exp(Ball(v / 100.0, r)), mp.exp(mp.mpf(v) / 100))
            assert _inside(ball_sqrt(b), mp.sqrt(v))


def test_log_rejects_nonpositive_balls():
    with pytest.raises(ValueError):
        ball_log(Ball(1e-13, 1e-12))


def test_random_expression_trees_stay_sound():
    """Evaluate random +,-,*,/ trees in both Ball and 50-digit arithmetic;
    the high-precision value must lie inside the propagated Ball."""
    mp.mp.dps = 50
    rng = random.Random(20260809)
    leaves = [
        (gamma_ball(), mp.euler),
        (exp_gamma_ball(), mp.exp(mp.euler)),
        (Ball.near(Fraction("0.5198")), mp.mpf("0.5198")),
        (Ball(math.pi, 1e-15), mp.pi),
        (Ball.exact(3.0), mp.mpf(3)),
    ]
    for _ in range(300):
        (b1, m1), (b2, m2) = rng.sample(leaves, 2)
        depth = rng.randint(1, 4)
        for _ in range(depth):
            op = rng.choice("+-*/")
            if op == "+":
                b1, m1 = b1 + b2, m1 + m2
            elif op == "-":
                b1, m1 = b1 - b2, m1 - m2
            elif op == "*":
                b1, m1 = b1 * b2, m1 * m2
            elif abs(b2.value) > b2.radius:
                b1, m1 = b1 / b2, m1 / m2
        assert abs(m1 - mp.mpf(b1.value)) <= mp.mpf(b1.radius)


# -- the rounding model, against exact arithmetic --------------------------------


def test_radius_sum_rounds_up_past_an_absorbed_term():
    # 1 + 2^-60 rounds to 1; the radius must still cover the 2^-60.
    assert (Ball(0.0, 1.0) + Ball(0.0, 2.0**-60)).radius > 1.0
    assert (Ball(0.0, 1.0) - Ball(0.0, 2.0**-60)).radius > 1.0


def _inside(ball: Ball, exact) -> bool:
    """Is the exact real (a Fraction, or an mpf at the working precision)
    inside the Ball, compared without rounding?"""
    if isinstance(exact, Fraction):
        return abs(exact - Fraction(ball.value)) <= Fraction(ball.radius)
    return abs(exact - mp.mpf(ball.value)) <= mp.mpf(ball.radius)


def _corners(b: Ball) -> list[Fraction]:
    """The centre and the two ends of a Ball, exactly."""
    c, r = Fraction(b.value), Fraction(b.radius)
    return [c - r, c, c + r]


def _examples(n: int):
    return settings(max_examples=n, deadline=None, database=None)


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.0, -1.0]
_CENTRES = st.one_of(
    st.sampled_from(_SPECIAL), st.floats(-1e60, 1e60, allow_nan=False, allow_infinity=False)
)
_RADII = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-320, 2.0**-60, 1e-16, 1.0]),
    st.floats(0.0, 1e60, allow_nan=False, allow_infinity=False),
)
_BALLS = st.builds(Ball, _CENTRES, _RADII)
# 60 digits for the function values; the ends themselves are formed exactly
_EXACT_BITS = 2300


@_examples(300)
@given(_BALLS, _BALLS)
def test_add_sub_mul_enclose_every_corner(a, b):
    # +, - and * are monotone in each argument, so the corners bound the set.
    for x in _corners(a):
        for y in _corners(b):
            assert _inside(a + b, x + y)
            assert _inside(a - b, x - y)
            assert _inside(a * b, x * y)


@_examples(300)
@given(_BALLS, st.floats(1e-60, 1e60), st.sampled_from([1.0, -1.0]), st.floats(0.0, 0.999))
def test_division_encloses_every_corner(a, magnitude, sign, width):
    b = Ball(sign * magnitude, magnitude * width)
    q = a / b
    for x in _corners(a):
        for y in _corners(b):
            assert _inside(q, x / y)


def _check_monotone(fn_ball, fn_mp, b: Ball, *args):
    """fn is monotone, so its values at the Ball's ends and centre, formed
    exactly and evaluated at 60 digits or more, must all lie inside."""
    out = fn_ball(b, *args)
    with mp.workprec(_EXACT_BITS):
        for x in _corners(b):
            assert _inside(out, fn_mp(mp.mpf(x.numerator) / x.denominator, *args))


_POSITIVE = st.one_of(st.sampled_from([5e-324, 1e-310, 1.0, 2.0]), st.floats(1e-300, 1e300))


@_examples(200)
@given(_POSITIVE, st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(0.0, 0.999)))
def test_log_and_sqrt_enclose_ends_and_centre(c, width):
    assume(c * width < c)
    b = Ball(c, c * width)
    _check_monotone(ball_log, mp.log, b)
    _check_monotone(ball_sqrt, mp.sqrt, b)
    _check_monotone(ball_sqrt, mp.sqrt, Ball(c, c))  # touching 0


@_examples(200)
@given(
    st.one_of(st.sampled_from([0.0, -0.0, 5e-324]), st.floats(-700.0, 700.0)),
    st.one_of(st.sampled_from([0.0, 5e-324, 1e-300]), st.floats(0.0, 1.0)),
)
def test_exp_encloses_ends_and_centre(c, r):
    _check_monotone(ball_exp, mp.exp, Ball(c, r))


@_examples(200)
@given(
    st.floats(1e-30, 1e30),
    st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(0.0, 0.999)),
    st.sampled_from([-3.0, -1.5, -0.5, 0.5, 1.0, 1.5, 2.0, 3.0, 6.5]),
)
def test_pow_encloses_ends_and_centre(c, width, p):
    _check_monotone(ball_pow, lambda x, q: x ** mp.mpf(q), Ball(c, c * width), p)


@_examples(100)
@given(st.lists(st.tuples(st.integers(2, 10**12), st.booleans()), min_size=0, max_size=300))
def test_prod_encloses_the_exact_product(terms):
    # factors +-(1 - 1/d), each formed in two roundings as the contract asks
    d = np.array([float(n) for n, _ in terms])
    sign = np.array([-1.0 if neg else 1.0 for _, neg in terms])
    exact = Fraction(1)
    for n, neg in terms:
        exact *= (-1 if neg else 1) * (1 - Fraction(1, n))
    assert _inside(ball_prod([sign * (1.0 - 1.0 / d)]), exact)


def test_prod_of_many_factors_keeps_its_centre_and_encloses():
    d = np.arange(2, 20002, dtype=np.float64)
    factors = 1.0 - 1.0 / d
    b = ball_prod([factors])
    assert b.value == float(np.prod(factors))
    assert _inside(b, Fraction(1, 20001))  # prod_{d=2}^{n} (1 - 1/d) = 1/n
    with pytest.raises(ValueError):
        ball_prod([np.full(2000, 0.5)])  # 2^-2000 is below the normal range


@_examples(100)
@given(st.lists(st.integers(1, 10**9), min_size=1, max_size=200))
def test_fsum_encloses_sums_of_balls_and_of_rounded_floats(ns):
    exact = sum(Fraction(1, n) for n in ns)
    assert _inside(ball_fsum(1.0 / np.array(ns, dtype=np.float64)), exact)
    assert _inside(ball_fsum([Ball.exact(1.0) / n for n in ns]), exact)


def test_near_and_literal_enclose_their_reals():
    third = Ball.near(Fraction(1, 3))
    assert third.value == 1.0 / 3.0 and _inside(third, Fraction(1, 3))
    assert Ball.near(2**40 + 1).radius == 0.0  # an exact integer stays exact
    with mp.workdps(60):
        pi = ball_literal("3.141592653589793238462643383279502884")
        assert pi.value == math.pi and _inside(pi, mp.pi)
        assert _inside(gamma_ball(), mp.euler)
        assert _inside(exp_gamma_ball(), mp.exp(mp.euler))
        assert _inside(exp_neg_gamma_ball(), mp.exp(-mp.euler))
