import math
import random

import mpmath as mp
import pytest

from chensieve.ball import (
    GAMMA,
    GAMMA_STR,
    Ball,
    ball_exp,
    ball_log,
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
    assert (a + b).contains(4.0)
    assert (a - b).contains(-2.0)
    assert (a * b).contains(3.0)
    assert (a / b).contains(1.0 / 3.0)
    assert (2.0 * a).contains(2.0)
    assert (1.0 - a).contains(0.0)


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
    mp.mp.dps = 50
    assert abs(mp.mpf(GAMMA_STR) - mp.euler) < mp.mpf("1e-40")
    assert gamma_ball().contains(GAMMA)


def test_exp_gamma_consistency():
    # e^gamma * e^-gamma = 1 within propagated radii
    prod = exp_gamma_ball() * exp_neg_gamma_ball()
    assert prod.contains(1.0)
    assert prod.radius < 1e-14


def test_elementary_functions_enclose_true_values():
    mp.mp.dps = 40
    for v, r in [(2.0, 1e-13), (0.5, 1e-14), (100.0, 1e-10)]:
        b = Ball(v, r)
        assert ball_log(b).contains(float(mp.log(v)))
        assert ball_exp(Ball(v / 100.0, r)).contains(float(mp.exp(v / 100.0)))
        assert ball_sqrt(b).contains(float(mp.sqrt(v)))


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
        (Ball.exact(0.5198), mp.mpf("0.5198")),
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
        assert abs(float(m1) - b1.value) <= b1.radius + 1e-300
