import math

import mpmath as mp
import pytest
from scipy import integrate as scipy_integrate

from chensieve.ball import Ball
from chensieve.errors import ConfigError
from chensieve.quadrature import integrate


def test_polynomial_is_exact():
    value, err = integrate(lambda x: 3.0 * x * x, 0.0, 2.0)
    assert abs(value - 8.0) < 1e-13
    assert err < 1e-10


def test_empty_interval():
    assert integrate(lambda x: x, 1.0, 1.0) == (0.0, 0.0)


def test_reversed_interval_flips_sign():
    v1, _ = integrate(math.sin, 0.0, 2.0)
    v2, _ = integrate(math.sin, 2.0, 0.0)
    assert abs(v1 + v2) < 1e-14


@pytest.mark.parametrize(
    "f,a,b",
    [
        (lambda x: math.exp(-x * x), 0.0, 3.0),
        (lambda x: math.log(2.0 - 3.0 * x) / (x * (1.0 - x)), 0.125, 1.0 / 3.0),
        (lambda x: 1.0 / (1.0 + x * x), -4.0, 4.0),
        (lambda x: math.sqrt(x), 0.0, 1.0),
    ],
)
def test_against_scipy_quadpack(f, a, b):
    ours, bound = integrate(f, a, b, tol=1e-12)
    ref, _ = scipy_integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=400)
    assert abs(ours - ref) < 5e-11
    assert abs(ours - ref) <= bound + 5e-13


def test_error_bound_is_honest_when_refined():
    f = lambda x: math.sin(40.0 * x) / (1.0 + x)
    v_loose, bound = integrate(f, 0.0, 3.0, tol=1e-9)
    v_tight, _ = integrate(f, 0.0, 3.0, tol=1e-13)
    assert abs(v_loose - v_tight) <= bound


def test_tolerance_validation():
    with pytest.raises(ConfigError):
        integrate(lambda x: x, 0.0, 1.0, tol=0.0)


def test_ball_wrapper_contains_truth():
    b = Ball(*integrate(math.exp, 0.0, 1.0))
    with mp.workdps(40):
        assert abs(mp.mpf(b.value) - (mp.e - 1)) <= mp.mpf(b.radius)
