"""Enclosure arithmetic on (value, radius) pairs, under one rounding model.

A Ball certifies that some exact real lies in [value - radius, value + radius].
Centres are plain round-to-nearest floats; radii carry every rounding, and only
this module decides how much (midpoint-radius rules as in Rump, "Verification
methods", Acta Numerica 19 (2010); u = 2^-53 is the unit roundoff).  A radius
is the spread of the exact results over the input Balls plus the centre's
error: half an ulp for one IEEE operation (+, -, *, /, sqrt), and 2 ulps, the
one libm allowance, for `ball_exp`, `ball_log` and `ball_pow`.  A float
argument is exact.  `ball_prod` uses Higham's gamma_n (Accuracy and Stability
of Numerical Algorithms, SIAM 2002, Lemma 3.1), `ball_fsum` the correct
rounding of `math.fsum`.  Each radius is summed from nonnegative terms in
round-to-nearest, then rounded up by `up`: under 2^12 roundings leave it
within relative 2^-41 of exact, and `up` adds relative 2^-40 and four
subnormal ulps, for results that underflow by half of one each (products of
several factors go largest first, so an underflow is never scaled up).  So no
radius rounds down: `Ball(0, 1) + Ball(0, 2**-60)` has a radius above 1.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

U = 2.0**-53  # unit roundoff
ETA = math.ulp(0.0)  # the smallest subnormal

# Euler-Mascheroni constant, 40 decimal digits.  validate_gamma_literal()
# recomputes the constant with decimal arithmetic and checks the literal to
# GAMMA_TOL, one unit in its last digit, which is what `ball_literal` claims.
GAMMA_STR = "0.5772156649015328606065120900824024310422"
GAMMA = float(GAMMA_STR)
GAMMA_TOL = 1e-40


def up(x: float) -> float:
    """A float above the exact value of the nonnegative radius sum x."""
    return math.nextafter(x * (1.0 + 2.0**-40) + 4.0 * ETA, math.inf)


def _libm(v: float) -> float:
    """The allowance for a libm exp, log or pow result v: 2 ulps."""
    return 2.0 * math.ulp(v)


def _parts(x: "Ball | float") -> tuple[float, float]:
    x = Ball._coerce(x)
    return x.value, x.radius


def _prod(*factors: float) -> float:
    """A product of nonnegative floats, largest first: once a partial product
    underflows, every factor left is below 1."""
    return math.prod(sorted(factors, reverse=True))


@dataclass(frozen=True)
class Ball:
    """An enclosure [value - radius, value + radius] of an exact real."""

    value: float
    radius: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"ball center must be finite, got {self.value}")
        if not (self.radius >= 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"ball radius must be finite and >= 0, got {self.radius}")

    @staticmethod
    def exact(x: float | int) -> "Ball":
        return Ball(float(x), 0.0)

    @staticmethod
    def near(q) -> "Ball":
        """The float nearest the exact rational q (an int or a Fraction)."""
        f = float(q)
        return Ball(f, 0.0 if f == q else up(0.5 * math.ulp(f)))

    @staticmethod
    def _coerce(x: "Ball | float | int") -> "Ball":
        return x if isinstance(x, Ball) else Ball.exact(x)

    def strictly_below(self, bound: float) -> bool:
        return self.value + self.radius < bound

    def strictly_above(self, bound: float) -> bool:
        return self.value - self.radius > bound

    def __add__(self, other: "Ball | float | int") -> "Ball":
        o = Ball._coerce(other)
        v = self.value + o.value
        return Ball(v, up(self.radius + o.radius + 0.5 * math.ulp(v)))

    __radd__ = __add__

    def __neg__(self) -> "Ball":
        return Ball(-self.value, self.radius)

    def __sub__(self, other: "Ball | float | int") -> "Ball":
        return self + (-Ball._coerce(other))

    def __rsub__(self, other: "Ball | float | int") -> "Ball":
        return Ball._coerce(other) + (-self)

    def __mul__(self, other: "Ball | float | int") -> "Ball":
        o = Ball._coerce(other)
        v = self.value * o.value
        r = abs(self.value) * o.radius + abs(o.value) * self.radius + self.radius * o.radius
        return Ball(v, up(r + 0.5 * math.ulp(v)))

    __rmul__ = __mul__

    def __truediv__(self, other: "Ball | float | int") -> "Ball":
        """|a'/b' - a/b| <= (r_a + |a/b| r_b) / (|b| - r_b), and |a/b| is at
        most the float after |v|.  Should r_b / (|b| - r_b) underflow, |v|
        scales its error to below the slack `up` puts on half an ulp of v."""
        o = Ball._coerce(other)
        if abs(o.value) <= o.radius:
            raise ZeroDivisionError(f"divisor ball {o} contains zero")
        v = self.value / o.value
        d = abs(o.value) - o.radius
        r = self.radius / d + math.nextafter(abs(v), math.inf) * (o.radius / d)
        return Ball(v, up(r + 0.5 * math.ulp(v)))

    def __rtruediv__(self, other: "Ball | float | int") -> "Ball":
        return Ball._coerce(other) / self

    def __repr__(self) -> str:
        return f"Ball({self.value!r}, radius={self.radius!r})"


# -- elementary functions of exact floats, or of Balls over their radius -------


def ball_log(x: "Ball | float") -> Ball:
    """log x, from libm's log within 2 ulps; |log x' - log c| <= r / (c - r)."""
    c, r = _parts(x)
    if not c - r > 0.0:
        raise ValueError(f"log of ball touching (-inf, 0]: {x}")
    v = math.log(c)
    return Ball(v, up(r / (c - r) + _libm(v)))


def ball_exp(x: "Ball | float") -> Ball:
    """exp x, from libm's exp within 2 ulps; |e^x' - e^c| <= e^c r e^r, with
    e^c and e^r from libm plus 2 ulps."""
    c, r = _parts(x)
    v, w = math.exp(c), math.exp(r)
    spread = _prod(v + _libm(v), w + _libm(w), r) if r else 0.0
    return Ball(v, up(spread + _libm(v)))


def ball_sqrt(x: "Ball | float") -> Ball:
    """sqrt x, correctly rounded so within half an ulp; |sqrt x' - sqrt c| <=
    r / (sqrt c + sqrt(c - r))."""
    c, r = _parts(x)
    if not c - r >= 0.0:
        raise ValueError(f"sqrt of ball touching negatives: {x}")
    v = math.sqrt(c)
    spread = r / (v + math.sqrt(c - r)) if r else 0.0
    return Ball(v, up(spread + 0.5 * math.ulp(v)))


def ball_pow(x: "Ball | float", p: float) -> Ball:
    """x ** p for an exact float p, from libm's pow within 2 ulps; |x'^p - c^p|
    <= |p| r t^(p-1) at the end t of [c - r, c + r], rounded outward, where
    t^(p-1) is largest: the upper end when p >= 1, the lower one otherwise."""
    c, r = _parts(x)
    low = math.nextafter(c - r, 0.0)
    if not low > 0.0:
        raise ValueError(f"pow of ball touching (-inf, 0]: {x}")
    v, spread = c**p, 0.0
    if r:
        slope = (math.nextafter(c + r, math.inf) if p >= 1.0 else low) ** (p - 1.0)
        spread = _prod(abs(p), slope + _libm(slope), r)
    return Ball(v, up(spread + _libm(v)))


# -- sums and products of many floats, and decimal literals --------------------


def ball_prod(windows: Iterable[np.ndarray]) -> Ball:
    """The product of n factors of magnitude at most 1, handed over as float
    arrays (windows) in order, each a float within two roundings of its exact
    factor (as 1 - 1/d is, for an exact d >= 2).  The centre is a running
    `np.multiply.reduce(window, initial=acc)`, which multiplies left to
    right, so it is the float that `float(np.prod(...))` of all n factors
    gives.  Its n - 1 products, in any order, and the 2n roundings put it
    within gamma_{3n} = 3nu / (1 - 3nu) of the exact product, relative to
    itself (Higham, Lemma 3.1), as no partial product underflows when the
    result is normal.  A window may be a reused buffer: each is read before
    the next is asked for."""
    v, n = 1.0, 0
    for window in windows:
        v = float(np.multiply.reduce(window, initial=v))
        n += len(window)
    if not abs(v) >= sys.float_info.min:
        raise ValueError(f"product {v} is below the normal range")
    m = 3.0 * n
    return Ball(v, up(abs(v) * (m * U / (1.0 - m * U))))


def ball_fsum(terms) -> Ball:
    """The sum of a list of Balls, centred on the correctly rounded `math.fsum`
    of their centres.  A float array stands for the exact terms it rounds to."""
    if isinstance(terms, np.ndarray):
        values, spread = terms, 0.5 * math.fsum(np.spacing(np.abs(terms)))
    else:
        values, spread = [b.value for b in terms], math.fsum(b.radius for b in terms)
    v = math.fsum(values)
    return Ball(v, up(spread + 0.5 * math.ulp(v)))


def ball_literal(digits: str) -> Ball:
    """The real that the plain decimal `digits` gives to one unit in its last digit."""
    f = float(digits)
    return Ball(f, up(0.5 * math.ulp(f) + 10.0 ** -len(digits.partition(".")[2])))


# -- the seed transcendental constant ----------------------------------------


def gamma_ball() -> Ball:
    """Euler-Mascheroni constant, from its validated 40-digit literal."""
    return ball_literal(GAMMA_STR)


def exp_gamma_ball() -> Ball:
    return ball_exp(gamma_ball())


def exp_neg_gamma_ball() -> Ball:
    return ball_exp(-gamma_ball())


def validate_gamma_literal() -> None:
    """Recompute the Euler-Mascheroni constant and check the stored literal
    to GAMMA_TOL, raising ArithmeticError on mismatch.

    Uses the Bessel-ratio scheme gamma = A(n)/B(n) - ln(n) with
    A(n) = sum_k (n^k/k!)^2 H_k and B(n) = sum_k (n^k/k!)^2, whose error is
    O(e^{-4n}); n = 25, in decimal arithmetic at 60 digits, leaves ~1e-43.
    """
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 60
        n = 25
        n2 = Decimal(n) * Decimal(n)
        term, harmonic, a_sum, b_sum = Decimal(1), Decimal(0), Decimal(0), Decimal(1)
        for k in range(1, 4 * n + 40):  # term = (n^k/k!)^2
            term = term * n2 / (Decimal(k) * Decimal(k))
            harmonic += Decimal(1) / Decimal(k)
            a_sum += term * harmonic
            b_sum += term
        err = abs(a_sum / b_sum - Decimal(n).ln() - Decimal(GAMMA_STR))
        if err > Decimal(str(GAMMA_TOL)):
            raise ArithmeticError(
                f"stored Euler-Mascheroni literal is off by {err}; "
                "constant pipeline cannot be trusted"
            )
