"""Enclosure arithmetic on (value, radius) pairs.

A Ball certifies that some exact real lies in [value - radius, value + radius].
Radii propagate by worst-case accumulation: every operation widens the result
radius by an interval bound plus a one-ulp rounding pad, so enclosures never
shrink.  This is deliberately simple; at the package's working scales
(radii around 1e-15 .. 1e-6) worst-case accumulation loses nothing that
matters while staying easy to audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# One ulp at 1.0.  Each arithmetic operation pads the radius by
# 2*EPS*|value|, which dominates the 0.5-ulp rounding of the value itself.
EPS = 2.0 ** -52

# Euler-Mascheroni constant, 40 decimal digits.  The float value below is the
# nearest double; validate_gamma_literal() recomputes the constant from
# scratch with decimal arithmetic and checks the literal to 1e-20.
GAMMA_STR = "0.5772156649015328606065120900824024310422"
GAMMA = float(GAMMA_STR)


def _pad(value: float) -> float:
    return 2.0 * EPS * abs(value)


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

    # -- constructors -------------------------------------------------------

    @staticmethod
    def exact(x: float | int) -> "Ball":
        return Ball(float(x), 0.0)

    @staticmethod
    def _coerce(x: "Ball | float | int") -> "Ball":
        return x if isinstance(x, Ball) else Ball.exact(x)

    # -- queries ------------------------------------------------------------

    @property
    def lo(self) -> float:
        return self.value - self.radius

    @property
    def hi(self) -> float:
        return self.value + self.radius

    def contains(self, x: float) -> bool:
        return abs(x - self.value) <= self.radius

    def strictly_below(self, bound: float) -> bool:
        return self.value + self.radius < bound

    def strictly_above(self, bound: float) -> bool:
        return self.value - self.radius > bound

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Ball | float | int") -> "Ball":
        o = Ball._coerce(other)
        v = self.value + o.value
        return Ball(v, self.radius + o.radius + _pad(v))

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
        r = (
            abs(self.value) * o.radius
            + abs(o.value) * self.radius
            + self.radius * o.radius
            + _pad(v)
        )
        return Ball(v, r)

    __rmul__ = __mul__

    def __truediv__(self, other: "Ball | float | int") -> "Ball":
        o = Ball._coerce(other)
        if abs(o.value) <= o.radius:
            raise ZeroDivisionError(f"divisor ball {o} contains zero")
        v = self.value / o.value
        denom = abs(o.value) - o.radius
        r = (abs(self.value) * o.radius + abs(o.value) * self.radius) / (
            abs(o.value) * denom
        ) + _pad(v)
        return Ball(v, r)

    def __rtruediv__(self, other: "Ball | float | int") -> "Ball":
        return Ball._coerce(other) / self

    def __repr__(self) -> str:
        return f"Ball({self.value!r}, radius={self.radius!r})"


# -- elementary functions, widened by a worst-case derivative bound ----------


def ball_log(b: Ball) -> Ball:
    if b.lo <= 0.0:
        raise ValueError(f"log of ball touching (-inf, 0]: {b}")
    v = math.log(b.value)
    r = b.radius / b.lo + _pad(v) + EPS * abs(v)
    return Ball(v, r)


def ball_exp(b: Ball) -> Ball:
    v = math.exp(b.value)
    # exp is convex increasing: widest deviation is at the upper endpoint.
    r = math.exp(b.hi) - v + _pad(v) + EPS * v
    return Ball(v, r)


def ball_sqrt(b: Ball) -> Ball:
    if b.lo < 0.0:
        raise ValueError(f"sqrt of ball touching negatives: {b}")
    v = math.sqrt(b.value)
    if b.lo == 0.0:
        r = math.sqrt(b.hi) - 0.0
    else:
        r = b.radius / (2.0 * math.sqrt(b.lo))
    return Ball(v, r + _pad(v))


# -- the seed transcendental constant ----------------------------------------


def gamma_ball() -> Ball:
    """Euler-Mascheroni constant with a one-ulp radius around the literal."""
    return Ball(GAMMA, 2.0 * EPS * GAMMA)


def exp_gamma_ball() -> Ball:
    return ball_exp(gamma_ball())


def exp_neg_gamma_ball() -> Ball:
    return ball_exp(-gamma_ball())


def validate_gamma_literal(tol: float = 1e-20) -> None:
    """Recompute the Euler-Mascheroni constant and check the stored literal.

    Uses the Bessel-ratio scheme gamma = A(n)/B(n) - ln(n) with
    A(n) = sum_k (n^k/k!)^2 H_k and B(n) = sum_k (n^k/k!)^2, whose error is
    O(e^{-4n}); n = 25 leaves an error below 1e-43.  Run in decimal
    arithmetic at 60 digits, so the 40-digit literal is checked to well
    beyond `tol`.  Raises ArithmeticError on mismatch.
    """
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 60
        n = 25
        n2 = Decimal(n) * Decimal(n)
        term = Decimal(1)  # (n^k/k!)^2 at k = 0
        harmonic = Decimal(0)
        a_sum = Decimal(0)
        b_sum = Decimal(1)
        for k in range(1, 4 * n + 40):
            term = term * n2 / (Decimal(k) * Decimal(k))
            harmonic += Decimal(1) / Decimal(k)
            a_sum += term * harmonic
            b_sum += term
        gamma = a_sum / b_sum - Decimal(n).ln()
        err = abs(gamma - Decimal(GAMMA_STR))
        if err > Decimal(str(tol)):
            raise ArithmeticError(
                f"stored Euler-Mascheroni literal is off by {err}; "
                "constant pipeline cannot be trusted"
            )
