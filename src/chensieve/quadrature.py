"""Adaptive Gauss-Kronrod quadrature with a certified error budget.

The workhorse is the 7-point Gauss / 15-point Kronrod pair (the classic
QUADPACK rule).  An interval is bisected until the local |K15 - G7|
difference falls under its share of the absolute tolerance; the sum of the
local differences is reported as the error bound.  Since the Kronrod value
is far more accurate than the Gauss value once converged, |K15 - G7|
overestimates the true Kronrod error by orders of magnitude, which is the
conservative direction for enclosure radii.
"""

from __future__ import annotations

import math
from typing import Callable

from .ball import Ball
from .errors import ConfigError

# Bisection depth past which a panel is accepted as it stands.
MAX_DEPTH = 52

# Kronrod-15 abscissae (nonnegative half) and weights; Gauss-7 weights.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Kronrod-15 panel on [a, b]: returns (K15, |K15 - G7|)."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(center)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for j in range(7):
        dx = half * _XGK[j]
        f1 = f(center - dx)
        f2 = f(center + dx)
        resk += _WGK[j] * (f1 + f2)
        if j % 2 == 1:
            resg += _WG[j // 2] * (f1 + f2)
    return resk * half, abs(resk - resg) * abs(half)


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-12,
) -> tuple[float, float]:
    """Integrate f over [a, b]; returns (value, error_bound).

    `tol` is the absolute tolerance target.  The returned error bound is the
    sum of converged panel differences (always >= the target achieved) plus a
    rounding pad; it may exceed `tol` only when `MAX_DEPTH` bisections are
    insufficient, in which case the bound is still honest.
    """
    if not (tol > 0.0):
        raise ConfigError(f"quadrature tolerance must be positive, got {tol}")
    if a == b:
        return 0.0, 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    values: list[float] = []
    errors: list[float] = []
    # Stack of (lo, hi, depth, local_tol); processed deterministically.
    stack = [(a, b, 0, tol)]
    while stack:
        lo, hi, depth, local_tol = stack.pop()
        val, err = _gk15(f, lo, hi)
        if err <= local_tol or depth >= MAX_DEPTH or (hi - lo) <= 16 * math.ulp(lo):
            values.append(val)
            errors.append(err)
        else:
            mid = 0.5 * (lo + hi)
            half_tol = 0.5 * local_tol
            stack.append((mid, hi, depth + 1, half_tol))
            stack.append((lo, mid, depth + 1, half_tol))
    total = math.fsum(values)
    bound = math.fsum(errors) + 4.0 * 2.0 ** -52 * (abs(total) + len(values))
    return sign * total, bound


def integrate_ball(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-12,
) -> Ball:
    value, bound = integrate(f, a, b, tol)
    return Ball(value, bound)
