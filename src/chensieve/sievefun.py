"""Linear-sieve error functions f1, F1 via their delay differential system.

The pair satisfies
    F1(s) = 2 e^gamma - s            on 0 <= s <= 3,
    F1'(s) = -f1(s-1)/(s-1)          for s >= 3,
    f1'(s) = -F1(s-1)/(s-1)          for s >= 2,
with the boundary convention f1(s) = s on (0, 2] (equivalent to the
classical pair f = 0, F = 2 e^gamma / s below the crossover under
f1(s) = s (1 - f(s)), F1(s) = s (F(s) - 1)).

The solver marches unit interval by unit interval.  On [k, k+1] the integrand
g(t) = src(t-1)/(t-1) reads only the piece src on [k-1, k], so the new piece
is prev's float value at k minus the antiderivative of p, g's degree-48
Chebyshev interpolant with float coefficients c.  A piece's radius bounds the
true function minus the exact polynomial of the piece's coefficients, and
minus that polynomial's float value, on the whole piece.  It sums five proven
terms, each rounded up by `ball.up`, whose relative pad 2^-40 covers forming
a term from nonnegative floats and one log (u = 2^-53; E is `_clenshaw`'s):
- start: prev.radius + E(prev), for prev's float value at k.
- propagated: src.radius * log(k/(k-1)), the integral of src.radius/(t-1).
- interpolation: (sum |h_j| + 4u (sum |a| + k sum |c|)) / (k-1) >= |g - p|,
  since h = src(t-1) - (t-1) p(t) = (t-1)(g - p) has the Chebyshev
  coefficients a - (k - 1/2) c - chebmulx(c)/2 (a: src's own, as [k-1, k]
  maps to the same variable; a linear seed's formed exactly), and 4u(...)
  covers forming them in floats.  This holds whatever `interpolate` rounded,
  nodes and integrand values included, so the Bernstein-ellipse truncation
  bound (Trefethen, ATAP, Thm 8.2, at exact Chebyshev points) is not needed.
- integration: 2u sum |c| for `integ`'s coefficients (c_{j-1} - c_{j+1})/4j,
  whose errors the constant of integration repeats; E(partial) for that
  constant's Clenshaw value; u |poly_0| for adding the start value.
- evaluation: E(poly), anywhere on the piece.

Evaluation works on arrays: a binary search over the piece edges assigns
each point to its piece, whose polynomial runs once on all of its points.
The scalar `f1`/`F1` and the tabulated grid are calls of that one path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial import Chebyshev
from numpy.polynomial.chebyshev import chebmulx

from .ball import U, Ball, exp_gamma_ball, up
from .errors import ConfigError, DomainError

S_MAX_CAP = 12.0
# Degree of the Chebyshev interpolant of each piece's integrand.
DEGREE = 48


@dataclass(frozen=True)
class _Piece:
    lo: float
    hi: float
    poly: Chebyshev
    radius: float  # uniform enclosure radius valid on [lo, hi]


def _clenshaw(c: np.ndarray) -> float:
    """E(c) = 3u sum_j (|c_j| + 3 beta_{j+1}), beta_j = sum_{i>=j} (i-j+1) |c_i|,
    bounds numpy's Clenshaw rounding anywhere on [-1, 1], onto which [k, k+1]
    maps exactly (2s - 2k - 1 is exact by Sterbenz; the seeds map k to 1).  The
    float result is sum (c_j + eta_j) T_j, |eta_j| <= gamma_2 (|c_j| + 2|b_{j+1}|
    + |b_{j+2}|) (Higham, Accuracy and Stability, Sec. 3.1), and |b_j| <=
    beta_j (1 + 1e-9) as |U_m| <= m + 1 on [-1, 1]; 3u > gamma_2."""
    a = np.abs(c)
    beta = np.cumsum(np.cumsum(a[::-1]))[::-1]
    return 3.0 * U * (a.sum() + 3.0 * beta[1:].sum())


def _coef_on(src: _Piece, k: int) -> np.ndarray:
    """Chebyshev coefficients of src(t-1) for t in [k, k+1]."""
    if src.lo == k - 1:
        return src.poly.coef
    (c0, c1), (lo, hi) = (map(Fraction, v.tolist()) for v in (src.poly.coef, src.poly.domain))
    return np.array([float(c0 + c1 * (2 * k - 1 - lo - hi) / (hi - lo)), float(c1 / (hi - lo))])


class SieveFunctionSystem:
    """Dense evaluator for f1 and F1 on (0, s_max]."""

    def __init__(self, s_max: float = 12.0):
        if not (3.0 <= s_max <= S_MAX_CAP):
            raise ConfigError(f"s_max must be in [3, {S_MAX_CAP}], got {s_max}")
        self.s_max = float(s_max)

        two_eg = exp_gamma_ball() * 2.0
        self._two_eg = two_eg.value
        # Closed-form seeds: f1 linear on [0, 2]; F1 = two_eg - s on [0, 3], whose
        # subtraction rounds the most at s = 0, so the Ball two_eg - 0 bounds it.
        F1_seed = Chebyshev([two_eg.value - 1.5, -1.5], domain=[0.0, 3.0])
        self._f1_pieces = [_Piece(0.0, 2.0, Chebyshev([1.0, 1.0], domain=[0.0, 2.0]), 0.0)]
        self._F1_pieces = [_Piece(0.0, 3.0, F1_seed, (two_eg - 0.0).radius)]
        self._build()

    # -- construction ---------------------------------------------------------

    def _march(self, prev: _Piece, k: int, src: _Piece) -> _Piece:
        """Continue `prev` onto [k, k+1] by
        V(s) = V(k) - int_k^s src(t-1)/(t-1) dt."""
        lo, hi = float(k), float(k + 1)
        start_value = float(prev.poly(lo))
        p_g = Chebyshev.interpolate(lambda t: src.poly(t - 1) / (t - 1), DEGREE, domain=[lo, hi])
        partial = p_g.integ(lbnd=lo)
        poly = -partial + start_value

        c, sum_c = p_g.coef, float(np.abs(p_g.coef).sum())
        a = np.zeros(len(c) + 1)
        a[: len(src.poly.coef)] = _coef_on(src, k)
        h = a - ((k - 0.5) * np.append(c, 0.0) + 0.5 * chebmulx(c))
        terms = (
            prev.radius + _clenshaw(prev.poly.coef),  # start
            src.radius * math.log(k / (k - 1.0)),  # propagated
            (np.abs(h).sum() + 4 * U * (np.abs(a).sum() + k * sum_c)) / (k - 1),  # interpolation
            2.0 * U * sum_c + _clenshaw(partial.coef) + U * abs(poly.coef[0]),  # integration
            _clenshaw(poly.coef),  # evaluation
        )
        return _Piece(lo, hi, poly, up(math.fsum(map(up, terms))))

    def _build(self) -> None:
        # Each step reads the pieces on [k-1, k] (the seeds at the start:
        # f1(2) = 2 exactly, and F1 is closed-form up to 3).
        for k in range(2, int(math.ceil(self.s_max))):
            f1_prev, F1_prev = self._f1_pieces[-1], self._F1_pieces[-1]
            self._f1_pieces.append(self._march(f1_prev, k, F1_prev))
            if k >= 3:
                self._F1_pieces.append(self._march(F1_prev, k, f1_prev))

    # -- evaluation -------------------------------------------------------------

    @staticmethod
    def _piecewise(pieces: list[_Piece], s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and radii of contiguous pieces at every s.  Each s goes to the
        first piece with lo <= s <= hi (s = k lands on [k-1, k]), the last piece
        past the end; each piece that holds points runs its polynomial once on
        all of them, and the others not at all."""
        value, radius = np.empty_like(s), np.empty_like(s)
        his = np.array([piece.hi for piece in pieces])
        which = np.minimum(np.searchsorted(his, s, side="left"), len(pieces) - 1)
        for i in np.flatnonzero(np.bincount(which, minlength=len(pieces))).tolist():
            on = which == i
            value[on] = pieces[i].poly(s[on])
            radius[on] = pieces[i].radius
        return value, radius

    def _check(self, name: str, s: np.ndarray, low_ok: np.ndarray, low: str) -> None:
        if not low_ok.all():
            raise DomainError(f"{name} needs s {low}, got {s[~low_ok][0]}")
        high = s > self.s_max
        if high.any():
            raise DomainError(f"{name} built up to s_max={self.s_max}, got {s[high][0]}")

    @staticmethod
    def _finite(value: np.ndarray, radius: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the check each Ball makes on construction, for the whole array
        if not (np.isfinite(value).all() and np.isfinite(radius).all() and (radius >= 0.0).all()):
            raise ValueError("sieve function value or radius is not finite")
        return value, radius

    def f1_array(self, s) -> tuple[np.ndarray, np.ndarray]:
        """f1 values and radii at every s in (0, s_max]."""
        s = np.asarray(s, dtype=np.float64)
        self._check("f1", s, s > 0.0, "> 0")
        value, radius = s.copy(), np.zeros_like(s)  # f1 = s exactly on (0, 2]
        past = s > 2.0
        value[past], radius[past] = self._piecewise(self._f1_pieces[1:], s[past])
        return self._finite(value, radius)

    def F1_array(self, s) -> tuple[np.ndarray, np.ndarray]:
        """F1 values and radii at every s in [0, s_max]."""
        s = np.asarray(s, dtype=np.float64)
        self._check("F1", s, s >= 0.0, ">= 0")
        value = self._two_eg - s  # F1 = 2 e^gamma - s on [0, 3]
        radius = np.full_like(s, self._F1_pieces[0].radius)
        past = s > 3.0
        value[past], radius[past] = self._piecewise(self._F1_pieces[1:], s[past])
        return self._finite(value, radius)

    def f1(self, s: float) -> Ball:
        value, radius = self.f1_array([s])
        return Ball(float(value[0]), float(radius[0]))

    def F1(self, s: float) -> Ball:
        value, radius = self.F1_array([s])
        return Ball(float(value[0]), float(radius[0]))


@lru_cache(maxsize=8)
def get_system(s_max: float = 12.0) -> SieveFunctionSystem:
    return SieveFunctionSystem(s_max=s_max)


def eval_f1(s: float, *, s_max: float = 12.0) -> Ball:
    """f1(s) as a Ball; s must lie in (0, s_max]."""
    return get_system(s_max).f1(s)


def eval_F1(s: float, *, s_max: float = 12.0) -> Ball:
    """F1(s) as a Ball; s must lie in [0, s_max]."""
    return get_system(s_max).F1(s)


# -- tabulation ----------------------------------------------------------------


@dataclass
class SieveFunctionGrid:
    """Tabulated f1/F1 with per-node radii at exactly the nodes the `sievefun`
    command exports; a value between nodes is read from the pieces."""

    s: np.ndarray
    f1_values: np.ndarray
    f1_radii: np.ndarray
    F1_values: np.ndarray
    F1_radii: np.ndarray

    def __len__(self) -> int:
        return len(self.s)


def build_grid(s_max: float = 12.0, step: float = 1e-3) -> SieveFunctionGrid:
    """Tabulate f1/F1 at s = step, 2*step, ..., s_max (f1 is undefined at
    s = 0), with the array evaluators, one Chebyshev piece at a time."""
    if not (1e-4 <= step <= 0.1):
        raise ConfigError(f"step must be in [1e-4, 0.1], got {step}")
    system = get_system(s_max)  # checks s_max
    n = int(math.floor(s_max / step + 1e-9))
    s = np.arange(1, n + 1, dtype=np.float64) * step
    while len(s) and float(s[-1]) > s_max:
        s = s[:-1]
    return SieveFunctionGrid(s, *system.f1_array(s), *system.F1_array(s))
