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
  covers forming them in floats.  This holds whatever the interpolant's
  nodes and values rounded, so the Bernstein-ellipse truncation bound
  (Trefethen, ATAP, Thm 8.2, at exact Chebyshev points) is not needed.
- integration: 2u sum |c| for `chebint`'s coefficients (c_{j-1} - c_{j+1})/4j,
  whose errors the constant of integration repeats; E(partial) for that
  constant's Clenshaw value; u |poly_0| for adding the start value.
- evaluation: E(poly), anywhere on the piece.

A piece is bare Chebyshev coefficients with its radius and E, and each step
makes `numpy.polynomial.Chebyshev`'s float operations in their order, so every
bit is the class's.  A binary search over the piece edges sends each point to
its piece, which runs once on all of its points, for `f1`/`F1` and the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebadd, chebmulx, chebpts1, chebvander

from .ball import U, Ball, exp_gamma_ball, up
from .errors import ConfigError, DomainError

S_MAX_CAP = 12.0
DEGREE = 48  # of the Chebyshev interpolant of each piece's integrand


@dataclass(frozen=True)
class _Piece:
    lo: float
    hi: float
    coef: np.ndarray  # Chebyshev coefficients on [lo, hi]
    radius: float  # uniform enclosure radius valid on [lo, hi]
    error: float  # E(coef), the bound on evaluating coef in floats


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


def _value(c: list[float], x: float) -> float:
    """`chebval(x, c)` at one float x, its recurrence on Python floats."""
    *c, c0, c1 = c
    for cj in reversed(c):
        c0, c1 = cj - c1, c0 + c1 * (2 * x)
    return c0 + c1 * x


def _values(piece: _Piece, s: np.ndarray) -> np.ndarray:
    """The piece at every s as `Chebyshev.__call__` maps and evaluates it, in three buffers."""
    lo, hi, c = piece.lo, piece.hi, piece.coef
    x = (-hi - lo) / (hi - lo) + 2.0 / (hi - lo) * s
    x2, (c0, c1, t) = 2 * x, np.empty((3, len(x)))
    c0[:], c1[:] = c[-2], c[-1]
    for cj in c[-3::-1].tolist():
        np.add(c0, np.multiply(c1, x2, out=t), out=t)  # the old c0 + c1 x2
        np.subtract(cj, c1, out=c0)
        c1, t = t, c1
    return np.add(c0, np.multiply(c1, x, out=t), out=t)


def _integ(c: np.ndarray) -> np.ndarray:
    """`chebint(c, lbnd=-1, scl=0.5)`, as `integ(lbnd=k)` calls it on [k, k+1],
    its loop vectorized: each coefficient is set, then has its one term taken off."""
    c = c * 0.5
    out = np.empty(len(c) + 1)
    out[0], out[1] = c[0] * 0, c[0]
    out[2:] = c[1:] / (2 * np.arange(2, len(c) + 1))
    out[1:-2] -= c[2:] / (2 * np.arange(1, len(c) - 1))
    out[0] += 0 - _value(out.tolist(), -1.0)
    return out


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
        f1_seed, F1_seed = np.array([1.0, 1.0]), np.array([two_eg.value - 1.5, -1.5])
        self._f1_pieces = [_Piece(0.0, 2.0, f1_seed, 0.0, _clenshaw(f1_seed))]
        self._F1_pieces = [_Piece(0.0, 3.0, F1_seed, (two_eg - 0.0).radius, _clenshaw(F1_seed))]
        # chebinterpolate's points, halved (exactly) to [k, k+1]'s scale, and its Vandermonde
        nodes = chebpts1(DEGREE + 1)
        self._half_nodes, self._vander_T = 0.5 * nodes, chebvander(nodes, DEGREE).T
        # Each step reads the pieces on [k-1, k], at first the seeds: f1(2) = 2, F1 closed-form to 3
        for k in range(2, int(math.ceil(self.s_max))):
            f1_prev, F1_prev = self._f1_pieces[-1], self._F1_pieces[-1]
            self._f1_pieces.append(self._march(f1_prev, k, F1_prev))
            if k >= 3:
                self._F1_pieces.append(self._march(F1_prev, k, f1_prev))

    def _march(self, prev: _Piece, k: int, src: _Piece) -> _Piece:
        """Continue `prev` onto [k, k+1] by V(s) = V(k) - int_k^s src(t-1)/(t-1) dt."""
        t = (2 * k + 1) / 2 + self._half_nodes - 1.0  # t - 1 at chebinterpolate's points t
        c = np.dot(self._vander_T, _values(src, t) / t)
        c[0] /= DEGREE + 1
        c[1:] /= 0.5 * (DEGREE + 1)
        partial = _integ(c)
        poly = chebadd(-partial, _value(prev.coef.tolist(), 1.0))  # prev's window maps k to 1
        sum_c = float(np.abs(c).sum())
        a = np.zeros(len(c) + 1)  # src(t-1) on [k, k+1]: src's own coefficients,
        if src.lo == k - 1:
            a[: len(src.coef)] = src.coef
        else:  # or a linear seed's, formed exactly
            (c0, c1), lo, hi = map(Fraction, src.coef.tolist()), Fraction(src.lo), Fraction(src.hi)
            a[:2] = float(c0 + c1 * (2 * k - 1 - lo - hi) / (hi - lo)), float(c1 / (hi - lo))
        h = a - ((k - 0.5) * np.append(c, 0.0) + 0.5 * chebmulx(c))
        error = _clenshaw(poly)
        terms = (
            prev.radius + prev.error,  # start
            src.radius * math.log(k / (k - 1.0)),  # propagated
            (np.abs(h).sum() + 4 * U * (np.abs(a).sum() + k * sum_c)) / (k - 1),  # interpolation
            2.0 * U * sum_c + _clenshaw(partial) + U * abs(poly[0]),  # integration
            error,  # evaluation
        )
        return _Piece(float(k), float(k + 1), poly, up(math.fsum(map(up, terms))), error)

    def _evaluate(self, name, s, low_ok, low, pieces, value, radius) -> tuple[np.ndarray, ...]:
        """`value` and `radius` (the seed's) with the marched pieces' past the seed: each
        such s goes to the first piece with lo <= s <= hi, the last past the end."""
        if not low_ok.all():
            raise DomainError(f"{name} needs s {low}, got {s[~low_ok][0]}")
        high = s > self.s_max
        if high.any():
            raise DomainError(f"{name} built up to s_max={self.s_max}, got {s[high][0]}")
        past = np.flatnonzero(s > pieces[0].hi)
        his = np.array([piece.hi for piece in pieces[1:]])
        which = np.minimum(np.searchsorted(his, s[past], side="left"), len(his) - 1)
        for i in np.flatnonzero(np.bincount(which, minlength=len(his))).tolist():
            on, piece = past[which == i], pieces[i + 1]
            value[on] = _values(piece, s[on])
            radius[on] = piece.radius
        # the check each Ball makes on construction, for the whole array
        if not (np.isfinite(value).all() and np.isfinite(radius).all() and (radius >= 0.0).all()):
            raise ValueError("sieve function value or radius is not finite")
        return value, radius

    def f1_array(self, s) -> tuple[np.ndarray, np.ndarray]:
        """f1 values and radii at every s in (0, s_max]; f1 = s exactly on (0, 2]."""
        s = np.asarray(s, dtype=np.float64)
        return self._evaluate("f1", s, s > 0.0, "> 0", self._f1_pieces, s.copy(), np.zeros_like(s))

    def F1_array(self, s) -> tuple[np.ndarray, np.ndarray]:
        """F1 values and radii at every s in [0, s_max]; F1 = 2 e^gamma - s on [0, 3]."""
        s = np.asarray(s, dtype=np.float64)
        radius = np.full_like(s, self._F1_pieces[0].radius)
        return self._evaluate("F1", s, s >= 0.0, ">= 0", self._F1_pieces, self._two_eg - s, radius)

    def f1(self, s: float) -> Ball:
        return Ball(*(float(v[0]) for v in self.f1_array([s])))

    def F1(self, s: float) -> Ball:
        return Ball(*(float(v[0]) for v in self.F1_array([s])))


@lru_cache(maxsize=8)
def get_system(s_max: float = 12.0) -> SieveFunctionSystem:
    return SieveFunctionSystem(s_max=s_max)


def eval_f1(s: float, *, s_max: float = 12.0) -> Ball:
    """f1(s) as a Ball; s must lie in (0, s_max]."""
    return get_system(s_max).f1(s)


def eval_F1(s: float, *, s_max: float = 12.0) -> Ball:
    """F1(s) as a Ball; s must lie in [0, s_max]."""
    return get_system(s_max).F1(s)


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
    s = s[s <= s_max]  # s ascends, so only nodes at its end can pass s_max
    return SieveFunctionGrid(s, *system.f1_array(s), *system.F1_array(s))
