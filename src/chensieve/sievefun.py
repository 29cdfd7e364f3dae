"""Linear-sieve error functions f1, F1 via their delay differential system.

The pair satisfies
    F1(s) = 2 e^gamma - s            on 0 <= s <= 3,
    F1'(s) = -f1(s-1)/(s-1)          for s >= 3,
    f1'(s) = -F1(s-1)/(s-1)          for s >= 2,
with the boundary convention f1(s) = s on (0, 2] (equivalent to the
classical pair f = 0, F = 2 e^gamma / s below the crossover under
f1(s) = s (1 - f(s)), F1(s) = s (F(s) - 1)).

The solver marches unit interval by unit interval.  On each interval the
integrand references only the previous interval, which is already held as a
Chebyshev polynomial, so the new piece is the exact antiderivative of a
Chebyshev interpolant: dense, cheap to evaluate, and with an interpolation
tail that is easy to estimate.  Each interval's partial integral is
cross-checked against an independent adaptive Gauss-Kronrod pass and the
difference is folded into the piece radius, together with the propagated
radius of the delayed source.

Evaluation works on arrays: a binary search over the piece edges assigns
each point to its piece, and each piece's polynomial runs once on all of its
points.  The scalar `f1`/`F1` are one-point calls of that path, so the
pieces are the single evaluator of f1 and F1: the tabulated grid holds only
their values and radii at its nodes, and a value between nodes is read from
the pieces directly.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import Chebyshev

from .ball import EPS, Ball, exp_gamma_ball
from .errors import ConfigError, DomainError
from .quadrature import integrate

S_MAX_CAP = 12.0


@dataclass(frozen=True)
class _Piece:
    lo: float
    hi: float
    poly: Chebyshev
    radius: float  # uniform enclosure radius valid on [lo, hi]

    def __call__(self, s):
        # works elementwise on arrays too (quadrature and interpolation
        # both probe the piece in vector form)
        return self.poly(s)


def _interp_tail(poly: Chebyshev) -> float:
    """Crude uniform bound on the truncation error of a Chebyshev interpolant.

    For the steadily decaying coefficient sequences produced by these smooth
    integrands, the discarded tail is comparable to the last kept
    coefficients; a 10x safety factor keeps the estimate honest.
    """
    c = np.abs(poly.coef)
    tail = float(np.sum(c[-4:]))
    return 10.0 * max(tail, EPS * float(np.max(c)))


class SieveFunctionSystem:
    """Dense evaluator for f1 and F1 on (0, s_max]."""

    def __init__(self, s_max: float = 12.0, tol: float = 1e-12, degree: int = 48):
        if not (3.0 <= s_max <= S_MAX_CAP):
            raise ConfigError(f"s_max must be in [3, {S_MAX_CAP}], got {s_max}")
        if not (1e-15 <= tol <= 1e-6):
            raise ConfigError(f"tol must be in [1e-15, 1e-6], got {tol}")
        self.s_max = float(s_max)
        self.tol = float(tol)
        self.degree = int(degree)

        two_eg = exp_gamma_ball() * 2.0
        self._two_eg = two_eg.value
        # Closed-form seeds: f1 linear on [0, 2]; F1 linear on [0, 3].
        self._f1_pieces: list[_Piece] = [
            _Piece(0.0, 2.0, Chebyshev([1.0, 1.0], domain=[0.0, 2.0]), 0.0)
        ]
        self._F1_pieces: list[_Piece] = [
            _Piece(
                0.0,
                3.0,
                Chebyshev([two_eg.value - 1.5, -1.5], domain=[0.0, 3.0]),
                two_eg.radius,
            )
        ]
        self._build()

    # -- construction ---------------------------------------------------------

    def _march(self, start_value: float, start_radius: float, k: int, source) -> _Piece:
        """Build V on [k, k+1] with V(s) = V(k) - int_k^s source(t-1)/(t-1) dt."""
        lo, hi = float(k), float(k + 1)
        src_piece, src_radius = source

        def integrand(t: float) -> float:
            return src_piece(t - 1.0) / (t - 1.0)

        p_g = Chebyshev.interpolate(integrand, self.degree, domain=[lo, hi])
        partial = p_g.integ(lbnd=lo)
        poly = -partial + start_value

        gk_value, gk_err = integrate(integrand, lo, hi, self.tol)
        cross = abs(float(partial(hi)) - gk_value) + gk_err
        # The delayed source's radius integrates against 1/(t-1).
        propagated = src_radius * math.log(k / (k - 1.0))
        radius = (
            start_radius
            + propagated
            + _interp_tail(p_g)
            + cross
            + 8.0 * EPS * (abs(start_value) + 1.0)
        )
        return _Piece(lo, hi, poly, radius)

    def _build(self) -> None:
        top = int(math.ceil(self.s_max))
        # f1 on [2, 3] integrates the closed-form F1 over [1, 2].
        F1_seed = self._F1_pieces[0]
        self._f1_pieces.append(
            self._march(2.0, 0.0, 2, (F1_seed, F1_seed.radius))
        )
        for k in range(3, top):
            f1_prev = self._f1_pieces[-1]  # covers [k-1, k]
            F1_prev = self._F1_pieces[-1]  # covers [k-1, k] (or [0,3] for k=3)
            F1_start = self._F1_pieces[-1]
            F1_val = float(F1_start.poly(float(k)))
            self._F1_pieces.append(
                self._march(F1_val, F1_start.radius, k, (f1_prev, f1_prev.radius))
            )
            f1_val = float(self._f1_pieces[-1].poly(float(k)))
            self._f1_pieces.append(
                self._march(f1_val, self._f1_pieces[-1].radius, k, (F1_prev, F1_prev.radius))
            )

    # -- evaluation -------------------------------------------------------------

    @staticmethod
    def _piecewise(pieces: list[_Piece], s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and radii of contiguous pieces at every s.  Each s goes to
        the first piece with lo <= s <= hi (so s = k lands on [k-1, k]), the
        last piece past the end; each piece's polynomial runs once on all of
        its nodes."""
        value = np.empty_like(s)
        radius = np.empty_like(s)
        his = np.array([piece.hi for piece in pieces])
        which = np.minimum(np.searchsorted(his, s, side="left"), len(pieces) - 1)
        for i, piece in enumerate(pieces):
            on = which == i
            value[on] = piece.poly(s[on])
            radius[on] = piece.radius
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
def get_system(s_max: float = 12.0, tol: float = 1e-12) -> SieveFunctionSystem:
    return SieveFunctionSystem(s_max=s_max, tol=tol)


def eval_f1(s: float, *, s_max: float = 12.0, tol: float = 1e-12) -> Ball:
    """f1(s) as a Ball; s must lie in (0, s_max]."""
    return get_system(s_max, tol).f1(s)


def eval_F1(s: float, *, s_max: float = 12.0, tol: float = 1e-12) -> Ball:
    """F1(s) as a Ball; s must lie in [0, s_max]."""
    return get_system(s_max, tol).F1(s)


# -- tabulation ----------------------------------------------------------------


@dataclass
class SieveFunctionGrid:
    """Tabulated f1/F1 on a uniform s-grid with per-node radii.

    The grid holds exactly the nodes that `write_grid_csv` exports; a value
    between nodes is read from the pieces (`eval_f1`/`eval_F1`).
    """

    s: np.ndarray
    f1_values: np.ndarray
    f1_radii: np.ndarray
    F1_values: np.ndarray
    F1_radii: np.ndarray

    def __len__(self) -> int:
        return len(self.s)


def build_grid(
    s_max: float = 12.0, step: float = 1e-3, *, tol: float = 1e-12
) -> SieveFunctionGrid:
    """Tabulate f1/F1 at s = step, 2*step, ..., s_max.

    The first node sits at s = step because f1 is undefined at s = 0.  Values
    and radii come from the array evaluators of the system, one Chebyshev
    piece at a time.
    """
    if not (1e-4 <= step <= 0.1):
        raise ConfigError(f"step must be in [1e-4, 0.1], got {step}")
    if not (3.0 <= s_max <= S_MAX_CAP):
        raise ConfigError(f"s_max must be in [3, {S_MAX_CAP}], got {s_max}")
    system = get_system(s_max, tol)
    n = int(math.floor(s_max / step + 1e-9))
    s = np.arange(1, n + 1, dtype=np.float64) * step
    while len(s) and float(s[-1]) > s_max:
        s = s[:-1]
    return SieveFunctionGrid(s, *system.f1_array(s), *system.F1_array(s))


def write_grid_csv(grid: SieveFunctionGrid, fh: io.TextIOBase) -> None:
    """Export `s,f1,f1_radius,F1,F1_radius` rows at 17 significant digits,
    formatted from Python floats and written in one call."""
    columns = (grid.s, grid.f1_values, grid.f1_radii, grid.F1_values, grid.F1_radii)
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    fh.write(
        "s,f1,f1_radius,F1,F1_radius\n"
        + "".join(map(row.__mod__, zip(*(c.tolist() for c in columns))))
    )
