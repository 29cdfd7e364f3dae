"""The explicit-constants ledger.

Every named constant of the bound chain is re-derived here as a Ball with a
provenance string, and checked against its pinned upper bound where one
exists.  Constants that originate outside this package (the sieve-theorem
prefactors 255.84406 and friends) are stored as exact literals and marked
as such; they are inputs, not results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .ball import (
    EPS,
    Ball,
    ball_log,
    ball_sqrt,
    exp_gamma_ball,
    exp_neg_gamma_ball,
    gamma_ball,
    validate_gamma_literal,
)
from .errors import CapacityError, ChensieveError
from .primes import PrimeTable, build_prime_table, chebyshev

# Checked once per process, on first import of this module.
validate_gamma_literal()

# Prefactors imported as exact pinned literals (not re-derived here).
F1_PREFACTOR = 255.84406
F1_UPPER_PREFACTOR = 298.87013
LOWER_SQRT_TERM = 767.7471
UPPER_SQRT_TERM = 993.2507
TRIPLE_SQRT_TERM = 860.16295
FINAL_SQRT_TERM_A = 496.6254
FINAL_SQRT_TERM_B = 430.0815
EPS0_COEFF = 0.5198
HEADLINE_COEFF = 0.007
LOWER_CHAIN_TERM = 736.33191
UPPER_CHAIN_TERM = 845.33239


def zeta(s: int, n: int = 48) -> Ball:
    """Riemann zeta at an integer s >= 2 via accelerated eta-series.

    Chebyshev-accelerated alternating series:
        zeta(s) = -1/(d_n (1 - 2^{1-s})) * sum_{k<n} (-1)^k (d_k - d_n)/(k+1)^s
    where d_k = n * sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!), with remainder
    bounded by 3 / ((3 + sqrt 8)^n |1 - 2^{1-s}|).  n = 48 pushes that far
    below one ulp; the d_k are kept exact.
    """
    if s < 2:
        raise ValueError(f"zeta helper needs integer s >= 2, got {s}")
    t = Fraction(1, n)  # t_0 = (n-1)!/n!
    acc = t
    d = [n * acc]
    for i in range(1, n + 1):
        t = t * 4 * (n + i - 1) * (n - i + 1) / ((2 * i) * (2 * i - 1))
        acc += t
        d.append(n * acc)
    dn = d[n]
    total = math.fsum(
        float((-1) ** k * (d[k] - dn)) / float((k + 1) ** s) for k in range(n)
    )
    scale = 1.0 - 2.0 ** (1 - s)
    value = -total / (float(dn) * scale)
    remainder = 3.0 / ((3.0 + math.sqrt(8.0)) ** n * abs(scale))
    rounding = (2.0 * n + 8.0) * EPS * abs(value)
    return Ball(value, remainder + rounding)


def compute_c0(table: PrimeTable) -> Ball:
    """Large-sieve prefactor built from an exact Chebyshev psi value at 113."""
    if table.limit < 113:
        raise CapacityError("c0 needs a prime table covering [2, 113]")
    psi113 = chebyshev(113.0, "psi", table)
    # psi(113) sums ~35 logs, each within 1 ulp of exact.
    psi_ball = Ball(psi113, 80.0 * EPS * psi113)
    log2 = ball_log(Ball.exact(2.0))
    log43 = ball_log(Ball.exact(4.0)) - ball_log(Ball.exact(3.0))
    power = 2.0 ** 6.5
    a = Ball(power, 2.0 * EPS * power) / (
        9.0 * Ball(math.pi, 2.0 * EPS * math.pi) * log2
    )
    b = Ball(1.0 / 3.0, EPS) + 3.0 / (2.0 * log2)
    c = (2.0 + ball_log(log2 / log43)) / log2
    d = ball_sqrt(psi_ball / 113.0)
    return a * b * c * d


def compute_c1() -> Ball:
    """zeta(2) zeta(3) / zeta(6)."""
    return zeta(2) * zeta(3) / zeta(6)


def compute_c2(tol: float = 1e-12) -> Ball:
    """Window integral int_{1/8}^{1/3} log(2 - 3 b) / (b (1 - b)) db + 1e-8.

    The additive 1e-8 pad is part of the constant's definition and is
    treated as exact.
    """
    from .quadrature import integrate

    value, err = integrate(
        lambda b: math.log(2.0 - 3.0 * b) / (b * (1.0 - b)), 0.125, 1.0 / 3.0, tol
    )
    return Ball(value, err) + Ball.exact(1e-8)


def eps0(N_loglog: float) -> float:
    """1 / max{57, loglog N}; the caller supplies loglog N directly."""
    return 1.0 / max(57.0, N_loglog)


@dataclass(frozen=True)
class LedgerEntry:
    name: str
    ball: Ball
    paper_bound: float | None
    provenance: str

    @property
    def passes(self) -> bool:
        return self.paper_bound is None or self.ball.strictly_below(self.paper_bound)


@dataclass
class ConstantsLedger:
    entries: dict[str, LedgerEntry] = field(default_factory=dict)

    def add(
        self,
        name: str,
        ball: Ball,
        bound: float | None = None,
        provenance: str = "derived",
    ) -> None:
        self.entries[name] = LedgerEntry(name, ball, bound, provenance)

    def __getitem__(self, name: str) -> LedgerEntry:
        return self.entries[name]

    @property
    def all_pass(self) -> bool:
        return all(e.passes for e in self.entries.values())

    def rows(self) -> list[dict]:
        """Entry dicts sorted by name (the report order)."""
        out = []
        for name in sorted(self.entries):
            e = self.entries[name]
            out.append(
                {
                    "name": e.name,
                    "value": e.ball.value,
                    "radius": e.ball.radius,
                    "paper_bound": e.paper_bound,
                    "pass": e.passes,
                    "provenance": e.provenance,
                }
            )
        return out


def ledger(
    table: PrimeTable | None = None,
    *,
    truncation_limit: int = 1_000_000,
    tol: float = 1e-12,
) -> ConstantsLedger:
    """Compute every ledger constant and attach its pinned bound."""
    from .primes import singular_series_UN

    if table is None:
        table = build_prime_table(truncation_limit)
    trunc = min(truncation_limit, table.limit)
    led = ConstantsLedger()

    def compute(name: str, fn, bound=None, provenance="derived"):
        try:
            led.add(name, fn(), bound, provenance)
        except ChensieveError:
            raise  # an input out of range stays a usage error
        except Exception as exc:
            raise RuntimeError(f"constant {name!r} failed: {exc}") from exc

    compute("gamma", gamma_ball, None, "literal validated against decimal series")
    compute("exp_gamma", exp_gamma_ball, None, "exp of validated gamma")
    compute("exp_neg_gamma", exp_neg_gamma_ball, None, "exp of validated -gamma")
    compute(
        "c0", lambda: compute_c0(table), 48.83215, "prime-power sum formula at 113"
    )
    compute("c1", compute_c1, 1.9436, "zeta(2)zeta(3)/zeta(6), eta-accelerated")
    compute("c2", lambda: compute_c2(tol), 0.36309, "adaptive quadrature + 1e-8 pad")
    compute(
        "U_4",
        lambda: singular_series_UN(4, trunc, table),
        None,
        f"singular series, truncated at {trunc}",
    )
    compute("eps0_floor", lambda: Ball.exact(eps0(36.0)), None, "1/max(57, 36) = 1/57")
    for name, value in [
        ("lit_f1_prefactor", F1_PREFACTOR),
        ("lit_F1_prefactor", F1_UPPER_PREFACTOR),
        ("lit_lower_sqrt_term", LOWER_SQRT_TERM),
        ("lit_upper_sqrt_term", UPPER_SQRT_TERM),
        ("lit_triple_sqrt_term", TRIPLE_SQRT_TERM),
        ("lit_final_sqrt_term_a", FINAL_SQRT_TERM_A),
        ("lit_final_sqrt_term_b", FINAL_SQRT_TERM_B),
        ("lit_eps0_coeff", EPS0_COEFF),
        ("lit_lower_chain_term", LOWER_CHAIN_TERM),
        ("lit_upper_chain_term", UPPER_CHAIN_TERM),
        ("lit_headline_coeff", HEADLINE_COEFF),
    ]:
        led.add(name, Ball.exact(value), None, "pinned literal")
    return led
