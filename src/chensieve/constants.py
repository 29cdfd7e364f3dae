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
from functools import cache

from .ball import (
    Ball,
    ball_fsum,
    ball_literal,
    ball_log,
    ball_pow,
    ball_sqrt,
    exp_gamma_ball,
    exp_neg_gamma_ball,
    gamma_ball,
    up,
)
from .errors import CapacityError, ChensieveError
from .primes import PrimeTable, build_prime_table
from .quadrature import integrate

# Prefactors imported as pinned decimal literals (not re-derived here), each
# the Ball of the float nearest it.
F1_PREFACTOR = Ball.near(Fraction("255.84406"))
F1_UPPER_PREFACTOR = Ball.near(Fraction("298.87013"))
LOWER_SQRT_TERM = Ball.near(Fraction("767.7471"))
UPPER_SQRT_TERM = Ball.near(Fraction("993.2507"))
TRIPLE_SQRT_TERM = Ball.near(Fraction("860.16295"))
FINAL_SQRT_TERM_A = Ball.near(Fraction("496.6254"))
FINAL_SQRT_TERM_B = Ball.near(Fraction("430.0815"))
EPS0_COEFF = Ball.near(Fraction("0.5198"))
LOWER_CHAIN_TERM = Ball.near(Fraction("736.33191"))
UPPER_CHAIN_TERM = Ball.near(Fraction("845.33239"))
HEADLINE_COEFF = 0.007  # the threshold; a float above 7/1000
PI_STR = "3.141592653589793238462643383279502884"


@cache
def _eta_weights(n: int) -> tuple[tuple[Ball, ...], Ball]:
    """The Balls of (-1)^k (d_k - d_n) for k < n and of d_n, the part of
    `zeta`'s series that does not depend on s: built once for c1's three
    zeta values."""
    t = Fraction(1, n)  # t_0 = (n-1)!/n!
    acc = t
    d = [n * acc]
    for i in range(1, n + 1):
        t = t * 4 * (n + i - 1) * (n - i + 1) / ((2 * i) * (2 * i - 1))
        acc += t
        d.append(n * acc)
    dn = d[n]
    return tuple(Ball.near((-1) ** k * (d[k] - dn)) for k in range(n)), Ball.near(dn)


def zeta(s: int, n: int = 48) -> Ball:
    """Riemann zeta at an integer s >= 2 via accelerated eta-series.

    Chebyshev-accelerated alternating series:
        zeta(s) = -1/(d_n (1 - 2^{1-s})) * sum_{k<n} (-1)^k (d_k - d_n)/(k+1)^s
    where d_k = n * sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!), with remainder
    bounded by 3 / ((3 + sqrt 8)^n |1 - 2^{1-s}|).  n = 48 pushes that far
    below one ulp; the d_k are exact Fractions, rounded through `Ball.near`
    (`_eta_weights`).
    """
    if s < 2:
        raise ValueError(f"zeta helper needs integer s >= 2, got {s}")
    weights, dn = _eta_weights(n)
    terms = [w / Ball.near((k + 1) ** s) for k, w in enumerate(weights)]
    total = ball_fsum(terms)
    scale = 1.0 - 2.0 ** (1 - s)  # exact
    remainder = 3.0 / ((3.0 + math.sqrt(8.0)) ** n * abs(scale))
    return -total / (dn * scale) + Ball(0.0, up(remainder))


def compute_c0(table: PrimeTable) -> Ball:
    """Large-sieve prefactor built from an exact Chebyshev psi value at 113."""
    if table.limit < 113:
        raise CapacityError("c0 needs a prime table covering [2, 113]")
    # psi(113): log p once for each power of p up to 113
    ps = table.primes_between(2, 114).tolist()
    psi_ball = ball_fsum([ball_log(p) for p in ps for k in range(1, 7) if p**k <= 113])
    log2 = ball_log(2.0)
    log43 = ball_log(4.0) - ball_log(3.0)
    a = ball_pow(2.0, 6.5) / (9.0 * ball_literal(PI_STR) * log2)
    b = Ball.near(Fraction(1, 3)) + 3.0 / (2.0 * log2)
    c = (2.0 + ball_log(log2 / log43)) / log2
    d = ball_sqrt(psi_ball / 113.0)
    return a * b * c * d


def compute_c1() -> Ball:
    """zeta(2) zeta(3) / zeta(6)."""
    return zeta(2) * zeta(3) / zeta(6)


@cache
def compute_c2() -> Ball:
    """Window integral int_{1/8}^{1/3} log(2 - 3 b) / (b (1 - b)) db + 1e-8,
    computed once per process; the ledger and the bound stages share it.

    The additive 1e-8 pad is part of the constant's definition and is
    treated as exact.
    """
    value, err = integrate(
        lambda b: math.log(2.0 - 3.0 * b) / (b * (1.0 - b)), 0.125, 1.0 / 3.0
    )
    return Ball(value, err) + Ball.exact(1e-8)


def eps0(N_loglog: float) -> Ball:
    """1 / max{57, loglog N}; the caller supplies loglog N directly."""
    return 1.0 / Ball.exact(max(57.0, N_loglog))


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
    compute("c2", compute_c2, 0.36309, "adaptive quadrature + 1e-8 pad")
    compute(
        "U_4",
        lambda: singular_series_UN(4, trunc, table),
        None,
        f"singular series, truncated at {trunc}",
    )
    compute("eps0_floor", lambda: eps0(36.0), None, "1/max(57, 36) = 1/57")
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
        ("lit_headline_coeff", Ball.near(Fraction("0.007"))),
    ]:
        led.add(name, value, None, "pinned literal")
    return led
