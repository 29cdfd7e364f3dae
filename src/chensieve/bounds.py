"""Assembly of the explicit coefficient chains and lemma-level bound formulas.

Everything is parameterized by loglog N (and log N = exp(loglog N)); N itself
is never materialized because the target range N > exp(exp(36)) overflows
every native format, while all the formulas depend on N only through log N.

The three bound stages are numbered 4 (lower bound for the sifted base set),
5 (upper bound for the prime-multiple subsets), and 6 (upper bound for the
triple-product companion set); `final_coefficient` combines them into the
headline coefficient that must clear 0.007.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from .ball import EPS, Ball, exp_gamma_ball
from .constants import (
    EPS0_COEFF,
    FINAL_SQRT_TERM_A,
    FINAL_SQRT_TERM_B,
    HEADLINE_COEFF,
    LOWER_SQRT_TERM,
    TRIPLE_SQRT_TERM,
    UPPER_SQRT_TERM,
    compute_c2,
    eps0,
)
from .errors import ConfigError, DomainError
from .quadrature import integrate, integrate_ball

DEFAULT_EPSILON = math.exp(-30.0)  # inside the allowed window (e^-100, e^-20)
HYPOTHESIS_FLOOR_LOGLOG_N = 36.0


@lru_cache(maxsize=4)
def _c2(tol: float = 1e-12) -> Ball:
    return compute_c2(tol)


@dataclass
class BoundReport:
    """Term-by-term breakdown of one bound stage.

    `total` is the signed sum of `terms`.  Labels state each term's
    normalization where it differs from the stage's main one.
    """

    theorem_id: str
    terms: list[tuple[str, Ball]]
    total: Ball
    inputs: dict
    annotations: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "inputs": dict(self.inputs),
            "terms": [
                {"label": label, "value": b.value, "radius": b.radius}
                for label, b in self.terms
            ],
            "total": {"value": self.total.value, "radius": self.total.radius},
            "annotations": dict(self.annotations),
        }


def _report(theorem_id: str, terms: list[tuple[str, Ball]], inputs: dict, annotations=None) -> BoundReport:
    total = Ball.exact(0.0)
    for _, b in terms:
        total = total + b
    return BoundReport(theorem_id, terms, total, inputs, annotations or {})


def remainder_level_window(loglog_N: float) -> dict:
    """Derived inputs: log D lower bound and the s1 sieve-parameter window.

    D = sqrt(x2) / (k1 log^10 x2) with x2 = e^-100 N / log^4 N; since the
    excluded modulus k1 is only known to be below log^10 x2, the window
    4 - 8(32 loglog N + 50)/log N < s1 < 4 is reported instead of a point.
    """
    logN = _log_N(loglog_N)
    log_x2 = logN - 100.0 - 4.0 * loglog_N
    return {
        "loglog_N": loglog_N,
        "log_N": logN,
        "log_z": logN / 8.0,
        "log_y": logN / 3.0,
        "log_x2": log_x2,
        "log_D_lower": 0.5 * logN - 22.0 * loglog_N - 50.0,
        "s1_lower": 4.0 - 8.0 * (32.0 * loglog_N + 50.0) / logN,
        "s1_upper": 4.0,
    }


def _sieve_value_annotations(loglog_N: float) -> dict:
    from .sievefun import eval_F1, eval_f1

    window = remainder_level_window(loglog_N)
    ann = dict(window)
    ann["f1_at_3.9999"] = eval_f1(3.9999).value
    ann["F1_at_3.9999"] = eval_F1(3.9999).value
    s1 = window["s1_lower"]
    if 0.0 < s1 <= 12.0:
        ann["f1_at_s1_lower"] = eval_f1(s1).value
        ann["F1_at_s1_lower"] = eval_F1(s1).value
    return ann


def _log_N(loglog_N: float) -> float:
    """log N = exp(loglog N), for loglog N >= 1 whose exponential is a double."""
    if not loglog_N >= 1.0:
        raise DomainError(f"loglog_N must be >= 1, got {loglog_N}")
    try:
        logN = math.exp(loglog_N)
    except OverflowError:
        logN = math.inf
    if math.isinf(logN):
        raise DomainError(f"loglog_N = {loglog_N} is too large: log N overflows")
    return logN


def _check_epsilon(epsilon: float) -> None:
    if not (math.exp(-100.0) < epsilon < 0.01):
        raise ConfigError(
            f"epsilon must lie in (e^-100, 0.01), got {epsilon}"
        )


def theorem4_coeff(loglog_N: float, *, with_annotations: bool = False) -> BoundReport:
    """Coefficient of U_N |A| / log N in the sifted-set lower bound:
    4 e^gamma log 3 - 0.5198 eps0(N) - 767.7471 / sqrt(log N)."""
    logN = _log_N(loglog_N)
    eg = exp_gamma_ball()
    terms = [
        ("4*exp_gamma*log3", 4.0 * eg * math.log(3.0) * Ball(1.0, 2.0 * EPS)),
        ("-0.5198*eps0", Ball.exact(-EPS0_COEFF) * eps0(loglog_N)),
        (
            "-767.7471/sqrt_logN",
            Ball.exact(-LOWER_SQRT_TERM) / Ball(math.sqrt(logN), 2.0 * EPS * math.sqrt(logN)),
        ),
    ]
    ann = _sieve_value_annotations(loglog_N) if with_annotations else {}
    return _report("T4_lower", terms, {"loglog_N": loglog_N}, ann)


def theorem5_coeff(loglog_N: float) -> BoundReport:
    """Coefficient of U_N |A| / log N in the prime-multiple sum upper bound:
    4 e^gamma log 6 (1 + eps0(N)) + 993.2507 / sqrt(log N)."""
    logN = _log_N(loglog_N)
    eg = exp_gamma_ball()
    terms = [
        (
            "4*exp_gamma*log6*(1+eps0)",
            4.0 * eg * math.log(6.0) * (1.0 + eps0(loglog_N)) * Ball(1.0, 4.0 * EPS),
        ),
        (
            "+993.2507/sqrt_logN",
            Ball.exact(UPPER_SQRT_TERM) / Ball(math.sqrt(logN), 2.0 * EPS * math.sqrt(logN)),
        ),
    ]
    return _report("T5_upper", terms, {"loglog_N": loglog_N})


def theorem6_coeff(loglog_N: float, epsilon: float) -> BoundReport:
    """Coefficient of N U_N / log^2 N in the triple-product upper bound:
    c2 (1+eps) (4 e^gamma (1+eps0(N)) + 860.16295/log^{3/2} N), plus the
    remainder e^-138/(eps log N) normalized per N / log^2 N (no U_N factor).
    """
    logN = _log_N(loglog_N)
    _check_epsilon(epsilon)
    try:
        logN_15 = logN ** 1.5
    except OverflowError:
        raise DomainError(f"loglog_N = {loglog_N} is too large: log^1.5 N overflows") from None
    eg = exp_gamma_ball()
    c2e = _c2() * (1.0 + epsilon)
    terms = [
        (
            "c2*(1+eps)*4*exp_gamma*(1+eps0)",
            c2e * 4.0 * eg * (1.0 + eps0(loglog_N)),
        ),
        (
            "c2*(1+eps)*860.16295/logN^1.5",
            c2e * TRIPLE_SQRT_TERM / Ball(logN_15, 4.0 * EPS * logN_15),
        ),
        (
            "remainder_exp(-138)/(eps*logN) [per N/log^2N]",
            Ball.exact(math.exp(-138.0)) / (epsilon * Ball(logN, 2.0 * EPS * logN)),
        ),
    ]
    return _report(
        "T6_upper", terms, {"loglog_N": loglog_N, "epsilon": epsilon}
    )


def final_coefficient(
    loglog_N: float,
    epsilon: float = DEFAULT_EPSILON,
    *,
    c2_override: float | None = None,
) -> BoundReport:
    """The headline coefficient: pi_2(N) log N / (U_N |A|) exceeds

        e^gamma (4 log 3 - 2 log 6 - 2 c2 (1+eps))
        - eps0(N) (2 e^gamma (c2 (1+eps) + log 6) + 0.5198)
        - (767.7471 + 496.6254 + 430.0815 c2 (1+eps)) / sqrt(log N)
        - 1/log N.

    `c2_override` substitutes a worst-case value for c2 (e.g. its pinned
    upper bound) to probe sensitivity.
    """
    logN = _log_N(loglog_N)
    _check_epsilon(epsilon)
    sqrt_logN = Ball(math.sqrt(logN), 2.0 * EPS * math.sqrt(logN))
    eg = exp_gamma_ball()
    e0 = eps0(loglog_N)
    c2 = Ball.exact(c2_override) if c2_override is not None else _c2()
    c2e = c2 * (1.0 + epsilon)
    log3 = Ball(math.log(3.0), 2.0 * EPS)
    log6 = Ball(math.log(6.0), 2.0 * EPS)
    terms = [
        ("exp_gamma*(4log3-2log6-2c2(1+eps))", eg * (4.0 * log3 - 2.0 * log6 - 2.0 * c2e)),
        (
            "-eps0*(2*exp_gamma*(c2(1+eps)+log6)+0.5198)",
            Ball.exact(-e0) * (2.0 * eg * (c2e + log6) + EPS0_COEFF),
        ),
        (
            "-(767.7471+496.6254+430.0815*c2(1+eps))/sqrt_logN",
            -(
                (LOWER_SQRT_TERM + FINAL_SQRT_TERM_A + FINAL_SQRT_TERM_B * c2e)
                / sqrt_logN
            ),
        ),
        ("-1/logN", Ball.exact(-1.0) / Ball(logN, 2.0 * EPS * logN)),
    ]
    report = _report(
        "FINAL", terms, {"loglog_N": loglog_N, "epsilon": epsilon}
    )
    report.annotations["threshold"] = HEADLINE_COEFF
    report.annotations["clears_threshold"] = report.total.strictly_above(HEADLINE_COEFF)
    report.annotations["bracket_note"] = (
        "sqrt-term bracket combines the stage-4/5 prefactors with "
        "430.0815*c2(1+eps); the stage-6 860.16295/log^1.5N term is absorbed "
        "upstream of this display"
    )
    return report


@dataclass
class ThresholdReport:
    epsilon: float
    crossing_loglog_N: float | None
    hypothesis_floor_loglog_N: float
    note: str

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "crossing_loglog_N": self.crossing_loglog_N,
            "hypothesis_floor_loglog_N": self.hypothesis_floor_loglog_N,
            "note": self.note,
        }


def threshold_report(epsilon: float = DEFAULT_EPSILON) -> ThresholdReport:
    """Locate where the final coefficient crosses the 0.007 threshold.

    Bisects over loglog N.  The crossing reported here is a property of the
    coefficient arithmetic alone; the exp(exp(36)) floor quoted alongside is
    imposed by the validity hypotheses of the underlying prime-distribution
    error estimates, not by this arithmetic, and both numbers are reported.
    """
    _check_epsilon(epsilon)

    def gap(ll: float) -> float:
        return final_coefficient(ll, epsilon).total.value - HEADLINE_COEFF

    lo, hi = 8.0, HYPOTHESIS_FLOOR_LOGLOG_N
    crossing: float | None
    if gap(hi) <= 0.0:
        crossing = None
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if gap(mid) > 0.0:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-12 * max(1.0, hi):
                break
        crossing = 0.5 * (lo + hi)
    note = (
        "the coefficient arithmetic crosses the threshold at the reported "
        "loglog N; the exp(exp(36)) floor comes from the hypotheses of the "
        "prime-distribution error estimates feeding the bound chain, not "
        "from this arithmetic"
    )
    return ThresholdReport(epsilon, crossing, HYPOTHESIS_FLOOR_LOGLOG_N, note)


def chen_lower_bound(loglog_N: float, UN: Ball) -> Ball:
    """Per-N normalized headline bound 0.007 U_N / log^2 N (coefficient of N).

    Past loglog N ~ 351.7 (for U_N = 1) the quotient is subnormal and its
    radius soon rounds to zero, so it no longer encloses anything; that
    raises instead.
    """
    _log_N(loglog_N)
    try:
        log2N = math.exp(2.0 * loglog_N)
    except OverflowError:
        raise DomainError(f"loglog_N = {loglog_N} is too large: log^2 N overflows") from None
    bound = Ball.exact(HEADLINE_COEFF) * UN / Ball(log2N, 2.0 * EPS * log2N)
    if not (abs(bound.value) >= sys.float_info.min and bound.radius > 0.0):
        raise DomainError(f"loglog_N = {loglog_N} is too large: the bound {bound} underflows")
    return bound


# -- window integrals ----------------------------------------------------------


def H_value(alpha: float, tol: float = 1e-12) -> Ball:
    """(log N) * H(N^alpha) = int_{1/3}^{(1-alpha)/2} db / (b (1 - alpha - b)).

    H is the inner window integral of the triple-product set estimate; its
    closed form is log(2 - 3 alpha)/(1 - alpha), and integrating
    H_value(alpha)/alpha over [1/8, 1/3] reproduces c2 minus its 1e-8 pad.
    """
    if not (0.125 - 1e-12 <= alpha <= 1.0 / 3.0 + 1e-12):
        raise DomainError(f"alpha must lie in [1/8, 1/3], got {alpha}")
    upper = (1.0 - alpha) / 2.0
    if upper - 1.0 / 3.0 <= 4.0 * EPS:
        return Ball(0.0, 0.0)
    return integrate_ball(
        lambda b: 1.0 / (b * (1.0 - alpha - b)), 1.0 / 3.0, upper, tol
    )


def H_at_z(tol: float = 1e-12) -> Ball:
    """H_value at alpha = 1/8 (the sifted level z = N^{1/8});
    closed form (8/7) log(13/8)."""
    return H_value(0.125, tol)


def partial_summation_bound(
    f: Callable[[float], float],
    g_deriv: Callable[[float], float],
    E: float,
    w: float,
    z: float,
    tol: float = 1e-12,
) -> float:
    """int_w^z f(t) g'(t) dt + E * max(f(w), f(z)).

    Implements the partial-summation majorization for sums of f against a
    function of bounded increments; f must be monotone on [w, z] (the caller
    asserts direction) and g is supplied through its derivative.
    """
    if w >= z:
        raise DomainError(f"need w < z, got w={w}, z={z}")
    value, _ = integrate(lambda t: f(t) * g_deriv(t), w, z, tol)
    return value + E * max(f(w), f(z))


# -- right-hand-side magnitude evaluators ---------------------------------------

LEMMA_RHS_SELECTORS = (
    "pi_ap_single",  # e^-14 / log^4 x      (single-modulus AP error, per x)
    "pi_ap_summed",  # e^-8 / log^3 x       (modulus-averaged AP error, per x)
    "bilinear_form",  # e^-144 / log^4 Y    (bilinear discrepancy, per XY)
    "residual_remainder",  # 0.19 / log^2.3 N (largest single remainder, per N)
    "psi_ap_raw",  # 0.000012 / log^8 x + x^{beta0-1}/beta0 (per x/phi(k))
)


def lemma_rhs_evaluators(
    loglog_x: float,
    selector: str,
    *,
    siegel_beta0: float | None = None,
) -> Ball:
    """Stated right-hand-side bound values, normalized per x, N, or XY.

    These are magnitude evaluators only: the hypotheses of the bounds
    (x > exp(exp(32)) and the like) are not checkable at desk scale and no
    claim is made about them.  `siegel_beta0`, if given, adds the
    exceptional-zero term x^{beta0-1}/beta0 to the psi_ap_raw selector;
    there is no computational realization of that zero here, so the value
    is purely formula-level.
    """
    if loglog_x <= 0.0:
        raise DomainError(f"loglog_x must be positive, got {loglog_x}")
    logx = math.exp(loglog_x)
    pad = Ball(1.0, 8.0 * EPS)
    if selector == "pi_ap_single":
        return Ball.exact(math.exp(-14.0)) / logx ** 4 * pad
    if selector == "pi_ap_summed":
        return Ball.exact(math.exp(-8.0)) / logx ** 3 * pad
    if selector == "bilinear_form":
        return Ball.exact(math.exp(-144.0)) / logx ** 4 * pad
    if selector == "residual_remainder":
        return Ball.exact(0.19) / logx ** 2.3 * pad
    if selector == "psi_ap_raw":
        base = Ball.exact(0.000012) / logx ** 8 * pad
        if siegel_beta0 is not None:
            if not (0.5 < siegel_beta0 < 1.0):
                raise DomainError(
                    f"exceptional zero must lie in (1/2, 1), got {siegel_beta0}"
                )
            base = base + Ball.exact(
                math.exp((siegel_beta0 - 1.0) * logx) / siegel_beta0
            ) * pad
        return base
    raise DomainError(
        f"unknown selector {selector!r}; expected one of {LEMMA_RHS_SELECTORS}"
    )
