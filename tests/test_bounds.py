import math

import pytest
from scipy import integrate as scipy_integrate

from chensieve.ball import Ball
from chensieve.bounds import (
    DEFAULT_EPSILON,
    H_at_z,
    H_value,
    final_coefficient,
    lemma_rhs_evaluators,
    remainder_level_window,
    theorem4_coeff,
    theorem5_coeff,
    theorem6_coeff,
    threshold_report,
)
from chensieve.constants import compute_c2
from chensieve.errors import ConfigError, DomainError

GAMMA_ORACLE = 0.5772156649015328606065120900824
EG = math.exp(GAMMA_ORACLE)


def final_coefficient_oracle(loglog_N: float, epsilon: float) -> float:
    """Independent one-line evaluation of the headline coefficient."""
    c2, _ = scipy_integrate.quad(
        lambda b: math.log(2.0 - 3.0 * b) / (b * (1.0 - b)), 0.125, 1.0 / 3.0,
        epsabs=1e-14,
    )
    c2 += 1e-8
    e0 = 1.0 / max(57.0, loglog_N)
    logN = math.exp(loglog_N)
    return (
        EG * (4 * math.log(3) - 2 * math.log(6) - 2 * c2 * (1 + epsilon))
        - e0 * (2 * EG * (c2 * (1 + epsilon) + math.log(6)) + 0.5198)
        - (767.7471 + 496.6254 + 430.0815 * c2 * (1 + epsilon)) / math.sqrt(logN)
        - 1.0 / logN
    )


# -- stage 4 -----------------------------------------------------------------------


def test_theorem4_dominant_term():
    rep = theorem4_coeff(36.0)
    label, term = rep.terms[0]
    assert abs(term.value - 4.0 * EG * math.log(3.0)) < 1e-12
    assert 7.82 < term.value < 7.83
    assert rep.total.value > 0.0


def test_theorem4_eps0_term_value():
    rep = theorem4_coeff(36.0)
    _, term = rep.terms[1]
    assert term.value == pytest.approx(-0.5198 / 57.0, abs=1e-15)


def test_theorem4_small_terms_decay_monotonically():
    mags = []
    for ll in (36.0, 50.0, 100.0):
        rep = theorem4_coeff(ll)
        mags.append((abs(rep.terms[1][1].value), abs(rep.terms[2][1].value)))
    assert mags[0][0] >= mags[1][0] >= mags[2][0]
    assert mags[0][1] > mags[1][1] > mags[2][1]


def test_theorem4_total_is_sum_of_terms():
    rep = theorem4_coeff(42.0)
    s = sum(b.value for _, b in rep.terms)
    assert abs(rep.total.value - s) <= rep.total.radius


def test_theorem4_annotations_window():
    rep = theorem4_coeff(36.0)
    ann = rep.annotations
    assert ann["s1_upper"] == 4.0
    assert 3.999999 < ann["s1_lower"] < 4.0
    # f1 decreases through 0.0866 between 3.9999 and 4, so the quoted bound
    # holds at the true s1 (within 1e-11 of 4) but not literally at 3.9999
    assert ann["f1_at_3.9999"] < 0.0867
    assert ann["F1_at_3.9999"] < 0.0866
    assert ann["f1_at_s1_lower"] < 0.0866
    assert ann["F1_at_s1_lower"] < 0.0866
    window = remainder_level_window(36.0)
    assert window["log_D_lower"] == pytest.approx(
        0.5 * math.exp(36.0) - 22.0 * 36.0 - 50.0
    )


def test_loglog_precondition():
    with pytest.raises(DomainError):
        theorem4_coeff(0.5)


# -- stage 5 -----------------------------------------------------------------------


def test_theorem5_exceeds_base_value():
    rep = theorem5_coeff(36.0)
    assert rep.total.value > 4.0 * EG * math.log(6.0)


def test_theorem5_to_theorem4_leading_ratio():
    r4 = theorem4_coeff(36.0).terms[0][1].value
    r5 = theorem5_coeff(36.0).terms[0][1].value
    expect = math.log(6.0) / math.log(3.0) * (1.0 + 1.0 / 57.0)
    assert r5 / r4 == pytest.approx(expect, rel=1e-12)


def test_theorem5_recomputation_oracle():
    rep = theorem5_coeff(36.0)
    logN = math.exp(36.0)
    expect = 4 * EG * math.log(6) * (1 + 1 / 57.0) + 993.2507 / math.sqrt(logN)
    assert rep.total.value == pytest.approx(expect, abs=1e-12)


# -- stage 6 -----------------------------------------------------------------------


def test_theorem6_leading_term_direct_evaluation():
    eps = math.exp(-30.0)
    rep = theorem6_coeff(36.0, eps)
    c2 = compute_c2().value
    expect = c2 * (1 + eps) * 4.0 * EG * (1.0 + 1.0 / 57.0)
    assert rep.terms[0][1].value == pytest.approx(expect, abs=1e-12)


def test_theorem6_epsilon_dependence():
    eps = 1e-3
    r1 = theorem6_coeff(36.0, eps)
    r2 = theorem6_coeff(36.0, 2.0 * eps)
    ratio = r2.terms[0][1].value / r1.terms[0][1].value
    assert ratio == pytest.approx((1 + 2 * eps) / (1 + eps), rel=1e-12)
    rem_ratio = r2.terms[2][1].value / r1.terms[2][1].value
    assert rem_ratio == pytest.approx(0.5, rel=1e-12)


def test_theorem6_remainder_is_negligible():
    rep = theorem6_coeff(36.0, math.exp(-30.0))
    assert rep.terms[2][1].value < 1e-40


def test_theorem6_epsilon_range():
    with pytest.raises(ConfigError):
        theorem6_coeff(36.0, 0.5)
    with pytest.raises(ConfigError):
        theorem6_coeff(36.0, math.exp(-101.0))


# -- final assembly -----------------------------------------------------------------


def test_final_coefficient_headline():
    rep = final_coefficient(36.0, math.exp(-30.0))
    assert rep.total.strictly_above(0.007)
    oracle = final_coefficient_oracle(36.0, math.exp(-30.0))
    assert oracle == pytest.approx(7.1633675516e-3, abs=1e-12)
    assert abs(rep.total.value - oracle) < 1e-6


def test_final_coefficient_first_term_at_small_epsilon():
    eps = math.exp(-99.0)
    rep = final_coefficient(36.0, eps)
    c2 = compute_c2().value
    first = EG * (4 * math.log(3) - 2 * math.log(6) - 2 * c2)
    assert rep.terms[0][1].value == pytest.approx(first, abs=1e-12)
    eps0_term = abs(rep.terms[1][1].value)
    assert first > 0.007 + eps0_term


def test_final_coefficient_with_worst_case_c2():
    rep = final_coefficient(36.0, math.exp(-30.0), c2_override=0.36309)
    assert rep.total.strictly_above(0.007)


def test_final_coefficient_worst_case_never_flips_sign():
    for ll in (36.0, 40.0, 60.0, 100.0):
        rep = final_coefficient(ll, math.exp(-30.0), c2_override=0.36309)
        assert rep.total.value > 0.0


def test_final_coefficient_monotone_in_loglog_N():
    eps = math.exp(-30.0)
    values = [
        final_coefficient(ll, eps).total.value for ll in range(36, 101, 4)
    ]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_threshold_report():
    rep = threshold_report(math.exp(-30.0))
    assert rep.crossing_loglog_N is not None
    assert rep.crossing_loglog_N <= 36.0
    assert rep.hypothesis_floor_loglog_N == 36.0
    assert "hypotheses" in rep.note
    gap_lo = final_coefficient(rep.crossing_loglog_N - 1e-6).total.value
    gap_hi = final_coefficient(rep.crossing_loglog_N + 1e-6).total.value
    assert gap_lo < 0.007 < gap_hi


@pytest.mark.parametrize("loglog_N", [math.nan, math.inf, 0.5, 800.0])
def test_remainder_level_window_domain(loglog_N):
    with pytest.raises(DomainError):
        remainder_level_window(loglog_N)


@pytest.mark.parametrize("loglog_N", [354.0, 355.0])
def test_remainder_level_window_large_but_finite(loglog_N):
    window = remainder_level_window(loglog_N)
    assert window["log_N"] == math.exp(loglog_N)
    assert all(math.isfinite(v) for v in window.values())


# -- window integrals -----------------------------------------------------------------


def test_H_endpoint_zero():
    b = H_value(1.0 / 3.0)
    assert b.value == 0.0 and b.radius == 0.0


def test_H_at_z_closed_form():
    """Partial-fractions oracle: the integral evaluates to
    log(2 - 3a)/(1 - a); at a = 1/8 that is (8/7) log(13/8) ~ 0.5549."""
    b = H_at_z()
    expect = (8.0 / 7.0) * math.log(13.0 / 8.0)
    assert abs(b.value - expect) < 1e-10


def test_H_closed_form_across_range():
    for alpha in (0.125, 0.2, 0.25, 0.3, 0.33):
        b = H_value(alpha)
        expect = math.log(2.0 - 3.0 * alpha) / (1.0 - alpha)
        assert abs(b.value - expect) <= b.radius + 1e-12


def test_H_decreasing_and_vanishing():
    alphas = [0.125, 0.15, 0.2, 0.25, 0.3, 1.0 / 3.0]
    values = [H_value(a).value for a in alphas]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] == 0.0


def test_H_alpha_domain():
    with pytest.raises(DomainError):
        H_value(0.1)
    with pytest.raises(DomainError):
        H_value(0.4)


def test_H_double_integral_reproduces_c2():
    """2-D quadrature oracle: int_{1/8}^{1/3} H_value(a)/a da = c2 - 1e-8."""
    outer, _ = scipy_integrate.quad(
        lambda a: H_value(a).value / a, 0.125, 1.0 / 3.0, epsabs=1e-12, limit=200
    )
    c2 = compute_c2().value
    assert abs(outer - (c2 - 1e-8)) < 1e-8


# -- rhs magnitude evaluators ------------------------------------------------------------


_RHS_SELECTORS = ("pi_ap_single", "pi_ap_summed", "bilinear_form", "residual_remainder")


def test_rhs_evaluator_values():
    assert lemma_rhs_evaluators(36.0, "pi_ap_single").value == pytest.approx(
        math.exp(-14.0 - 144.0), rel=1e-12
    )
    assert lemma_rhs_evaluators(36.0, "pi_ap_summed").value == pytest.approx(
        math.exp(-8.0 - 108.0), rel=1e-12
    )
    assert lemma_rhs_evaluators(36.0, "residual_remainder").value == pytest.approx(
        0.19 * math.exp(-82.8), rel=1e-12
    )
    assert lemma_rhs_evaluators(36.0, "bilinear_form").value == pytest.approx(
        math.exp(-288.0), rel=1e-12
    )
    # criterion 8's inputs, pinned bit for bit before the domain checks
    assert [lemma_rhs_evaluators(36.0, s) for s in _RHS_SELECTORS] == [
        Ball(2.406976550610464e-69, 6.413473886929383e-84),
        Ball(4.1863939993042326e-51, 1.1154794419632365e-65),
        Ball(8.37894253381937e-126, 2.232598781533756e-140),
        Ball(2.0853093925577477e-37, 5.5563804026033064e-52),
    ]


# Past these points log^k x overflows, or the bound falls below the normal
# range, where its radius no longer encloses anything.
_RHS_OUT_OF_DOMAIN = [
    (selector, loglog_x)
    for selector in _RHS_SELECTORS
    for loglog_x in (308.0, 709.0, 800.0, math.nan, math.inf)
] + [
    ("pi_ap_single", 177.0),
    ("pi_ap_single", 178.0),
    ("bilinear_form", 150.0),
    ("bilinear_form", 177.0),
    ("bilinear_form", 178.0),
]


@pytest.mark.parametrize("selector, loglog_x", _RHS_OUT_OF_DOMAIN)
def test_rhs_evaluator_domain(selector, loglog_x):
    with pytest.raises(DomainError):
        lemma_rhs_evaluators(loglog_x, selector)


def test_rhs_evaluator_unknown_selector():
    with pytest.raises(DomainError):
        lemma_rhs_evaluators(36.0, "nope")


def test_default_epsilon_in_window():
    assert math.exp(-100.0) < DEFAULT_EPSILON < math.exp(-20.0)
