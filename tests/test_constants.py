import math
import tracemalloc

import mpmath as mp
import numpy as np

from chensieve.bounds import DEFAULT_EPSILON, final_coefficient, theorem6_coeff
from chensieve.constants import (
    ConstantsLedger,
    compute_c0,
    compute_c1,
    compute_c2,
    eps0,
    ledger,
    zeta,
)
from chensieve.primes import build_prime_table


def test_zeta_closed_forms():
    with mp.workdps(50):
        truths = {2: mp.pi**2 / 6, 3: mp.zeta(3), 4: mp.pi**4 / 90, 6: mp.pi**6 / 945}
        for s, truth in truths.items():
            b = zeta(s)
            assert abs(mp.mpf(b.value) - truth) <= mp.mpf(b.radius), s
            assert b.radius < 1e-12


def test_c0_below_pinned_bound(table_1m):
    b = compute_c0(table_1m)
    assert b.strictly_below(48.83215)
    assert b.radius < 1e-8
    # the pinned bound is tight: the value must sit just under it
    assert 48.83 < b.value < 48.83215


def test_c0_high_precision_recomputation(table_1m):
    """Recompute c0 with 50-digit arithmetic; must land inside the Ball."""
    b = compute_c0(table_1m)
    with mp.workdps(50):
        assert abs(mp.mpf(b.value) - c0_oracle()) <= mp.mpf(b.radius)


def test_c1_below_pinned_bound():
    b = compute_c1()
    assert b.strictly_below(1.9436)
    assert b.radius < 1e-8
    assert 1.9435 < b.value < 1.9436


def test_c1_euler_product_oracle():
    """prod_{p<=1e7}(1 + 1/(p(p-1))) with a telescoping tail enclosure."""
    t = build_prime_table(10_000_000)
    ps = t.primes.astype(np.float64)
    partial = float(np.prod(1.0 + 1.0 / (ps * (ps - 1.0))))
    # tail: 0 < log(c1/partial) < sum_{n>P} 1/(n(n-1)) = 1/P
    b = compute_c1()
    assert partial < b.value + b.radius
    assert b.value - b.radius < partial * math.exp(1.0 / 10_000_000)
    # the true prime tail at P = 1e7 is ~1/(P log P) ~ 6e-9 of the value
    assert abs(b.value - partial) < 3e-8


def test_c2_below_pinned_bound():
    b = compute_c2()
    assert b.strictly_below(0.36309)
    assert b.radius < 1e-8


def test_c2_integrand_endpoint_zero():
    beta = 1.0 / 3.0
    assert math.log(2.0 - 3.0 * beta) == 0.0


def test_c2_simpson_oracle():
    """Composite Simpson at 2e5 panels, independent of the GK machinery."""
    a, b = 0.125, 1.0 / 3.0
    n = 200_000
    h = (b - a) / n
    f = lambda x: math.log(2.0 - 3.0 * x) / (x * (1.0 - x))
    xs = [a + i * h for i in range(n + 1)]
    total = f(xs[0]) + f(xs[-1])
    total += 4.0 * math.fsum(f(x) for x in xs[1:-1:2])
    total += 2.0 * math.fsum(f(x) for x in xs[2:-1:2])
    simpson = total * h / 3.0 + 1e-8
    ball = compute_c2()
    assert abs(ball.value - simpson) < 1e-9


def test_eps0():
    assert eps0(36.0).value == 1.0 / 57.0
    assert eps0(57.0).value == 1.0 / 57.0
    assert eps0(100.0).value == 1.0 / 100.0


def test_ledger_all_pass(table_1m):
    led = ledger(table_1m)
    assert isinstance(led, ConstantsLedger)
    assert led.all_pass
    for name in ("c0", "c1", "c2"):
        assert led[name].passes
        assert led[name].ball.radius < 1e-8
    assert led["lit_headline_coeff"].ball.value == 0.007


def test_ledger_unpacks_the_primes_only_to_113():
    """c0 reads the 30 primes to 113 and U_4 the twin product, which is
    formed straight off the bits, so the ledger on a 9.8e6 table, truncated
    at its limit as `constants --table-limit` does, unpacks the primes only
    to 113 and traces under 1 MiB.  Reading the array of all 652k primes to
    the limit for both traced 5.54 MiB."""
    ledger(build_prime_table(200_000))  # first-call allocations
    table = build_prime_table(9_800_000)
    tracemalloc.start()
    try:
        ledger(table, truncation_limit=table.limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table._primes_to == 113
    assert peak < 1 << 20


def test_ledger_rows_sorted_and_deterministic(table_1m):
    led1 = ledger(table_1m)
    led2 = ledger(table_1m)
    rows1, rows2 = led1.rows(), led2.rows()
    assert rows1 == rows2
    names = [r["name"] for r in rows1]
    assert names == sorted(names)


def test_ledger_and_bound_stages_read_one_c2(table_1m):
    compute_c2.cache_clear()
    c2 = compute_c2()
    assert ledger(table_1m)["c2"].ball is c2
    final_coefficient(36.0)
    theorem6_coeff(36.0, DEFAULT_EPSILON)
    assert compute_c2.cache_info().misses == 1


def test_exp_gamma_self_consistency(table_1m):
    led = ledger(table_1m)
    eg = led["exp_gamma"].ball
    eng = led["exp_neg_gamma"].ball
    prod = eg * eng
    assert abs(prod.value - 1.0) < 1e-14


# -- 60-digit oracle: every ledger Ball holds its exact real -------------------

_LITERAL_DIGITS = {
    "lit_f1_prefactor": "255.84406",
    "lit_F1_prefactor": "298.87013",
    "lit_lower_sqrt_term": "767.7471",
    "lit_upper_sqrt_term": "993.2507",
    "lit_triple_sqrt_term": "860.16295",
    "lit_final_sqrt_term_a": "496.6254",
    "lit_final_sqrt_term_b": "430.0815",
    "lit_eps0_coeff": "0.5198",
    "lit_lower_chain_term": "736.33191",
    "lit_upper_chain_term": "845.33239",
    "lit_headline_coeff": "0.007",
}


def c0_oracle() -> mp.mpf:
    psi = mp.fsum(mp.log(p) for p in mp_primes(113) for k in range(1, 7) if p**k <= 113)
    log2 = mp.log(2)
    return (
        mp.mpf(2) ** mp.mpf("6.5") / (9 * mp.pi * log2)
        * (mp.mpf(1) / 3 + 3 / (2 * log2))
        * ((2 + mp.log(log2 / mp.log(mp.mpf(4) / 3))) / log2)
        * mp.sqrt(psi / 113)
    )


def mp_primes(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def test_every_ledger_ball_holds_its_60_digit_value(c2_60):
    led = ledger(build_prime_table(200_000))
    with mp.workdps(60):
        truths = {
            "gamma": mp.euler,
            "exp_gamma": mp.exp(mp.euler),
            "exp_neg_gamma": mp.exp(-mp.euler),
            "c0": c0_oracle(),
            "c1": mp.zeta(2) * mp.zeta(3) / mp.zeta(6),
            "c2": c2_60,
            "U_4": 2 * mp.exp(-mp.euler) * mp.twinprime,
            "eps0_floor": mp.mpf(1) / 57,
            **{name: mp.mpf(digits) for name, digits in _LITERAL_DIGITS.items()},
        }
        assert set(truths) == set(led.entries)
        for name, truth in truths.items():
            ball = led[name].ball
            assert abs(truth - mp.mpf(ball.value)) <= mp.mpf(ball.radius), name
