import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from chensieve.errors import DomainError
from chensieve.harness import (
    ScanReport,
    SiftedSetSpec,
    bilinear_discrepancy,
    bilinear_discrepancy_exact,
    check_lemma41,
    enumerate_set,
    goldbach_chen_scan,
    inclusion_exclusion_check,
    pi2_bruteforce,
    remainder_r,
    sift_count,
)
from chensieve.primes import PrimeTable, build_prime_table, euler_phi


# -- independent oracles -----------------------------------------------------------


def omega_with_multiplicity(m: int) -> int:
    """Trial-division Omega, no tables."""
    count = 0
    d = 2
    while d * d <= m:
        while m % d == 0:
            m //= d
            count += 1
        d += 1
    if m > 1:
        count += 1
    return count


def primes_upto(n: int) -> list[int]:
    out = []
    for k in range(2, n + 1):
        d = 2
        while d * d <= k:
            if k % d == 0:
                break
            d += 1
        else:
            out.append(k)
    return out


def pi2_oracle(N: int, prime_list: list[int]) -> int:
    count = 0
    for p in prime_list:
        if p >= N:
            break
        m = N - p
        if m >= 2 and omega_with_multiplicity(m) <= 2:
            count += 1
    return count


# -- set enumeration ----------------------------------------------------------------


def test_enumerate_A_hand_cases(table_small):
    assert list(enumerate_set(SiftedSetSpec("A", 10), table_small)) == [7, 3]
    assert list(enumerate_set(SiftedSetSpec("A", 16), table_small)) == [
        13, 11, 9, 5, 3,
    ]


def test_enumerate_A_excludes_divisors(table_small):
    a = enumerate_set(SiftedSetSpec("A", 30), table_small)
    # p in {2,3,5} divides 30 and is excluded
    assert 30 - 2 not in a and 30 - 3 not in a and 30 - 5 not in a
    assert 30 - 7 in a


def test_enumerate_B_against_triple_loop(table_small):
    N = 10_000
    spec = SiftedSetSpec("B", N)
    got = sorted(enumerate_set(spec, table_small))
    z, y = N ** 0.125, N ** (1.0 / 3.0)
    ps = primes_upto(N)
    expect = []
    for p1 in ps:
        if not (z <= p1 < y) or N % p1 == 0:
            continue
        for p2 in ps:
            if p2 < y or p2 < p1 or N % p2 == 0:
                continue
            if p1 * p2 * p2 >= N:
                break
            for p3 in ps:
                if p3 < p2:
                    continue
                if p1 * p2 * p3 >= N:
                    break
                if N % p3 != 0:
                    expect.append(N - p1 * p2 * p3)
    assert got == sorted(expect)
    assert len(got) > 0


def test_enumerate_B_window(table_small):
    N = 10_000
    z, y = N ** 0.125, N ** (1.0 / 3.0)
    full = enumerate_set(SiftedSetSpec("B", N), table_small)
    w = enumerate_set(
        SiftedSetSpec("B_window_j", N, window=(z, y)), table_small
    )
    # the single full-range window with cap z*p2*p3 < N is a superset of B
    assert len(w) >= len(full)


def test_explicit_list_base(table_small):
    spec = SiftedSetSpec("explicit_list", 100, elements=(15, 77, 1))
    assert list(enumerate_set(spec, table_small)) == [15, 77, 1]


def test_spec_validation():
    with pytest.raises(DomainError):
        SiftedSetSpec("A", 9)
    with pytest.raises(DomainError):
        SiftedSetSpec("A_sub_q", 10)
    with pytest.raises(DomainError):
        SiftedSetSpec("nope", 10)


def test_default_levels():
    spec = SiftedSetSpec("A", 256)
    assert spec.z == pytest.approx(2.0)
    assert spec.y == pytest.approx(256 ** (1 / 3))
    assert spec.sift_level == spec.z
    assert SiftedSetSpec("B", 256).sift_level == pytest.approx(256 ** (1 / 3))


# -- sifting ------------------------------------------------------------------------


def test_sift_level_2_is_vacuous(table_small):
    spec = SiftedSetSpec("A", 100)
    res = sift_count(spec, table_small, level=2.0)
    assert res.count == len(enumerate_set(spec, table_small))


def test_sift_against_filter_oracle(table_small):
    N = 100
    spec = SiftedSetSpec("A", N)
    res = sift_count(spec, table_small, level=3.163)
    elements = list(enumerate_set(spec, table_small))
    # sifting primes below 3.163 not dividing 100: just {3} (2 divides N,
    # and every element is odd anyway)
    expect = [e for e in elements if e % 3 != 0]
    assert res.count == len(expect)
    assert list(res.survivors_sample) == expect[:64]


def test_excluding_a_prime_never_decreases_count(table_small):
    N = 10_000
    base = sift_count(SiftedSetSpec("A", N), table_small, level=10.0)
    weaker = sift_count(
        SiftedSetSpec("A", N, excluded_primes=frozenset([3])),
        table_small,
        level=10.0,
    )
    assert weaker.count >= base.count


def test_sift_never_exceeds_set_size(table_small):
    for N in (100, 1234, 10_000):
        spec = SiftedSetSpec("A", N)
        res = sift_count(spec, table_small)
        assert res.count <= len(enumerate_set(spec, table_small))


# -- pi2 ------------------------------------------------------------------------------


def test_pi2_hand_cases(table_small):
    assert pi2_bruteforce(4, table_small) == 1
    assert pi2_bruteforce(6, table_small) == 2
    assert pi2_bruteforce(10, table_small) == 3


def test_pi2_matches_trial_division_oracle(table_small):
    ps = primes_upto(2000)
    for N in range(6, 2000, 2):
        assert pi2_bruteforce(N, table_small) == pi2_oracle(N, ps)


def test_pi2_validation(table_small):
    with pytest.raises(DomainError):
        pi2_bruteforce(7, table_small)


# -- decomposition check ----------------------------------------------------------------


def test_lemma41_structure_at_1e4(table_1m):
    c = check_lemma41(10_000, table_1m)
    assert c.pi2 >= 1
    assert c.S_A <= len(enumerate_set(SiftedSetSpec("A", 10_000), table_1m))
    # at desk scale the RHS is swamped by -2 N^{7/8}; margin is positive
    assert c.rhs < 0
    assert c.margin > 0
    assert c.margin == pytest.approx(c.pi2 - c.rhs)


def test_lemma41_at_1e6_sample(table_1m):
    c = check_lemma41(1_000_000, table_1m)
    assert c.pi2 >= 1
    assert c.S_A <= 78498
    assert math.isfinite(c.margin)
    assert c.ratio > 0


# -- identities ---------------------------------------------------------------------------


def legendre_count(N, z, table):
    """Independent Legendre-sum oracle: sum over squarefree divisors of the
    sifting-prime product of mu(d) |A_d|."""
    elements = enumerate_set(SiftedSetSpec("A", N), table)
    sift = [
        int(p)
        for p in table.primes_between(2, z)
        if N % int(p) != 0
    ]
    total = 0
    for r in range(len(sift) + 1):
        for combo in combinations(sift, r):
            d = math.prod(combo) if combo else 1
            mu = (-1) ** r
            total += mu * int(np.count_nonzero(elements % d == 0))
    return total


def test_legendre_identity_fixed_cases(table_1m):
    for N, z in [(10_000, 10.0), (99_990, 15.0), (524_288, 20.0)]:
        got = sift_count(SiftedSetSpec("A", N), table_1m, level=z).count
        assert got == legendre_count(N, z, table_1m)


def test_buchstab_identity_fixed_cases(table_1m):
    for N, w, z in [(10_000, 3.0, 20.0), (99_990, 2.0, 50.0), (12_346, 5.0, 30.0)]:
        spec = SiftedSetSpec("A", N)
        lhs = sift_count(spec, table_1m, level=z).count
        rhs = sift_count(spec, table_1m, level=w).count
        for p in table_1m.primes_between(w, z):
            p = int(p)
            if N % p == 0:
                continue
            rhs -= sift_count(
                SiftedSetSpec("A_sub_q", N, q=p), table_1m, level=p
            ).count
        assert lhs == rhs


def test_inclusion_exclusion_degenerate(table_1m):
    assert inclusion_exclusion_check(10_000, 10.0, [], table_1m)


def test_inclusion_exclusion_fixed_cases(table_1m):
    assert inclusion_exclusion_check(10_000, 10.0, [3], table_1m)
    assert inclusion_exclusion_check(100_000, 17.0, [3, 7], table_1m)


def test_inclusion_exclusion_validation(table_1m):
    with pytest.raises(DomainError):
        inclusion_exclusion_check(10_000, 10.0, [5], table_1m)  # 5 | 10^4
    with pytest.raises(DomainError):
        inclusion_exclusion_check(10_000, 10.0, [11], table_1m)  # 11 >= z
    with pytest.raises(DomainError):
        inclusion_exclusion_check(10_000, 10.0, [3, 3], table_1m)


def test_randomized_identity_suite(table_1m):
    """Legendre, Buchstab, and the alternating exclusion identity on 100
    seeded random configurations, exact integer equality each time."""
    rng = random.Random(1742)
    for _ in range(100):
        N = 2 * rng.randint(50, 50_000)
        # Legendre with small squarefree support
        z = rng.uniform(3.0, 20.0)
        got = sift_count(SiftedSetSpec("A", N), table_1m, level=z).count
        assert got == legendre_count(N, z, table_1m)
        # Buchstab
        w = rng.uniform(2.0, 10.0)
        z2 = rng.uniform(w, 50.0)
        spec = SiftedSetSpec("A", N)
        lhs = sift_count(spec, table_1m, level=z2).count
        rhs = sift_count(spec, table_1m, level=w).count
        for p in table_1m.primes_between(w, z2):
            p = int(p)
            if N % p == 0:
                continue
            rhs -= sift_count(
                SiftedSetSpec("A_sub_q", N, q=p), table_1m, level=p
            ).count
        assert lhs == rhs
        # alternating exclusion identity with up to 3 random primes
        zi = rng.uniform(8.0, 20.0)
        pool = [
            int(p)
            for p in table_1m.primes_between(2, zi)
            if N % int(p) != 0
        ]
        qs = rng.sample(pool, min(len(pool), rng.randint(0, 3)))
        assert inclusion_exclusion_check(N, zi, qs, table_1m)


# -- remainders -----------------------------------------------------------------------


def test_remainder_r1_is_zero(table_1m):
    assert remainder_r(10_000, 1, table=table_1m) == 0.0


def test_remainder_r_direct_count(table_1m):
    N = 10_000
    a = enumerate_set(SiftedSetSpec("A", N), table_1m)
    expect = int(np.count_nonzero(a % 3 == 0)) - len(a) / 2
    assert remainder_r(N, 3, table=table_1m) == pytest.approx(expect, abs=1e-12)


def test_remainder_rk(table_1m):
    N = 10_000
    a = enumerate_set(SiftedSetSpec("A", N), table_1m)
    a3 = a[a % 3 == 0]
    expect = float(
        Fraction(int(np.count_nonzero(a % 21 == 0)))
        - Fraction(len(a3), euler_phi(7))
    )
    assert remainder_r(N, 7, k=3, table=table_1m) == pytest.approx(expect, abs=1e-12)


def test_moebius_sum_equals_legendre_sift(table_1m):
    N = 10_000
    a = enumerate_set(SiftedSetSpec("A", N), table_1m)
    mu_sum = 0
    for d, mu in [(1, 1), (3, -1), (5, -1), (15, 1)]:
        mu_sum += mu * int(np.count_nonzero(a % d == 0))
    sifted = int(np.count_nonzero((a % 3 != 0) & (a % 5 != 0)))
    assert mu_sum == sifted


def test_remainder_validation(table_1m):
    with pytest.raises(DomainError):
        remainder_r(10_000, 0, table=table_1m)


# -- bilinear discrepancy -----------------------------------------------------------------


def bilinear_oracle(X, Y, Z, Dstar, N, y, prime_list) -> Fraction:
    """Brute-force triple loop, Fractions throughout, no package calls."""
    support = []
    for i, p2 in enumerate(prime_list):
        if p2 < y:
            continue
        for p3 in prime_list[i + 1 :]:
            n = p2 * p3
            if n >= X:
                break
            if N % p2 != 0 and N % p3 != 0:
                support.append(n)
    sieve = [p for p in prime_list if Z <= p < Y]
    total = Fraction(0)
    d = 1
    while d < Dstar:
        best = Fraction(0)
        coprime = sum(
            1 for n in support for p in sieve if math.gcd(n * p, d) == 1
        )
        for a in range(d):
            if math.gcd(a, d) != 1:
                continue
            t1 = sum(
                1 for n in support for p in sieve if (n * p) % d == a
            )
            diff = abs(Fraction(t1) - Fraction(coprime, euler_phi(d)))
            best = max(best, diff)
        total += best
        d += 1
    return total


def test_bilinear_empty_sum(table_small):
    assert bilinear_discrepancy(100, 100, 50, 1, 19946, table_small) == 0.0


def test_bilinear_fixed_case_matches_oracle(table_small):
    ps = primes_upto(300)
    got = bilinear_discrepancy_exact(100, 100, 50, 10, 19946, table_small)
    expect = bilinear_oracle(100, 100, 50, 10, 19946, 19946 ** (1 / 3), ps)
    assert got == expect


def test_bilinear_randomized_against_oracle(table_small):
    ps = primes_upto(500)
    rng = random.Random(99)
    for _ in range(20):
        N = 2 * rng.randint(20, 400)
        X = rng.uniform(30, 200)
        Y = rng.uniform(20, 200)
        Z = rng.uniform(2, Y)
        Dstar = rng.randint(1, 20)
        y = rng.uniform(2.0, 12.0)
        got = bilinear_discrepancy_exact(X, Y, Z, Dstar, N, table_small, y=y)
        expect = bilinear_oracle(X, Y, Z, Dstar, N, y, ps)
        assert got == expect


def test_bilinear_fixed_residue_dominated_by_max(table_small):
    kwargs = dict(y=5.0)
    free = bilinear_discrepancy_exact(150, 60, 5, 12, 202, table_small, **kwargs)
    fixed = bilinear_discrepancy_exact(
        150, 60, 5, 12, 202, table_small, fixed_residue=202, **kwargs
    )
    assert fixed <= free


# -- scans ------------------------------------------------------------------------------


def test_scan_full_small(table_small):
    rep = goldbach_chen_scan(10_000, table_small, mode="full")
    assert isinstance(rep, ScanReport)
    assert rep.floor_holds
    assert rep.min_pi2 >= 1
    assert rep.checked == len(range(6, 10_001, 2))


def test_scan_ratio_consistency(table_1m):
    rep = goldbach_chen_scan(5000, table_1m, mode="full", collect_rows=True)
    row = next(r for r in rep.rows if r[0] == 5000)
    c = check_lemma41(5000, table_1m)
    assert row[1] == c.pi2
    assert row[3] == pytest.approx(c.ratio, rel=1e-3)


def test_scan_deterministic_across_threads(table_small):
    a = goldbach_chen_scan(10_000, table_small, mode="full", collect_rows=True)
    b = goldbach_chen_scan(
        10_000, table_small, mode="full", collect_rows=True, threads=4
    )
    c = goldbach_chen_scan(
        10_000, table_small, mode="full", collect_rows=True, threads=8
    )
    assert a.rows == b.rows == c.rows
    assert a.to_dict() == b.to_dict() == c.to_dict()


def test_scan_floor_mode(table_small):
    rep = goldbach_chen_scan(10_000, table_small, mode="floor")
    assert rep.floor_holds
    assert rep.failures == []
    assert rep.min_pi2 is None


# -- one-pass scan against the single-N oracle ----------------------------------------


@pytest.mark.parametrize("M", [20_000, 20_001])
def test_scan_every_N_matches_bruteforce(M):
    # The table ends exactly at M, so the last index of every array is used.
    table = build_prime_table(M)
    evens = list(range(6, M + 1, 2))
    full = goldbach_chen_scan(M, table, mode="full", collect_rows=True)
    assert [row[0] for row in full.rows] == evens
    for row in full.rows:
        assert row[1] == pi2_bruteforce(row[0], table)
    floor = goldbach_chen_scan(M, table, mode="floor")
    assert floor.checked == len(evens)
    assert floor.failures == []


@pytest.mark.parametrize("keep_above_47", [True, False])
def test_scan_failures_on_thinned_table(keep_above_47):
    # Dropping 3, 5 and 7 from the table (and, in one case, every prime above
    # 47) leaves N without a representation, the smallest at N = 8 while
    # later primes exceed it, so both modes must report exactly the N where
    # the oracle counts zero.
    packed = build_prime_table(3000).packed.copy()
    packed[0] &= ~np.uint64(0b111)
    if not keep_above_47:
        packed[0] &= np.uint64((1 << 24) - 1)
        packed[1:] = 0
    thin = PrimeTable(limit=3000, packed=packed)
    want = {N: pi2_bruteforce(N, thin) for N in range(6, 3001, 2)}
    zeros = [N for N, c in want.items() if c == 0]
    assert zeros[0] == 8
    full = goldbach_chen_scan(3000, thin, mode="full", collect_rows=True)
    assert {row[0]: row[1] for row in full.rows} == want
    assert full.failures == zeros
    assert full.min_pi2 == 0 and full.argmin_pi2 == 8
    floor = goldbach_chen_scan(3000, thin, mode="floor")
    assert floor.failures == zeros
    assert not floor.floor_holds


_NO_EVENS = dict(
    checked=0, floor_holds=True, failures=[], min_pi2=None, argmin_pi2=None,
    min_ratio=None, argmin_ratio=None,
)
_FULL_AT_6 = dict(
    floor_holds=True, failures=[], min_pi2=2, argmin_pi2=6,
    min_ratio=0.69704636281509413, argmin_ratio=6,
)


@pytest.mark.parametrize(
    "N_max, full, floor_checked",
    [
        (4, _NO_EVENS, 0),
        (5, _NO_EVENS, 0),
        (6, dict(_FULL_AT_6, checked=1), 1),
        (7, dict(_FULL_AT_6, checked=1), 1),
        (8, dict(_FULL_AT_6, checked=2), 2),
    ],
)
def test_scan_tiny_N_max(N_max, full, floor_checked):
    table = build_prime_table(10)
    rep = goldbach_chen_scan(N_max, table, mode="full")
    assert rep.to_dict() == dict(full, N_max=N_max, mode="full")
    rep = goldbach_chen_scan(N_max, table, mode="floor")
    assert rep.to_dict() == dict(_NO_EVENS, N_max=N_max, mode="floor", checked=floor_checked)
