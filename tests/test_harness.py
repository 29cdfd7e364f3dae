import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import mpmath as mp
import numpy as np
import pytest

from chensieve import harness as harness_mod
from chensieve import primes as primes_mod
from chensieve.errors import CapacityError, DomainError
from chensieve.harness import (
    ScanReport,
    _p2p3_support,
    SiftedSetSpec,
    bilinear_discrepancy_exact,
    enumerate_set,
    goldbach_chen_scan,
    inclusion_exclusion_check,
    lemma41_columns,
    pi2_bruteforce,
    sift_count,
)
from chensieve.primes import (
    PrimeTable,
    build_prime_table,
    euler_phi,
    singular_series_UN,
)


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
    assert res == len(enumerate_set(spec, table_small))


def test_sift_against_filter_oracle(table_small):
    N = 100
    spec = SiftedSetSpec("A", N)
    res = sift_count(spec, table_small, level=3.163)
    elements = list(enumerate_set(spec, table_small))
    # sifting primes below 3.163 not dividing 100: just {3} (2 divides N,
    # and every element is odd anyway)
    expect = [e for e in elements if e % 3 != 0]
    assert res == len(expect)


def test_sift_never_exceeds_set_size(table_small):
    for N in (100, 1234, 10_000):
        spec = SiftedSetSpec("A", N)
        res = sift_count(spec, table_small)
        assert res <= len(enumerate_set(spec, table_small))


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
    N = 10_000
    ((_, pi2, S_A, sum_S_Aq, S_B, margin, _, _),) = zip(*lemma41_columns([N], table_1m))
    assert pi2 >= 1
    assert S_A <= len(enumerate_set(SiftedSetSpec("A", N), table_1m))
    # at desk scale the RHS is swamped by -2 N^{7/8}; margin is positive
    rhs = S_A - 0.5 * sum_S_Aq - 0.5 * S_B - 2.0 * N ** 0.875 - 2.0 * N ** (1.0 / 3.0)
    assert rhs < 0
    assert margin > 0
    assert margin == pytest.approx(pi2 - rhs)


def test_lemma41_at_1e6_sample(table_1m):
    ((_, pi2, S_A, _, _, margin, _, ratio),) = zip(*lemma41_columns([1_000_000], table_1m))
    assert pi2 >= 1
    assert S_A <= 78498
    assert math.isfinite(margin)
    assert ratio > 0


def lemma41_reference(N, table, z_exp=0.125, y_exp=1.0 / 3.0):
    """The row [N, pi2, S_A, Sum_S_Aq, S_B, margin, U_N, ratio] from the
    general path: one `sift_count` of A and one of B, `pi2_bruteforce` and
    `singular_series_UN`.  Each A_q is enumerated as `sift_count` does it, the
    multiples of q in A, and sifted by the same trial division at level z;
    A and its sifting primes are built once per N, not once per q."""
    z, y = N ** z_exp, N ** y_exp
    S_A = sift_count(SiftedSetSpec("A", N, z=z, y=y), table, level=z)
    A = enumerate_set(SiftedSetSpec("A", N, z=z, y=y), table)
    primes = harness_mod._sifting_primes(N, z, table)
    sum_S_Aq = sum(
        len(harness_mod._sift(A[A % q == 0], primes))
        for q in table.primes_between(z, y).tolist()
        if N % q != 0
    )
    S_B = sift_count(SiftedSetSpec("B", N, z=z, y=y), table, level=y)
    pi2 = pi2_bruteforce(N, table)
    rhs = S_A - 0.5 * sum_S_Aq - 0.5 * S_B - 2.0 * N ** 0.875 - 2.0 * N ** (1.0 / 3.0)
    UN = singular_series_UN(N, max(100_000, min(table.limit, 1_000_000)), table).value
    logN = math.log(N)
    return [N, pi2, S_A, sum_S_Aq, S_B, pi2 - rhs, UN, pi2 * logN * logN / (UN * N)]


def test_lemma41_peak_memory_within_pi2():
    """The pass holds none of its own arrays while pi2 runs: at one N its
    traced peak stays within 0.5 MB of one pi2_bruteforce call."""
    table = build_prime_table(4_000_000)
    table.primes, table.spf, table.isprime_array
    N = 3_939_998

    def peak(fn):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    lemma = peak(lambda: lemma41_columns([N], table))
    pi2 = peak(lambda: pi2_bruteforce(N, table))
    assert lemma <= pi2 + 512 * 1024


@pytest.mark.parametrize("z_exp, y_exp", [(0.125, 1.0 / 3.0), (0.2, 0.45), (0.05, 0.9)])
def test_lemma41_columns_match_general_path_every_small_N(table_1m, monkeypatch, z_exp, y_exp):
    Ns = range(6, 2001, 2)
    expect = [lemma41_reference(N, table_1m, z_exp, y_exp) for N in Ns]
    # a budget of 997 pairs splits the blocks in the middle of the range, and
    # a budget of 1 makes every N a block of its own
    for budget in (997, 1):
        monkeypatch.setattr(harness_mod, "_PAIR_BUDGET", budget)
        got = lemma41_columns(Ns, table_1m, z_exp=z_exp, y_exp=y_exp)
        assert [list(row) for row in zip(*got)] == expect


@pytest.mark.parametrize(
    "N, z_exp, y_exp",
    [
        pytest.param(N, 0.125, 1.0 / 3.0, id=str(N))
        for N in (30_030, 510_510, 999_998, 1_000_000)
    ]
    + [(N, 0.2, 0.45) for N in (6, 30, 210, 1_000, 2_310, 30_030, 99_990)],
)
def test_lemma41_columns_match_general_path_single_N(table_1m, N, z_exp, y_exp):
    got = lemma41_columns([N], table_1m, z_exp=z_exp, y_exp=y_exp)
    assert [list(row) for row in zip(*got)] == [lemma41_reference(N, table_1m, z_exp, y_exp)]


def test_lemma41_columns_at_the_table_limit():
    table = build_prime_table(30_030)
    got = [list(row) for row in zip(*lemma41_columns([30_030], table))]
    assert got == [lemma41_reference(30_030, table)]


def test_lemma41_columns_reject_before_any_block(table_small, monkeypatch):
    blocks = []
    monkeypatch.setattr(harness_mod, "_lemma41_block", lambda *a: blocks.append(a))
    with pytest.raises(CapacityError, match="N=10002 exceeds table limit 10000"):
        lemma41_columns(range(6, 10_005, 2), table_small)
    for bad in (7, 4):
        with pytest.raises(DomainError, match=f"got {bad}"):
            lemma41_columns([10, bad], table_small)
    assert blocks == []


def test_lemma41_columns_traced_peak_over_a_range():
    """The block budget bounds the pass's memory: 6..20000 (about 1.2e7
    (N, p) pairs) peaks under 16 MiB, spf included."""
    table = build_prime_table(1_000_000)
    table.primes, table.isprime_array, table.twin_product(1_000_000)
    tracemalloc.start()
    try:
        lemma41_columns(range(6, 20_001, 2), table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
    assert len(table.odd_spf_upto(0)) == 10_000  # spf sieved only as far as N reaches


def test_lemma41_traced_peak_at_one_large_N():
    """With only the primes unpacked beforehand, the pass at N = 3.94e6
    builds the odd spf store to N, a byte per integer, reads primality off
    the table's bits and walks its pairs a chunk of primes at a time, and
    peaks under 9 MiB (7.9 measured; 12.1 with a primality array to N and
    every pair at once, 23.3 with an int32 spf as well)."""
    table = build_prime_table(4_000_000)
    table.primes
    tracemalloc.start()
    try:
        lemma41_columns([3_940_000], table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2**20


@pytest.mark.parametrize("budget", [1, 20_000])
def test_lemma41_large_N_in_chunks_matches_the_unsplit_pass(table_1m, monkeypatch, budget):
    """999998 has 78497 pairs, one pass at the default budget.  A budget of
    1 cuts them at each of the 8 windows of bits below N, and one of 20000
    groups two or three windows a chunk; the columns stay the same."""
    N = 999_998
    whole = lemma41_columns([N], table_1m)
    passes = []
    pair_counts = harness_mod._pair_counts
    monkeypatch.setattr(
        harness_mod, "_pair_counts", lambda *a: passes.append(a[2]) or pair_counts(*a)
    )
    monkeypatch.setattr(harness_mod, "_PAIR_BUDGET", budget)
    got = lemma41_columns([N], table_1m)
    assert [col.tolist() for col in got] == [col.tolist() for col in whole]
    sizes = [len(p) for p in passes]
    assert len(sizes) == (8 if budget == 1 else 4) and sum(sizes) == 78_497
    assert all(size >= budget for size in sizes[:-1])
    assert np.array_equal(np.concatenate(passes), table_1m.primes[1:78_498])


def test_engines_read_primality_off_the_bits():
    """Neither engine builds the byte-per-integer primality array, and a
    single N past the truncation point of U_N (1e6 here) unpacks the primes
    only as far as its set B reads them, (N - 1) // (ceil(z) ceil(y)) =
    1099999 // (6 * 104) = 1762, not to that point nor to the limit."""
    table = build_prime_table(1_200_000)
    (pi2,) = lemma41_columns([1_100_000], table)[1]
    assert table._isprime is None and table._primes_to == 1762
    for mode in ("full", "floor"):
        goldbach_chen_scan(30_000, table, mode=mode)
        assert table._isprime is None
    assert pi2 == pi2_bruteforce(1_100_000, table)


def test_set_B_unpacks_the_primes_only_to_its_reach():
    """The general path enumerates B through the block pass's `_triples`, so
    on a 1e7 table it unpacks the primes only to max(ceil(y) - 1, (N - 1) //
    (ceil(z) ceil(y))) = 9999 // (4 * 22) = 113, not all 664 579 of them."""
    table = build_prime_table(10_000_000)
    assert sift_count(SiftedSetSpec("B", 10_000), table) == 6
    assert table._primes_to <= 113


def test_engines_across_small_bit_windows(monkeypatch):
    """With 16-bit windows, every window edge of the bits falls inside the
    scan's P2 indicator, its p = 2 column and a chunked N's primes."""
    monkeypatch.setattr(primes_mod, "WINDOW", 1 << 4)
    table = build_prime_table(3001)
    Ns = range(6, 3001, 2)
    want = [pi2_bruteforce(N, table) for N in Ns]
    full = goldbach_chen_scan(3001, table, mode="full", collect_rows=True)
    assert full.columns[1].tolist() == want
    assert goldbach_chen_scan(3001, table, mode="floor").floor_holds
    expect = [lemma41_reference(N, table) for N in (2998, 3000)]
    for budget in (1, 50):
        monkeypatch.setattr(harness_mod, "_PAIR_BUDGET", budget)
        got = lemma41_columns([2998, 3000], table)
        assert [list(row) for row in zip(*got)] == expect


def test_pi2_engines_on_a_table_that_marks_15_prime(monkeypatch):
    """spf is sieved from its own base primes, never from the table's bits:
    on a 3000 table whose bitset marks 15 prime, the lemma-4.1 pass, its
    chunked walk, and both scan modes still give pi2_bruteforce's count at
    every N."""
    packed = build_prime_table(3000).packed.copy()
    packed[0] |= np.uint64(1 << 6)  # bit j is 3 + 2j
    damaged = [PrimeTable(limit=3000, packed=packed.copy()) for _ in range(5)]
    assert damaged[0].is_prime(15) and damaged[0].odd_spf_upto(15)[7] == 3
    Ns = range(6, 3001, 2)
    want = [pi2_bruteforce(N, damaged[0]) for N in Ns]
    sound = build_prime_table(3000)
    assert want != [pi2_bruteforce(N, sound) for N in Ns]  # the damage reaches pi2
    assert lemma41_columns(Ns, damaged[1])[1].tolist() == want
    rep = goldbach_chen_scan(3000, damaged[2], mode="full", collect_rows=True)
    assert rep.columns[1].tolist() == want
    floor = goldbach_chen_scan(3000, damaged[3], mode="floor")
    assert floor.failures == [N for N, c in zip(Ns, want) if c == 0]
    monkeypatch.setattr(harness_mod, "_PAIR_BUDGET", 1)  # every N walked in chunks
    tail = range(2800, 3001, 2)
    assert lemma41_columns(tail, damaged[4])[1].tolist() == want[-len(tail) :]


def test_scan_sieves_spf_only_to_N_max():
    """Both scan modes read spf at m <= N_max only, so a scan on a larger
    table sieves spf no further."""
    for mode in ("full", "floor"):
        table = build_prime_table(1_000_000)
        goldbach_chen_scan(20_000, table, mode=mode)
        assert len(table.odd_spf_upto(0)) == 10_000


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
        got = sift_count(SiftedSetSpec("A", N), table_1m, level=z)
        assert got == legendre_count(N, z, table_1m)


def test_buchstab_identity_fixed_cases(table_1m):
    for N, w, z in [(10_000, 3.0, 20.0), (99_990, 2.0, 50.0), (12_346, 5.0, 30.0)]:
        spec = SiftedSetSpec("A", N)
        lhs = sift_count(spec, table_1m, level=z)
        rhs = sift_count(spec, table_1m, level=w)
        for p in table_1m.primes_between(w, z):
            p = int(p)
            if N % p == 0:
                continue
            rhs -= sift_count(
                SiftedSetSpec("A_sub_q", N, q=p), table_1m, level=p
            )
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
        got = sift_count(SiftedSetSpec("A", N), table_1m, level=z)
        assert got == legendre_count(N, z, table_1m)
        # Buchstab
        w = rng.uniform(2.0, 10.0)
        z2 = rng.uniform(w, 50.0)
        spec = SiftedSetSpec("A", N)
        lhs = sift_count(spec, table_1m, level=z2)
        rhs = sift_count(spec, table_1m, level=w)
        for p in table_1m.primes_between(w, z2):
            p = int(p)
            if N % p == 0:
                continue
            rhs -= sift_count(
                SiftedSetSpec("A_sub_q", N, q=p), table_1m, level=p
            )
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


# -- Moebius sums ---------------------------------------------------------------------


def test_moebius_sum_equals_legendre_sift(table_1m):
    N = 10_000
    a = enumerate_set(SiftedSetSpec("A", N), table_1m)
    mu_sum = 0
    for d, mu in [(1, 1), (3, -1), (5, -1), (15, 1)]:
        mu_sum += mu * int(np.count_nonzero(a % d == 0))
    sifted = int(np.count_nonzero((a % 3 != 0) & (a % 5 != 0)))
    assert mu_sum == sifted


# -- bilinear discrepancy -----------------------------------------------------------------


def support_oracle(X, N, y, prime_list) -> list[int]:
    """n = p2 p3 < X with y <= p2 < p3, both prime to N, by a double loop."""
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
    return support


def bilinear_oracle(X, Y, Z, Dstar, N, y, prime_list) -> Fraction:
    """Brute-force triple loop, Fractions throughout, no package calls."""
    support = support_oracle(X, N, y, prime_list)
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
    assert bilinear_discrepancy_exact(100, 100, 50, 1, 19946, table_small) == 0


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



@pytest.mark.parametrize(
    "X, y, Dstar",
    [
        (77, 7.0, 10.5),  # X = 7 * 11 exactly: 77 is left out
        (77.5, 7.0, 10.5),  # just past it: 77 is in
        (143, 11.0, 9.25),  # y exactly the prime 11, X = 11 * 13
        (221, 11.000001, 12.5),  # y just past 11: p2 starts at 13
        (1, 2.0, 3.5),  # empty support
    ],
)
def test_bilinear_support_boundaries_against_oracle(table_small, X, y, Dstar):
    ps = primes_upto(500)
    N = 2 * 3 * 5 * 17
    got = _p2p3_support(X, N, y, table_small)
    assert got.tolist() == sorted(support_oracle(X, N, y, ps))
    got = bilinear_discrepancy_exact(X, 60, 5, Dstar, N, table_small, y=y)
    assert got == bilinear_oracle(X, 60, 5, Dstar, N, y, ps)

# -- scans ------------------------------------------------------------------------------


def scan_rows(report: ScanReport) -> list[list]:
    """Per-N rows [N, pi2, U_N, ratio] of Python numbers, read off `report.columns`."""
    return [list(row) for row in zip(*(c.tolist() for c in report.columns))]


def test_scan_full_small(table_small):
    rep = goldbach_chen_scan(10_000, table_small, mode="full")
    assert isinstance(rep, ScanReport)
    assert rep.floor_holds
    assert rep.min_pi2 >= 1
    assert rep.checked == len(range(6, 10_001, 2))


def test_scan_ratio_consistency(table_1m):
    rep = goldbach_chen_scan(5000, table_1m, mode="full", collect_rows=True)
    row = next(r for r in scan_rows(rep) if r[0] == 5000)
    ((_, pi2, _, _, _, _, _, ratio),) = zip(*lemma41_columns([5000], table_1m))
    assert row[1] == pi2
    assert row[3] == pytest.approx(ratio, rel=1e-3)


def test_scan_floor_mode(table_small):
    rep = goldbach_chen_scan(10_000, table_small, mode="floor")
    assert rep.floor_holds
    assert rep.failures == []
    assert rep.min_pi2 is None


# -- whole-array scan against the per-N oracle ----------------------------------------


def scan_oracle(N_max: int, table: PrimeTable) -> tuple[list[list], dict]:
    """The scan as a loop over N: pi2 from the P2 indicator over every m
    shifted by each prime, U_N by walking each N's spf chain, the ratio with
    math.log, and the summary with min and next.  Returns the rows and the
    full-mode summary."""
    spf = table.spf
    isp = table.isprime_array
    ps = table.primes
    ps = ps[: np.searchsorted(ps, N_max, side="left")]
    size = max(N_max, 1) + 1
    p2 = np.zeros(size, dtype=np.int64)
    p2[2:] = isp[2:size] | isp[np.arange(2, size) // spf[2:size]]
    counts = np.zeros(size, dtype=np.int64)
    for p in ps.tolist():
        counts[p:] += p2[: size - p]
    base = table.twin_product(table.limit).value

    def UN_of(N: int) -> float:
        local = 1.0
        n = N
        while n % 2 == 0:
            n //= 2
        while n > 1:
            p = int(spf[n])
            local *= (p - 1.0) / (p - 2.0)
            while n % p == 0:
                n //= p
        return base * local

    rows = []
    for N, c in zip(range(6, N_max + 1, 2), counts[6::2].tolist()):
        un = UN_of(N)
        logN = math.log(N)
        rows.append([N, c, un, c * logN * logN / (un * N)])
    failures = [N for N, c, _, _ in rows if c < 1]
    min_pi2 = min((c for _, c, _, _ in rows), default=None)
    min_ratio = min((r for _, _, _, r in rows), default=None)
    summary = dict(
        N_max=N_max,
        mode="full",
        checked=len(rows),
        floor_holds=not failures,
        failures=failures,
        min_pi2=min_pi2,
        argmin_pi2=next((N for N, c, _, _ in rows if c == min_pi2), None),
        min_ratio=min_ratio,
        argmin_ratio=next((N for N, _, _, r in rows if r == min_ratio), None),
    )
    return rows, summary


def assert_scan_matches_oracle(N_max: int, table: PrimeTable) -> None:
    rows, summary = scan_oracle(N_max, table)
    full = goldbach_chen_scan(N_max, table, mode="full", collect_rows=True)
    assert scan_rows(full) == rows
    assert [list(map(type, r)) for r in scan_rows(full)] == [list(map(type, r)) for r in rows]
    assert full.to_dict() == summary
    floor = goldbach_chen_scan(N_max, table, mode="floor")
    none = dict.fromkeys(["min_pi2", "argmin_pi2", "min_ratio", "argmin_ratio"])
    assert floor.to_dict() == dict(summary, mode="floor", **none)


@pytest.mark.parametrize(
    "N_max, limit",
    [(n, n) for n in range(4, 9)]
    + [(n, 10) for n in range(4, 9)]
    + [(5000, 5000), (5000, 100_000), (20_000, 20_000), (20_001, 20_001)]
    + [(20_000, 36_000), (36_000, 36_000), (36_000, 100_000)],
)
def test_scan_matches_per_N_oracle(N_max, limit):
    # A limit equal to N_max uses the last index of every array; a larger
    # one moves the U_N truncation point.
    assert_scan_matches_oracle(N_max, build_prime_table(limit))


def test_scan_matches_per_N_oracle_at_every_small_N_max():
    # Every FFT length from 8 to 512, and every floor scan whose sweeps run
    # until no N is left (below N_max = 126, 1/64 of the N is under one).
    for N_max in range(6, 401):
        assert_scan_matches_oracle(N_max, build_prime_table(N_max))


@pytest.mark.parametrize("k", range(10, 17))
def test_scan_matches_per_N_oracle_at_FFT_size_edges(k, monkeypatch):
    # The convolution length n is the power of two at or past N_max - 1, so
    # it doubles between N_max = 2**k and 2**k + 2.  A table at N_max uses
    # the last index of every array; the larger one runs each array past
    # N_max and moves the U_N truncation point.
    lengths = {}
    irfft = np.fft.irfft

    def spy(spectrum, n):
        lengths[N_max] = n
        return irfft(spectrum, n)

    monkeypatch.setattr(harness_mod.np.fft, "irfft", spy)
    larger = build_prime_table(2 ** (k + 1))
    for N_max in range(2**k - 2, 2**k + 4):
        assert_scan_matches_oracle(N_max, build_prime_table(N_max))
        assert_scan_matches_oracle(N_max, larger)
    assert lengths == {
        N_max: 2**k if N_max <= 2**k + 1 else 2 ** (k + 1)
        for N_max in range(2**k - 2, 2**k + 4)
    }


def test_percival_bound_is_rounded_up():
    # Against the formula at 50 digits, and below 1/2 by far at the table
    # cap: about pi(1e8) shifts, at most 5e7 odd m and n = 2**27.
    with mp.workdps(50):
        for a_sq, b_sq, n in [(1, 1, 4), (78_497, 210_035, 2**20), (5_761_454, 50_000_000, 2**27)]:
            k = n.bit_length() - 1
            u, beta = mp.mpf(2) ** -53, mp.mpf(2) ** -50
            growth = (1 + u) ** (3 * k) * (1 + u * mp.sqrt(5)) ** (3 * k + 1) * (1 + beta) ** (3 * k)
            exact = mp.sqrt(a_sq * b_sq) * (growth - 1)
            bound = harness_mod._percival_bound(a_sq, b_sq, n)
            assert exact <= mp.mpf(bound.numerator) / bound.denominator <= exact * (1 + 1e-6) + 1e-12
    assert harness_mod._percival_bound(5_761_454, 50_000_000, 2**27) < 1e-5


def test_floor_sweeps_with_and_without_a_sparse_remainder(monkeypatch):
    # With 3, 5 and 7 dropped from a 1e5 table, N = 8..20 have no
    # representation: fewer than 1/64 of the N, so the sweeps stop with
    # them unresolved and the sparse loop carries them through every later
    # prime.  Below N_max = 126, 1/64 of the N is under one, so the sweeps
    # run until every N is resolved and the sparse loop has none.
    packed = build_prime_table(100_000).packed.copy()
    packed[0] &= ~np.uint64(0b111)
    thin = PrimeTable(limit=100_000, packed=packed)
    zeros = [8, 10, 12, 14, 16, 18, 20]
    assert [N for N in range(6, 200, 2) if pi2_bruteforce(N, thin) == 0] == zeros
    assert goldbach_chen_scan(100_000, thin, mode="full").failures == zeros
    small = build_prime_table(124)
    # The sparse loop is the only caller of np.maximum in a floor scan, so
    # its calls show whether the sweeps left it any N.
    calls = []
    maximum = np.maximum
    monkeypatch.setattr(harness_mod.np, "maximum", lambda *a: calls.append(1) or maximum(*a))
    assert goldbach_chen_scan(124, small, mode="floor").floor_holds
    assert calls == []
    floor = goldbach_chen_scan(100_000, thin, mode="floor")
    assert calls
    monkeypatch.undo()
    assert floor.failures == zeros and not floor.floor_holds


# -- one-pass scan against the single-N oracle ----------------------------------------


@pytest.mark.parametrize("M", [20_000, 20_001])
def test_scan_every_N_matches_bruteforce(M):
    # The table ends exactly at M, so the last index of every array is used.
    table = build_prime_table(M)
    evens = list(range(6, M + 1, 2))
    full = goldbach_chen_scan(M, table, mode="full", collect_rows=True)
    assert [row[0] for row in scan_rows(full)] == evens
    for row in scan_rows(full):
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
    assert {row[0]: row[1] for row in scan_rows(full)} == want
    assert full.failures == zeros
    assert full.min_pi2 == 0 and full.argmin_pi2 == 8
    floor = goldbach_chen_scan(3000, thin, mode="floor")
    assert floor.failures == zeros
    assert not floor.floor_holds
    assert_scan_matches_oracle(3000, thin)


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
