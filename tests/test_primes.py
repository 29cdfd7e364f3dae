import math

import numpy as np
import pytest

from chensieve import primes as primes_mod
from chensieve.ball import GAMMA
from chensieve.cli import main
from chensieve.errors import CacheError, CapacityError, DomainError
from chensieve.primes import (
    build_prime_table,
    chebyshev,
    euler_phi,
    load_cache,
    mertens_product,
    omega,
    omega_range,
    recip_prime_sum,
    save_cache,
    singular_series_UN,
)


def trial_division_primes(limit):
    """Independent oracle: no sieve, no package code."""
    out = []
    for n in range(2, limit + 1):
        d = 2
        while d * d <= n:
            if n % d == 0:
                break
            d += 1
        else:
            out.append(n)
    return out


# -- construction ----------------------------------------------------------------


def test_small_table_matches_trial_division():
    t = build_prime_table(10)
    assert list(t.primes) == [2, 3, 5, 7]
    t = build_prime_table(1000)
    assert list(t.primes) == trial_division_primes(1000)


def test_prime_counts_at_powers_of_ten(table_1m):
    assert np.count_nonzero(table_1m.primes <= 100) == 25
    assert len(table_1m.primes) == 78498


def test_limit_validation():
    with pytest.raises(CapacityError):
        build_prime_table(1)
    with pytest.raises(CapacityError):
        build_prime_table(3_000_000_000)


def test_limit_cap_is_1e8():
    # an int32 spf array past 1e8 entries outgrows 400 MB
    with pytest.raises(CapacityError):
        build_prime_table(100_000_001)


def test_identical_result_across_threads_and_segmentation(monkeypatch):
    base = build_prime_table(300_000)
    for threads, seg in [(4, primes_mod.SEGMENT_SIZE), (8, 1 << 14), (1, 1 << 12)]:
        monkeypatch.setattr(primes_mod, "SEGMENT_SIZE", seg)
        other = build_prime_table(300_000, threads=threads)
        assert np.array_equal(base.packed, other.packed)


def smallest_divisor(n):
    """Independent oracle: the least d >= 2 dividing n, by trial division."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def test_every_small_limit_matches_trial_division():
    # covers every root the sieve's recursion on isqrt(limit) reaches
    for limit in range(2, 301):
        t = build_prime_table(limit)
        assert t.primes.tolist() == trial_division_primes(limit), limit
        assert t.spf.tolist() == [0, 1] + [smallest_divisor(n) for n in range(2, limit + 1)]


def test_spf_matches_trial_division_to_1e5():
    spf = build_prime_table(100_000).spf
    assert spf.dtype == np.int32
    assert spf.tolist() == [0, 1] + [smallest_divisor(n) for n in range(2, 100_001)]


def test_spf_invariants(table_small):
    spf = table_small.spf
    for n in range(2, 2000):
        p = int(spf[n])
        assert n % p == 0
        assert table_small.is_prime(p)
        if table_small.is_prime(n):
            assert p == n


def test_is_prime_agrees_with_array(table_small):
    arr = table_small.isprime_array
    for n in [0, 1, 2, 3, 4, 9973, 9999, 10000]:
        assert table_small.is_prime(n) == bool(arr[n])


# -- cache file -------------------------------------------------------------------


def test_cache_roundtrip(tmp_path, table_small):
    path = tmp_path / "pt.bin"
    save_cache(table_small, path)
    loaded = load_cache(path)
    assert loaded.limit == table_small.limit
    assert np.array_equal(loaded.packed, table_small.packed)
    assert list(loaded.primes[:5]) == [2, 3, 5, 7, 11]


def test_cache_header_layout(tmp_path, table_small):
    path = tmp_path / "pt.bin"
    save_cache(table_small, path)
    blob = path.read_bytes()
    assert blob.startswith(b"CHEN-PT1\n")
    assert blob[9:15] == b"10000\n"


def test_cache_validation(tmp_path, table_small):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTMAGIC\n10\n")
    with pytest.raises(CacheError):
        load_cache(bad)
    path = tmp_path / "trunc.bin"
    save_cache(table_small, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CacheError):
        load_cache(path)


def test_cache_header_past_cap(tmp_path):
    # a well-formed file whose limit is past the cap: the payload size matches
    limit = 200_000_000
    path = tmp_path / "big.bin"
    words = -(-((limit - 1) // 2) // 64)
    path.write_bytes(b"CHEN-PT1\n" + f"{limit}\n".encode("ascii") + bytes(8 * words))
    with pytest.raises(CacheError, match="out of range"):
        load_cache(path)


def test_build_uses_cache(tmp_path, monkeypatch, capsys):
    path = tmp_path / "pt.bin"
    argv = ["cache", "build", "--table-limit", "50000", "--cache-file", str(path)]
    assert main(argv) == 0
    assert np.array_equal(load_cache(path).packed, build_prime_table(50_000).packed)
    built = []
    monkeypatch.setattr(primes_mod, "build_prime_table", lambda *a, **k: built.append(a))
    assert main(argv) == 0
    assert built == []
    out, err = capsys.readouterr()
    assert out == f"{path}\n" * 2 and err == ""


# -- counting ---------------------------------------------------------------------


def test_primes_between_against_filter_oracle(table_small):
    ps = trial_division_primes(2_000)
    bounds = [0, 1, 2, 3, 10, 100, 1000, 1999]
    bounds += [q for q in (2, 3, 97, 1009, 1999)]
    bounds += [q + d for q in (2, 3, 97, 1009) for d in (-0.5, 0.5)]
    for a in bounds:
        for b in bounds:
            expect = [p for p in ps if a <= p < b]
            assert table_small.primes_between(a, b).tolist() == expect, (a, b)


# -- Chebyshev sums ----------------------------------------------------------------


def test_theta_at_two(table_small):
    assert abs(chebyshev(2, "theta", table_small) - math.log(2)) < 1e-15


def test_psi_at_ten(table_small):
    expect = 3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)
    assert abs(chebyshev(10, "psi", table_small) - expect) < 1e-14


def test_psi_113_two_summation_orders(table_small):
    value = chebyshev(113, "psi", table_small)
    # independent order: descending prime powers, plain accumulation
    terms = []
    for p in trial_division_primes(113):
        m = p
        while m <= 113:
            terms.append(math.log(p))
            m *= p
    assert abs(value - sum(sorted(terms, reverse=True))) < 1e-12


def test_theta_psi_ordering_and_gap(table_1m):
    for x in [10.0, 1000.0, 99_991.0, 1_000_000.0]:
        th = chebyshev(x, "theta", table_1m)
        ps = chebyshev(x, "psi", table_1m)
        assert th <= ps
        gap = sum(
            chebyshev(x ** (1.0 / a), "theta", table_1m)
            for a in range(2, int(math.log2(x)) + 1)
        )
        assert abs((ps - th) - gap) < 1e-9


def test_chebyshev_kind_validation(table_small):
    with pytest.raises(DomainError):
        chebyshev(10, "xi", table_small)


# -- omega -------------------------------------------------------------------------


def test_omega_examples():
    assert omega(12) == 2
    assert omega(1) == 0
    with pytest.raises(DomainError):
        omega(0)


def test_omega_range_matches_pointwise():
    arr = omega_range(3000)
    assert arr.dtype == np.uint8
    for n in range(2, 3000, 7):
        assert int(arr[n]) == omega(n)
    # tiny limits: omega(0) and omega(1) are stored as 0
    for limit in (0, 1, 2, 3):
        arr = omega_range(limit)
        assert arr.dtype == np.uint8
        assert arr.tolist() == [0, 0, 1, 1][: limit + 1]


def test_euler_phi():
    assert [euler_phi(k) for k in [1, 2, 4, 9, 12, 97]] == [1, 1, 2, 6, 4, 96]


# -- prime sums and products ----------------------------------------------------------


def test_mertens_product_exact_small(table_small):
    b = mertens_product(3, table_small)
    assert abs(b.value - 1.0 / 3.0) <= b.radius + 1e-16
    assert b.radius <= 1e-15


def test_mertens_product_log_domain_oracle(table_1m):
    b = mertens_product(10**6, table_1m)
    ps = table_1m.primes.astype(np.float64)
    oracle = math.exp(math.fsum(math.log1p(-1.0 / p) for p in ps))
    assert abs(b.value - oracle) < 1e-12


def test_mertens_enclosure_at_2973(table_1m):
    x = 2973.0
    b = mertens_product(x, table_1m)
    center = math.exp(-GAMMA) / math.log(x)
    width = center / (5.0 * math.log(x) ** 2)
    assert center - width - b.radius <= b.value <= center + width + b.radius


def test_recip_prime_sum_examples(table_small):
    b = recip_prime_sum(2, 3, table_small)
    assert abs(b.value - 0.5) <= b.radius
    b = recip_prime_sum(2, 11, table_small)
    assert abs(b.value - (0.5 + 1 / 3 + 0.2 + 1 / 7)) <= b.radius + 1e-15
    with pytest.raises(DomainError):
        recip_prime_sum(1.0, 10.0, table_small)


def test_recip_prime_sum_upper_bound(table_1m):
    a, b = 100.0, 100_000.0
    s = recip_prime_sum(a, b, table_1m)
    la, lb = math.log(a), math.log(b)
    bound = (
        math.log(lb) - math.log(la) + 1.0 / (5.0 * la**2) + 8.0 / (15.0 * la**3)
    )
    assert s.value + s.radius < bound


# -- singular series -------------------------------------------------------------------


def test_singular_series_ratios(table_1m):
    u4 = singular_series_UN(4, 1_000_000, table_1m)
    u6 = singular_series_UN(6, 1_000_000, table_1m)
    u30 = singular_series_UN(30, 1_000_000, table_1m)
    assert u6.value / u4.value == pytest.approx(2.0, abs=1e-14)
    assert u30.value / u4.value == pytest.approx(2.0 * (4.0 / 3.0), rel=1e-14)


def test_singular_series_contains_high_truncation_value(table_1m):
    u4 = singular_series_UN(4, 1_000_000, table_1m)
    t7 = build_prime_table(10_000_000)
    u4_hi = singular_series_UN(4, 10_000_000, t7)
    assert abs(u4.value - u4_hi.value) <= u4.radius
    assert u4_hi.radius < u4.radius


def test_singular_series_twin_product_memo():
    table = build_prime_table(200_000)
    first = table.twin_product(150_000)
    assert table.twin_product(150_000) is first
    fresh = build_prime_table(200_000).twin_product(150_000)
    assert repr(fresh) == repr(first)
    # the N-independent factor of U_N, so U_4 is it times the tail ball
    u4 = singular_series_UN(4, 150_000, table)
    assert u4.value / first.value == pytest.approx(1.0, abs=1e-5)
    assert set(table._twin) == {150_000}


def test_singular_series_validation(table_1m):
    with pytest.raises(DomainError):
        singular_series_UN(7, 1_000_000, table_1m)
    with pytest.raises(DomainError):
        singular_series_UN(4, 10_000, table_1m)


def test_twin_product_past_the_limit_matches_a_full_table():
    small = build_prime_table(2_000)
    ball = small.twin_product(100_000)
    assert ball == build_prime_table(100_000).twin_product(100_000)
    assert small.twin_product(100_000) is ball
    assert small.limit == 2_000
    assert singular_series_UN(30, 100_000, small) == singular_series_UN(30, 100_000)
