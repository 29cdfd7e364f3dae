import errno
import math
import os
import tracemalloc

import numpy as np
import pytest

from chensieve import primes as primes_mod
from chensieve.ball import GAMMA, U, Ball, exp_neg_gamma_ball, up
from chensieve.cli import main
from chensieve.errors import CacheError, CapacityError, DomainError
from chensieve.primes import (
    build_prime_table,
    euler_phi,
    factorize,
    load_cache,
    mertens_product,
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
    # the odd spf store and the primality array past 1e8 outgrow 200 MB
    with pytest.raises(CapacityError):
        build_prime_table(100_000_001)


def numpy_sieve_primes(limit):
    """Independent oracle: a whole-array sieve of Eratosthenes in numpy."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def packed_oracle(ps, limit):
    """The bitset of the odd primes ps (bit j for 3 + 2j <= limit), packed
    by numpy as little-endian 64-bit words."""
    n = (limit - 1) // 2 if limit >= 3 else 0
    flags = np.zeros(64 * -(-n // 64), dtype=bool)
    flags[(ps[ps > 2] - 3) // 2] = True
    return np.packbits(flags, bitorder="little").view("<u8")


def twin_factors(ps):
    """1 - 1/(p - 1)^2 over the odd primes of ps, as one whole array."""
    odd = ps[ps > 2].astype(np.float64)
    return 1.0 - 1.0 / (odd - 1.0) ** 2


def product_ball(factors):
    """float(np.prod(factors)) with the radius gamma_{3n} of all n factors."""
    v = float(np.prod(factors))
    m = 3.0 * len(factors)
    return Ball(v, up(abs(v) * (m * U / (1.0 - m * U))))


def test_identical_result_across_segmentation(monkeypatch):
    base = build_prime_table(300_000)
    cuts = (2, 3, 1000, 299_999)
    expect = [base.twin_product(P) for P in cuts], [mertens_product(P, base) for P in cuts]
    for seg, window in ((1 << 8, 1 << 6), (1 << 12, 1 << 10), (1 << 14, 1 << 3)):
        monkeypatch.setattr(primes_mod, "SEGMENT_SIZE", seg)
        monkeypatch.setattr(primes_mod, "WINDOW", window)
        other = build_prime_table(300_000)
        assert np.array_equal(base.packed, other.packed)
        assert np.array_equal(base.primes, other.primes)
        got = [other.twin_product(P) for P in cuts], [mertens_product(P, other) for P in cuts]
        assert got == expect


def boundary_limits(*sizes):
    """Limits whose odd count (limit - 1) // 2 is one of sizes, or one off."""
    counts = {n + d for n in sizes for d in (-1, 0, 1) if n + d >= 0}
    return sorted({lim for n in counts for lim in (2 * n + 1, 2 * n + 2) if lim >= 2})


def check_against_oracle(limit):
    ps = numpy_sieve_primes(limit)
    table = build_prime_table(limit)
    assert table.primes.tolist() == ps.tolist(), limit
    assert np.array_equal(table.packed, packed_oracle(ps, limit)), limit
    assert table.twin_product(limit) == 2.0 * exp_neg_gamma_ball() * product_ball(
        twin_factors(ps)
    ), limit


def test_limits_at_byte_word_and_window_edges(monkeypatch):
    # odd counts on and next to a byte, a 64-bit word and (with small windows)
    # the window edges of the sieve and of the unpacking, from 2 and 3 (odd
    # counts 0 and 1) on; 9 is the first limit with a base prime
    monkeypatch.setattr(primes_mod, "SEGMENT_SIZE", 1 << 5)
    monkeypatch.setattr(primes_mod, "WINDOW", 1 << 4)
    for limit in [8, 9] + boundary_limits(0, 8, 16, 32, 64, 96, 128, 192, 200):
        check_against_oracle(limit)


def test_limits_at_the_default_window_edges():
    w, s = primes_mod.WINDOW, primes_mod.SEGMENT_SIZE
    for limit in boundary_limits(w, 2 * w, s, s + w):
        check_against_oracle(limit)


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


def test_spf_prefix_matches_full_spf():
    full = build_prime_table(300).spf
    for n in range(2, 301):
        table = build_prime_table(300)
        prefix = table.spf_upto(n)
        assert len(prefix) == n + 1
        assert prefix.tolist() == full[: n + 1].tolist(), n
    assert table.spf is table.spf_upto(7)  # the full array is a prefix too


@pytest.mark.parametrize("order", [(10, 300, 50), (2, 3, 2, 299, 300, 9), (300, 2)])
def test_spf_prefix_keeps_the_longest_built(order):
    full = build_prime_table(300).spf.tolist()
    table = build_prime_table(300)
    longest = 0
    for n in order:
        spf = table.spf_upto(n)
        longest = max(longest, n)
        assert len(spf) == longest + 1
        assert spf.tolist() == full[: longest + 1]
    assert table.spf.tolist() == full


def test_spf_prefix_past_the_limit_is_rejected():
    with pytest.raises(CapacityError):
        build_prime_table(100).spf_upto(101)


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


def odd_spf_entry(m):
    """Trial-division oracle for the odd spf store: spf(m) for odd
    composite m, 0 at m = 1 and at the primes."""
    d = smallest_divisor(m)
    return 0 if d == m else d


def test_odd_spf_store_matches_trial_division_to_1e5():
    store = build_prime_table(100_000).odd_spf_upto(100_000)
    assert store.dtype == np.uint16
    assert store.tolist() == [odd_spf_entry(m) for m in range(1, 100_001, 2)]


@pytest.mark.parametrize("segment", [1 << 4, 1 << 7, primes_mod.SEGMENT_SIZE])
def test_odd_spf_store_at_powers_of_two(monkeypatch, segment):
    # small windows put window edges everywhere, the default one none below 2^20
    monkeypatch.setattr(primes_mod, "SEGMENT_SIZE", segment)
    for k in range(1, 13):
        for n in (2**k - 1, 2**k, 2**k + 1):
            store = build_prime_table(max(n, 2)).odd_spf_upto(n)
            assert store.tolist() == [odd_spf_entry(m) for m in range(1, n + 1, 2)], n


@pytest.mark.parametrize("n", [998, 999, 1000, 1001])
def test_odd_spf_store_keeps_a_long_enough_prefix(monkeypatch, n):
    """A store of (n + 1) // 2 entries covers every odd m <= n, so it is
    reused for every query up to n, and for n + 1 when n is odd; spf_upto
    expands it without sieving again."""
    built = []
    sieve = primes_mod._odd_spf
    monkeypatch.setattr(primes_mod, "_odd_spf", lambda limit: built.append(limit) or sieve(limit))
    table = build_prime_table(2000)
    store = table.odd_spf_upto(n)
    assert len(store) == (n + 1) // 2
    for m in (0, 1, 2, n - 2, n - 1, n):
        assert table.odd_spf_upto(m) is store
    assert table.spf_upto(n).tolist() == [0, 1] + [smallest_divisor(m) for m in range(2, n + 1)]
    assert built == [n]
    longer = table.odd_spf_upto(n + 1)
    if n % 2:
        assert longer is store and built == [n]
    else:
        assert len(longer) == n // 2 + 1 and built == [n, n + 1]
        assert longer[: len(store)].tolist() == store.tolist()


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_odd_spf_at_every_odd_m_to_1e5(dtype):
    """`odd_spf` gives spf(m) in m's dtype at every odd m <= 1e5, in any
    order, with m itself at 1 and at the primes: the int32 `spf_upto`
    expansion at the odd m, and trial division.  A store that stops short
    of max(m), or none, is sieved again to max(m) and no further, and an m
    past the limit is refused.  On a table whose bits mark 15 prime it
    still gives 3 there, as the store is sieved from its own base primes."""
    m = np.arange(1, 100_001, 2, dtype=dtype)
    want = [smallest_divisor(int(v)) for v in m]
    table = build_prime_table(200_000)
    table.odd_spf_upto(99)
    got = table.odd_spf(m[::-1])[::-1]
    assert got.dtype == dtype and got.tolist() == want
    assert len(table.odd_spf_upto(0)) == 50_000
    assert table.spf_upto(100_000)[1::2].tolist() == want
    packed = build_prime_table(100_000).packed.copy()
    packed[0] |= np.uint64(1 << 6)  # bit j is 3 + 2j
    damaged = primes_mod.PrimeTable(limit=100_000, packed=packed)
    assert damaged.is_prime(15)
    got = damaged.odd_spf(m)
    assert got.dtype == dtype and got.tolist() == want
    assert damaged.spf_upto(100_000)[1::2].tolist() == want
    with pytest.raises(CapacityError):
        damaged.odd_spf(np.array([100_001], dtype=dtype))


def test_is_prime_agrees_with_array(table_small):
    arr = table_small.isprime_array
    for n in [0, 1, 2, 3, 4, 9973, 9999, 10000]:
        assert table_small.is_prime(n) == bool(arr[n])


@pytest.mark.parametrize("limit", [3, 17, 18, 129, 130, 131, 1000, 300_001])
def test_is_prime_odd_reads_every_odd_m(limit):
    # 1 reads false, and the last byte's bits past the limit are set, so a
    # read of m = 1 at bit -1 would see them without the mask
    clean = build_prime_table(limit)
    tables = [clean]
    n = (limit - 1) // 2
    if n % 64:  # else the last word holds no bit past the limit
        packed = clean.packed.copy()
        packed[-1] |= ~np.uint64(0) << np.uint64(n % 64)
        tables.append(primes_mod.PrimeTable(limit=limit, packed=packed))
    m = np.arange(1, limit + 1, 2)
    want = [clean.is_prime(int(v)) for v in m]
    for dtype in (np.int32, np.int64):
        for table in tables:
            got = table.is_prime_odd(m.astype(dtype)[::-1])
            assert got.dtype == bool and got[::-1].tolist() == want, (limit, dtype)


def test_primes_upto_keeps_the_longest_prefix():
    full = build_prime_table(10_000).primes
    table = build_prime_table(10_000)
    first = table.primes_upto(100)
    assert first.tolist() == full[:25].tolist()
    assert table.primes_upto(97) is first and table.primes_upto(2) is first
    longer = table.primes_upto(5000)
    assert longer.tolist() == full[: np.searchsorted(full, 5000, side="right")].tolist()
    assert table.primes_upto(100) is longer
    whole = table.primes
    assert np.array_equal(whole, full)
    assert table.primes_upto(10_000) is whole and table.primes_upto(50) is whole
    with pytest.raises(CapacityError):
        table.primes_upto(10_001)


def test_bits_past_the_limit_are_ignored(monkeypatch):
    # a cache file's last word may carry set bits past the limit; they name
    # no prime, and isprime_array must not index past its end for them
    clean = build_prime_table(1000)
    packed = clean.packed.copy()
    packed[-1] |= np.uint64(1) << np.uint64(63)
    dirty = primes_mod.PrimeTable(limit=1000, packed=packed)
    assert np.array_equal(dirty.primes, clean.primes)
    assert np.array_equal(dirty.isprime_array, clean.isprime_array)
    # every bit past the limit set, on tables whose bits `primes` reads
    # through several windows (the default window at 300_001)
    for limit, window in ((1000, 1 << 4), (1000, 1 << 6), (300_001, primes_mod.WINDOW)):
        monkeypatch.setattr(primes_mod, "WINDOW", window)
        clean = build_prime_table(limit)
        n = (limit - 1) // 2
        assert n > 2 * window and n % 64
        packed = clean.packed.copy()
        packed[-1] |= ~np.uint64(0) << np.uint64(n % 64)
        dirty = primes_mod.PrimeTable(limit=limit, packed=packed)
        assert np.array_equal(dirty.primes, clean.primes)
        assert dirty.twin_product(limit) == clean.twin_product(limit)
        assert np.array_equal(dirty.isprime_array, clean.isprime_array)


@pytest.mark.parametrize("limit", [1000, 1001, 131_075, 300_003])
def test_cache_loaded_stray_bits_past_the_limit(tmp_path, limit):
    """A cache file whose last word carries every bit past the limit loads
    into a table whose primes, whole or as a prefix ending inside a byte,
    are the clean table's: the count that sizes the primes' array and the
    fill stop at the same bit."""
    clean = build_prime_table(limit)
    n = (limit - 1) // 2
    assert n % 64
    path = tmp_path / "pt.bin"
    save_cache(clean, path)
    raw = bytearray(path.read_bytes())
    raw[-8:] = (np.frombuffer(raw[-8:], "<u8") | ~np.uint64(0) << np.uint64(n % 64)).tobytes()
    path.write_bytes(bytes(raw))
    dirty = load_cache(path)
    assert not np.array_equal(dirty.packed, clean.packed)
    for m in (limit // 3 + 2, limit):
        assert (m - 1) // 2 % 8  # its bits end inside a byte
        want = clean.primes[clean.primes <= m]
        got = primes_mod.PrimeTable(limit=limit, packed=dirty.packed).primes_upto(m)
        assert np.array_equal(got[got <= m], want), m
    assert np.array_equal(dirty.primes, clean.primes)


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



def test_save_cache_error_names_the_given_path(tmp_path, table_small):
    path = tmp_path / "missing" / "x.bin"
    with pytest.raises(FileNotFoundError) as exc:
        save_cache(table_small, path)
    assert str(exc.value) == f"[Errno 2] No such file or directory: '{path}'"


def test_save_cache_failed_rename_leaves_no_temporary(tmp_path, table_small, monkeypatch):
    def refuse(src, dst):
        raise PermissionError(errno.EACCES, "Permission denied", src, dst)

    monkeypatch.setattr(os, "replace", refuse)
    path = tmp_path / "pt.bin"
    with pytest.raises(PermissionError) as exc:
        save_cache(table_small, path)
    assert str(exc.value) == f"[Errno 13] Permission denied: '{path}'"
    assert list(tmp_path.iterdir()) == []


def test_load_cache_reads_no_more_than_the_payload(tmp_path):
    # a valid 1000-limit file followed by 50 MB of extra bytes
    path = tmp_path / "long.bin"
    save_cache(build_prime_table(1000), path)
    with open(path, "ab") as fh:
        fh.write(bytes(50 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(CacheError, match="payload"):
            load_cache(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


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


# -- omega -------------------------------------------------------------------------


def test_omega_range_matches_pointwise():
    arr = omega_range(3000)
    assert arr.dtype == np.uint8
    for n in range(2, 3000, 7):
        assert int(arr[n]) == len(factorize(n))
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


@pytest.mark.parametrize("window", [1 << 6, None])
def test_windowed_products_match_the_whole_array_product(monkeypatch, window):
    # the twin and Mertens products multiply window by window, left to right;
    # their centres must be float(np.prod(...)) of the whole factor array, bit
    # for bit, and their radii must count every factor, at lengths W - 1, W,
    # W + 1 and 3W + 5 (W = WINDOW, the default one when window is None)
    if window is not None:
        monkeypatch.setattr(primes_mod, "WINDOW", window)
    w = primes_mod.WINDOW
    table = build_prime_table(3_000_000 if window is None else 10_000)
    ps = table.primes
    two_eg = 2.0 * exp_neg_gamma_ball()
    for n in (w - 1, w, w + 1, 3 * w + 5):
        odd = ps[1 : n + 1]  # n twin factors, one per odd prime <= ps[n]
        assert table.twin_product(int(ps[n])) == two_eg * product_ball(twin_factors(odd)), n
        # n Mertens factors, one per prime <= ps[n - 1]
        whole = 1.0 - 1.0 / ps[:n].astype(np.float64)
        assert mertens_product(int(ps[n - 1]), table) == product_ball(whole), n


def test_prime_table_passes_hold_no_second_full_size_array():
    # build, primes, then the twin product at the constants ledger's largest
    # table: beyond the arrays kept, only window-sized buffers
    limit = 9_865_089
    build_prime_table(1000).twin_product(1000)  # first-call allocations
    tracemalloc.start()
    try:
        table = build_prime_table(limit)
        kept = table.packed.nbytes + table.primes.nbytes
        table.twin_product(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= kept + (3 << 20)


def test_twin_product_past_the_limit_matches_a_full_table():
    small = build_prime_table(2_000)
    ball = small.twin_product(100_000)
    assert ball == build_prime_table(100_000).twin_product(100_000)
    assert small.twin_product(100_000) is ball
    assert small.limit == 2_000
    assert singular_series_UN(30, 100_000, small) == singular_series_UN(30, 100_000)
