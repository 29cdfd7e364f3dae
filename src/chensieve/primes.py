"""Exact prime and arithmetic-function engine over ranges up to ~1e8.

Everything here is integer-exact: one windowed odd-only sieve backs
primality and the smallest-prime-factor store, beside factorization and
the handful of prime sums and products that the constants pipeline
consumes as Balls.

Tables are immutable after construction and all queries are pure.  A table
memoizes what it derives: the primes' array and the odd spf store, each as
the longest prefix asked for, and, per truncation point P, the twin-prime
factor of the singular series (`PrimeTable.twin_product`).
Primality has one read, off the packed bits, and spf one, off the store.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .ball import Ball, ball_fsum, ball_prod, exp_neg_gamma_ball, up
from .errors import CacheError, CapacityError, DomainError

# Largest supported table.  Memory is the constraint: the odd smallest-
# prime-factor store costs a byte per integer (~100 MB at this cap), the
# packed bitset ~limit/16 and the primes 8 bytes each; primality is read
# off the bitset and spf off the store, and nothing in the package builds a
# primality array of a byte per integer or an int32 spf array.
IMPLEMENTATION_CAP = 100_000_000

CACHE_MAGIC = b"CHEN-PT1\n"

# Odd-index conventions: bit j of the bitset represents the odd number 3 + 2j;
# entry j of the sieve's windows and of the spf store represents 2j + 1.


def _odd_count(limit: int) -> int:
    return (limit - 1) // 2 if limit >= 3 else 0


# Window sizes of the whole-range passes.  Windows are disjoint and
# position-fixed, so no result depends on either value; each is a multiple of
# 8, so that a window of bits is whole bytes.  SEGMENT_SIZE is the odd entries
# marked per sieve window.  WINDOW is the bits unpacked at a time, for the
# primes' array and for the factors of a product alike; at
# 2^16 a window's flags (64 KiB) and prime offsets (under 100 KiB) stay below
# glibc's default 128 KiB mmap threshold, so each window reuses heap memory
# where a fresh mapping would fault in every page.
SEGMENT_SIZE = 1 << 19
WINDOW = 1 << 16


def _sieve_odd(start: int, stop: int, base: list[int], marks: list, window) -> Iterator:
    """The sieve's one loop, over the odd m = 2j + 1 with start <= j < stop, a
    window of SEGMENT_SIZE entries at a time.  `window(lo, hi)` gives the
    array whose entry j - lo stands for m, in which each base prime p of
    `base`, in that order, writes its mark (the entry of `marks` beside it)
    at the odd multiples of p from p*p on.  Each marked window is yielded
    with its first j."""
    for lo in range(start, stop, SEGMENT_SIZE):
        out = window(lo, min(lo + SEGMENT_SIZE, stop))
        for p, mark in zip(base, marks):
            j = p * p // 2 - lo
            out[j if j >= 0 else j % p :: p] = mark
        yield lo, out


def _odd_base(limit: int) -> list[int]:
    """The odd primes up to isqrt(limit), from the sieve run at isqrt(limit)
    (limit >= 9)."""
    root = math.isqrt(limit)
    return _bits_to_primes(_packed_bits(root), _odd_count(root))[1:].tolist()


def _packed_bits(limit: int) -> np.ndarray:
    """The primality bits of the odd numbers 3 + 2j <= limit (bit j) in
    little-endian u64 words.  Each window is sieved into one reused flag
    buffer and packed straight into its bytes of the words."""
    n = _odd_count(limit)
    packed = np.zeros(-(-n // 64), dtype="<u8")
    dest = packed.view(np.uint8)
    buf = np.empty(min(n, SEGMENT_SIZE), dtype=bool)

    def window(lo: int, hi: int) -> np.ndarray:
        flags = buf[: hi - lo]
        flags.fill(True)
        return flags

    base = _odd_base(limit) if limit >= 9 else []  # no odd composite below 9
    # entry j of the sieve is bit j - 1: the windows start at j = 1 (m = 3)
    for lo, flags in _sieve_odd(1, n + 1, base, [False] * len(base), window):
        bits = np.packbits(flags, bitorder="little")
        first = (lo - 1) // 8
        dest[first : first + len(bits)] = bits
    return packed


def _bit_windows(packed: np.ndarray, n: int) -> Iterator[tuple[int, np.ndarray]]:
    """The bits j < n of `packed` as bool flags, WINDOW at a time, each
    window with its first j; bits at j >= n are never unpacked."""
    data = packed.view(np.uint8)
    for lo in range(0, n, WINDOW):
        hi = min(lo + WINDOW, n)
        bits = np.unpackbits(data[lo // 8 : -(-hi // 8)], count=hi - lo, bitorder="little")
        yield lo, bits.view(bool)


def _odd_prime_windows(packed: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """The odd primes 3 + 2j whose bit j < n is set in `packed`, ascending,
    as one int64 array per window of bits (`_bit_windows`)."""
    for lo, bits in _bit_windows(packed, n):
        odd = np.flatnonzero(bits)  # ~5x faster on bool than on uint8
        odd *= 2
        odd += 3 + 2 * lo
        yield odd


def _bits_to_primes(packed: np.ndarray, n: int) -> np.ndarray:
    """2, then the odd primes 3 + 2j whose bit j < n is set in `packed`, as
    one int64 array.  The set bits are counted first, so the array is
    allocated once and then filled a window at a time."""
    count = 1 + sum(np.count_nonzero(bits) for _, bits in _bit_windows(packed, n))
    out = np.empty(count, dtype=np.int64)
    out[0] = 2
    pos = 1
    for odd in _odd_prime_windows(packed, n):
        out[pos : pos + len(odd)] = odd
        pos += len(odd)
    return out


def _odd_spf(limit: int) -> np.ndarray:
    """The odd spf store to `limit`: entry j is the smallest prime factor of
    m = 2j + 1 <= limit as uint16, or 0 where m is 1 or a prime.  The base
    primes go largest first, each marking with itself, so in each window the
    smallest one dividing m writes its entry last; every base prime is at
    most isqrt(1e8) = 10^4, below 2^16."""
    store = np.zeros((limit + 1) // 2, dtype=np.uint16)
    if limit >= 9:
        base = _odd_base(limit)[::-1]
        for _ in _sieve_odd(0, len(store), base, base, lambda lo, hi: store[lo:hi]):
            pass
    return store


@dataclass
class PrimeTable:
    """Primality over [2, limit] plus lazily materialized helper arrays.

    `packed` holds one bit per odd number 3 + 2j (1 = prime) in little-endian
    64-bit words; this is also the cache-file payload, and the one source of
    primality that the engines read (`is_prime_odd`, `bit_windows`).  It is
    the only array of the table's size that a build makes, and every pass
    over the whole range (the sieve, the unpacking of `primes`, the factors
    of a product) runs a window at a time, so a pass holds nothing of that
    size beside `packed` and the array it returns; the products read their
    primes straight off the bits and build no array of them.  The primes
    and the odd spf store are computed on first use and kept as the
    longest prefix asked for so far (`primes_upto`, `odd_spf_upto`), so a
    caller that reads them only below n builds them only that far, and
    the twin-prime products are kept per truncation point.  Everything
    but the scan's P2 indicator reads spf through `odd_spf`.
    """

    limit: int
    packed: np.ndarray
    _primes: np.ndarray | None = field(default=None, repr=False)
    _primes_to: int = field(default=0, repr=False)
    _store: np.ndarray | None = field(default=None, repr=False)
    _twin: dict[int, Ball] = field(default_factory=dict, repr=False)

    def _check_capacity(self, x: float) -> None:
        if x > self.limit:
            raise CapacityError(f"query at {x} exceeds table limit {self.limit}")

    # -- primality ----------------------------------------------------------

    def is_prime(self, n: int) -> bool:
        if n > self.limit:
            raise CapacityError(f"primality query {n} exceeds limit {self.limit}")
        if n < 2:
            return False
        if n == 2:
            return True
        if n % 2 == 0:
            return False
        j = (n - 3) // 2
        return bool((int(self.packed[j >> 6]) >> (j & 63)) & 1)

    def is_prime_odd(self, m: np.ndarray) -> np.ndarray:
        """Whether each odd m of the int array `m` (1 <= m <= limit) is
        prime, as bool, read off the bits: bit (m - 3) / 2, and false at
        m = 1.  The bytes hold 8 odd numbers each, so the reads stay in
        limit/16 bytes, where a byte-per-integer array spans limit."""
        j = m >> 1
        j -= 1  # the bit of m; -1 at m = 1, which the mask below clears
        offset = j.astype(np.uint8)  # j's low bits, in an eighth of j's bytes
        offset &= 7
        j >>= 3
        flags = self.packed.view(np.uint8)[j]
        np.right_shift(flags, offset, out=flags)
        flags &= 1
        prime = flags.view(bool)
        prime &= m != 1
        return prime

    def bit_windows(self, n: int) -> Iterator[tuple[int, np.ndarray]]:
        """The primality bits of the odd m = 3 + 2j <= n as bool flags,
        WINDOW bits at a time, each window with its first j."""
        self._check_capacity(n)
        return _bit_windows(self.packed, _odd_count(n))

    def odd_prime_windows(self, n: int) -> Iterator[np.ndarray]:
        """The odd primes up to n, ascending, as one int64 array per window
        of WINDOW bits."""
        self._check_capacity(n)
        return _odd_prime_windows(self.packed, _odd_count(n))

    @property
    def primes(self) -> np.ndarray:
        """Every prime up to the limit, ascending, as one int64 array read
        off the bits a window at a time (`_bits_to_primes`); set bits past
        the limit, which a cache file's last word may carry, are ignored.
        It is the `primes_upto` prefix that reaches the limit."""
        return self.primes_upto(self.limit)

    def primes_upto(self, n: int) -> np.ndarray:
        """The primes up to n, ascending, read off the bits only that far.
        As with `odd_spf_upto`, the longest prefix built is kept, so the
        array returned may run past n."""
        self._check_capacity(n)
        if self._primes is None or self._primes_to < n:
            self._primes = _bits_to_primes(self.packed, _odd_count(n))
            self._primes_to = n
        return self._primes

    @property
    def isprime_array(self) -> np.ndarray:
        """Bool array over [0, limit], a byte per integer, built afresh off
        the primes on each read.  Nothing in the package reads it; it stays
        while the benchmark's tracer patches it, and goes with the tracer's
        re-map (ROADMAP item 11)."""
        arr = np.zeros(self.limit + 1, dtype=bool)
        arr[self.primes] = True
        return arr

    def odd_spf_upto(self, n: int) -> np.ndarray:
        """The odd spf store for every odd m <= n (`_odd_spf`): entry j is
        spf(2j + 1) as uint16, or 0 where 2j + 1 is 1 or a prime.  It is
        sieved only that far, from its own base primes, never from the
        table's bits.  The longest store built is kept, so it may run past
        n; one of at least (n + 1) // 2 entries already covers n."""
        self._check_capacity(n)
        if self._store is None or len(self._store) < (n + 1) // 2:
            self._store = _odd_spf(n)
        return self._store

    def odd_spf(self, m: np.ndarray) -> np.ndarray:
        """spf of each odd m of the int array `m` (1 <= m <= limit), in m's
        dtype, with m itself at 1 and at the primes.  A store that stops
        short of max(m) is sieved that far first."""
        try:  # no pass over m when the store reaches it: the walks call this per round
            s = self._store[m >> 1]
        except (TypeError, IndexError):  # no store yet, or one short of max(m)
            s = self.odd_spf_upto(int(m.max(initial=1)))[m >> 1]
        s = s.astype(m.dtype)  # drop the entries before the fill: fewer page faults
        s += np.multiply(m, s == 0, dtype=m.dtype)
        return s

    @property
    def spf(self) -> np.ndarray:
        """Smallest prime factor for every n in [0, limit] (spf[1] = 1) as
        int32, expanded afresh from `odd_spf` on each read.  Nothing in the
        package reads it; it stays while the benchmark's tracer patches it,
        and goes with the tracer's re-map (ROADMAP item 11)."""
        spf = np.arange(self.limit + 1, dtype=np.int32)
        spf[4::2] = 2
        spf[1::2] = self.odd_spf(spf[1::2])
        return spf

    def primes_between(self, a: float, b: float) -> np.ndarray:
        """Primes p with a <= p < b, from the `primes_upto(ceil(b) - 1)`
        prefix, so they are unpacked only as far as b."""
        ps = self.primes_upto(math.ceil(b) - 1)
        # For integer p, a <= p <=> ceil(a) <= p and p < b <=> p < ceil(b);
        # integer keys keep searchsorted from casting the array to float.
        lo = np.searchsorted(ps, math.ceil(a), side="left")
        hi = np.searchsorted(ps, math.ceil(b), side="left")
        return ps[lo:hi]

    def twin_product(self, P: int) -> Ball:
        """2 e^{-gamma} prod_{2 < p <= P} (1 - (p-1)^{-2}) with its rounding
        radius, the N-independent factor of the singular series truncated at
        P; computed once per P and kept on the table.  The factors are formed
        off the bits a window at a time (`odd_prime_windows`) and multiplied
        in order (`ball_prod`), so the centre is `float(np.prod(...))` of the
        whole factor array, the radius counts every factor, and no array of
        the primes is built.  (p - 1)^2 = 4 ((p - 1)/2)^2 is exact below
        2^55.  A P past the table's limit reads the product off a table
        built to P, once."""
        ball = self._twin.get(P)
        if ball is None:
            if P > self.limit:
                ball = build_prime_table(P).twin_product(P)
            else:
                factors = (1.0 - 1.0 / np.square(p - 1.0) for p in self.odd_prime_windows(P))
                ball = 2.0 * exp_neg_gamma_ball() * ball_prod(factors)
            self._twin[P] = ball
        return ball


def build_prime_table(limit: int) -> PrimeTable:
    """Build the prime table for [2, limit] with the segmented odd-only sieve."""
    if not (2 <= limit <= IMPLEMENTATION_CAP):
        raise CapacityError(
            f"table limit must be in [2, {IMPLEMENTATION_CAP}], got {limit}"
        )
    return PrimeTable(limit=limit, packed=_packed_bits(limit))


# -- cache file ---------------------------------------------------------------


def save_cache(table: PrimeTable, path: str | os.PathLike) -> None:
    """Write `<magic><ascii limit>\\n<little-endian u64 bitset>`.

    The file is written under a temporary name and renamed into place; if
    that fails, the temporary is removed and the error names `path`.
    """
    payload = table.packed.astype("<u8").tobytes()
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CACHE_MAGIC)
            fh.write(f"{table.limit}\n".encode("ascii"))
            fh.write(payload)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None


def load_cache(path: str | os.PathLike) -> PrimeTable:
    with open(path, "rb") as fh:
        magic = fh.read(len(CACHE_MAGIC))
        if magic != CACHE_MAGIC:
            raise CacheError(f"{path}: bad magic {magic!r}")
        line = fh.readline(32)
        try:
            limit = int(line.strip())
        except ValueError as exc:
            raise CacheError(f"{path}: unreadable limit line {line!r}") from exc
        if not (2 <= limit <= IMPLEMENTATION_CAP):
            raise CacheError(f"{path}: limit {limit} out of range")
        size = 8 * -(-_odd_count(limit) // 64)
        # one byte past the payload is enough to tell a file that is too long
        payload = fh.read(size + 1)
    if len(payload) != size:
        got = len(payload) if len(payload) < size else f"more than {size}"
        raise CacheError(f"{path}: payload is {got} bytes, expected {size}")
    packed = np.frombuffer(payload, dtype="<u8").copy()
    return PrimeTable(limit=limit, packed=packed)


# -- multiplicative helpers ---------------------------------------------------


def factorize(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization (p, exponent), ascending p."""
    if n < 1:
        raise DomainError(f"cannot factor {n}")
    out: list[tuple[int, int]] = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return out


def omega_range(limit: int) -> np.ndarray:
    """omega(n) for all n in [0, limit]: one increment per prime divisor."""
    counts = np.zeros(limit + 1, dtype=np.uint8)
    if limit >= 2:
        for p in build_prime_table(limit).primes.tolist():
            counts[p::p] += 1
    return counts


def euler_phi(k: int) -> int:
    if k < 1:
        raise DomainError(f"phi undefined for {k}")
    result = k
    for p, _ in factorize(k):
        result -= result // p
    return result


# -- prime sums and products as Balls -----------------------------------------


def mertens_product(x: float, table: PrimeTable) -> Ball:
    """prod_{p <= x} (1 - 1/p) with its rounding radius: 1/2, then the odd
    primes' factors formed off the bits and multiplied a window at a time,
    as in `PrimeTable.twin_product`."""
    if x < 2:
        raise DomainError(f"product needs x >= 2, got {x}")
    table._check_capacity(x)
    odd = table.odd_prime_windows(math.floor(x))
    return ball_prod(itertools.chain([np.array([0.5])], (1.0 - 1.0 / p for p in odd)))


def recip_prime_sum(a: float, b: float, table: PrimeTable) -> Ball:
    """sum_{a <= p < b} 1/p with a rounding radius (fsum-based)."""
    if not (1.0 < a <= b):
        raise DomainError(f"need 1 < a <= b, got a={a}, b={b}")
    table._check_capacity(b)
    ps = table.primes_between(a, b).astype(np.float64)
    if len(ps) == 0:
        return Ball(0.0, 0.0)
    return ball_fsum(1.0 / ps)


def singular_series_UN(
    N: int,
    truncation_limit: int,
    table: PrimeTable | None = None,
) -> Ball:
    """Singular series 2 e^{-gamma} prod_{p>2}(1 - (p-1)^{-2}) * local factor.

    The infinite product is truncated at `truncation_limit` = P; the tail is
    enclosed via sum_{p > P} 1/(p-1)^2 <= sum_{n >= P} 1/(n(n-1)) = 1/(P-1),
    which bounds |log tail| by T + T^2 with T = 1/(P-1).
    """
    if N < 4 or N % 2 != 0:
        raise DomainError(f"N must be even and >= 4, got {N}")
    if truncation_limit < 100_000:
        raise DomainError(
            f"truncation limit must be >= 1e5, got {truncation_limit}"
        )
    if table is None:
        table = build_prime_table(truncation_limit)
    local = Ball.exact(1.0)
    for p, _ in factorize(N):
        if p > 2:
            local = local * (Ball.exact(p - 1.0) / (p - 2.0))

    base = table.twin_product(truncation_limit) * local
    half = 0.5 * series_tail(truncation_limit)
    # True value = base * exp(-s) for some s in [0, tail], so the factor lies
    # in [1 - tail, 1]; `up` covers the tail's own rounding.
    return base * (1.0 - Ball(half, up(half)))


def series_tail(truncation_limit: int) -> float:
    """T + T^2 with T = 1/(P - 1): the bound on |log| of the singular
    series' tail past the truncation point P."""
    t = 1.0 / (truncation_limit - 1.0)
    return t + t * t
