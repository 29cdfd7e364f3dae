"""Exact prime and arithmetic-function engine over ranges up to ~1e8.

Everything here is integer-exact: a segmented odd-only bit sieve backs
primality, Chebyshev sums, smallest-prime-factor factorization, and the
handful of prime sums and products that the constants pipeline consumes as
Balls.

Tables are immutable after construction and safe to share across threads;
all queries are pure.  A table memoizes what it derives from its primes: the
lazily built arrays and, per truncation point P, the twin-prime factor of the
singular series (`PrimeTable.twin_product`).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .ball import EPS, Ball, exp_neg_gamma_ball
from .errors import CacheError, CapacityError, DomainError

# Largest supported table.  Memory is the constraint: an int32 spf array
# costs 4*limit bytes (~400 MB at this cap), the packed bitset ~limit/16.
IMPLEMENTATION_CAP = 100_000_000

CACHE_MAGIC = b"CHEN-PT1\n"

# Odd-index convention: bit/entry j represents the odd number 3 + 2j.


def _odd_count(limit: int) -> int:
    return (limit - 1) // 2 if limit >= 3 else 0


# Odd indices marked per sieve segment.  Segment writes are disjoint and
# position-fixed, so the result does not depend on this value.
SEGMENT_SIZE = 1 << 18


def _odd_primality(limit: int) -> np.ndarray:
    """Primality flags of the odd numbers 3 + 2j <= limit.

    A segmented odd-only sieve; its base primes, the odd primes up to
    isqrt(limit), come from the same sieve run at isqrt(limit).
    """
    n = _odd_count(limit)
    flags = np.ones(n, dtype=bool)
    if limit < 9:  # no odd composite below 9
        return flags
    base = (np.flatnonzero(_odd_primality(math.isqrt(limit))) * 2 + 3).tolist()
    for lo in range(0, n, SEGMENT_SIZE):
        hi = min(lo + SEGMENT_SIZE, n)
        for p in base:
            # the odd multiples of p from p*p on sit at (p*p - 3)//2 + k*p
            j = (p * p - 3) // 2
            if j < lo:
                j = lo + (j - lo) % p
            flags[j:hi:p] = False
    return flags


def _pack_odd_bits(flags: np.ndarray) -> np.ndarray:
    """Pack an odd-number primality bool array into little-endian u64 words."""
    bits = np.packbits(flags, bitorder="little")
    pad = (-len(bits)) % 8
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    return bits.view("<u8")


@dataclass
class PrimeTable:
    """Primality over [2, limit] plus lazily materialized helper arrays.

    `packed` holds one bit per odd number 3 + 2j (1 = prime) in little-endian
    64-bit words; this is also the cache-file payload.  The helper arrays and
    the twin-prime products are computed on first use and kept on the
    instance, so repeated queries return the same objects.
    """

    limit: int
    packed: np.ndarray
    _primes: np.ndarray | None = field(default=None, repr=False)
    _spf: np.ndarray | None = field(default=None, repr=False)
    _isprime: np.ndarray | None = field(default=None, repr=False)
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

    @property
    def odd_flags(self) -> np.ndarray:
        """Unpacked odd-number primality flags (bit j <-> 3 + 2j)."""
        n = _odd_count(self.limit)
        bits = np.unpackbits(self.packed.view(np.uint8), bitorder="little")
        return bits[:n].astype(bool)

    @property
    def primes(self) -> np.ndarray:
        if self._primes is None:
            odd = np.flatnonzero(self.odd_flags).astype(np.int64) * 2 + 3
            head = [2] if self.limit >= 2 else []
            self._primes = np.concatenate([np.asarray(head, dtype=np.int64), odd])
        return self._primes

    @property
    def isprime_array(self) -> np.ndarray:
        """Bool array over [0, limit] for vectorized membership tests."""
        if self._isprime is None:
            arr = np.zeros(self.limit + 1, dtype=bool)
            if self.limit >= 2:
                arr[2] = True
            if self.limit >= 3:
                arr[3 :: 2][: _odd_count(self.limit)] = self.odd_flags
            self._isprime = arr
        return self._isprime

    @property
    def spf(self) -> np.ndarray:
        """Smallest prime factor for every n in [0, limit] (spf[1] = 1)."""
        if self._spf is None:
            spf = np.zeros(self.limit + 1, dtype=np.int32)
            odd_base = np.flatnonzero(_odd_primality(math.isqrt(self.limit))) * 2 + 3
            # Largest base prime first, so the smallest prime dividing n
            # writes spf[n] last; what no base prime divides is 0, 1 or prime.
            for p in [*odd_base[::-1].tolist(), 2]:
                spf[p * p :: p] = p
            rest = np.flatnonzero(spf == 0)
            spf[rest] = rest
            self._spf = spf
        return self._spf

    def primes_between(self, a: float, b: float) -> np.ndarray:
        """Primes p with a <= p < b."""
        self._check_capacity(b - 1)
        ps = self.primes
        # For integer p, a <= p <=> ceil(a) <= p and p < b <=> p < ceil(b);
        # integer keys keep searchsorted from casting the array to float.
        lo = np.searchsorted(ps, math.ceil(a), side="left")
        hi = np.searchsorted(ps, math.ceil(b), side="left")
        return ps[lo:hi]

    def twin_product(self, P: int) -> Ball:
        """2 e^{-gamma} prod_{2 < p <= P} (1 - (p-1)^{-2}) with its rounding
        radius, the N-independent factor of the singular series truncated at
        P; computed once per P and kept on the table.  A P past the table's
        limit reads the product off a table built to P, once."""
        ball = self._twin.get(P)
        if ball is None:
            if P > self.limit:
                ball = build_prime_table(P).twin_product(P)
            else:
                ps = self.primes
                ps = ps[: np.searchsorted(ps, P, side="right")]
                odd = ps[ps > 2].astype(np.float64)
                prod = float(np.prod(1.0 - 1.0 / (odd - 1.0) ** 2))
                rel_round = (2.0 * len(odd) + 8.0) * EPS
                ball = 2.0 * exp_neg_gamma_ball() * Ball(prod, abs(prod) * rel_round)
            self._twin[P] = ball
        return ball


def build_prime_table(limit: int, *, threads: int = 1) -> PrimeTable:
    """Build the prime table for [2, limit] with the segmented odd-only sieve.

    `threads` is validated for compatibility and has no effect.
    """
    if not (2 <= limit <= IMPLEMENTATION_CAP):
        raise CapacityError(
            f"table limit must be in [2, {IMPLEMENTATION_CAP}], got {limit}"
        )
    if threads < 1:
        raise CapacityError(f"threads must be >= 1, got {threads}")
    return PrimeTable(limit=limit, packed=_pack_odd_bits(_odd_primality(limit)))


# -- cache file ---------------------------------------------------------------


def save_cache(table: PrimeTable, path: str | os.PathLike) -> None:
    """Write `<magic><ascii limit>\\n<little-endian u64 bitset>`."""
    payload = table.packed.astype("<u8").tobytes()
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(f"{table.limit}\n".encode("ascii"))
        fh.write(payload)
    os.replace(tmp, path)


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
        payload = fh.read()
    words = -(-_odd_count(limit) // 64)
    if len(payload) != 8 * words:
        raise CacheError(
            f"{path}: payload is {len(payload)} bytes, expected {8 * words}"
        )
    packed = np.frombuffer(payload, dtype="<u8").copy()
    return PrimeTable(limit=limit, packed=packed)


# -- Chebyshev sums -----------------------------------------------------------


def chebyshev(x: float, kind: str, table: PrimeTable) -> float:
    """theta(x) = sum of log p over p <= x; psi(x) also sums prime powers.

    Summation is deterministic: log values are accumulated with fsum in
    ascending order of p (and of p^a for psi).
    """
    table._check_capacity(x)
    if kind not in ("theta", "psi"):
        raise DomainError(f"kind must be 'theta' or 'psi', got {kind!r}")
    ps = table.primes
    ps = ps[: np.searchsorted(ps, math.floor(x), side="right")]
    terms = list(np.log(ps.astype(np.float64)))
    if kind == "psi":
        for p in ps[ps.astype(np.int64) ** 2 <= x]:
            p = int(p)
            lp = math.log(p)
            m = p * p
            while m <= x:
                terms.append(lp)
                m *= p
    return math.fsum(terms)


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


def omega(n: int) -> int:
    """Number of distinct prime factors."""
    if n < 1:
        raise DomainError(f"omega undefined for {n}")
    return len(factorize(n))


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
    """prod_{p <= x} (1 - 1/p) with a worst-case rounding radius."""
    if x < 2:
        raise DomainError(f"product needs x >= 2, got {x}")
    table._check_capacity(x)
    ps = table.primes
    ps = ps[: np.searchsorted(ps, math.floor(x), side="right")].astype(np.float64)
    value = float(np.prod(1.0 - 1.0 / ps))
    # Each factor carries <= 1 ulp input error, each multiply <= 1/2 ulp.
    rel = (2.0 * len(ps) + 4.0) * EPS
    return Ball(value, abs(value) * rel)


def recip_prime_sum(a: float, b: float, table: PrimeTable) -> Ball:
    """sum_{a <= p < b} 1/p with a rounding radius (fsum-based)."""
    if not (1.0 < a <= b):
        raise DomainError(f"need 1 < a <= b, got a={a}, b={b}")
    table._check_capacity(b)
    ps = table.primes_between(a, b).astype(np.float64)
    if len(ps) == 0:
        return Ball(0.0, 0.0)
    value = math.fsum(1.0 / ps)
    return Ball(value, 4.0 * EPS * (abs(value) + 1.0))


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
    return singular_series_of(factorize(N), truncation_limit, table)


def singular_series_of(
    factors: list[tuple[int, int]],
    truncation_limit: int,
    table: PrimeTable | None = None,
) -> Ball:
    """`singular_series_UN` for the N whose `factorize` output is `factors`,
    for callers that already factored N; the arguments are not re-checked."""
    if table is None:
        table = build_prime_table(truncation_limit)
    local = 1.0
    for p, _ in factors:
        if p > 2:
            local *= (p - 1.0) / (p - 2.0)

    base = table.twin_product(truncation_limit) * local
    t = 1.0 / (truncation_limit - 1.0)
    tail = t + t * t
    # True value = base * exp(-s) for some s in [0, tail]; center the ball.
    centered = base * Ball(1.0 - 0.5 * tail, 0.5 * tail + 4.0 * EPS)
    return centered
