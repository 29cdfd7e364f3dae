"""Exact desk-scale realization of the sifted sets and identities.

There are three base families: the shifted-prime set A = {N - p : p <= N,
p does not divide N}, its prime-multiple subsets A_q, and the triple-product
companion set B = {N - p1 p2 p3 : z <= p1 < y <= p2 <= p3, p1 p2 p3 < N,
coprime to N}, with z = N^{1/8}, y = N^{1/3} by default.  Everything is
computed by direct enumeration and integer arithmetic, so identity checks
are exact, not approximate.  Sifting by a prime p always means removing the
elements divisible by p; primes dividing N are never used as sifting primes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ball import Ball
from .errors import CapacityError, DomainError
from .primes import PrimeTable, euler_phi, factorize, singular_series_of

_SAMPLE_CAP = 64

BASES = ("A", "A_sub_q", "B")


@dataclass(frozen=True)
class SiftedSetSpec:
    """Description of a sifted set: base family and defining parameters."""

    base: str
    N: int
    z: float | None = None
    y: float | None = None
    q: int | None = None

    def __post_init__(self) -> None:
        if self.base not in BASES:
            raise DomainError(f"unknown base {self.base!r}; expected one of {BASES}")
        if self.N % 2 != 0 or self.N < 4:
            raise DomainError(f"N must be even and >= 4, got {self.N}")
        if self.z is None:
            object.__setattr__(self, "z", self.N ** 0.125)
        if self.y is None:
            object.__setattr__(self, "y", self.N ** (1.0 / 3.0))
        if self.base == "A_sub_q" and self.q is None:
            raise DomainError("A_sub_q needs the prime q")

    @property
    def sift_level(self) -> float:
        """Default sifting level: z for the A family, y for the B family."""
        return self.y if self.base == "B" else self.z


@dataclass(frozen=True)
class SiftResult:
    count: int
    survivors_sample: tuple[int, ...]
    spec: SiftedSetSpec


def _check_table(N: int, table: PrimeTable) -> None:
    if N > table.limit:
        raise CapacityError(f"N={N} exceeds table limit {table.limit}")


def _divisor_primes(N: int) -> list[int]:
    return [p for p, _ in factorize(N)]


def _base_A(N: int, table: PrimeTable, divisors: list[int]) -> np.ndarray:
    """A = {N - p : p <= N, p not in `divisors`} (the primes dividing N)."""
    ps = table.primes
    ps = ps[: np.searchsorted(ps, N, side="right")]
    keep = np.ones(len(ps), dtype=bool)
    keep[np.searchsorted(ps, divisors)] = False
    a = ps[keep]
    return np.subtract(N, a, out=a)


def _ranges(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated aranges [starts[i], stops[i]) and each range's length."""
    lens = np.maximum(stops - starts, 0)
    ends = np.cumsum(lens)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - (ends - lens), lens), lens


def _triple_elements(N: int, table: PrimeTable, z: float, y: float) -> np.ndarray:
    """B in ascending (p1, p2, p3) order: p1 in [z, y), y <= p2 <= p3, and
    p1, p2, p3 coprime to N.

    The product constraint p1 p2 p3 < N is enforced exactly, through
    p1 p2^2 < N and p3 <= (N - 1) // (p1 p2).
    """
    ps = table.primes
    p1s = ps[np.searchsorted(ps, math.ceil(z)) : np.searchsorted(ps, math.ceil(y))]
    p1s = p1s[N % p1s != 0]
    p2_start = int(np.searchsorted(ps, math.ceil(y)))
    p2_max = [math.isqrt((N - 1) // p1) for p1 in p1s.tolist()]
    j2, lens = _ranges(p2_start, np.searchsorted(ps, p2_max, side="right"))
    p1 = np.repeat(p1s, lens)
    p2 = ps[j2]
    keep = N % p2 != 0
    j2, p1, p2 = j2[keep], p1[keep], p2[keep]
    j3, lens = _ranges(j2, np.searchsorted(ps, (N - 1) // (p1 * p2), side="right"))
    p1 = np.repeat(p1, lens)
    p2 = np.repeat(p2, lens)
    p3 = ps[j3]
    keep = N % p3 != 0
    return N - p1[keep] * p2[keep] * p3[keep]


def enumerate_set(spec: SiftedSetSpec, table: PrimeTable) -> np.ndarray:
    """Elements of the set, in deterministic ascending generating-prime order."""
    _check_table(spec.N, table)
    N = spec.N
    if spec.base == "A":
        return _base_A(N, table, _divisor_primes(N))
    if spec.base == "A_sub_q":
        a = _base_A(N, table, _divisor_primes(N))
        return a[a % spec.q == 0]
    return _triple_elements(N, table, spec.z, spec.y)


def _sifting_primes(N: int, level: float, table: PrimeTable) -> list[int]:
    ps = table.primes_between(2, level)
    return [int(p) for p in ps if N % int(p) != 0]


def sift_count(
    spec: SiftedSetSpec,
    table: PrimeTable,
    level: float | None = None,
) -> SiftResult:
    """S(set, P(level)): elements with no prime factor below `level` among
    the sifting primes (level defaults to z for A-type, y for B-type)."""
    elements = enumerate_set(spec, table)
    if level is None:
        level = spec.sift_level
    survivors = np.ones(len(elements), dtype=bool)
    for p in _sifting_primes(spec.N, level, table):
        survivors &= elements % p != 0
    kept = elements[survivors]
    return SiftResult(int(len(kept)), tuple(int(v) for v in kept[:_SAMPLE_CAP]), spec)


# -- representation counting ----------------------------------------------------


def pi2_bruteforce(N: int, table: PrimeTable) -> int:
    """Number of primes p < N with N - p >= 2 and Omega(N - p) <= 2.

    Counts representations of N as a prime plus a product of at most two
    primes (with multiplicity; the prime summand is the distinguished one,
    each p counted once).
    """
    if N % 2 != 0 or N < 4:
        raise DomainError(f"N must be even and >= 4, got {N}")
    _check_table(N, table)
    ps = table.primes
    ps = ps[: np.searchsorted(ps, N, side="left")]
    m = (N - ps).astype(np.int64)
    spf = table.spf
    isp = table.isprime_array
    cof = m // spf[m]
    ok = (m >= 2) & (isp[m] | isp[cof])
    return int(np.count_nonzero(ok))


# -- the decomposition inequality -------------------------------------------------


@dataclass
class DecompositionCheck:
    """Both sides of the lemma-4.1 decomposition
    pi2(N) > S(A,P(z)) - 1/2 sum_{z<=q<y} S(A_q,P(z)) - 1/2 S(B,P(y))
             - 2 N^{7/8} - 2 N^{1/3},
    evaluated exactly.  Informative at desk scale: the inequality targets
    asymptotic N, so small-N margins are recorded, not gated."""

    N: int
    z: float
    y: float
    pi2: int
    S_A: int
    sum_S_Aq: int
    S_B: int
    rhs: float
    margin: float
    UN: Ball
    ratio: float

    def to_row(self) -> list:
        return [
            self.N,
            self.pi2,
            self.S_A,
            self.sum_S_Aq,
            self.S_B,
            self.margin,
            self.UN.value,
            self.ratio,
        ]


def _survivors(elements: np.ndarray, level: float, spf: np.ndarray) -> np.ndarray:
    """Elements with no prime factor below `level`.  Exact as a sift by the
    primes below `level` that do not divide N, because every element passed
    here is coprime to N."""
    alive = spf[elements] >= math.ceil(level)
    alive |= elements == 1
    return elements[alive]


def check_lemma41(
    N: int,
    table: PrimeTable,
    *,
    z_exp: float = 0.125,
    y_exp: float = 1.0 / 3.0,
) -> DecompositionCheck:
    """Both sides of the decomposition at one N, in one pass: A and B are
    enumerated once and sifted through the spf array (their elements are
    coprime to N), and S(A_q, P(z)) counts the multiples of q among A's
    survivors, since no q >= z is a sifting prime.  Equal, term by term, to
    the general `sift_count` path."""
    if N % 2 != 0 or N < 6:
        raise DomainError(f"N must be even and >= 6, got {N}")
    _check_table(N, table)
    z = N ** z_exp
    y = N ** y_exp
    factors = factorize(N)
    # pi2 first, so its temporaries are freed before A and B are built.
    pi2 = pi2_bruteforce(N, table)
    spf = table.spf
    survivors = _survivors(_base_A(N, table, [p for p, _ in factors]), z, spf)
    S_A = len(survivors)
    sum_S_Aq = 0
    for q in table.primes_between(z, y).tolist():
        if N % q != 0:
            sum_S_Aq += int(np.count_nonzero(survivors % q == 0))
    del survivors
    B = _triple_elements(N, table, z, y)
    S_B = len(_survivors(B, y, spf))
    del B
    rhs = S_A - 0.5 * sum_S_Aq - 0.5 * S_B - 2.0 * N ** 0.875 - 2.0 * N ** (1.0 / 3.0)
    UN = singular_series_of(factors, max(100_000, min(table.limit, 1_000_000)), table)
    logN = math.log(N)
    ratio = pi2 * logN * logN / (UN.value * N)
    return DecompositionCheck(
        N=N,
        z=z,
        y=y,
        pi2=pi2,
        S_A=S_A,
        sum_S_Aq=sum_S_Aq,
        S_B=S_B,
        rhs=rhs,
        margin=pi2 - rhs,
        UN=UN,
        ratio=ratio,
    )


# -- inclusion-exclusion identity -------------------------------------------------


def inclusion_exclusion_check(
    N: int, z: float, q_list: list[int], table: PrimeTable
) -> bool:
    """Exact check of the alternating identity that removes the excluded
    primes q1..ql from the sifting set:

        S(A,P(z)) = sum_{i<l} (-1)^i S(A^(i), P^(i+1)(z))
                    + (-1)^l S(A^(l), P^(l)(z)),

    where A^(i) restricts A to multiples of q1...qi and P^(i) omits q1..qi.
    """
    _check_table(N, table)
    qs = list(q_list)
    if len(set(qs)) != len(qs):
        raise DomainError("q_list must be distinct")
    for q in qs:
        if not table.is_prime(q) or q >= z or N % q == 0:
            raise DomainError(
                f"q={q} must be a prime below z={z} not dividing N={N}"
            )
    elements = _base_A(N, table, _divisor_primes(N))
    sift_all = _sifting_primes(N, z, table)

    def S(restrict_to: int, omit: frozenset[int]) -> int:
        arr = elements[elements % restrict_to == 0] if restrict_to > 1 else elements
        alive = np.ones(len(arr), dtype=bool)
        for p in sift_all:
            if p not in omit:
                alive &= arr % p != 0
        return int(np.count_nonzero(alive))

    lhs = S(1, frozenset())
    l = len(qs)
    rhs = 0
    for i in range(l):
        m_i = math.prod(qs[:i]) if i else 1
        rhs += (-1) ** i * S(m_i, frozenset(qs[: i + 1]))
    rhs += (-1) ** l * S(math.prod(qs) if l else 1, frozenset(qs))
    return lhs == rhs


# -- bilinear discrepancy ------------------------------------------------------------


def _p2p3_support(X: float, N: int, y: float, table: PrimeTable) -> np.ndarray:
    """n < X with n = p2 p3, y <= p2 < p3, gcd(n, N) = 1."""
    ps = table.primes
    out: list[int] = []
    start = np.searchsorted(ps, math.ceil(y), side="left")
    for i in range(start, len(ps)):
        p2 = int(ps[i])
        if p2 * (p2 + 1) >= X:
            break
        if N % p2 == 0:
            continue
        for j in range(i + 1, len(ps)):
            p3 = int(ps[j])
            n = p2 * p3
            if n >= X:
                break
            if N % p3 != 0:
                out.append(n)
    return np.asarray(sorted(out), dtype=np.int64)


def bilinear_discrepancy_exact(
    X: float,
    Y: float,
    Z: float,
    Dstar: float,
    N: int,
    table: PrimeTable,
    *,
    y: float | None = None,
) -> Fraction:
    """Exact bilinear discrepancy

        sum_{d < Dstar} max_{(a,d)=1} | sum_n sum_{Z<=p<Y, np=a (d)} a(n)
                                        - 1/phi(d) sum_n sum_{(np,d)=1} a(n) |

    where a(n) is the characteristic function of n = p2 p3 (y <= p2 < p3,
    coprime to N) and n < X.  The intended-scale right-hand side
    e^-144 XY / log^4 Y is astronomically small and is reported elsewhere as
    context only; this evaluator is for exact desk-scale comparisons.
    """
    for v in (X, Y, Z, Dstar):
        if v > table.limit + 1:
            raise CapacityError(f"parameter {v} exceeds table limit {table.limit}")
    if y is None:
        y = N ** (1.0 / 3.0)
    support = _p2p3_support(X, N, y, table)
    sieve_ps = [int(p) for p in table.primes_between(Z, Y)]
    total = Fraction(0)
    d = 1
    while d < Dstar:
        phi_d = euler_phi(d)
        coprime_count = 0
        residue_counts = [0] * d
        for n in support:
            n = int(n)
            for p in sieve_ps:
                np_ = n * p
                if math.gcd(np_, d) == 1:
                    coprime_count += 1
                    residue_counts[np_ % d] += 1
        expected = Fraction(coprime_count, phi_d)
        best = Fraction(0)
        for a in range(d):
            if math.gcd(a, d) == 1:
                diff = abs(Fraction(residue_counts[a]) - expected)
                if diff > best:
                    best = diff
        total += best
        d += 1
    return total


# -- range scan -----------------------------------------------------------------------


@dataclass
class ScanReport:
    N_max: int
    mode: str
    checked: int
    floor_holds: bool
    failures: list[int]
    min_pi2: int | None = None
    argmin_pi2: int | None = None
    min_ratio: float | None = None
    argmin_ratio: int | None = None
    rows: list[list] | None = None

    def to_dict(self) -> dict:
        out = {
            "N_max": self.N_max,
            "mode": self.mode,
            "checked": self.checked,
            "floor_holds": self.floor_holds,
            "failures": list(self.failures),
            "min_pi2": self.min_pi2,
            "argmin_pi2": self.argmin_pi2,
            "min_ratio": self.min_ratio,
            "argmin_ratio": self.argmin_ratio,
        }
        return out


def goldbach_chen_scan(
    N_max: int,
    table: PrimeTable,
    *,
    mode: str = "full",
    threads: int = 1,
    collect_rows: bool = False,
) -> ScanReport:
    """Scan every even 6 <= N <= N_max.

    Both modes walk one indicator p2[m] = "m >= 2 is a prime or a product
    of two primes", built once from the spf and primality arrays.
    mode='full' adds p2 shifted by each prime p, which gives pi2(N) for
    every N <= N_max in one pass, and tracks the normalized ratio
    pi2(N) log^2 N / (U_N N); mode='floor' only certifies pi2(N) >= 1, by
    dropping every unresolved N with p2[N - p] set, prime by prime, until
    none is left.  All arithmetic is exact, so the report is deterministic;
    `threads` is accepted for compatibility and has no effect.
    """
    if mode not in ("full", "floor"):
        raise DomainError(f"mode must be 'full' or 'floor', got {mode}")
    if N_max > table.limit:
        raise CapacityError(f"N_max={N_max} exceeds table limit {table.limit}")
    evens = range(6, N_max + 1, 2)
    spf = table.spf
    isp = table.isprime_array
    ps = table.primes
    ps = ps[: np.searchsorted(ps, N_max, side="left")]

    # p2[m] over 0 <= m < size; slicing from 2 skips spf[0] = 0.
    size = max(N_max, 1) + 1
    p2 = np.zeros(size, dtype=spf.dtype)
    p2[2:] = isp[2:size] | isp[np.arange(2, size, dtype=spf.dtype) // spf[2:size]]

    if mode == "floor":
        todo = np.arange(6, N_max + 1, 2, dtype=np.int64)
        for p in ps.tolist():
            if len(todo) == 0 or p >= todo[-1]:
                break
            todo = todo[p2[np.maximum(todo - p, 0)] == 0]
        failures = todo.tolist()
        return ScanReport(
            N_max=N_max,
            mode=mode,
            checked=len(evens),
            floor_holds=not failures,
            failures=failures,
        )

    counts = np.zeros(size, dtype=spf.dtype)
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

    results = []
    for N, c in zip(evens, counts[6::2].tolist()):
        un = UN_of(N)
        logN = math.log(N)
        results.append([N, c, un, c * logN * logN / (un * N)])

    failures = [N for N, c, _, _ in results if c < 1]
    min_pi2 = min((c for _, c, _, _ in results), default=None)
    argmin_pi2 = next((N for N, c, _, _ in results if c == min_pi2), None)
    min_ratio = min((r for _, _, _, r in results), default=None)
    argmin_ratio = next((N for N, _, _, r in results if r == min_ratio), None)
    rows = results if collect_rows else None
    return ScanReport(
        N_max=N_max,
        mode=mode,
        checked=len(results),
        floor_holds=not failures,
        failures=failures,
        min_pi2=min_pi2,
        argmin_pi2=argmin_pi2,
        min_ratio=min_ratio,
        argmin_ratio=argmin_ratio,
        rows=rows,
    )
