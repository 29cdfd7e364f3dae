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

from .errors import CapacityError, DomainError
from .harness import _check_table, _ranges, _triples
from .primes import PrimeTable, euler_phi

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


def _base_A(N: int, table: PrimeTable) -> np.ndarray:
    """A = {N - p : p <= N, p does not divide N}."""
    ps = table.primes_upto(N)
    ps = ps[: np.searchsorted(ps, N, side="right")]
    a = ps[N % ps != 0]
    return np.subtract(N, a, out=a)


def enumerate_set(spec: SiftedSetSpec, table: PrimeTable) -> np.ndarray:
    """Elements of the set, in deterministic ascending generating-prime order."""
    _check_table(spec.N, table)
    N = spec.N
    if spec.base == "A":
        return _base_A(N, table)
    if spec.base == "A_sub_q":
        a = _base_A(N, table)
        return a[a % spec.q == 0]
    Ns, cz, cy = (np.array([v]) for v in (N, math.ceil(spec.z), math.ceil(spec.y)))
    return _triples(Ns, cz, cy, table)[1]


def _sifting_primes(N: int, level: float, table: PrimeTable) -> list[int]:
    ps = table.primes_between(2, level)
    return [int(p) for p in ps if N % int(p) != 0]


def _sift(elements: np.ndarray, primes: list[int]) -> np.ndarray:
    """The elements divisible by none of `primes`, by trial division."""
    alive = np.ones(len(elements), dtype=bool)
    for p in primes:
        alive &= elements % p != 0
    return elements[alive]


def sift_count(
    spec: SiftedSetSpec,
    table: PrimeTable,
    level: float | None = None,
) -> int:
    """S(set, P(level)): elements with no prime factor below `level` among
    the sifting primes (level defaults to z for A-type, y for B-type)."""
    elements = enumerate_set(spec, table)
    if level is None:
        level = spec.sift_level
    return len(_sift(elements, _sifting_primes(spec.N, level, table)))


# -- representation counting ----------------------------------------------------


def pi2_bruteforce(N: int, table: PrimeTable) -> int:
    """Number of primes p < N with N - p >= 2 and Omega(N - p) <= 2.

    Counts representations of N as a prime plus a product of at most two
    primes (with multiplicity; the prime summand is the distinguished one,
    each p counted once).  The table is read as the engines read it: an odd
    prime p leaves an odd m = N - p, which is in P2 exactly when it or
    m / spf(m) is prime (`odd_spf`, `is_prime_odd`; m = 1 is neither), and
    p = 2 leaves 2h with h = N/2 - 1, in P2 exactly when h is 1 or prime.
    """
    if N % 2 != 0 or N < 4:
        raise DomainError(f"N must be even and >= 4, got {N}")
    _check_table(N, table)
    ps = table.primes_upto(N)
    m = N - ps[1 : np.searchsorted(ps, N, side="left")]
    ok = table.is_prime_odd(m)
    m //= table.odd_spf(m)  # each m's cofactor m / spf(m)
    ok |= table.is_prime_odd(m)
    h = N // 2 - 1
    return int(np.count_nonzero(ok)) + (h == 1 or table.is_prime(h))


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
    elements = _base_A(N, table)
    sift_all = _sifting_primes(N, z, table)

    def S(restrict_to: int, omit: frozenset[int]) -> int:
        primes = [p for p in sift_all if p not in omit]
        return len(_sift(elements[elements % restrict_to == 0], primes))

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
    """n < X with n = p2 p3, y <= p2 < p3, gcd(n, N) = 1, ascending.

    For integer n, n < X exactly when n <= ceil(X) - 1, so the bound
    p3 <= (ceil(X) - 1) // p2 keeps the products below X exactly.
    """
    n_max = max(math.ceil(X) - 1, 0)
    ps = table.primes_upto(n_max // 2)
    ps = ps[: np.searchsorted(ps, n_max // 2, side="right")]
    ps = ps[N % ps != 0]
    lo = np.searchsorted(ps, math.ceil(y))
    j2 = np.arange(lo, np.searchsorted(ps, math.isqrt(n_max), side="right"))
    j3, lens = _ranges(j2 + 1, np.searchsorted(ps, n_max // ps[j2], side="right"))
    return np.sort(np.repeat(ps[j2], lens) * ps[j3])


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
    # every n p is below (limit + 1)^2 < 2^63, so the int64 products are exact
    products = np.multiply.outer(support, table.primes_between(Z, Y)).ravel()
    total = Fraction(0)
    d = 1
    while d < Dstar:
        coprime = products[np.gcd(products, d) == 1]
        residue_counts = np.bincount(coprime % d, minlength=d).tolist()
        expected = Fraction(len(coprime), euler_phi(d))
        total += max(
            abs(residue_counts[a] - expected) for a in range(d) if math.gcd(a, d) == 1
        )
        d += 1
    return total
