"""The two engines behind the `verify` and `scan` commands.

`lemma41_columns` evaluates both sides of the lemma-4.1 decomposition at
every N of a list, block by block through the odd spf store and the prime
table's bits.  `goldbach_chen_scan` certifies pi2(N) >= 1 at every even N
up to a bound, or gets every pi2(N) from one certified FFT convolution.
The sets A, A_q and B are those of `chensieve.reference`, whose exact
evaluators (enumeration and trial-division sifting) the tests hold these
engines to; no command imports it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .errors import CapacityError, CertificateError, DomainError
from .primes import PrimeTable, series_tail


def _check_table(N: int, table: PrimeTable) -> None:
    if N > table.limit:
        raise CapacityError(f"N={N} exceeds table limit {table.limit}")


def _ranges(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated aranges [starts[i], stops[i]) and each range's length."""
    lens = np.maximum(stops - starts, 0)
    ends = np.cumsum(lens)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - (ends - lens), lens), lens


def _triples(
    Ns: np.ndarray, cz: np.ndarray, cy: np.ndarray, table: PrimeTable
) -> tuple[np.ndarray, np.ndarray]:
    """B for every N of `Ns` at once, with cz = ceil(z) and cy = ceil(y) per
    N: the index into `Ns` of each element and the element N - p1 p2 p3,
    grouped by N and in ascending (p1, p2, p3) order within each N, for
    p1 in [z, y), y <= p2 <= p3, and p1, p2, p3 coprime to N.

    The product constraint p1 p2 p3 < N is enforced exactly, through
    p1 p2^2 < N and p3 <= (N - 1) // (p1 p2).  So every prime of B is at
    most max(ceil(y) - 1, (N - 1) // (ceil(z) ceil(y))), and the table's
    primes are unpacked only that far.
    """
    reach = max(int((cy - 1).max()), int(((Ns - 1) // (cz.astype(np.int64) * cy)).max()))
    ps = table.primes_upto(min(reach, table.limit))
    iy = np.searchsorted(ps, cy)
    j1, lens = _ranges(np.searchsorted(ps, cz), iy)
    t = np.repeat(np.arange(len(Ns)), lens)
    p1 = ps[j1]
    keep = np.flatnonzero(Ns[t] % p1 != 0)
    t, p1 = t[keep], p1[keep]
    # isqrt((N - 1) // p1): sqrt is exact to the floor for integers below
    # 2**52, far past the table cap.
    p2_max = np.sqrt((Ns[t] - 1) // p1).astype(np.int64)
    j2, lens = _ranges(iy[t], np.searchsorted(ps, p2_max, side="right"))
    t, p1 = np.repeat(t, lens), np.repeat(p1, lens)
    p2 = ps[j2]
    keep = np.flatnonzero(Ns[t] % p2 != 0)
    j2, t, p12 = j2[keep], t[keep], p1[keep] * p2[keep]
    j3, lens = _ranges(j2, np.searchsorted(ps, (Ns[t] - 1) // p12, side="right"))
    t, p12 = np.repeat(t, lens), np.repeat(p12, lens)
    N, p3 = Ns[t], ps[j3]
    keep = np.flatnonzero(N % p3 != 0)
    return t[keep], N[keep] - p12[keep] * p3[keep]


# -- the decomposition inequality -------------------------------------------------

# (N, p) pairs handled per pass of the lemma-4.1 check.  Consecutive targets
# share a pass while their pairs fit; one N with more pairs than this is a
# block by itself, walked a chunk of at least this many primes at a time.
_PAIR_BUDGET = 1 << 17


def _un_truncation(table: PrimeTable) -> int:
    """The truncation point of the singular series in the lemma-4.1 check."""
    return max(100_000, min(table.limit, 1_000_000))


def _segment_counts(idx: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """How many of the ascending positions `idx` fall in each segment
    [ends[i - 1], ends[i]) (the first from 0)."""
    return np.diff(np.searchsorted(idx, ends), prepend=0)


def _spf_chains(
    table: PrimeTable,
    m: np.ndarray,
    key: np.ndarray,
    p: np.ndarray | None = None,
    bound: np.ndarray | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Walk down the spf chains of the odd m (`PrimeTable.odd_spf`) all at
    once, one prime factor a round, so each m meets its primes in
    increasing order; `p` is the spf of each m, when the caller has it.
    Each round yields the positions of the m > 1 that meet a prime they
    have not met before, with the round's entries of `key` (one per m) and
    primes.  With `bound`, an m stops at its first prime at or past
    bound[key].  m is divided in place."""
    if p is None:
        p = table.odd_spf(m)
    last = 0
    while len(m):
        walk = m > 1
        if bound is not None:
            walk &= p < bound[key]
        yield np.flatnonzero(walk & (p != last)), key, p  # each prime once
        m //= p
        idx = np.flatnonzero(walk & (m > 1))
        m, key, last = m[idx], key[idx], p[idx]
        p = table.odd_spf(m)


def _small_factor_counts(
    table: PrimeTable, m: np.ndarray, p: np.ndarray, t: np.ndarray, cy: np.ndarray
) -> np.ndarray:
    """Per target, the sum over its odd elements m (smallest prime factor p,
    target index t) of the number of distinct primes below cy[t] that
    divide m, read off each m's spf chain; m = 1 counts none."""
    out = np.zeros(len(cy), dtype=np.int64)
    for new, ts, _ in _spf_chains(table, m, t, p, cy):
        out += np.bincount(ts[new], minlength=len(cy))
    return out


def _pair_counts(
    Ns: np.ndarray,
    k: np.ndarray,
    p: np.ndarray,
    cz: np.ndarray,
    cy: np.ndarray,
    table: PrimeTable,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (N, p) pairs' share of pi2, S(A, P(z)) and sum_q S(A_q, P(z)) for
    the N of `Ns` (cz = ceil(z), cy = ceil(y) per N), where Ns[i] is paired
    with the next k[i] entries of `p`, odd primes below it.  Primality is
    read off the table's bits and spf through `PrimeTable.odd_spf`, whose
    values at m seed the survivors' walk down their spf chains
    (`_spf_chains`).

    Every m = N - p is odd.  m is in A unless p | N, which holds exactly
    when p | m.  A's elements are coprime to N, so sifting them by the
    primes below z that do not divide N keeps m = 1 and the m with spf(m)
    >= ceil(z).  No prime q >= z that divides N divides a survivor, so
    sum_q S(A_q, P(z)) counts, per survivor, its distinct prime factors
    below ceil(y).  Each per-pair array is dropped once spent, which keeps
    a pass near 40 bytes a pair.
    """
    ends = np.cumsum(k)
    czp = cz[0] if len(Ns) == 1 else np.repeat(cz, k)  # no per-pair copy for one N
    m = np.repeat(Ns.astype(np.int32), k)  # m = N - p < 2**31 at any table limit
    m -= p
    s = table.odd_spf(m)
    ok = table.is_prime_odd(m)
    ok |= table.is_prime_odd(m // s)
    pi2 = _segment_counts(np.flatnonzero(ok), ends)
    del ok
    cand = s >= czp
    cand |= m == 1
    del czp
    idx = np.flatnonzero(cand)
    survivors, s = m[idx], s[idx]
    del cand, m
    keep = np.flatnonzero(survivors % p[idx] != 0)
    survivors, s = survivors[keep], s[keep]
    S_A = _segment_counts(idx[keep], ends)
    del idx, keep
    ts = np.repeat(np.arange(len(Ns), dtype=np.int32), S_A)
    return pi2, S_A, _small_factor_counts(table, survivors, s, ts, cy)


def _prime_chunks(table: PrimeTable, N: int) -> Iterator[np.ndarray]:
    """The odd primes below N, ascending, a chunk at a time: the table's
    windows of bits, grouped until a chunk holds at least _PAIR_BUDGET
    primes (the last may hold fewer).  So a chunk is never less than one
    window, and the primes are never all held at once."""
    group, size = [], 0
    for ps in table.odd_prime_windows(N - 1):
        group.append(ps)
        size += len(ps)
        if size >= _PAIR_BUDGET:
            chunk, group, size = np.concatenate(group), [], 0
            yield chunk
    if group:
        yield np.concatenate(group)


def _lemma41_block(
    Ns: np.ndarray,
    cz: np.ndarray,
    cy: np.ndarray,
    table: PrimeTable,
    parts,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """pi2, S(A, P(z)), sum_q S(A_q, P(z)) and S(B, P(y)) for the N of `Ns`
    (cz = ceil(z), cy = ceil(y) per N).  `parts` yields the block's (N, p)
    pairs for p odd as (k, p) arguments of `_pair_counts`, whose counts add
    across parts; the odd spf store and the bits are read at m < max(Ns)
    only.

    p = 2 is taken in closed form: N - 2 = 2(N/2 - 1) is in P2 exactly when
    h = N/2 - 1 is prime, and 2 | N keeps N - 2 out of A.  Every element of
    B is odd, as p1 >= z >= 2 cannot divide the even N, and B is sifted as
    A is, at y.
    """
    totals = [np.zeros(len(Ns), dtype=np.int64) for _ in range(3)]
    for k, p in parts:
        for total, part in zip(totals, _pair_counts(Ns, k, p, cz, cy, table)):
            total += part
    pi2, S_A, sum_S_Aq = totals
    h = Ns // 2 - 1
    two = table.is_prime_odd(h | 1)  # an even h + 1 <= N/2 is read, then masked
    two &= h % 2 == 1
    two |= h == 2
    pi2 += two
    tb, b = _triples(Ns, cz, cy, table)
    alive = table.odd_spf(b) >= cy[tb]
    alive |= b == 1
    S_B = np.bincount(tb[np.flatnonzero(alive)], minlength=len(Ns))
    return pi2, S_A, sum_S_Aq, S_B


def lemma41_columns(
    targets,
    table: PrimeTable,
    *,
    z_exp: float = 0.125,
    y_exp: float = 1.0 / 3.0,
) -> tuple[np.ndarray, ...]:
    """Both sides of the lemma-4.1 decomposition
        pi2(N) > S(A,P(z)) - 1/2 sum_{z<=q<y} S(A_q,P(z)) - 1/2 S(B,P(y))
                 - 2 N^{7/8} - 2 N^{1/3},
    z = N^z_exp and y = N^y_exp, at every N of `targets`, as the columns N,
    pi2, S_A, Sum_S_Aq, S_B, margin (pi2 minus the right-hand side), U_N and
    ratio (numpy arrays).  The inequality targets asymptotic N, so desk-scale
    margins are recorded, not gated.

    The counts are computed block by block (`_lemma41_block`), sifting
    through the odd spf store, which is built only as far as the largest
    target, and reading primality off the table's bits.  Consecutive
    targets up to the truncation point P of U_N share a block, and a pass,
    while their pairs fit `_PAIR_BUDGET`; their primes come from the
    `primes_upto` prefix, which runs only to the largest of them.  A target
    with more pairs, or past P, is a block by itself, walked a chunk of
    primes at a time off the bits (`_prime_chunks`), so one large N never
    holds all its pairs, nor every prime below it, at once; a lone target
    past P unpacks no array of primes beyond what its set B reads.
    U_N is the value of `singular_series_UN` truncated at P, its local
    factor taken by the same spf-chain walk as the counts.  The powers
    and logs of N go through the math module, so every float is the one a
    per-N evaluation in Python gives.  Every target is validated before any
    count.
    """
    Ns = list(targets)
    for N in Ns:
        if N % 2 != 0 or N < 6:
            raise DomainError(f"N must be even and >= 6, got {N}")
    past = next((N for N in Ns if N > table.limit), None)
    if past is not None:
        _check_table(past, table)
    table.odd_spf_upto(max(Ns, default=0))  # sieved once, as far as the largest N
    Ns_arr = np.array(Ns, dtype=np.int64)
    cz = np.array([math.ceil(N ** z_exp) for N in Ns], dtype=np.int32)
    cy = np.array([math.ceil(N ** y_exp) for N in Ns], dtype=np.int32)
    P = _un_truncation(table)
    reach = max((N for N in Ns if N <= P), default=2)
    ps = table.primes_upto(reach)
    # pairs per target, the odd primes below N; one past the prefix counts
    # as more than the budget, so it is a block by itself
    pairs = np.where(Ns_arr <= reach, np.searchsorted(ps, Ns_arr) - 1, _PAIR_BUDGET + 1)
    ends = np.cumsum(pairs)
    counts = [np.zeros(len(Ns), dtype=np.int64) for _ in range(4)]
    pi2, S_A, sum_S_Aq, S_B = counts
    lo = 0
    while lo < len(Ns):
        done = int(ends[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(ends, done + _PAIR_BUDGET, side="right")), lo + 1)
        k = pairs[lo:hi]
        if k[0] > _PAIR_BUDGET:
            parts = ((np.array([len(p)]), p) for p in _prime_chunks(table, Ns[lo]))
        elif hi == lo + 1:  # no per-pair copy of the primes for one N
            parts = [(k, ps[1 : k[0] + 1])]
        else:
            parts = [(k, np.concatenate([ps[1 : n + 1] for n in k.tolist()]))]
        block = _lemma41_block(Ns_arr[lo:hi], cz[lo:hi], cy[lo:hi], table, parts)
        for column, part in zip(counts, block):
            column[lo:hi] = part
        lo = hi
    un = table.twin_product(P).value * _odd_prime_factor_product(Ns_arr, table)
    un *= 1.0 - 0.5 * series_tail(P)
    rhs = S_A - 0.5 * sum_S_Aq - 0.5 * S_B
    for e in (0.875, 1.0 / 3.0):  # math.pow, not np.power: see `_logs`
        rhs -= 2.0 * np.fromiter((math.pow(N, e) for N in Ns), np.float64, len(Ns))
    L = np.fromiter(map(math.log, Ns), np.float64, len(Ns))  # few N: see `_logs`
    margin, ratio = pi2 - rhs, pi2 * L * L / (un * Ns_arr)
    return Ns_arr, *counts, margin, un, ratio


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
    columns: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None

    def to_dict(self) -> dict:
        """The summary fields in declaration order; the columns go out separately."""
        return {
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "columns"
        }


def _odd_p2(table: PrimeTable, n: int) -> np.ndarray:
    """Bool indicator over the odd m = 2j + 1, j < n: "m is a prime or a
    product of two primes", built a window of the table's bits at a time,
    so its int32 temporaries span one window.  Odd m = spf(m) * (m /
    spf(m)) is in P2 exactly when it is prime (bit j - 1) or its cofactor
    is.  It alone reads the odd store's raw entries, not `odd_spf`: every
    nonzero entry is an odd prime, so `| 1` changes only its 0s (m = 1 or a
    prime) into the divisor 1, whose cofactor m the prime test covers, and
    a contiguous slice serves.  Entry 0 (m = 1) stays false."""
    out = np.zeros(n, dtype=bool)
    store = table.odd_spf_upto(2 * n - 1)
    for lo, bits in table.bit_windows(2 * n - 1):  # bit i is entry j = i + 1
        j, hi = lo + 1, lo + 1 + len(bits)
        m = np.arange(2 * j + 1, 2 * hi + 1, 2, dtype=np.int32)
        np.floor_divide(m, store[j:hi] | 1, out=m)
        np.logical_or(bits, table.is_prime_odd(m), out=out[j:hi])
    return out


def _floor_sweep(done: np.ndarray, hs: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """The k >= 3 that no shift h of `hs` resolves, ascending: `done` is
    True where N = 2k is resolved (False below 3), and h resolves k when
    odd[k - h].  It ORs into `done`, prime by prime, while over 1/64 of the
    N are unresolved, then drops the unresolved k that each h resolves, so
    a table with real failures does not sweep every prime over the array."""
    half, swept = len(done), 0
    while swept < len(hs) and 64 * (half - 3 - np.count_nonzero(done)) > half:
        h = hs[swept]
        done[h + 1 :] |= odd[1 : half - h]
        swept += 1
    todo = np.flatnonzero(~done[3:]) + 3
    for h in hs[swept:]:  # lazily: the loop stops after a few primes
        if len(todo) == 0 or h > todo[-1]:
            break
        todo = todo[~odd[np.maximum(todo - h, 0)]]
    return todo


def _two_column(ps: np.ndarray, half: int) -> np.ndarray:
    """Bool over k < half: whether N = 2k >= 6 is reached by p = 2, that
    is, N - 2 = 2(k - 1) is in P2, which holds exactly when k - 1 is prime:
    two[p + 1] for each prime p of the ascending `ps` below half - 1."""
    two = np.zeros(half, dtype=bool)
    two[1:][ps[: np.searchsorted(ps, half - 1)]] = True  # no array of p + 1
    return two


# float64 unit roundoff, an upper bound on sqrt(5), and the twiddle-factor
# error beta assumed of numpy's pocketfft (see `_shift_counts`).
_U = Fraction(1, 2**53)
_SQRT5_UP = Fraction(2236068, 10**6)
_BETA = Fraction(1, 2**50)


def _percival_bound(a_sq: int, b_sq: int, n: int) -> Fraction:
    """Percival's bound (Math. Comp. 72, 2003, Theorem 5.1) on the largest
    error of a float64 FFT convolution of length n = 2**k of two vectors
    with squared 2-norms a_sq and b_sq:
        |a|_2 |b|_2 ((1 + u)^{3k} (1 + u sqrt 5)^{3k + 1} (1 + beta)^{3k} - 1),
    rounded up: the arithmetic is exact, and sqrt 5 and |a|_2 |b|_2 are
    replaced by upper bounds."""
    k = n.bit_length() - 1
    growth = (1 + _U) ** (3 * k) * (1 + _U * _SQRT5_UP) ** (3 * k + 1)
    growth *= (1 + _BETA) ** (3 * k)
    return (math.isqrt(a_sq * b_sq) + 1) * (growth - 1)


def _shift_counts(hs: np.ndarray, odd: np.ndarray, half: int) -> np.ndarray:
    """c[k] = #{h in hs : odd[k - h]} for k < half, as int32, from one
    float64 rfft/irfft convolution of the shift indicator (1 at each h of
    `hs`, all distinct and below half) with `odd`.  Its length n is the
    power of two at or past the linear length half + len(odd) - 1, so no
    term wraps into [0, half).  Three checks certify the result at run time
    and raise CertificateError when one fails:

    - Percival's bound (`_percival_bound`) must be below 1/2, so rounding
      each output gives the exact count.  The bound takes each twiddle
      factor of numpy's pocketfft to be within beta = 2**-50 (8 units of
      roundoff) of its true value.  That beta is an assumption about
      pocketfft, which builds its twiddles as products of two tables of
      doubles, not a proven property; so is applying a bound stated for the
      complex FFT to the real-input rfft.
    - Every output must lie within 1/4 of its integer.
    - Exact checksum: the counts must sum to sum_h S[min(half - h,
      len(odd))], with S the prefix count of `odd`.  This shares no
      arithmetic with the transform.
    Each FFT array is dropped once spent, so the peak is about three
    arrays of 8n bytes.
    """
    n = 1 << (half + len(odd) - 2).bit_length()
    bound = _percival_bound(len(hs), int(np.count_nonzero(odd)), n)
    if bound >= Fraction(1, 2):
        raise CertificateError(
            f"pi2 convolution: Percival bound {float(bound):.3g} >= 1/2 at n = {n}"
        )
    a = np.zeros(n)
    a[hs] = 1.0
    spectrum = np.fft.rfft(a)
    del a
    b = np.zeros(n)
    b[: len(odd)] = odd
    spectrum *= np.fft.rfft(b)
    del b
    c = np.fft.irfft(spectrum, n)[:half]
    del spectrum
    counts = np.rint(c)
    c -= counts
    worst = float(np.max(np.abs(c, out=c), initial=0.0))
    if worst > 0.25:
        raise CertificateError(
            f"pi2 convolution: rounding check, an output lies {worst:.3g} > 1/4 "
            "from its integer"
        )
    counts = counts.astype(np.int32)
    prefix = np.concatenate([[0], np.cumsum(odd, dtype=np.int64)])
    want = int(prefix[np.minimum(half - hs, len(odd))].sum())
    got = int(counts.sum(dtype=np.int64))
    if got != want:
        raise CertificateError(f"pi2 convolution: checksum {got} != {want}")
    return counts


def _odd_prime_factor_product(N: np.ndarray, table: PrimeTable) -> np.ndarray:
    """prod (p - 1)/(p - 2) over the odd primes p dividing each N, multiplied
    in increasing p as a per-N walk down the spf chain of N's odd part
    (`_spf_chains`) does, so each float is the one that walk gives."""
    local = np.ones(len(N))
    odd = (N // (N & -N)).astype(np.int32)
    for new, i, p in _spf_chains(table, odd, np.arange(len(N))):
        local[i[new]] *= (p[new] - 1.0) / (p[new] - 2.0)
    return local


def _logs(Ns: np.ndarray) -> np.ndarray:
    """math.log of each N of the int64 `Ns`, which np.log misses in the last
    bit for some N.  np.log in long double, rounded, matches it more than
    0.02 ulp from a float64 rounding midpoint (`tools/check_logs.py` checks
    every even N to the cap; no log of an N <= the cap rounds to a power of
    two, where the ulp below is half the one above).  The N in that band
    take math.log, as all do where long double is narrower than x87's.  The
    scan calls it; `lemma41_columns`, at a few hundred N, keeps math.log:
    the long-double code would save it < 20 us and cost ~0.1 MB of RSS."""
    L = np.empty(len(Ns))
    near = np.ones(len(Ns), dtype=bool)
    if np.finfo(np.longdouble).nmant >= 63:
        for lo in range(0, len(Ns), 1 << 15):  # 16 bytes an N in long double
            part = slice(lo, lo + (1 << 15))
            y = np.log(Ns[part].astype(np.longdouble))
            d = L[part]
            d[...] = y
            r = np.abs((y - d).astype(np.float64))  # exact, by Sterbenz's lemma
            np.greater_equal(r, 0.48 * np.spacing(d), out=near[part])
    slow = np.flatnonzero(near)
    L[slow] = list(map(math.log, Ns[slow].tolist()))
    return L


def goldbach_chen_scan(
    N_max: int,
    table: PrimeTable,
    *,
    mode: str = "full",
    collect_rows: bool = False,
) -> ScanReport:
    """Scan every even 6 <= N <= N_max.

    Arrays run over k = N/2; an odd prime p of the `primes_upto(N_max)`
    prefix shifts by h = (p + 1)/2 and reaches the odd N - p <= N_max, and
    p = 2 reaches N - 2, in P2 exactly when N/2 - 1 is prime
    (`_two_column`).  mode='full' gets every pi2(N) from one certified FFT
    convolution of the shifts with the P2 indicator over odd m, built a
    window of the table's bits at a time (`_odd_p2`, `_shift_counts`), and
    tracks the ratio pi2(N) log^2 N / (U_N N).  mode='floor' only
    certifies pi2(N) >= 1 (`_floor_sweep`), with the odd primes' indicator,
    set from the shifts, first: every odd prime is in P2, so only the N
    that the primes leave (none on a sound table) are swept with the P2
    indicator, which alone sieves the odd spf store.  The report is
    deterministic.
    """
    if mode not in ("full", "floor"):
        raise DomainError(f"mode must be 'full' or 'floor', got {mode}")
    if N_max > table.limit:
        raise CapacityError(f"N_max={N_max} exceeds table limit {table.limit}")
    half = max(N_max // 2 + 1, 3)  # k = N/2 runs over [3, half)
    ps = table.primes_upto(max(N_max, 2))
    hs = (ps[1 : np.searchsorted(ps, N_max, side="left")] + 1) // 2
    # N - p <= N_max - 3 for odd p, so m < 2 * half - 4 covers every read.
    if mode == "floor":
        primes = np.zeros(half, dtype=bool)
        primes[hs] = True  # at h = (p + 1)/2, so primes[1:] runs over odd m = 2j + 1
        done = _two_column(ps, half)
        todo = _floor_sweep(done, hs, primes[1:])
        if len(todo):  # N left: sweep `done` again with the P2 indicator
            todo = _floor_sweep(done, hs, _odd_p2(table, half - 2))
        failures = (2 * todo).tolist()
        return ScanReport(
            N_max=N_max,
            mode=mode,
            checked=half - 3,
            floor_holds=not failures,
            failures=failures,
        )

    table.odd_spf_upto(max(N_max, 2))  # every m read is <= N_max (or 1): one store
    counts = _shift_counts(hs, _odd_p2(table, half - 2), half)
    counts += _two_column(ps, half)
    c = counts[3:]
    Ns = np.arange(6, 2 * half, 2, dtype=np.int64)
    un = table.twin_product(table.limit).value * _odd_prime_factor_product(Ns, table)
    L = _logs(Ns)
    ratio = c * L * L / (un * Ns)  # pi2(N) log^2 N / (U_N N)

    failures = Ns[c < 1].tolist()
    summary = {}
    if len(Ns):
        i, j = int(np.argmin(c)), int(np.argmin(ratio))  # first occurrences
        summary = dict(
            min_pi2=int(c[i]),
            argmin_pi2=int(Ns[i]),
            min_ratio=float(ratio[j]),
            argmin_ratio=int(Ns[j]),
        )
    columns = None
    if collect_rows:
        columns = (Ns, c, un, ratio)
    return ScanReport(
        N_max=N_max,
        mode=mode,
        checked=len(Ns),
        floor_holds=not failures,
        failures=failures,
        columns=columns,
        **summary,
    )
