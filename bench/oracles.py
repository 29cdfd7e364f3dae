"""Independent checks of every job output.

Nothing here imports chensieve: the integer quantities come from numpy
prime-power sieving, the real ones from mpmath.  Floats are compared by
tolerance or by Ball containment, never byte for byte, so a later change
may tighten radii or reorder sums without failing a check.

`check_job` returns a list of reasons; an empty list means the output is
right.
"""

from __future__ import annotations

import json
import math

import mpmath
import numpy as np

mpmath.mp.dps = 30
# Every 25th node on [3, 4] is checked against the dilogarithm closed form,
# which costs milliseconds per node in mpmath.
F1_3_4_EVERY = 25

EXP_GAMMA = mpmath.exp(mpmath.euler)
# U_N = 2 e^{-gamma} C2 prod_{p | N, p > 2} (p-1)/(p-2), C2 the twin-prime constant.
UN_BASE_MP = 2 * mpmath.exp(-mpmath.euler) * mpmath.twinprime
UN_BASE = float(UN_BASE_MP)
FINAL_THRESHOLD = 0.007


def _F1_on_3_4(s):
    """F1(s) for 3 <= s <= 4, integrating F1' = -f1(s-1)/(s-1) with
    f1(t) = t - 2e^gamma log(t-1) on [2, 3]:
    F1(s) = 2e^gamma - s + 2e^gamma (G(s-1) - G(2)), G(u) = log(u)^2/2 + Li2(1/u).
    """
    G = lambda u: mpmath.log(u) ** 2 / 2 + mpmath.polylog(2, 1 / u)
    return 2 * EXP_GAMMA * (1 + G(s - 1) - G(2)) - s


def _c0():
    """Large-sieve prefactor 2^6.5/(9 pi log 2) (1/3 + 3/(2 log 2))
    (2 + log(log 2 / log(4/3))) / log 2 * sqrt(psi(113) / 113)."""
    psi = mpmath.fsum(
        mpmath.log(p)
        for p in range(2, 114)
        if all(p % d for d in range(2, math.isqrt(p) + 1))
        for k in range(1, 8)
        if p**k <= 113
    )
    log2 = mpmath.log(2)
    return (
        mpmath.mpf(2) ** 6.5 / (9 * mpmath.pi * log2)
        * (mpmath.mpf(1) / 3 + 3 / (2 * log2))
        * (2 + mpmath.log(log2 / mpmath.log(mpmath.mpf(4) / 3))) / log2
        * mpmath.sqrt(psi / 113)
    )


class Arithmetic:
    """Omega (prime factors with multiplicity), least prime factor and the
    primes over [0, limit], by sieving with the primes up to sqrt(limit)."""

    def __init__(self, limit: int):
        self.limit = limit
        root = math.isqrt(limit)
        small = np.ones(root + 1, dtype=bool)
        small[:2] = False
        for p in range(2, math.isqrt(root) + 1):
            if small[p]:
                small[p * p :: p] = False
        base = np.flatnonzero(small)

        lpf = np.zeros(limit + 1, dtype=np.int32)
        for p in base[::-1]:
            lpf[p::p] = p
        rem = np.arange(limit + 1, dtype=np.int64)
        omega = np.zeros(limit + 1, dtype=np.int8)
        for p in base:
            pk = int(p)
            while pk <= limit:
                omega[pk::pk] += 1
                rem[pk::pk] //= p
                pk *= int(p)
        # At most one prime factor above sqrt(limit) remains, to the first power.
        omega[2:][rem[2:] > 1] += 1
        n = np.arange(limit + 1)
        lone = (lpf == 0) & (n >= 2)
        lpf[lone] = n[lone]
        self.omega = omega
        self.lpf = lpf
        self.primes = np.flatnonzero(lone | ((lpf == n) & (n >= 2)))
        self._pi2: dict[int, int] = {}

    def pi2(self, N: int) -> int:
        """#{p < N prime : Omega(N - p) in {1, 2}}."""
        if N not in self._pi2:
            m = N - self.primes[: np.searchsorted(self.primes, N)]
            self._pi2[N] = int(np.count_nonzero((m >= 2) & (self.omega[m] <= 2)))
        return self._pi2[N]

    def UN(self, N: int) -> float:
        value = UN_BASE
        n = N
        while n > 1:
            p = int(self.lpf[n])
            if p > 2:
                value *= (p - 1.0) / (p - 2.0)
            while n % p == 0:
                n //= p
        return value

    def decomposition(self, N: int, z_exp: float = 0.125, y_exp: float = 1.0 / 3.0) -> dict:
        """pi2, S(A,P(z)), sum_q S(A_q,P(z)) and S(B,P(y)) by direct counting.

        A = {N - p : p <= N prime, p not dividing N}; every element is coprime
        to N, so sifting by the primes below z that do not divide N leaves the
        elements with no prime factor below z.  B = {N - p1 p2 p3 : z <= p1 <
        y <= p2 <= p3, p1 p2 p3 < N, no p_i dividing N}, sifted below y.
        """
        z = N ** z_exp
        y = N ** y_exp
        ps = self.primes[: np.searchsorted(self.primes, N, side="right")]
        ps_coprime = ps[N % ps != 0]
        a = N - ps_coprime
        survivors = a[(a == 1) | (self.lpf[a] >= z)]
        qs = ps_coprime[(ps_coprime >= z) & (ps_coprime < y)].tolist()
        sum_aq = sum(int(np.count_nonzero(survivors % q == 0)) for q in qs)

        b_parts = []
        p2_all = ps_coprime[ps_coprime >= y]
        for p1 in qs:
            top = np.searchsorted(p2_all, math.isqrt(N // p1), side="right")
            for j, p2 in enumerate(p2_all[:top].tolist()):
                if p1 * p2 * p2 >= N:
                    break
                hi = np.searchsorted(p2_all, (N - 1) // (p1 * p2), side="right")
                b_parts.append(N - p1 * p2 * p2_all[j:hi])
        b = np.concatenate(b_parts) if b_parts else np.empty(0, dtype=np.int64)
        s_b = int(np.count_nonzero((b == 1) | (self.lpf[b] >= y)))
        return {
            "pi2": self.pi2(N),
            "S_A": int(len(survivors)),
            "Sum_S_Aq": sum_aq,
            "S_B": s_b,
        }


class Oracle:
    """All checks for one run; sieve arrays and constants are built once.

    `largest_n` sizes the sieve arrays for the whole run.
    """

    def __init__(self, largest_n: int = 0) -> None:
        self._largest_n = largest_n
        self._arith: Arithmetic | None = None
        self._c2: mpmath.mpf | None = None

    def arith(self, limit: int) -> Arithmetic:
        if self._arith is None or self._arith.limit < limit:
            self._arith = Arithmetic(max(limit, self._largest_n))
        return self._arith

    @property
    def c2(self) -> mpmath.mpf:
        """int_{1/8}^{1/3} log(2 - 3b) / (b (1 - b)) db + 1e-8."""
        if self._c2 is None:
            f = lambda b: mpmath.log(2 - 3 * b) / (b * (1 - b))
            self._c2 = mpmath.quad(f, [mpmath.mpf(1) / 8, mpmath.mpf(1) / 3]) + mpmath.mpf("1e-8")
        return self._c2

    # -- dispatch ---------------------------------------------------------------

    def check_job(self, job, rc, text: str | None) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}, expected 0"]
        if text is None:
            return ["no output file"]
        try:
            return getattr(self, f"_check_{job.kind}")(job.params, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unparseable output: {exc!r}"]

    # -- scan ---------------------------------------------------------------------

    def _check_scan_full(self, params, text):
        m, limit = params["max"], params["table_limit"]
        rows = _csv(text, ["N", "pi2", "UN", "ratio"])
        evens = list(range(6, m + 1, 2))
        if [int(r[0]) for r in rows] != evens:
            return [f"rows do not list the even N in [6, {m}]"]
        ar = self.arith(m)
        # The scan truncates the twin-prime product at the table limit L,
        # which raises U_N by a factor at most 1 / (1 - 1/(L-1)).
        un_tol = 1.0 / (limit - 2) + 1e-12
        errs = []
        for row in rows:
            N, pi2, un, ratio = int(row[0]), int(row[1]), float(row[2]), float(row[3])
            want = ar.pi2(N)
            if pi2 != want:
                errs.append(f"pi2({N}) = {pi2}, oracle {want}")
            true_un = ar.UN(N)
            if not (true_un * (1 - 1e-12) <= un <= true_un * (1 + un_tol)):
                errs.append(f"UN({N}) = {un!r}, oracle {true_un!r}")
            if not _close(ratio, pi2 * math.log(N) ** 2 / (un * N), 1e-12):
                errs.append(f"ratio({N}) = {ratio!r} disagrees with its pi2 and UN")
            if len(errs) >= 5:
                break
        return errs

    def _check_scan_floor(self, params, text):
        res = json.loads(text)["result"]
        m = params["max"]
        want = {
            "N_max": m,
            "mode": "floor",
            "checked": len(range(6, m + 1, 2)),
            "floor_holds": True,
            "failures": [],
            "min_pi2": None,
            "argmin_pi2": None,
        }
        return [f"{k} = {res.get(k)!r}, expected {v!r}" for k, v in want.items() if res.get(k) != v]

    # -- verify -------------------------------------------------------------------

    def _check_rows(self, rows):
        ar = self.arith(max(r["N"] for r in rows))
        errs = []
        for r in rows:
            N = r["N"]
            want = ar.decomposition(N)
            errs += [
                f"{k}({N}) = {r[k]}, oracle {v}" for k, v in want.items() if r[k] != v
            ]
            rhs = (
                want["S_A"]
                - 0.5 * want["Sum_S_Aq"]
                - 0.5 * want["S_B"]
                - 2.0 * N ** 0.875
                - 2.0 * N ** (1.0 / 3.0)
            )
            if abs(r["lemma41_margin"] - (want["pi2"] - rhs)) > 1e-9 * max(1.0, abs(rhs)):
                errs.append(f"lemma41_margin({N}) = {r['lemma41_margin']!r}")
            # U_N is truncated at P >= 1e5 with the tail folded into a centred
            # ball, so its centre is within 1/(P-1) of the true value.
            true_un = ar.UN(N)
            if not _close(r["UN"], true_un, 1.0 / (100_000 - 1)):
                errs.append(f"UN({N}) = {r['UN']!r}, oracle {true_un!r}")
            ratio = want["pi2"] * math.log(N) ** 2 / (r["UN"] * N)
            if not _close(r["ratio"], ratio, 1e-12):
                errs.append(f"ratio({N}) = {r['ratio']!r}")
            if len(errs) >= 5:
                break
        return errs

    def _check_verify_scan(self, params, text):
        header = ["N", "pi2", "S_A", "Sum_S_Aq", "S_B", "lemma41_margin", "UN", "ratio"]
        rows = [
            dict(zip(header, [int(v) for v in r[:5]] + [float(v) for v in r[5:]]))
            for r in _csv(text, header)
        ]
        if [r["N"] for r in rows] != list(range(6, params["scan"] + 1, 2)):
            return [f"rows do not list the even N in [6, {params['scan']}]"]
        return self._check_rows(rows)

    def _check_verify_n(self, params, text):
        rows = json.loads(text)["rows"]
        if [r["N"] for r in rows] != [params["N"]]:
            return [f"expected one row for N = {params['N']}"]
        return self._check_rows(rows)

    # -- certify ------------------------------------------------------------------

    def _check_sievefun(self, params, text):
        s_max, step = params["s_max"], params["step"]
        header = ["s", "f1", "f1_radius", "F1", "F1_radius"]
        rows = [[float(v) for v in r] for r in _csv(text, header)]
        n = math.floor(s_max / step + 1e-9)
        if len(rows) not in (n, n - 1):
            return [f"{len(rows)} nodes, expected {n}"]
        errs = []
        two_eg = 2 * EXP_GAMMA
        for i, (s, f1, f1_r, F1, F1_r) in enumerate(rows, start=1):
            if not _close(s, i * step, 1e-12) or s > s_max * (1 + 1e-12):
                errs.append(f"node {i} at s = {s!r}")
            if not all(math.isfinite(v) for v in (f1, f1_r, F1, F1_r)):
                errs.append(f"non-finite entry at s = {s!r}")
            elif not (0.0 <= f1_r <= 1e-9 and 0.0 <= F1_r <= 1e-9):
                errs.append(f"radius outside [0, 1e-9] at s = {s!r}")
            elif s <= 4.0:
                ms = mpmath.mpf(s)
                if s <= 2.0 and not abs(f1 - s) <= f1_r:  # exact: f1 and s are close floats
                    errs.append(f"f1({s!r}) misses s")
                if 2.0 <= s and not _contains(f1, f1_r, ms - two_eg * mpmath.log(ms - 1)):
                    errs.append(f"f1({s!r}) misses s - 2e^gamma log(s-1)")
                if s <= 3.0 and not _contains(F1, F1_r, two_eg - ms):
                    errs.append(f"F1({s!r}) misses 2e^gamma - s")
                if 3.0 <= s and i % F1_3_4_EVERY == 0 and not _contains(F1, F1_r, _F1_on_3_4(ms)):
                    errs.append(f"F1({s!r}) misses its closed form on [3, 4]")
            if len(errs) >= 5:
                break
        return errs

    def _check_constants(self, params, text):
        entries = {e["name"]: e for e in json.loads(text)["entries"]}
        errs = [f"{name} fails its pinned bound" for name, e in entries.items() if not e["pass"]]
        zeta = mpmath.zeta
        truths = {
            "gamma": mpmath.euler,
            "exp_gamma": EXP_GAMMA,
            "exp_neg_gamma": 1 / EXP_GAMMA,
            "c0": _c0(),
            "c1": zeta(2) * zeta(3) / zeta(6),
            "c2": self.c2,
            "U_4": UN_BASE_MP,
        }
        for name, truth in truths.items():
            e = entries.get(name)
            if e is None:
                errs.append(f"no ledger entry {name}")
            elif not _contains(e["value"], e["radius"], truth):
                errs.append(f"{name} = {e['value']!r} +/- {e['radius']!r} misses {truth}")
        return errs

    def _check_bounds(self, params, text):
        reports = {r["theorem_id"]: r for r in json.loads(text)["reports"]}
        expected = ["FINAL"]
        if params["theorem"] == "all":
            expected = ["T4_lower", "T5_upper", "T6_upper", "FINAL"]
        if list(reports) != expected:
            return [f"reports {list(reports)}, expected {expected}"]
        errs = []
        for tid, rep in reports.items():
            truth = self._stage_value(tid, rep["inputs"])
            total = rep["total"]
            if not _contains(total["value"], total["radius"], truth):
                errs.append(
                    f"{tid} total {total['value']!r} +/- {total['radius']!r} misses {truth}"
                )
        final = reports["FINAL"]
        if not (final["total"]["value"] - final["total"]["radius"] > FINAL_THRESHOLD):
            errs.append(f"FINAL does not clear {FINAL_THRESHOLD}")
        if final["annotations"].get("clears_threshold") is not True:
            errs.append("FINAL clears_threshold is not true")
        return errs

    def _stage_value(self, tid: str, inputs: dict) -> mpmath.mpf:
        """The stage formulas of the bound chain, evaluated in mpmath."""
        x = mpmath.mpf(inputs["loglog_N"])
        log_n = mpmath.exp(x)
        eps0 = 1 / max(mpmath.mpf(57), x)
        eg = EXP_GAMMA
        log3, log6 = mpmath.log(3), mpmath.log(6)
        c2e = self.c2 * (1 + mpmath.mpf(inputs.get("epsilon", 0)))
        if tid == "T4_lower":
            return (
                4 * eg * log3
                - mpmath.mpf("0.5198") * eps0
                - mpmath.mpf("767.7471") / mpmath.sqrt(log_n)
            )
        if tid == "T5_upper":
            return 4 * eg * log6 * (1 + eps0) + mpmath.mpf("993.2507") / mpmath.sqrt(log_n)
        if tid == "T6_upper":
            eps = mpmath.mpf(inputs["epsilon"])
            return (
                c2e * 4 * eg * (1 + eps0)
                + c2e * mpmath.mpf("860.16295") / log_n ** 1.5
                + mpmath.exp(-138) / (eps * log_n)
            )
        return (
            eg * (4 * log3 - 2 * log6 - 2 * c2e)
            - eps0 * (2 * eg * (c2e + log6) + mpmath.mpf("0.5198"))
            - (mpmath.mpf("767.7471") + mpmath.mpf("496.6254") + mpmath.mpf("430.0815") * c2e)
            / mpmath.sqrt(log_n)
            - 1 / log_n
        )


def _csv(text: str, header: list[str]) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0].split(",") != header:
        raise ValueError(f"header is not {','.join(header)}")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("ragged csv row")
    return rows


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


def _contains(value: float, radius: float, truth) -> bool:
    """Does the ball [value - radius, value + radius] hold `truth`?"""
    return abs(mpmath.mpf(value) - truth) <= mpmath.mpf(radius)
