"""Seeded job lists for the benchmark workloads.

A batch is one list of README-style ``chensieve`` command lines.  Every
workload has a fixed batch shape: a list of strata, each a command with a
narrow range for its size parameters.  A job draws its parameters uniformly
inside its stratum, so a batch's total work barely depends on the seed while
its inputs do.  Within one run no two jobs share a (command, table limit,
s_max, loglogN) key, so a job never repeats work an earlier job did.

Nothing here imports chensieve.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("scan", "verify", "certify")


@dataclass(frozen=True)
class Job:
    """One CLI invocation, before its output and cache paths are attached.

    `kind` selects the oracle that checks the output; `params` holds the
    sizes the oracle needs; `cache_limit` is set when the job reads a
    ``CHEN-PT1`` cache file that the batch's set-up writes.
    """

    kind: str
    args: tuple[str, ...]
    ext: str
    params: dict = field(hash=False, compare=False)
    cache_limit: int | None = None

    @property
    def key(self) -> tuple:
        p = self.params
        return (self.args[0], p.get("table_limit"), p.get("s_max"), p.get("loglogN"))

    def argv(self, out_path: str, cache_path: str | None = None) -> list[str]:
        argv = list(self.args)
        if cache_path is not None:
            argv += ["--cache-file", cache_path]
        return argv + ["-o", out_path]


def _even(rng: random.Random, lo: float, hi: float) -> int:
    return 2 * rng.randrange(int(lo) // 2, int(hi) // 2)


def _scan_full(rng, lo, hi) -> Job:
    m = _even(rng, lo, hi)
    args = ("scan", "--max", str(m), "--rows", "--emit", "csv", "--table-limit", str(m))
    return Job("scan_full", args, "csv", {"max": m, "table_limit": m}, cache_limit=m)


def _scan_floor(rng, lo, hi) -> Job:
    m = _even(rng, lo, hi)
    args = ("scan", "--max", str(m), "--floor-only", "--table-limit", str(m))
    return Job("scan_floor", args, "json", {"max": m, "table_limit": m}, cache_limit=m)


def _verify_scan(rng, lo, hi) -> Job:
    m = _even(rng, lo, hi)
    limit = rng.randrange(950_000, 1_000_001)
    args = ("verify", "--scan", str(m), "--emit", "csv", "--table-limit", str(limit))
    return Job("verify_scan", args, "csv", {"scan": m, "table_limit": limit})


def _verify_n(rng, lo, hi) -> Job:
    n = _even(rng, lo, hi)
    args = ("verify", "--N", str(n), "--table-limit", str(n))
    return Job("verify_n", args, "json", {"N": n, "table_limit": n})


def _sievefun(step):
    def make(rng, lo, hi) -> Job:
        s_max = round(rng.uniform(lo, hi), 3)
        args = ("sievefun", "--s-max", repr(s_max), "--step", repr(step))
        return Job("sievefun", args, "csv", {"s_max": s_max, "step": step})

    return make


def _constants(rng, lo, hi) -> Job:
    limit = rng.randrange(int(lo), int(hi))
    args = ("constants", "--table-limit", str(limit))
    return Job("constants", args, "json", {"table_limit": limit})


def _bounds(rng, lo, hi) -> Job:
    theorem = rng.choice(("all", "final"))
    x = round(rng.uniform(lo, hi), 4)
    args = ("bounds", "--theorem", theorem, "--loglogN", repr(x))
    return Job("bounds", args, "json", {"theorem": theorem, "loglogN": x})


# Batch shapes: (job factory, low, high) per stratum, in the order the jobs
# run.  The order is fixed because a worker's peak RSS depends on it.  The
# strata are narrow, so that the seed changes every input but hardly the
# batch's total work.
# Each shape has as many jobs cheaper than its middle group of like-sized
# jobs as dearer ones, which puts the median job time in the middle of that
# group instead of on a jump between two job sizes:
#   scan     0.55 s | 1.0 s, 1.0 s | 1.6 s
#   verify   0.1 s, 0.3 s | 0.55 s, 0.55 s | 0.6 s, 0.65 s
#   certify  ms, ms | 0.8 s x 3 | 1.2 s, 1.7 s
# The constants job sits near L = 1e7, where its table sets the peak RSS.
SHAPES = {
    "scan": [
        (_scan_full, 24_000, 25_200),
        (_scan_full, 34_800, 36_000),
        (_scan_floor, 600_000, 630_000),
        (_scan_floor, 970_000, 1_000_000),
    ],
    "verify": [
        (_verify_n, 1_000_000, 1_040_000),
        (_verify_scan, 400, 416),
        (_verify_n, 3_880_000, 4_000_000),
        (_verify_scan, 560, 576),
        (_verify_scan, 652, 668),
        (_verify_scan, 684, 700),
    ],
    "certify": [
        (_constants, 9_600_000, 10_000_001),
        (_bounds, 33.0, 40.0),
        (_sievefun(1e-3), 8.0, 8.4),
        (_sievefun(1e-3), 8.0, 8.4),
        (_sievefun(1e-3), 8.0, 8.4),
        (_sievefun(1e-3), 11.6, 12.0),
        (_sievefun(5e-4), 8.0, 8.4),
    ],
}


class JobStream:
    """Deterministic stream of batches for one (workload, seed) pair."""

    def __init__(self, workload: str, seed: int):
        if workload not in SHAPES:
            raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
        self.workload = workload
        self._rng = random.Random(f"{workload}:{seed}")
        self._seen: set[tuple] = set()

    def next_batch(self) -> list[Job]:
        batch = []
        for make, lo, hi in SHAPES[self.workload]:
            for _ in range(1000):
                job = make(self._rng, lo, hi)
                if job.key not in self._seen:
                    break
            else:
                raise RuntimeError(f"no unused parameters left in [{lo}, {hi})")
            self._seen.add(job.key)
            batch.append(job)
        return batch


def largest_n(workload: str) -> int:
    """The largest integer any job of the workload asks the oracles about."""
    sized = (_scan_full, _verify_scan, _verify_n)
    return max((int(hi) for make, _, hi in SHAPES[workload] if make in sized), default=0)
