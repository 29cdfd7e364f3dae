"""Span tracing of chensieve from outside the package, and the per-layer
metrics derived from the spans.

`Tracer.install` replaces every public function of every chensieve module
with a wrapper that records a span (name, start, end, parent, job, ok), and
rebinds every ``from ... import`` copy of it in the other modules.  A few
methods are wrapped as well: the `PrimeTable.spf` / `isprime_array`
properties, `PrimeTable.primes_between` and `SieveFunctionSystem.__init__`.
Hot calls whose count matters more than their time (`Ball` construction,
`SieveFunctionSystem.f1` / `F1`, quadrature integrand calls) only bump a
counter.  Spans stay in memory; the worker writes them out when its batch
ends, and `batch_layer_metrics` turns them into the numbers the benchmark
reports.

Importing this module does not import chensieve.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
import weakref
from collections import Counter

MODULES = ("ball", "quadrature", "primes", "sievefun", "constants", "bounds", "harness", "cli")

# Span fields, in the order `Tracer.spans` stores them.
NAME, START, END, PARENT, JOB, OK = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = -1  # -1 while the batch sets up, then the job index
        self._stack: list[int] = []
        self._arrays_seen: dict[int, weakref.ref] = {}

    # -- recording ------------------------------------------------------------

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, False]
            spans.append(record)
            stack.append(idx)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
                record[OK] = True
                return result
            finally:
                record[END] = clock()
                stack.pop()

        wrapper.bench_traced = True
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.bench_traced = True
        return wrapper

    # -- installation -----------------------------------------------------------

    def install_early(self) -> None:
        """Wrap `validate_gamma_literal` before chensieve.constants runs it at
        import time; call this before importing chensieve.cli."""
        ball = importlib.import_module("chensieve.ball")
        ball.validate_gamma_literal = self.span(
            "ball.validate_gamma_literal", ball.validate_gamma_literal
        )

    def install(self) -> None:
        mods = {m: importlib.import_module(f"chensieve.{m}") for m in MODULES}
        special = {
            "quadrature.integrate": self._integrate,
            "sievefun.build_grid": self._build_grid,
        }
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and not getattr(obj, "bench_traced", False)
                ):
                    name = f"{short}.{attr}"
                    inner = special[name](obj) if name in special else obj
                    wrappers[id(obj)] = self.span(name, inner)
        everywhere = [importlib.import_module("chensieve"), *mods.values()]
        for mod in everywhere:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])

        primes, sievefun, ball = mods["primes"], mods["sievefun"], mods["ball"]
        table = primes.PrimeTable
        table.spf = property(self._array_span("primes.PrimeTable.spf", table.spf.fget))
        table.isprime_array = property(
            self._array_span("primes.PrimeTable.isprime_array", table.isprime_array.fget)
        )
        table.primes_between = self.span("primes.PrimeTable.primes_between", table.primes_between)
        system = sievefun.SieveFunctionSystem
        system.__init__ = self.span("sievefun.SieveFunctionSystem.__init__", system.__init__)
        system.f1 = self.counter("sievefun.eval_calls", system.f1)
        system.F1 = self.counter("sievefun.eval_calls", system.F1)
        ball.Ball.__post_init__ = self.counter("ball.new", ball.Ball.__post_init__)

    def _integrate(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def integrate(f, *args, **kwargs):
            def counted(x):
                counts["quadrature.f_evals"] += 1
                return f(x)

            return fn(counted, *args, **kwargs)

        return integrate

    def _build_grid(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def build_grid(*args, **kwargs):
            grid = fn(*args, **kwargs)
            counts["sievefun.grid_nodes"] += len(grid)
            return grid

        return build_grid

    def _array_span(self, name: str, fget):
        """Span a lazily built array property only on the access that builds
        it (the first time it returns a given array).  The scans read these
        properties once per N, and a span for every read would swamp them.
        The spf builds also add their array sizes to ``primes.spf_bytes``.
        """
        spans, stack, seen, counts = self.spans, self._stack, self._arrays_seen, self.counts
        clock = time.perf_counter

        @functools.wraps(fget)
        def wrapper(table):
            start = clock()
            arr = fget(table)
            end = clock()
            ref = seen.get(id(arr))
            if ref is None or ref() is not arr:
                seen[id(arr)] = weakref.ref(arr)
                spans.append([name, start, end, stack[-1] if stack else -1, self.job, True])
                if name == "primes.PrimeTable.spf":
                    counts["primes.spf_bytes"] += arr.nbytes
            return arr

        return wrapper


# -- derived metrics ------------------------------------------------------------

# Per-layer metric -> span names whose self time (name ending in _s) or call
# count (_calls, _builds) it sums.
SPAN_METRICS = {
    "cli.main_s": ["cli.main"],
    "cli.serialize_s": ["cli.to_json", "cli.write_csv"],
    "primes.build_s": ["primes.build_prime_table"],
    "primes.build_calls": ["primes.build_prime_table"],
    "primes.spf_s": ["primes.PrimeTable.spf"],
    "primes.isprime_s": ["primes.PrimeTable.isprime_array"],
    "primes.cache_load_s": ["primes.load_cache"],
    "primes.cache_save_s": ["primes.save_cache"],
    "primes.UN_s": ["primes.singular_series_UN"],
    "primes.UN_calls": ["primes.singular_series_UN"],
    "primes.primes_between_s": ["primes.PrimeTable.primes_between"],
    "primes.primes_between_calls": ["primes.PrimeTable.primes_between"],
    "harness.pi2_s": ["harness.pi2_bruteforce"],
    "harness.pi2_calls": ["harness.pi2_bruteforce"],
    "harness.scan_s": ["harness.goldbach_chen_scan"],
    "harness.lemma41_s": ["harness.check_lemma41"],
    "harness.lemma41_calls": ["harness.check_lemma41"],
    "harness.sift_s": ["harness.sift_count"],
    "harness.sift_calls": ["harness.sift_count"],
    "harness.enumerate_s": ["harness.enumerate_set"],
    "harness.enumerate_calls": ["harness.enumerate_set"],
    "sievefun.system_s": ["sievefun.SieveFunctionSystem.__init__"],
    "sievefun.system_builds": ["sievefun.SieveFunctionSystem.__init__"],
    "sievefun.grid_s": ["sievefun.build_grid"],
    "sievefun.csv_s": ["sievefun.write_grid_csv"],
    "quadrature.integrate_s": ["quadrature.integrate", "quadrature.integrate_ball"],
    "quadrature.integrate_calls": ["quadrature.integrate"],
    "constants.ledger_s": ["constants.ledger"],
    "constants.zeta_calls": ["constants.zeta"],
    "bounds.stage_s": [
        "bounds.theorem4_coeff",
        "bounds.theorem5_coeff",
        "bounds.theorem6_coeff",
        "bounds.final_coefficient",
    ],
    "bounds.stage_calls": [
        "bounds.theorem4_coeff",
        "bounds.theorem5_coeff",
        "bounds.theorem6_coeff",
        "bounds.final_coefficient",
    ],
    "ball.validate_s": ["ball.validate_gamma_literal"],
}

# Counters bumped directly by the wrappers.
COUNTER_METRICS = (
    "primes.spf_bytes",
    "sievefun.grid_nodes",
    "sievefun.eval_calls",
    "quadrature.f_evals",
    "ball.new",
)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so direct children never overlap each other.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def cache_hit_ratio(spans: list[list]) -> float:
    """Tables loaded from a cache file over tables requested, during the jobs.

    A request is a successful `load_cache` (a hit) or a `build_prime_table`
    call that had to sieve, i.e. that has no successful `load_cache` child.
    """
    served = {s[PARENT] for s in spans if s[NAME] == "primes.load_cache" and s[OK]}
    hits = sum(1 for s in spans if s[NAME] == "primes.load_cache" and s[OK] and s[JOB] >= 0)
    misses = sum(
        1
        for i, s in enumerate(spans)
        if s[NAME] == "primes.build_prime_table" and s[JOB] >= 0 and i not in served
    )
    return hits / (hits + misses) if hits + misses else 0.0


def batch_layer_metrics(spans: list[list], counts: dict, out_bytes: int) -> dict:
    """Per-layer metrics of one traced batch (set-up included)."""
    own = self_times(spans)
    by_name_time: Counter = Counter()
    by_name_calls: Counter = Counter()
    for s, t in zip(spans, own):
        by_name_time[s[NAME]] += t
        by_name_calls[s[NAME]] += 1
    out = {}
    for metric, names in SPAN_METRICS.items():
        table = by_name_time if metric.endswith("_s") else by_name_calls
        out[metric] = sum(table[n] for n in names)
    for metric in COUNTER_METRICS:
        out[metric] = counts.get(metric, 0)
    out["cli.out_bytes"] = out_bytes
    out["primes.cache_hit_ratio"] = cache_hit_ratio(spans)
    return out


def median_metrics(per_batch: list[dict]) -> dict:
    return {k: statistics.median(b[k] for b in per_batch) for k in per_batch[0]}
