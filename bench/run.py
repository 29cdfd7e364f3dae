"""Benchmark of the chensieve command line.

    python3 bench/run.py --workload {scan,verify,certify} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  A run is a closed loop: one batch at a time,
each batch a fresh worker process (bench/worker.py) that imports chensieve
from ./src, writes the batch's cache files, then runs the batch's seeded job
list one job at a time with ``--threads 1``.  Batches are started until the
next one would end after S seconds; every batch draws fresh jobs from the
seeded stream of bench/jobs.py.  After each batch, and outside its timed
interval, every output is checked by bench/oracles.py, which uses no
chensieve code.

With ``--trace 0`` the run reports the end-to-end metrics (medians over its
batches).  With ``--trace 1`` each batch runs twice, untraced and then
traced (bench/tracer.py), and the run reports the per-layer metrics of the
traced batches plus the tracing overhead.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics; the
lines before it give the same numbers for reading, with the hardware stamp.
The full record, failure reasons included, goes to
.bench_work/result-<workload>-seed<N>-trace<T>.json, and a traced run's
spans to .bench_work/spans-<workload>-seed<N>-trace1.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

END_TO_END_UNITS = {
    "batch_s": "s",
    "job_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Workers still running this long after the run started are killed, so that
# a hung job cannot keep the run past three minutes.
RUN_LIMIT_S = 160.0


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", ".overhead")):
        return "ratio"
    return "count"


PER_LAYER_NAMES = [
    *tracer.SPAN_METRICS,
    *tracer.COUNTER_METRICS,
    "cli.out_bytes",
    "primes.cache_hit_ratio",
    "trace.overhead",
]


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be in [1, 60]")
    return args


# -- hardware and version stamp ------------------------------------------------------


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp() -> dict:
    import mpmath
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "mem_total_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


# -- one batch ----------------------------------------------------------------------------


def execute_batch(
    batch: list[jobs.Job], batch_dir: Path, trace: bool, timeout: float = RUN_LIMIT_S
) -> dict:
    """Run one batch in a fresh worker process.

    Returns the worker's measurements plus `outs` (the output paths),
    `problem` (why the worker gave no result, or None) and `setup_ok`.
    """
    batch_dir.mkdir(parents=True)
    rel = lambda p: p.relative_to(ROOT).as_posix()
    caches, argvs, outs = [], [], []
    for i, job in enumerate(batch):
        out = batch_dir / f"j{i}.{job.ext}"
        cache = None
        if job.cache_limit is not None:
            cache = rel(batch_dir / f"pt{i}.bin")
            caches.append([job.cache_limit, cache])
        argvs.append(job.argv(rel(out), cache))
        outs.append(str(out))
    result_path = batch_dir / "worker.json"
    spec_path = batch_dir / "spec.json"
    spec = {
        "src": str(SRC),
        "trace": trace,
        "caches": caches,
        "jobs": argvs,
        "result": str(result_path),
    }
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        problem = None
        if proc.returncode != 0:
            problem = f"worker exit {proc.returncode}: {proc.stderr[-500:]}"
    except subprocess.TimeoutExpired:
        problem = f"worker killed after {timeout:.0f} s"
    if problem is None and result_path.is_file():
        res = json.loads(result_path.read_text())
    else:
        res = {"jobs": [None] * len(batch), "setup_jobs": []}
        problem = problem or "worker wrote no result"
    res["outs"] = outs
    res["problem"] = problem
    res["setup_ok"] = all(
        s["rc"] == 0 and not s["stderr"] and not s["error"] for s in res["setup_jobs"]
    ) and all((ROOT / c).is_file() for _, c in caches)
    return res


def check_batch(batch: list[jobs.Job], res: dict, oracle) -> None:
    """Check every output of an executed batch; sets `failures` (one list of
    reasons per job, empty when the job is right) and `out_bytes`."""
    failures, out_bytes = [], 0
    for job, outcome, out in zip(batch, res["jobs"], map(Path, res["outs"])):
        if outcome is None:
            failures.append([res["problem"]])
            continue
        reasons = []
        if outcome["error"]:
            reasons.append("raised: " + outcome["error"].strip().splitlines()[-1])
        if outcome["stderr"]:
            reasons.append("stderr: " + outcome["stderr"].strip()[:200])
        if job.cache_limit is not None and not res["setup_ok"]:
            reasons.append("batch set-up did not write its cache files")
        text = out.read_text() if out.is_file() else None
        out_bytes += len(text.encode()) if text is not None else 0
        reasons += oracle.check_job(job, outcome["rc"], text)
        failures.append(reasons)
    res["failures"] = failures
    res["out_bytes"] = out_bytes


def run_batch(batch: list[jobs.Job], batch_dir: Path, trace: bool, oracle, timeout: float) -> dict:
    res = execute_batch(batch, batch_dir, trace, timeout)
    check_batch(batch, res, oracle)
    shutil.rmtree(batch_dir)
    return res


# -- the run ------------------------------------------------------------------------------


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chensieve" / "cli.py").is_file():
        print(f"error: no chensieve sources under {SRC}", file=sys.stderr)
        return 2
    import oracles

    run_dir = WORK / f"run-{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    stream = jobs.JobStream(args.workload, args.seed)
    oracle = oracles.Oracle(jobs.largest_n(args.workload))
    plain, traced = [], []
    t0 = time.monotonic()
    remaining = lambda: max(5.0, t0 + RUN_LIMIT_S - time.monotonic())
    while True:
        started = time.monotonic()
        batch = stream.next_batch()
        k = len(plain)
        # A traced run alternates which of the pair goes first, so that a
        # drift in machine speed does not bias trace.overhead.
        modes = [False, True] if args.trace else [False]
        if k % 2:
            modes.reverse()
        for trace in modes:
            res = run_batch(batch, run_dir / f"{k}-trace{int(trace)}", trace, oracle, remaining())
            (traced if trace else plain).append(res)
        now = time.monotonic()
        if len(plain) >= 1 + args.trace and now - t0 + (now - started) > args.seconds:
            break
    shutil.rmtree(run_dir, ignore_errors=True)

    batches = plain + traced
    failures = [r for b in batches for r in b["failures"]]
    attempted = len(failures)
    failed = sum(1 for r in failures if r)
    walls = [j["wall_s"] for b in plain for j in b["jobs"] if j is not None]

    WORK.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        ok = [b for b in traced if "spans" in b]
        (WORK / f"spans-{name}.json").write_text(
            json.dumps([{"spans": b["spans"], "counts": b["counts"]} for b in ok])
        )
        layers = (
            tracer.median_metrics(
                [tracer.batch_layer_metrics(b["spans"], b["counts"], b["out_bytes"]) for b in ok]
            )
            if ok
            else {}
        )
        plain_batch = _median(b.get("batch_s") for b in plain)
        traced_batch = _median(b.get("batch_s") for b in ok)
        layers["trace.overhead"] = (
            traced_batch / plain_batch - 1.0 if plain_batch and traced_batch else None
        )
        metrics = {
            name: {"value": layers.get(name), "unit": per_layer_unit(name)}
            for name in PER_LAYER_NAMES
        }
    else:
        values = {
            "batch_s": _median(b.get("batch_s") for b in plain),
            "job_s_p50": _median(walls),
            "setup_s": _median(b.get("setup_s") for b in plain),
            "peak_rss_mb": _median(b.get("peak_rss_mb") for b in plain),
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END_UNITS.items()}

    hw = stamp()
    record = {
        "stamp": hw,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "batches": len(plain),
        "jobs_per_batch": len(plain[0]["failures"]),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "metrics": metrics,
        "per_batch": [
            {k: b.get(k) for k in ("batch_s", "setup_s", "peak_rss_mb")}
            | {"job_s": [j["wall_s"] for j in b["jobs"] if j is not None]}
            for b in batches
        ],
        "failures": [r for r in failures if r][:20],
    }
    (WORK / f"result-{name}.json").write_text(json.dumps(record, indent=1))

    print("# stamp " + json.dumps(hw))
    print(
        f"# workload={args.workload} seed={args.seed} trace={args.trace} "
        f"batches={len(plain)} jobs={attempted} ({record['jobs_per_batch']} per batch"
        f"{', each batch run untraced and traced' if args.trace else ''})"
    )
    for name, m in metrics.items():
        print(f"# {name:28s} {m['value']!r:>24} {m['unit']}")
    print(f"# {'fail_frac':28s} {record['fail_frac']!r:>24} ratio ({failed}/{attempted})")
    for reasons in record["failures"][:5]:
        print("# failure: " + "; ".join(reasons)[:300])
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
