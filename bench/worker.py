"""Run one batch of chensieve CLI jobs in a fresh process.

Usage: ``python3 bench/worker.py SPEC.json``.  The spec (written by run.py)
names the source directory, the cache files to write during set-up, the job
argv lists, whether to trace, and where to write the result.

Set-up is the import of chensieve.cli (numpy and the Euler-Mascheroni check
included) plus writing the cache files with ``chensieve cache build``.  Each
job then calls ``chensieve.cli.main(argv)`` in this process, one at a time.
Before each job every functools cache in chensieve is cleared, so each job
pays what a fresh ``chensieve`` process would pay.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _call(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a job that raises is a failed job, not a failed batch
        rc = None
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    return {"rc": rc, "wall_s": wall, "stderr": err.getvalue(), "error": error}


def _peak_rss_mb() -> float:
    """Peak resident set of this process since its exec.

    VmHWM is used rather than ru_maxrss, because ru_maxrss survives exec and
    so can report the parent's resident set at the time it forked.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _function_caches() -> list:
    caches = {}
    for name, mod in list(sys.modules.items()):
        if name == "chensieve" or name.startswith("chensieve."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    caches[id(obj)] = obj
    return list(caches.values())


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()

    start = time.perf_counter()
    if tracer:
        tracer.install_early()
    import chensieve.cli as cli

    if tracer:
        tracer.install()
    setup_jobs = [
        _call(cli, ["cache", "build", "--table-limit", str(limit), "--cache-file", path])
        for limit, path in spec["caches"]
    ]
    setup_s = time.perf_counter() - start

    caches = _function_caches()
    jobs = []
    start = time.perf_counter()
    for i, argv in enumerate(spec["jobs"]):
        for cache in caches:
            cache.cache_clear()
        if tracer:
            tracer.job = i
        jobs.append(_call(cli, argv))
    batch_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "setup_jobs": setup_jobs,
        "batch_s": batch_s,
        "peak_rss_mb": _peak_rss_mb(),
        "jobs": jobs,
    }
    if tracer:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
