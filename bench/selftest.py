"""Self-tests of the benchmark.

Run from the repository root: ``python3 bench/selftest.py`` (about half a
minute).  They check that job lists follow the seed, that every metric in
BENCHMARK.json is printed with its unit, that the oracles agree with trial
division, that a corrupted output counts as a failed job, and that the
benchmark refuses to run without the chensieve sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import jobs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((run.BENCH / "layers.json").read_text())


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


class JobStreamTest(unittest.TestCase):
    @staticmethod
    def argvs(workload: str, seed: int) -> list[list[str]]:
        stream = jobs.JobStream(workload, seed)
        return [job.argv("out") for _ in range(3) for job in stream.next_batch()]

    def test_same_seed_gives_same_argv_lists(self):
        for workload in jobs.WORKLOADS:
            self.assertEqual(self.argvs(workload, 7), self.argvs(workload, 7))
            self.assertNotEqual(self.argvs(workload, 7), self.argvs(workload, 8))

    def test_no_two_jobs_of_a_run_share_a_key(self):
        for workload in jobs.WORKLOADS:
            stream = jobs.JobStream(workload, 1)
            keys = [job.key for _ in range(20) for job in stream.next_batch()]
            self.assertEqual(len(keys), len(set(keys)))

    def test_workloads_are_the_declared_ones(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(jobs.WORKLOADS))


class MetricNamesTest(unittest.TestCase):
    def test_units_match_benchmark_json(self):
        e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        self.assertEqual(e2e, run.END_TO_END_UNITS)
        layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        self.assertEqual(layer, {n: run.per_layer_unit(n) for n in run.PER_LAYER_NAMES})
        self.assertEqual(set(LAYERS["per_layer"]), set(layer))


class ArithmeticTest(unittest.TestCase):
    def test_matches_trial_division(self):
        limit = 3000
        ar = oracles.Arithmetic(limit)
        primes = []
        for n in range(2, limit + 1):
            factors, m, d = [], n, 2
            while d * d <= m:
                while m % d == 0:
                    factors.append(d)
                    m //= d
                d += 1
            if m > 1:
                factors.append(m)
            self.assertEqual(ar.omega[n], len(factors), n)
            self.assertEqual(ar.lpf[n], factors[0], n)
            if factors == [n]:
                primes.append(n)
        self.assertEqual(ar.primes.tolist(), primes)


class CorruptedOutputTest(unittest.TestCase):
    """A wrong number in an output makes exactly that job fail."""

    @classmethod
    def setUpClass(cls):
        cls.batch = [
            jobs.Job(
                "scan_full",
                ("scan", "--max", "2000", "--rows", "--emit", "csv", "--table-limit", "2000"),
                "csv",
                {"max": 2000, "table_limit": 2000},
                cache_limit=2000,
            ),
            jobs.Job(
                "constants",
                ("constants", "--table-limit", "200000"),
                "json",
                {"table_limit": 200000},
            ),
            jobs.Job(
                "verify_n",
                ("verify", "--N", "100000", "--table-limit", "100000"),
                "json",
                {"N": 100000, "table_limit": 100000},
            ),
        ]
        cls.dir = run.WORK / "selftest-batch"
        shutil.rmtree(cls.dir, ignore_errors=True)
        cls.res = run.execute_batch(cls.batch, cls.dir, trace=False)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir, ignore_errors=True)

    def failures_after(self, index: int, edit) -> list[list[str]]:
        path = Path(self.res["outs"][index])
        original = path.read_text()
        try:
            path.write_text(edit(original))
            run.check_batch(self.batch, self.res, oracles.Oracle())
        finally:
            path.write_text(original)
        return self.res["failures"]

    def assert_only_job_fails(self, failures, index):
        self.assertEqual([bool(f) for f in failures], [i == index for i in range(len(self.batch))])

    def test_untouched_outputs_pass(self):
        self.assertEqual(self.failures_after(0, lambda text: text), [[], [], []])

    def test_pi2_off_by_one_fails(self):
        def bump(text):
            return re.sub(r"^1000,(\d+),", lambda m: f"1000,{int(m[1]) + 1},", text, flags=re.M)

        self.assert_only_job_fails(self.failures_after(0, bump), 0)

    def test_shrunk_radius_fails(self):
        def shrink(text):
            report = json.loads(text)
            for entry in report["entries"]:
                if entry["name"] == "c1":
                    entry["radius"] = 0.0
            return json.dumps(report)

        self.assert_only_job_fails(self.failures_after(1, shrink), 1)

    def test_sift_count_off_by_one_fails(self):
        def bump(text):
            report = json.loads(text)
            report["rows"][0]["S_B"] += 1
            return json.dumps(report)

        self.assert_only_job_fails(self.failures_after(2, bump), 2)


class RunTest(unittest.TestCase):
    def test_prints_every_metric_with_its_unit(self):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            proc = _bench("--workload", "verify", "--seed", "5", "--seconds", "1", "--trace", trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
            for name, metric in result["metrics"].items():
                self.assertIsInstance(metric["value"], (int, float), name)
                self.assertRegex(proc.stdout, rf"# {re.escape(name)} .* {metric['unit']}\n")
            self.assertRegex(proc.stdout, r"# fail_frac +0\.0 ratio \(0/\d+\)\n")
            self.assertIn('"cpu_model"', proc.stdout)

    def test_refuses_to_run_without_sources(self):
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            args = ("--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0")
            proc = _bench(*args, cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
