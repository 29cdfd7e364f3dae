"""The benchmark's tracer installs on the package as it stands.

`bench/tracer.py` imports every module in its `MODULES` list by name and
patches a few attributes (`PrimeTable.spf` and `isprime_array`,
`PrimeTable.primes_between`, `SieveFunctionSystem.f1` and `F1`).  Deleting
any of them would otherwise show first in a traced benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The order of bench/worker.py: the early hook, then the package, then the rest.
_INSTALL = """\
from tracer import Tracer
tracer = Tracer()
tracer.install_early()
import chensieve.cli
tracer.install()
"""


def test_tracer_installs_in_a_fresh_process():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")])}
    proc = subprocess.run(
        [sys.executable, "-B", "-W", "error", "-c", _INSTALL],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
