"""Check the scan's logs of N against math.log at every even N up to a bound.

``harness._logs`` rounds a long-double ``np.log`` to float64 and sends the N
whose long double lies near a float64 rounding midpoint to ``math.log``.  This
tool compares its result with ``math.log`` bit for bit at every even N in
[2, --max], a window of N at a time, prints the first mismatches and a
summary, and exits 1 on any mismatch:

    PYTHONPATH=src python tools/check_logs.py              # to the 1e8 cap
    PYTHONPATH=src python tools/check_logs.py --max 2e6

The summary also counts the N at which a float64 ``np.log`` differs from
``math.log``, which is why the scan cannot use it.  To the cap it takes about
12 s on a 2 vCPU Intel Xeon VM.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from chensieve import harness
from chensieve.primes import IMPLEMENTATION_CAP


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max", type=float, default=IMPLEMENTATION_CAP, help="largest N")
    parser.add_argument("--window", type=int, default=1 << 18, help="N per window")
    args = parser.parse_args(argv)
    n_max, step = int(args.max), 2 * args.window
    checked = mismatched = plain = 0
    for lo in range(2, n_max + 1, step):
        Ns = np.arange(lo, min(lo + step, n_max + 1), 2, dtype=np.int64)
        want = np.fromiter(map(math.log, Ns.tolist()), np.float64, len(Ns))
        got = harness._logs(Ns)
        for i in np.flatnonzero(got != want)[: max(10 - mismatched, 0)].tolist():
            print(f"N = {Ns[i]}: {got[i]!r} != math.log {want[i]!r}")
        mismatched += int(np.count_nonzero(got != want))
        plain += int(np.count_nonzero(np.log(Ns.astype(np.float64)) != want))
        checked += len(Ns)
    print(
        f"{checked} even N in [2, {n_max}]: {mismatched} mismatches with math.log "
        f"(float64 np.log: {plain})"
    )
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
