"""Run a fixed matrix of ``chensieve`` commands in-process and hash each result.

Each output line is ``<sha256>  <exit code>  <argv>``, where the hash covers
the argv, the exit code, stdout, stderr and the bytes of the ``-o`` file (if
the command names one; an absent file hashes apart from an empty one).
Temporary paths are replaced by ``{tmp}`` before hashing, so two checkouts
can be compared line for line:

    PYTHONPATH=src python tools/cli_matrix.py > new.txt
    PYTHONPATH=/path/to/other/checkout/src python tools/cli_matrix.py > old.txt
    diff old.txt new.txt

The matrix holds the README commands, ``scan`` and ``verify`` under every
``--output-format`` x ``--emit`` pair, the other reports in every format,
edge ``--max`` values (two of them on either side of an FFT length step),
``verify`` cases for every branch of its lemma-4.1 pass and at even and odd
table limits, the grid and bound sizes of the certify benchmark and grids
one march past an integer, CSVs that
reach the edge paths of the whole-column formatting kernels, JSON and
text rows on either side of the kernels' row cutoff and of the write
block, tables that span several windows of the prime table's passes (a
``verify`` target walked in chunks of them among them), the two
``constants`` table limits at which the products' first window of bits is
exactly full and one bit past full,
``--threads`` values it accepts and rejects, and usage errors,
among them one option per command that the command does not accept.
Every command outside ERRORS parses; a tier-1 test checks that against
``cli.build_parser()``.
It takes about 6 s on a 2 vCPU Intel Xeon VM.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from chensieve import cli

FORMATS = (None, "json", "csv", "text")

README = [
    "constants --table-limit 1000000",
    "bounds --theorem final --loglogN 36 --epsilon 9.4e-14",
    "bounds --theorem all --output-format text",
    "sievefun --s-max 6 --step 0.001 -o {tmp}/grid.csv",
    "verify --N 10000 --emit csv",
    "verify --scan 20000 --emit csv -o {tmp}/rows.csv",
    "scan --max 1000000 --floor-only",
    "scan --max 100000 --rows --emit csv -o {tmp}/pi2.csv",
    "cache build --table-limit 10000000 --cache-file {tmp}/pt.bin",
    "cache info --table-limit 10000000 --cache-file {tmp}/pt.bin",
]

# Commands that take both --output-format and --emit.
EMITTING = [
    "verify --N 30030 --table-limit 200000",
    "verify --scan 600 --table-limit 200000",
    "scan --max 5000 --rows --table-limit 200000",
    "scan --max 5000 --table-limit 200000",
    "scan --max 5000 --floor-only --rows --table-limit 200000",
]

# Commands that take only --output-format.
REPORTS = [
    "constants --table-limit 200000",
    "bounds --theorem all",
    "bounds --theorem 4",
    "bounds --theorem 5",
    "bounds --theorem 6",
    "bounds --theorem final",
]

EDGES = [
    f"scan --max {m} --rows --emit csv --table-limit {limit}"
    for m, limit in [
        (-3, 10), (0, 10), (1, 10), (2, 10), (4, 10), (5, 10), (6, 10), (7, 10),
        (8, 10), (10, 10), (9, 10), (5000, 5000), (5001, 5001), (20001, 20001),
        (36000, 36000), (24000, 24000),
        # the scan's FFT length moves from 2**17 to 2**18 between these two
        (131072, 131072), (131074, 131074),
    ]
] + [
    "scan --max 24000 --rows --emit json --table-limit 24000",
    "scan --max 8 --floor-only --rows --table-limit 10",
    "scan --max 20001 --floor-only --table-limit 20001",
    "verify --scan 6 --emit csv --table-limit 10",
    "verify --scan 8 --emit text --table-limit 100",
]

# Cases that reach every branch of the lemma-4.1 pass: many blocks, other
# exponents, one N past the default pair budget, and rejected targets.
VERIFY = [
    "verify --scan 700 --emit csv",
    "verify --scan 700 --emit json",
    "verify --scan 700 --emit text",
    "verify --scan 3000 --z-exp 0.05 --y-exp 0.9 --emit csv",
    "verify --N 999998 --z-exp 0.05 --y-exp 0.9",
    "verify --N 3939998 --table-limit 4000000",
    "verify --N 7",
    "verify --N 4",
    "verify --scan 5",
    "verify --N 1000002 --table-limit 1000000",
    # the odd spf store ends at an even limit one entry short of an odd one
    "verify --N 131072 --table-limit 131072",
    "verify --N 131072 --table-limit 131073",
    "verify --scan 3001 --emit csv --table-limit 3001",
]

# A small grid (`sievefun` writes only CSV), the certify benchmark's grid
# sizes, grids whose last piece is one march past an integer (a few nodes
# on it), stage 4 with s1_lower below 0 (no annotation at s1_lower) and in
# (0, 4), and every stage on either side of the default loglogN.
CERTIFY = [
    "sievefun --s-max 4 --step 0.05",
    "sievefun --s-max 8.2 --step 1e-3 -o {tmp}/grid_8.2.csv",
    "sievefun --s-max 11.7 --step 1e-3 -o {tmp}/grid_11.7.csv",
    "sievefun --s-max 8.2 --step 5e-4 -o {tmp}/grid_8.2_fine.csv",
    "sievefun --s-max 3.001 --step 1e-3",
    "sievefun --s-max 11.001 --step 1e-3 -o {tmp}/grid_11.001.csv",
    "bounds --theorem 4 --loglogN 3",
    "bounds --theorem 4 --loglogN 8",
    "bounds --theorem all --loglogN 33",
    "bounds --theorem all --loglogN 40",
]

# CSV written by the whole-column kernels: the smallest grid step (radii
# near 1e-13 and F1 below 1e-11, which the float kernel leaves to `%.17g`)
# and a scan whose rows span many write blocks, into a file and to stdout.
CSV = [
    "sievefun --s-max 12 --step 1e-4 -o {tmp}/fine.csv",
    "scan --max 200000 --rows --emit csv -o {tmp}/multi.csv",
    "scan --max 200000 --rows --emit csv",
]

# JSON and text rows, which go out through the CSV writer's row layout: 2999,
# 3000 and 3001 rows (the whole-column kernels start at 3000) and 4097 (one
# row past the 4096-row write block).
ROWS = [
    f"verify --scan {m} --emit {emit}" for emit in ("json", "text") for m in (6002, 6004, 6006)
] + [
    "verify --scan 8198 --emit text",
    "scan --max 6006 --rows --emit json",
    "scan --max 8198 --rows --emit json",
]

# Tables that span several windows of the sieve, of the primes' unpacking and
# of the twin-prime product (the constants ledger's largest table among them);
# a verify target one below an odd limit, whose pairs pass the budget and are
# walked in chunks of bit windows; and floor and full scans whose P2
# indicator and p = 2 column end a few entries past a window of bits.  The
# products read 2^16 bits a window: 131073 has exactly that many odd numbers
# from 3 on, and 131075 one more.
WINDOWS = [
    "constants --table-limit 9865089",
    "constants --table-limit 131073",
    "constants --table-limit 131075",
    "scan --max 1000 --table-limit 4194411",
    "verify --N 1000000 --table-limit 4194411",
    "verify --N 2000000 --table-limit 2000001",
    "scan --max 262154 --floor-only --table-limit 262154",
    "scan --max 262154 --rows --emit csv --table-limit 262154",
]

# The --threads flag, accepted without effect and rejected below 1.
THREADS = [
    "scan --max 100000 --rows --emit csv --threads 4",
    "verify --N 10000 --threads 8",
    "constants --table-limit 200000 --threads 0",
]

ERRORS = [
    "scan --max 20002 --table-limit 20000",
    # a failing command does not create its -o file
    "scan --max 20002 --table-limit 20000 --rows --emit csv -o {tmp}/never.csv",
    "scan --max 100 --floor-only --table-limit 50",
    "verify --scan 20010 --table-limit 20000 --emit csv",
    "verify --N 100 --z-exp 0.5 --y-exp 0.4",
    "verify --table-limit 1000",
    "bounds --loglogN 800",
    "constants --table-limit 50000",
    "scan --max 100 --table-limit 1000 -o {tmp}/missing/x.csv",
    # options a command does not accept, one or more per command
    "sievefun --s-max 4 --step 0.05 --output-format json",
    "sievefun --s-max 4 --step 0.05 --output-format csv",
    "sievefun --s-max 4 --step 0.05 --output-format text",
    "sievefun --s-max 6 --step 0.001 --precision-target 1e-9",
    "sievefun --s-max 3 --step 0.1 --table-limit 1000 --cache-file {tmp}/sf.bin",
    "constants --table-limit 200000 --precision-target 1e-9",
    "constants --table-limit 200000 --precision-target 1e-6",
    "bounds --table-limit 5 --cache-file /nonexistent/x",
    "verify --N 10000 --emit csv --precision-target 1e-9",
    "scan --max 5000 --rows --emit csv --table-limit 200000 --precision-target 1e-9",
    "cache info --table-limit 10000000 --cache-file {tmp}/pt.bin -o {tmp}/info.txt",
    "cache info --table-limit 10000000 --cache-file {tmp}/pt.bin --output-format json",
]


def commands() -> list[str]:
    out = list(README)
    for base in EMITTING:
        for fmt in FORMATS:
            for emit in FORMATS:
                cmd = base
                if fmt:
                    cmd += f" --output-format {fmt}"
                if emit:
                    cmd += f" --emit {emit}"
                out.append(cmd)
    for base in REPORTS:
        out += [base + (f" --output-format {fmt}" if fmt else "") for fmt in FORMATS]
    return out + EDGES + VERIFY + CERTIFY + CSV + ROWS + WINDOWS + THREADS + ERRORS


def run(cmd: str, tmp: str) -> tuple[str, int]:
    argv = cmd.format(tmp=tmp).split()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    h = hashlib.sha256()
    for part in (cmd, str(code), out.getvalue(), err.getvalue()):
        h.update(part.replace(tmp, "{tmp}").encode() + b"\0")
    if "-o" in argv:
        path = argv[argv.index("-o") + 1]
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                h.update(fh.read())
        else:
            h.update(b"\0no file")
    return h.hexdigest(), code


def main() -> int:
    os.environ.pop("CHENSIEVE_CACHE_DIR", None)
    with tempfile.TemporaryDirectory() as tmp:
        for cmd in commands():
            digest, code = run(cmd, tmp)
            print(f"{digest}  {code}  {cmd}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
