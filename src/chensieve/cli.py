"""Single command-line entry point with reproducible machine-readable output.

Exit codes: 0 success, 1 when a pinned-bound check or scan invariant fails,
2 on usage errors.  All floats print at 17 significant digits and output is
byte-identical across runs for a fixed configuration; `--threads` is
accepted for compatibility and has no effect.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys

from . import bounds as bounds_mod
from . import constants as constants_mod
from . import harness as harness_mod
from . import primes as primes_mod
from . import sievefun as sievefun_mod
from .errors import CacheError, ChensieveError

SCHEMA = "chen-report/1"
CACHE_ENV = "CHENSIEVE_CACHE_DIR"


# -- deterministic serialization -------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return '"%s"' % x
    return format(x, ".17g")


def to_json(obj, indent: int = 0) -> str:
    """Minimal JSON writer with floats at 17 significant digits."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad_in}"{k}": {to_json(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad_in}{to_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)}")


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_csv(fh, header: list[str], rows: list[list]) -> None:
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(_csv_cell(v) for v in row) + "\n")


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- table helpers ----------------------------------------------------------------


def _cache_path(limit: int, explicit: str | None) -> str | None:
    if explicit:
        return explicit
    cache_dir = os.environ.get(CACHE_ENV)
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        return os.path.join(cache_dir, f"pt_{limit}.bin")
    return None


def _load_table(args) -> primes_mod.PrimeTable:
    path = _cache_path(args.table_limit, getattr(args, "cache_file", None))
    if path and os.path.exists(path):
        try:
            table = primes_mod.load_cache(path)
            if table.limit == args.table_limit:
                return table
            print(
                f"warning: cache {path} has limit {table.limit}, rebuilding",
                file=sys.stderr,
            )
        except CacheError as exc:
            print(f"warning: unreadable cache ({exc}), rebuilding", file=sys.stderr)
    table = primes_mod.build_prime_table(args.table_limit, threads=args.threads)
    if path:
        primes_mod.save_cache(table, path)
    return table


# -- subcommands --------------------------------------------------------------------


def _cmd_constants(args) -> int:
    table = _load_table(args)
    led = constants_mod.ledger(
        table, truncation_limit=args.table_limit, tol=args.precision_target
    )
    rows = led.rows()
    if args.output_format == "csv":
        buf = io.StringIO()
        write_csv(
            buf,
            ["name", "value", "radius", "paper_bound", "pass", "provenance"],
            [
                [
                    r["name"],
                    r["value"],
                    r["radius"],
                    "" if r["paper_bound"] is None else r["paper_bound"],
                    r["pass"],
                    r["provenance"],
                ]
                for r in rows
            ],
        )
        _emit(buf.getvalue(), args.output_path)
    elif args.output_format == "text":
        buf = io.StringIO()
        for r in rows:
            bound = "" if r["paper_bound"] is None else f" < {r['paper_bound']:.17g}"
            flag = "ok" if r["pass"] else "FAIL"
            buf.write(
                f"{r['name']:24s} {r['value']:.17g} +/- {r['radius']:.3g}"
                f"{bound}  [{flag}] {r['provenance']}\n"
            )
        _emit(buf.getvalue(), args.output_path)
    else:
        _emit(
            to_json({"schema": SCHEMA, "report": "constants", "entries": rows}) + "\n",
            args.output_path,
        )
    return 0 if led.all_pass else 1


def _cmd_sievefun(args) -> int:
    grid = sievefun_mod.build_grid(args.s_max, args.step, tol=args.precision_target)
    buf = io.StringIO()
    sievefun_mod.write_grid_csv(grid, buf)
    _emit(buf.getvalue(), args.output_path)
    return 0


def _cmd_bounds(args) -> int:
    which = args.theorem
    reports = []
    if which in ("4", "all"):
        reports.append(bounds_mod.theorem4_coeff(args.loglogN, with_annotations=True))
    if which in ("5", "all"):
        reports.append(bounds_mod.theorem5_coeff(args.loglogN))
    if which in ("6", "all"):
        reports.append(bounds_mod.theorem6_coeff(args.loglogN, args.epsilon))
    if which in ("final", "all"):
        reports.append(bounds_mod.final_coefficient(args.loglogN, args.epsilon))

    failed = False
    for rep in reports:
        if rep.theorem_id == "FINAL" and not rep.annotations.get("clears_threshold"):
            failed = True

    if args.output_format == "text":
        buf = io.StringIO()
        for rep in reports:
            buf.write(f"[{rep.theorem_id}] inputs={rep.inputs}\n")
            for label, ball in rep.terms:
                buf.write(f"  {label:56s} {ball.value:.17g} +/- {ball.radius:.3g}\n")
            buf.write(
                f"  total {rep.total.value:.17g} +/- {rep.total.radius:.3g}\n"
            )
            for k, v in rep.annotations.items():
                buf.write(f"  note {k}: {v}\n")
        _emit(buf.getvalue(), args.output_path)
    else:
        payload = {
            "schema": SCHEMA,
            "report": "bounds",
            "reports": [rep.to_dict() for rep in reports],
        }
        _emit(to_json(payload) + "\n", args.output_path)
    return 1 if failed else 0


_VERIFY_HEADER = ["N", "pi2", "S_A", "Sum_S_Aq", "S_B", "lemma41_margin", "UN", "ratio"]


def _verify_row_dict(check) -> dict:
    row = check.to_row()
    return dict(zip(_VERIFY_HEADER, row))


def _cmd_verify(args) -> int:
    if (args.N is None) == (args.scan is None):
        print("verify: give exactly one of --N or --scan", file=sys.stderr)
        return 2
    table = _load_table(args)
    targets = [args.N] if args.N is not None else list(range(6, args.scan + 1, 2))
    checks = [
        harness_mod.check_lemma41(N, table, z_exp=args.z_exp, y_exp=args.y_exp)
        for N in targets
    ]
    fmt = args.emit or args.output_format
    if fmt == "text":
        buf = io.StringIO()
        for c in checks:
            buf.write(
                f"N={c.N} pi2={c.pi2} S_A={c.S_A} Sum_S_Aq={c.sum_S_Aq} "
                f"S_B={c.S_B} margin={c.margin:.17g} ratio={c.ratio:.17g}\n"
            )
        _emit(buf.getvalue(), args.output_path)
    elif fmt == "json":
        payload = {
            "schema": SCHEMA,
            "report": "verify",
            "rows": [_verify_row_dict(c) for c in checks],
        }
        _emit(to_json(payload) + "\n", args.output_path)
    else:
        buf = io.StringIO()
        write_csv(buf, _VERIFY_HEADER, [c.to_row() for c in checks])
        _emit(buf.getvalue(), args.output_path)
    return 0 if all(c.pi2 >= 1 for c in checks) else 1


def _cmd_scan(args) -> int:
    table = _load_table(args)
    mode = "floor" if args.floor_only else "full"
    report = harness_mod.goldbach_chen_scan(
        args.max, table, mode=mode, threads=args.threads, collect_rows=args.rows
    )
    fmt = args.emit or args.output_format
    if fmt == "csv" and report.rows is not None:
        buf = io.StringIO()
        write_csv(buf, ["N", "pi2", "UN", "ratio"], report.rows)
        _emit(buf.getvalue(), args.output_path)
    elif fmt == "text":
        d = report.to_dict()
        _emit(
            "".join(f"{k}={d[k]}\n" for k in d),
            args.output_path,
        )
    else:
        payload = {"schema": SCHEMA, "report": "scan", "result": report.to_dict()}
        if report.rows is not None and fmt == "json":
            payload["rows"] = [
                dict(zip(["N", "pi2", "UN", "ratio"], row)) for row in report.rows
            ]
        _emit(to_json(payload) + "\n", args.output_path)
    return 0 if report.floor_holds else 1


def _cmd_cache(args) -> int:
    path = _cache_path(args.table_limit, args.cache_file)
    if path is None:
        print(
            f"cache: no path; pass --cache-file or set {CACHE_ENV}", file=sys.stderr
        )
        return 2
    if args.action == "build":
        primes_mod.build_prime_table(
            args.table_limit, threads=args.threads, cache_path=path
        )
        print(path)
        return 0
    try:
        table = primes_mod.load_cache(path)
    except (CacheError, OSError) as exc:
        print(f"cache: {exc}", file=sys.stderr)
        return 2
    print(f"{path}: limit={table.limit} words={len(table.packed)}")
    return 0


# -- parser --------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output-format", choices=["json", "csv", "text"], default="json")
    p.add_argument("--output-path", "-o", default=None)
    p.add_argument("--table-limit", type=int, default=1_000_000)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument(
        "--precision-target",
        type=float,
        default=1e-12,
        help="absolute tolerance handed to the quadrature/constants pipeline",
    )
    p.add_argument("--cache-file", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chensieve",
        description=(
            "Prime engine, linear-sieve function tables, explicit bound chain, "
            "and desk-scale identity verification"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="emit the constants ledger")
    _add_common(p)
    p.set_defaults(fn=_cmd_constants)

    p = sub.add_parser("sievefun", help="tabulate f1/F1 and export CSV")
    _add_common(p)
    p.add_argument("--s-max", type=float, default=6.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.set_defaults(fn=_cmd_sievefun)

    p = sub.add_parser("bounds", help="evaluate the bound-chain coefficients")
    _add_common(p)
    p.add_argument("--loglogN", type=float, default=36.0)
    p.add_argument("--epsilon", type=float, default=bounds_mod.DEFAULT_EPSILON)
    p.add_argument("--theorem", choices=["4", "5", "6", "final", "all"], default="all")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("verify", help="exact per-N decomposition report")
    _add_common(p)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--scan", type=int, default=None)
    p.add_argument("--z-exp", type=float, default=0.125, dest="z_exp")
    p.add_argument("--y-exp", type=float, default=1.0 / 3.0, dest="y_exp")
    p.add_argument("--emit", choices=["csv", "json", "text"], default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("scan", help="representation-count scan over even N")
    _add_common(p)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--floor-only", action="store_true")
    p.add_argument("--rows", action="store_true", help="collect per-N rows")
    p.add_argument("--emit", choices=["csv", "json", "text"], default=None)
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("cache", help="build or inspect the prime-table cache")
    _add_common(p)
    p.add_argument("action", choices=["build", "info"])
    p.set_defaults(fn=_cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    if not (1e-15 <= args.precision_target <= 1e-6):
        parser.error("--precision-target must lie in [1e-15, 1e-6]")
    if args.command == "bounds" and not math.isfinite(args.loglogN):
        parser.error("--loglogN must be finite")
    if args.command == "verify" and not (0.0 < args.z_exp < args.y_exp < 1.0):
        parser.error("--z-exp and --y-exp must satisfy 0 < z-exp < y-exp < 1")
    try:
        return args.fn(args)
    except ChensieveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
