"""Single command-line entry point with reproducible machine-readable output.

Exit codes: 0 success, 1 when a pinned-bound check or scan invariant fails
or a run-time certificate of a bulk count does not hold, 2 on usage errors,
a path that cannot be read or written included.  All
floats print at 17 significant digits and output is byte-identical across
runs for a fixed configuration.  Each command accepts only the options it
reads, except `--threads`, which all six accept for compatibility and which
has no effect; any other option is a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import os
import sys

import numpy as np

from . import harness as harness_mod
from . import primes as primes_mod
from .ball import validate_gamma_literal
from .errors import CacheError, CertificateError, ChensieveError

# Checked once per process, on import, so that every command runs it; the
# modules that only `constants`, `bounds` and `sievefun` run are imported
# by those commands.
validate_gamma_literal()

SCHEMA = "chen-report/1"
CACHE_ENV = "CHENSIEVE_CACHE_DIR"
_CSV_BLOCK = 4096  # rows formatted per write
_CSV_KERNEL_ROWS = 3000  # measured: in a fresh process, fewer rows are faster cell by cell


# -- deterministic serialization -------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return '"%s"' % x
    return format(x, ".17g")


# RFC 8259: a string escapes the quote, the backslash and every control
# character U+0000-U+001F; the five with a short form use it.
_JSON_ESCAPES = {c: "\\u%04x" % c for c in range(0x20)}
_JSON_ESCAPES.update(
    {
        ord('"'): '\\"',
        ord("\\"): "\\\\",
        ord("\b"): "\\b",
        ord("\f"): "\\f",
        ord("\n"): "\\n",
        ord("\r"): "\\r",
        ord("\t"): "\\t",
    }
)


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
        return f'"{obj.translate(_JSON_ESCAPES)}"'
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


def _csv_quote(cell: str) -> str:
    """RFC 4180: a cell holding a comma, a quote or a line break is quoted,
    with its quotes doubled."""
    if any(c in cell for c in ',"\n\r'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _column_template(column, json: bool) -> str | None:
    """The `%` template for a column of floats (`%.17g`) or of ints and
    bools (`%d`, which writes a bool as 1/0), each the text `_csv_cell`
    gives; None for any other, and in JSON for one with a bool, NaN or inf."""
    kinds = set(map(type, column))
    if all(issubclass(k, float) for k in kinds):
        return "%.17g" if not json or all(map(math.isfinite, column)) else None
    if all(issubclass(k, int) for k in kinds) and not (json and bool in kinds):
        return "%d"
    return None


def _column_cells(column, json: bool):
    """A function that writes the text of rows [lo, hi) of `column` into
    the rows of an (hi - lo) x `csvtext.CELL` byte array, or None for a
    column that is not an int, bool or float64 array (in JSON: a bool one, or
    one with a NaN or inf).  An array is written as its `tolist()` would be."""
    if not isinstance(column, np.ndarray):
        return None
    # imported here: only a report large enough to use the kernels repays
    # the time and memory their module and tables take
    from . import csvtext

    if column.dtype.kind in "iu" or column.dtype.kind == "b" and not json:
        return lambda lo, hi, out: csvtext.int_cells(column[lo:hi], out)
    if column.dtype != np.float64 or json and not np.isfinite(column).all():
        return None
    bits = column.view(np.int64)
    if 2 * (1 + np.count_nonzero(bits[1:] != bits[:-1])) > len(bits):
        return lambda lo, hi, out: csvtext.float_cells(column[lo:hi], out)
    # runs of equal values are at most half the cells: format each distinct
    # value once (told apart by their bits, so -0.0 keeps "-0")
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.empty((len(distinct), csvtext.CELL), np.uint8)
    csvtext.float_cells(distinct.view(np.float64), text)
    return lambda lo, hi, out: np.take(text, inverse[lo:hi], axis=0, out=out)


def _row_blocks(columns, literals: list[str], json: bool = False):
    """Yield the text of the rows of `columns` (lists or arrays of one
    length) a block of rows at a time.  A row is literals[0], its first
    cell, literals[1], ..., its last cell, literals[-1]; a cell is its
    `to_json` text in JSON, its RFC 4180 CSV text otherwise.  With at least
    `_CSV_KERNEL_ROWS` rows and a kernel for every column, `_CSV_BLOCK` rows
    are laid out in one byte array, the literals between NUL-padded slots
    that the `csvtext` kernels fill; otherwise rows go through one `%`
    template, with `%s` of each cell's text for a column it cannot take."""
    n = min(map(len, columns), default=0)
    writers = [_column_cells(c, json) for c in columns] if n >= _CSV_KERNEL_ROWS else None
    if writers is None or None in writers:
        cells, templates = [], []
        for column in columns:
            if isinstance(column, np.ndarray):
                column = column.tolist()
            template = _column_template(column, json)
            if template is None:
                cell = to_json if json else (lambda v: _csv_quote(_csv_cell(v)))
                column, template = list(map(cell, column)), "%s"
            cells.append(column)
            templates.append(template)
        row = "".join(s.replace("%", "%%") + t for s, t in zip(literals, templates + [""]))
        rows = zip(*cells)  # formatted a block at a time, so no row list is held whole
        for block in iter(lambda: list(itertools.islice(rows, _CSV_BLOCK)), []):
            yield "".join(map(row.__mod__, block))
        return
    from .csvtext import CELL

    # the kernels write every byte of their slots, so the literals are set once
    pattern = np.frombuffer(("\0" * CELL).join(literals).encode(), np.uint8)
    slots = np.cumsum([len(s.encode()) + CELL for s in literals[:-1]]) - CELL
    block = np.tile(pattern, (min(n, _CSV_BLOCK), 1))
    for lo in range(0, n, _CSV_BLOCK):
        rows = block[: min(n - lo, _CSV_BLOCK)]
        for write, at in zip(writers, slots):
            write(lo, lo + len(rows), rows[:, at : at + CELL])
        yield rows.tobytes().translate(None, b"\0").decode()


def write_csv(fh, header: list[str], columns) -> None:
    """Write `header` and the rows of `columns`, one sequence (a list or an
    array) per header name, through `_row_blocks`: each cell is followed
    by a comma, the last by a line break."""
    fh.write(",".join(map(_csv_quote, header)) + "\n")
    fh.writelines(_row_blocks(columns, [""] + [","] * (len(columns) - 1) + ["\n"]))


def _output_path_problem(path: str) -> str | None:
    """Why `path` cannot take a report, checked before any work is done.
    The file itself is opened only once every check has passed, so a
    command that fails never truncates it."""
    if os.path.isdir(path):
        return f"output path {path} is a directory"
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        return f"output directory {folder} does not exist"
    return None


def _render(args, report: str, payload, *, header=None, columns=None, text=None) -> None:
    """Write one report into the `-o` file or stdout: CSV when the format is
    csv and the report has columns, text when the format is text and it has
    a text form, JSON otherwise; `--emit` overrides `--output-format`.
    `payload` (the JSON fields after the report name) and `text` (the text
    form, as lines or blocks) are called only when their format is chosen.
    A `"rows"` field of the payload holds columns named by `header`: the
    fields before it go through `to_json`, and its rows are streamed after
    them by `_row_blocks`, in `to_json`'s layout."""
    fmt = getattr(args, "emit", None) or args.output_format
    sink = contextlib.nullcontext(sys.stdout)
    if args.output_path:
        sink = open(args.output_path, "w", encoding="utf-8", newline="")
    with sink as fh:
        if fmt == "csv" and columns is not None:
            write_csv(fh, header, columns)
        elif fmt == "text" and text is not None:
            fh.writelines(text())
        else:
            head = {"schema": SCHEMA, "report": report, **payload()}
            rows = head.pop("rows", None)
            if rows is None:
                fh.write(to_json(head) + "\n")
                return
            keys = [",\n      %s: " % to_json(k) for k in header]
            literals = [",\n    {" + keys[0][1:], *keys[1:], "\n    }"]
            # each row opens with the separator, which the first row leaves out
            fh.write(to_json(head)[:-2] + ',\n  "rows": [')
            skip = 1
            for block in _row_blocks(rows, literals, json=True):
                fh.write(block[skip:])
                skip = 0
            fh.write("]\n}\n" if skip else "\n  ]\n}\n")


# -- table helpers ----------------------------------------------------------------


def _cache_path(limit: int, explicit: str | None) -> str | None:
    if explicit:
        return explicit
    cache_dir = os.environ.get(CACHE_ENV)
    if cache_dir:
        return os.path.join(cache_dir, f"pt_{limit}.bin")
    return None


def _load_table(args) -> primes_mod.PrimeTable:
    path = _cache_path(args.table_limit, args.cache_file)
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
    table = primes_mod.build_prime_table(args.table_limit)
    if path:
        if not args.cache_file:  # the cache directory is made only to save
            os.makedirs(os.path.dirname(path), exist_ok=True)
        primes_mod.save_cache(table, path)
    return table


# -- subcommands --------------------------------------------------------------------


def _cmd_constants(args) -> int:
    from . import constants

    table = _load_table(args)
    led = constants.ledger(table, truncation_limit=args.table_limit)
    rows = led.rows()
    header = ["name", "value", "radius", "paper_bound", "pass", "provenance"]

    def text():
        for r in rows:
            bound = "" if r["paper_bound"] is None else f" < {r['paper_bound']:.17g}"
            flag = "ok" if r["pass"] else "FAIL"
            yield (
                f"{r['name']:24s} {r['value']:.17g} +/- {r['radius']:.3g}"
                f"{bound}  [{flag}] {r['provenance']}\n"
            )

    _render(
        args,
        "constants",
        lambda: {"entries": rows},
        header=header,
        columns=[["" if r[k] is None else r[k] for r in rows] for k in header],
        text=text,
    )
    return 0 if led.all_pass else 1


def _cmd_sievefun(args) -> int:
    from . import sievefun

    grid = sievefun.build_grid(args.s_max, args.step)
    header = ["s", "f1", "f1_radius", "F1", "F1_radius"]
    columns = (grid.s, grid.f1_values, grid.f1_radii, grid.F1_values, grid.F1_radii)
    _render(args, "sievefun", None, header=header, columns=columns)
    return 0


def _cmd_bounds(args) -> int:
    from . import bounds

    which = args.theorem
    reports = []
    if which in ("4", "all"):
        reports.append(bounds.theorem4_coeff(args.loglogN))
    if which in ("5", "all"):
        reports.append(bounds.theorem5_coeff(args.loglogN))
    if which in ("6", "all"):
        reports.append(bounds.theorem6_coeff(args.loglogN, args.epsilon))
    if which in ("final", "all"):
        reports.append(bounds.final_coefficient(args.loglogN, args.epsilon))

    failed = any(
        rep.theorem_id == "FINAL" and not rep.annotations.get("clears_threshold")
        for rep in reports
    )

    def text():
        for rep in reports:
            yield f"[{rep.theorem_id}] inputs={rep.inputs}\n"
            for label, ball in rep.terms:
                yield f"  {label:56s} {ball.value:.17g} +/- {ball.radius:.3g}\n"
            yield f"  total {rep.total.value:.17g} +/- {rep.total.radius:.3g}\n"
            for k, v in rep.annotations.items():
                yield f"  note {k}: {v}\n"

    _render(
        args, "bounds", lambda: {"reports": [rep.to_dict() for rep in reports]}, text=text
    )
    return 1 if failed else 0


_VERIFY_HEADER = ["N", "pi2", "S_A", "Sum_S_Aq", "S_B", "lemma41_margin", "UN", "ratio"]
# the literals around the cells of a text row, which leaves out U_N
_VERIFY_TEXT = ["N=", " pi2=", " S_A=", " Sum_S_Aq=", " S_B=", " margin=", " ratio=", "\n"]


def _cmd_verify(args) -> int:
    table = _load_table(args)
    targets = [args.N] if args.N is not None else range(6, args.scan + 1, 2)
    columns = harness_mod.lemma41_columns(
        targets, table, z_exp=args.z_exp, y_exp=args.y_exp
    )
    _render(
        args,
        "verify",
        lambda: {"rows": columns},
        header=_VERIFY_HEADER,
        columns=columns,
        text=lambda: _row_blocks(columns[:6] + columns[7:], _VERIFY_TEXT),
    )
    return 0 if (columns[1] >= 1).all() else 1


def _cmd_scan(args) -> int:
    table = _load_table(args)
    mode = "floor" if args.floor_only else "full"
    report = harness_mod.goldbach_chen_scan(
        args.max, table, mode=mode, collect_rows=args.rows
    )
    header = ["N", "pi2", "UN", "ratio"]
    _render(
        args,
        "scan",
        lambda: {"result": report.to_dict(), "rows": report.columns},
        header=header,
        columns=report.columns,
        text=lambda: (f"{k}={v}\n" for k, v in report.to_dict().items()),
    )
    return 0 if report.floor_holds else 1


def _cmd_cache(args) -> int:
    path = _cache_path(args.table_limit, args.cache_file)
    if path is None:
        print(
            f"cache: no path; pass --cache-file or set {CACHE_ENV}", file=sys.stderr
        )
        return 2
    if args.action == "build":
        _load_table(args)
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


def _options(p, fn, *, table=False, report=False, output=True) -> None:
    """The options that several commands share, and the command's function."""
    if report:
        p.add_argument("--output-format", choices=["json", "csv", "text"], default="json")
    if output:
        p.add_argument("--output-path", "-o", default=None)
    if table:
        p.add_argument("--table-limit", type=int, default=1_000_000)
        p.add_argument("--cache-file", default=None)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(fn=fn)


def _sievefun_options(p) -> None:
    _options(p, _cmd_sievefun)
    p.add_argument("--s-max", type=float, default=6.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.set_defaults(output_format="csv")  # its only format, not an option


def _bounds_options(p) -> None:
    from .bounds import DEFAULT_EPSILON

    _options(p, _cmd_bounds, report=True)
    p.add_argument("--loglogN", type=float, default=36.0)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--theorem", choices=["4", "5", "6", "final", "all"], default="all")


def _verify_options(p) -> None:
    _options(p, _cmd_verify, table=True, report=True)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--N", type=int)
    target.add_argument("--scan", type=int)
    p.add_argument("--z-exp", type=float, default=0.125, dest="z_exp")
    p.add_argument("--y-exp", type=float, default=1.0 / 3.0, dest="y_exp")
    p.add_argument("--emit", choices=["csv", "json", "text"], default=None)


def _scan_options(p) -> None:
    _options(p, _cmd_scan, table=True, report=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--floor-only", action="store_true")
    p.add_argument("--rows", action="store_true", help="collect per-N rows")
    p.add_argument("--emit", choices=["csv", "json", "text"], default=None)


def _cache_options(p) -> None:
    _options(p, _cmd_cache, table=True, output=False)
    p.add_argument("action", choices=["build", "info"])


# Each command's summary and the function that adds its options.
_COMMANDS = {
    "constants": (
        "emit the constants ledger",
        lambda p: _options(p, _cmd_constants, table=True, report=True),
    ),
    "sievefun": ("tabulate f1/F1 and export CSV", _sievefun_options),
    "bounds": ("evaluate the bound-chain coefficients", _bounds_options),
    "verify": ("exact per-N decomposition report", _verify_options),
    "scan": ("representation-count scan over even N", _scan_options),
    "cache": ("build or inspect the prime-table cache", _cache_options),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or with only `command`'s options (the
    others registered bare, without even -h).  Every command is registered
    either way, so the top-level usage, help and errors list all six, and
    `command`'s own are those of the whole tree."""
    parser = argparse.ArgumentParser(
        prog="chensieve",
        description=(
            "Prime engine, linear-sieve function tables, explicit bound chain, "
            "and desk-scale identity verification"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_options) in _COMMANDS.items():
        built = command in (None, name)
        p = sub.add_parser(name, help=summary, add_help=built)
        if built:
            add_options(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a parser for the named command; -h or no command builds every command's
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    if args.command == "bounds" and not math.isfinite(args.loglogN):
        parser.error("--loglogN must be finite")
    if args.command == "verify" and not (0.0 < args.z_exp < args.y_exp < 1.0):
        parser.error("--z-exp and --y-exp must satisfy 0 < z-exp < y-exp < 1")
    # the smallest N checked is 6, so a range that stops below it is empty
    if args.command == "scan" and args.max < 6:
        parser.error("--max must be >= 6")
    if args.command == "verify" and args.scan is not None and args.scan < 6:
        parser.error("--scan must be >= 6")
    output_path = getattr(args, "output_path", None)
    problem = output_path and _output_path_problem(output_path)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ChensieveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
