import argparse
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chensieve import cli as cli_mod
from chensieve import csvtext
from chensieve import harness as harness_mod
from chensieve import primes as primes_mod
from chensieve.cli import (
    _csv_cell,
    build_parser,
    main,
    to_json,
    write_csv,
)
from chensieve.primes import build_prime_table, load_cache, save_cache


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(list(argv) + ["-o", str(out)])
    return code, out.read_text() if out.exists() else ""


def test_json_writer_17_digits():
    text = to_json({"x": 1.0 / 3.0, "flag": True, "none": None, "list": [1, 2.5]})
    assert "0.33333333333333331" in text
    assert '"flag": true' in text
    payload = json.loads(text)
    assert payload["x"] == 1.0 / 3.0


def test_json_writer_escapes_every_control_character():
    for c in map(chr, range(0x20)):
        text = to_json({"x": f"a{c}b"})
        assert json.loads(text) == {"x": f"a{c}b"}
    s = "".join(map(chr, range(0x20))) + '"\\/ \x7f\u00e9'
    assert to_json(s) == json.dumps(s, ensure_ascii=False)


def test_constants_json(tmp_path):
    code, text = run(
        tmp_path, "constants", "--table-limit", "200000", "--output-format", "json"
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["schema"] == "chen-report/1"
    entries = {e["name"]: e for e in payload["entries"]}
    assert entries["c0"]["pass"] is True
    assert entries["c1"]["pass"] is True
    assert entries["c2"]["pass"] is True
    names = [e["name"] for e in payload["entries"]]
    assert names == sorted(names)


def test_constants_deterministic(tmp_path):
    _, first = run(tmp_path, "constants", "--table-limit", "200000")
    _, second = run(tmp_path, "constants", "--table-limit", "200000")
    assert first == second


def test_bounds_final_headline(tmp_path):
    code, text = run(
        tmp_path,
        "bounds",
        "--theorem",
        "final",
        "--loglogN",
        "36",
        "--epsilon",
        "9.4e-14",
    )
    assert code == 0
    payload = json.loads(text)
    (report,) = payload["reports"]
    assert report["theorem_id"] == "FINAL"
    assert report["total"]["value"] > 0.007
    assert report["annotations"]["clears_threshold"] is True


def test_bounds_all_reports(tmp_path):
    code, text = run(tmp_path, "bounds", "--theorem", "all", "--loglogN", "40")
    assert code == 0
    payload = json.loads(text)
    ids = [r["theorem_id"] for r in payload["reports"]]
    assert ids == ["T4_lower", "T5_upper", "T6_upper", "FINAL"]


def test_verify_single_N_text(tmp_path):
    code, text = run(
        tmp_path,
        "verify",
        "--N",
        "10",
        "--table-limit",
        "200000",
        "--output-format",
        "text",
    )
    assert code == 0
    assert "pi2=3" in text


def test_verify_csv_columns(tmp_path):
    code, text = run(
        tmp_path, "verify", "--N", "10000", "--table-limit", "200000", "--emit", "csv"
    )
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "N,pi2,S_A,Sum_S_Aq,S_B,lemma41_margin,UN,ratio"
    cells = lines[1].split(",")
    assert cells[0] == "10000"
    assert int(cells[1]) >= 1


def test_verify_requires_exactly_one_target(tmp_path, capsys):
    out = tmp_path / "o.txt"
    assert _exit_code(["verify", "-o", str(out)]) == 2
    assert "one of the arguments --N --scan is required" in capsys.readouterr().err
    assert _exit_code(["verify", "--N", "10", "--scan", "10", "-o", str(out)]) == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


def test_scan_csv_and_thread_determinism(tmp_path):
    args = [
        "scan", "--max", "5000", "--rows", "--emit", "csv",
        "--table-limit", "200000",
    ]
    _, out1 = run(tmp_path, *args, "--threads", "1")
    _, out4 = run(tmp_path, *args, "--threads", "4")
    _, out8 = run(tmp_path, *args, "--threads", "8")
    assert out1 == out4 == out8
    assert out1.startswith("N,pi2,UN,ratio\n")


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_is_a_usage_error(tmp_path, capsys, threads):
    # the parser is the only reader of --threads, so it is the only guard
    out = tmp_path / "o.txt"
    argv = ["scan", "--max", "100", "--table-limit", "1000", "-o", str(out)]
    assert _exit_code(argv + ["--threads", threads]) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        "chensieve: error: --threads must be >= 1"
    ]
    assert "Traceback" not in err and not out.exists()
    assert _exit_code(argv + ["--threads", "1"]) == 0


def test_scan_floor_json(tmp_path):
    code, text = run(
        tmp_path, "scan", "--max", "3000", "--floor-only", "--table-limit", "200000"
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["result"]["floor_holds"] is True


def test_sievefun_csv(tmp_path):
    code, text = run(tmp_path, "sievefun", "--s-max", "4", "--step", "0.1")
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "s,f1,f1_radius,F1,F1_radius"
    assert len(lines) == 41


def test_cache_build_and_info(tmp_path, capsys):
    path = tmp_path / "pt.bin"
    code = main(
        ["cache", "build", "--table-limit", "50000", "--cache-file", str(path)]
    )
    assert code == 0 and path.exists()
    code = main(["cache", "info", "--cache-file", str(path), "--table-limit", "50000"])
    assert code == 0
    assert "limit=50000" in capsys.readouterr().out


def test_unreadable_cache_regenerates_with_warning(tmp_path, capsys):
    path = tmp_path / "pt.bin"
    path.write_bytes(b"garbage")
    code = main(
        [
            "constants",
            "--table-limit",
            "200000",
            "--cache-file",
            str(path),
            "-o",
            str(tmp_path / "out.json"),
        ]
    )
    assert code == 0
    assert "rebuilding" in capsys.readouterr().err


def test_cache_build_over_stale_file_warns_and_rewrites(tmp_path, capsys):
    path = tmp_path / "pt.bin"
    for stale in (b"garbage", None):
        if stale is None:
            save_cache(build_prime_table(10_000), path)
        else:
            path.write_bytes(stale)
        argv = ["cache", "build", "--table-limit", "50000", "--cache-file", str(path)]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out == f"{path}\n"
        assert len(err.splitlines()) == 1 and err.startswith("warning:")
        assert "rebuilding" in err
        assert load_cache(path).limit == 50_000


def test_cache_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("CHENSIEVE_CACHE_DIR", str(tmp_path / "cachedir"))
    code = main(["cache", "build", "--table-limit", "30000"])
    assert code == 0
    assert os.path.exists(tmp_path / "cachedir" / "pt_30000.bin")


def test_cache_info_corrupt_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "pt.bin"
    path.write_bytes(b"NOTMAGIC\n10\n")
    assert main(["cache", "info", "--cache-file", str(path)]) == 2
    assert "bad magic" in capsys.readouterr().err


def test_cache_info_missing_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "absent.bin"
    assert main(["cache", "info", "--cache-file", str(path)]) == 2
    assert "absent.bin" in capsys.readouterr().err


def test_table_limit_past_cap_is_usage_error(capsys):
    code = main(["scan", "--max", "10", "--table-limit", "100000001"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: table limit must be in [2, 100000000]")
    assert "Traceback" not in err


def test_usage_error_exit_code(capsys):
    try:
        main(["bounds", "--theorem", "7"])
    except SystemExit as exc:
        assert exc.code == 2
    else:
        raise AssertionError("argparse should exit on bad choice")


def test_mismatched_cache_limit_warns(tmp_path, capsys):
    path = tmp_path / "pt.bin"
    save_cache(build_prime_table(10_000), path)
    code = main(
        [
            "verify",
            "--N",
            "10",
            "--table-limit",
            "200000",
            "--cache-file",
            str(path),
            "-o",
            str(tmp_path / "o.txt"),
        ]
    )
    assert code == 0
    assert "rebuilding" in capsys.readouterr().err


@pytest.mark.parametrize(
    "exps",
    [
        ["--z-exp", "nan"],
        ["--z-exp", "inf"],
        ["--z-exp", "-1"],
        ["--z-exp", "0"],
        ["--z-exp", "0.9"],
        ["--z-exp", "0.3", "--y-exp", "0.3"],
        ["--y-exp", "nan"],
        ["--y-exp", "1"],
    ],
)
def test_verify_exponents_validated_at_parse_time(tmp_path, capsys, exps):
    argv = ["verify", "--N", "10", "--table-limit", "200000", *exps]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["-o", str(tmp_path / "o.txt")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--z-exp and --y-exp" in err and "Traceback" not in err
    code, _ = run(tmp_path, "verify", "--N", "10", "--table-limit", "200000")
    assert code == 0


# sha256 of stdout, computed before the one-pass lemma-4.1 check replaced the
# per-q sift path; the rows must stay byte-identical through the serializer.
_PINNED_STDOUT = {
    ("verify", "--scan", "600", "--emit", "csv", "--table-limit", "1000000"):
        "7c7f974360a0a82ae08a666fa78e71e0f80c6099ec08a51b6dd2bc55fa6cabef",
    ("verify", "--N", "30030", "--emit", "json", "--table-limit", "200000"):
        "133df61f5734a78032cff232de05987a8909dd14e2854f70c0f3c80eaa43e5b1",
}


@pytest.mark.parametrize("argv", list(_PINNED_STDOUT))
def test_verify_stdout_pinned(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_STDOUT[argv]


# sha256 of stdout, computed before `verify` became one block-by-block pass
# over all its targets, with spf sieved only as far as the targets reach.
_PINNED_VERIFY_PASS = {
    ("verify", "--scan", "700", "--emit", "csv", "--table-limit", "1000000"):
        "8ebfc9ef00b13e17137d83c766b8be7b4aeda362916edd30480edd7dcd56cc22",
    ("verify", "--scan", "700", "--output-format", "text", "--table-limit", "1000000"):
        "011ee5e4404cbd3f6f68568e25428fefcbde689d846b62acb3acfba87d4789b1",
}


@pytest.mark.parametrize("argv", list(_PINNED_VERIFY_PASS))
def test_verify_block_pass_stdout_pinned(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_VERIFY_PASS[argv]


# sha256 of `sievefun` stdout.  Its s, f1 and F1 columns are those computed
# before the grid was tabulated one Chebyshev piece at a time (pinned on their
# own below); the radius columns were re-pinned when each piece radius became
# a sum of proven terms, and again when the F1 seed's radius took in the
# rounding of 2 e^gamma - s.
_PINNED_SIEVEFUN = {
    ("3", "1e-3"): "77057bdd31c7e0ca2312b68cb9ff747ab4e6dfbd669b767040661af8511908aa",
    ("4", "0.05"): "7a73c7aadae5f957dc8c5252891949caa6fb83a9c1cf772d68f162a0b4903d30",
    ("6", "1e-3"): "ea00ff394b836875526ac8f6eacab23ccbf92558d7675ea2bb6e215412e3c59f",
    ("8.137", "7e-4"): "8ac60270146b431b7cdc85dc70279cb27cfad0ed2b9c82e10761a211c4099d10",
    ("12", "1e-3"): "32bac5e308b1ad90d83485f0224326b5f65c24975e7b67db394c6728776d9f02",
    ("11.999", "5e-4"): "bd0ae5bfcb4eb0e28ad59fb9e5b7398bbb1c15f797da7705ccd9792d5f2a10e9",
}

# sha256 of the s, f1 and F1 columns alone (one "s,f1,F1" line per CSV line,
# header included), computed while the piece radii were still estimates: the
# proven radii leave every value bit-identical.
_PINNED_SIEVEFUN_VALUES = {
    ("3", "1e-3"): "ac51aabefe5d8958f6f19e0ff8a4d4a4c10bf96fae23ab1976f31a4a4a761f50",
    ("4", "0.05"): "44228602feae578e59100e72083a01971fb6665c004b62137735c74bfaa77005",
    ("6", "1e-3"): "f3d009bcd1d0f6f932eeac5a1818ace72684e5de070d21574f1762cc14111f38",
    ("8.137", "7e-4"): "b82172e049ea90f9ccc043b095c7c0a36d53411a8a5e323dafc53349b303f6eb",
    ("12", "1e-3"): "f606958266bcae147a693a76797c7903a0c31c6497ee301ea2e47a6fec07aeae",
    ("11.999", "5e-4"): "f92a551ed2b68c7223a88cfc13936b8e20369c7846d303856ff0a016330811c5",
}


@pytest.mark.parametrize("s_max, step", list(_PINNED_SIEVEFUN_VALUES))
def test_sievefun_values_pinned(capsys, s_max, step):
    assert main(["sievefun", "--s-max", s_max, "--step", step]) == 0
    rows = (line.split(",") for line in capsys.readouterr().out.splitlines())
    values = "".join(f"{r[0]},{r[1]},{r[3]}\n" for r in rows)
    assert hashlib.sha256(values.encode()).hexdigest() == _PINNED_SIEVEFUN_VALUES[s_max, step]


@pytest.mark.parametrize("s_max, step", list(_PINNED_SIEVEFUN))
def test_sievefun_stdout_pinned(capsys, s_max, step):
    assert main(["sievefun", "--s-max", s_max, "--step", step]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_SIEVEFUN[s_max, step]


# sha256 of `bounds` and `constants` stdout, computed before the unreached
# bound helpers and Ball constructors were deleted; stage 4 always carries
# its sieve-value annotations.  The constants CSV is pinned with its three
# comma-holding provenance cells quoted (see the test below it).  The radii
# were re-pinned when Ball took over every rounding bound; the values alone
# are pinned separately below.
_PINNED_REPORTS = {
    ("bounds", "--theorem", "all"):
        "2f3f884f0c2fc89ca1d9c7b69d42fbb344ad4f9dfeb8c710aee0d88499261fd6",
    ("bounds", "--theorem", "all", "--output-format", "text"):
        "c79725a7ccde1dd7869efd5be93b0ef19d86d02dfd3f6928050a2adad918c545",
    ("bounds", "--theorem", "final", "--loglogN", "36", "--epsilon", "9.4e-14"):
        "8f2519a749c564c31752b9f40a26447543d6c1ef3607d90e1ff3bdd95cdda988",
    # s1_lower ~ 3.18: the annotation reads piece [3, 4]
    ("bounds", "--theorem", "4", "--loglogN", "8"):
        "b72b3be8f0081bc1723f484f3676152aaa2520439e292967deb75b63a83255b2",
    ("constants", "--table-limit", "200000"):
        "6513243b8019f3e0c4f416f84736c5168781f3e0cb9c6ee8ff58379f125c3c12",
    ("constants", "--table-limit", "200000", "--output-format", "csv"):
        "006990f8fedf81131fe3c72ac3f4778a842dc8416394e55ee74bd136a03e9b63",
    ("constants", "--table-limit", "200000", "--output-format", "text"):
        "198ca79fc2262ccbf49c8f79d1a0b07b5b2807c7d993078161e47bea34ed43e7",
}


@pytest.mark.parametrize("argv", list(_PINNED_REPORTS))
def test_report_stdout_pinned(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_REPORTS[argv]


# sha256 of the JSON reports with every "radius" field dropped (dumped with
# sorted keys), computed before Ball took over every rounding bound: the
# radii may move with the rounding model, the values and flags may not.
_PINNED_REPORT_VALUES = {
    ("bounds", "--theorem", "all"):
        "306f257fa23d06ec0667b9bb75a9d7854fb62b452a70c3f116f164411def6fb0",
    ("bounds", "--theorem", "final", "--loglogN", "36", "--epsilon", "9.4e-14"):
        "36f274b80e143cb9732208caf797641e79ad80b37823c68edeadb966b064b5da",
    ("bounds", "--theorem", "4", "--loglogN", "8"):
        "1a2bda881696c661879db240e11fc6c8faf6c793bf30d94c3263e8d359e8e5ee",
    ("constants", "--table-limit", "200000"):
        "2a8be69814d0f8e1d05f442a5b03981bd947cb72acd12c6c7f18ba43ae146719",
}


def _without_radii(obj):
    if isinstance(obj, dict):
        return {k: _without_radii(v) for k, v in obj.items() if k != "radius"}
    if isinstance(obj, list):
        return [_without_radii(v) for v in obj]
    return obj


@pytest.mark.parametrize("argv", list(_PINNED_REPORT_VALUES))
def test_report_values_pinned_apart_from_radii(capsys, argv):
    assert main(list(argv)) == 0
    values = _without_radii(json.loads(capsys.readouterr().out))
    digest = hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()
    assert digest == _PINNED_REPORT_VALUES[argv]


_CONSTANTS_CSV = ("constants", "--table-limit", "200000", "--output-format", "csv")
# sha256 of the constants CSV as it was written with every cell unquoted
# (radii re-pinned with the reports above).
_UNQUOTED_CONSTANTS_CSV = "c48a81e9253eb00b09a1bd8fae1bcc18568279014404dcbc8e65a4b0ecec2f0c"


def test_constants_csv_rows_parse_to_six_fields(capsys):
    assert main(list(_CONSTANTS_CSV)) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 20  # the header and 19 ledger entries
    assert {len(row) for row in rows} == {6}


def test_constants_csv_quotes_only_the_comma_cells(capsys):
    # The bytes are the unquoted ones with just three provenance cells quoted.
    assert main(list(_CONSTANTS_CSV)) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    unquoted = [",".join(row) + "\n" for row in csv.reader(lines)]
    digest = hashlib.sha256("".join(unquoted).encode()).hexdigest()
    assert digest == _UNQUOTED_CONSTANTS_CSV
    quoted = sorted(
        row[-1] for line, row in zip(lines, csv.reader(lines)) if line != ",".join(row) + "\n"
    )
    assert len(quoted) == 3
    assert quoted[0] == "1/max(57, 36) = 1/57"
    assert quoted[1].startswith("singular series, truncated at ")
    assert quoted[2] == "zeta(2)zeta(3)/zeta(6), eta-accelerated"


# sha256 of `scan --rows` stdout, computed before the scan was rewritten as
# whole-array passes and CSV written from typed columns.
_PINNED_SCAN_ROWS = {
    ("scan", "--max", "100000", "--rows", "--emit", "csv", "--table-limit", "100000"):
        "96e20ae1a40021d11ddb6b09841ac4affdb1af10fe49b492193c8eac471e09bc",
    ("scan", "--max", "24000", "--rows", "--emit", "json", "--table-limit", "24000"):
        "aa2bf60b73a055a1cfa275afa18a47ab3eb9a41d92bfca4969166a2d5a93727e",
}


@pytest.mark.parametrize("argv", list(_PINNED_SCAN_ROWS))
def test_scan_rows_stdout_pinned(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_SCAN_ROWS[argv]


_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1 / 3, 1e22]
_CELL_COLUMNS = {
    "bool": [True, False, True, True, False, False, True],
    "int": [0, -7, 2**70, 5, 1, 10**17, 3],
    "float": _FLOATS,
    "str": ["a", "", "x y", "-", "1e3", "%d", "nan"],
    "np_int64": [np.int64(v) for v in (0, -7, 2**62, 5, 1, 10**17, 3)],
    "np_float64": [np.float64(v) for v in _FLOATS],
    "np_bool": [np.bool_(v) for v in (True, False, True, True, False, False, True)],
    "int_and_bool": [True, 3, False, -1, 0, 1, 2],
    "float_and_np_float64": [0.5, np.float64(0.1), math.nan, np.float64(-0.0), 5e-324, 2.0, 1e-300],
    "mixed": [True, 1, 2.5, "s", np.int64(3), np.float64(0.1), np.bool_(False)],
    "int_and_float": [1, 1.0, 2, 2.5, -0.0, 0, math.inf],
}


# Float columns with repeats, some of them non-finite or signed zeros.
_REPEATED_FLOAT_COLUMNS = {
    "repeats": [0.1, 0.1, 1 / 3, 0.1, 1 / 3, 0.1, 0.1, 1 / 3],
    "signed_zeros": [0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0, 0.0],
    "non_finite": [math.nan, math.inf, -math.inf, -math.nan, math.inf, math.nan, -math.inf, math.nan],
    "half_distinct": [2.5, 1e-300, 2.5, -7.0, 1e300, -7.0, 1e-300, 1e300],
    "np_float64_repeats": [np.float64(v) for v in (0.1, 0.2, 0.1, 0.2, 0.1, 0.2, 0.1, 0.3)],
    "float_and_np_float64": [0.5, np.float64(0.5), -0.0, np.float64(0.0), 0.5, 0.0, -0.0, 0.5],
    "five_of_eight": [1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0, 3.0],
}


def _csv_by_cell_rule(header, columns) -> str:
    return ",".join(header) + "\n" + "".join(
        ",".join(_csv_cell(v) for v in row) + "\n" for row in zip(*columns)
    )


def _csv_text(header, columns) -> str:
    buf = io.StringIO()
    write_csv(buf, header, columns)
    return buf.getvalue()


def test_write_csv_matches_cell_rule_on_typed_and_mixed_columns():
    # Past the kernel's row cutoff, each column repeated whole (runs as in
    # the column) and each cell repeated in place (few runs, so the distinct
    # values are formatted once), as a list (cell by cell) and as an array
    # (the kernels).
    copies = -(-cli_mod._CSV_KERNEL_ROWS // 7)
    for table in (_CELL_COLUMNS, _REPEATED_FLOAT_COLUMNS):
        for rows in (slice(None), slice(1), slice(0)):
            columns = [column[rows] for column in table.values()]
            assert _csv_text(list(table), columns) == _csv_by_cell_rule(list(table), columns)
        for name, column in table.items():
            for long in (column * copies, [v for v in column for _ in range(copies)]):
                assert _csv_text([name], [long]) == _csv_by_cell_rule([name], [long])
                array = np.asarray(long)
                if array.dtype.kind in "biu" or array.dtype == np.float64:
                    expect = _csv_by_cell_rule([name], [array.tolist()])
                    assert _csv_text([name], [array]) == expect


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.int32, np.uint64, np.uint8, bool])
def test_write_csv_writes_an_array_as_its_list(dtype):
    rng = np.random.default_rng(7)
    n = cli_mod._CSV_KERNEL_ROWS + 5
    raw = rng.integers(0, 2**64, n, dtype=np.uint64)
    if np.dtype(dtype).kind == "f":  # raw bits: NaNs and infinities included
        column = np.frombuffer(raw.tobytes(), dtype)[:n]
    else:
        column = (raw % 2 if dtype is bool else raw).astype(dtype)
    for rows in (slice(None), slice(3)):
        assert _csv_text(["x"], [column[rows]]) == _csv_by_cell_rule(["x"], [column[rows].tolist()])


def test_write_csv_sorts_only_columns_with_enough_adjacent_repeats(monkeypatch):
    calls = []
    real_unique = np.unique

    def counted_unique(*args, **kwargs):
        calls.append(len(args[0]))
        return real_unique(*args, **kwargs)

    n = 2 * cli_mod._CSV_KERNEL_ROWS  # past the kernel's row cutoff
    # an all-distinct column never reaches np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: pytest.fail("np.unique called"))
    distinct = np.arange(1, n + 1) * 1e-3
    for column in (distinct, distinct.tolist()):
        assert _csv_text(["s"], [column]) == "s\n" + "".join("%.17g\n" % v for v in distinct.tolist())

    # a column of runs does, once; one with repeats that are never adjacent
    # does not; both write the `%.17g` text of every cell
    monkeypatch.setattr(np, "unique", counted_unique)
    runs = np.repeat([0.1, 0.2], n // 2)
    scattered = np.tile([0.1, 0.2], n // 2)
    for column, sorted_calls in ((runs, [n]), (scattered, [])):
        calls.clear()
        assert _csv_text(["x"], [column]) == "x\n" + "".join("%.17g\n" % v for v in column.tolist())
        assert calls == sorted_calls


# -- the whole-column kernels against `%.17g` and `%d` ---------------------------


def _float_cells(values) -> list[str]:
    x = np.asarray(values, dtype=np.float64)
    out = np.zeros((len(x), csvtext.CELL), np.uint8)
    csvtext.float_cells(x, out)
    return [bytes(row).replace(b"\0", b"").decode() for row in out]


def _int_cells(values) -> list[str]:
    out = np.zeros((len(values), csvtext.CELL), np.uint8)
    csvtext.int_cells(values, out)
    return [bytes(row).replace(b"\0", b"").decode() for row in out]


def _layouts_by_text() -> np.ndarray:
    """`csvtext._layouts` as it was made before its numpy index arithmetic:
    the text of every layout written out with letters for the source digits,
    then mapped to source bytes."""
    letters = "ABCDEFGHIJKLMNOPQRST"  # stand for source digits 0-19
    d = letters[3:]
    texts = []
    for X in range(-11, 44):
        for sig in range(1, 18):
            if 0 <= X < 17:
                whole, frac, tail = d[: X + 1], d[X + 1 : sig], ""
            elif -4 <= X < 0:
                whole, frac, tail = "0", "0" * (-X - 1) + d[:sig], ""
            else:
                whole, frac, tail = d[0], d[1:sig], "e%+03d" % X
            texts.append(whole + ("." + frac if frac else "") + tail)
    literals = csvtext._LITERALS
    code = np.full(128, 20 + len(literals), np.intp)  # the NUL
    code[np.frombuffer(letters.encode(), np.uint8)] = np.arange(20)
    code[np.frombuffer(literals.encode(), np.uint8)] = 20 + np.arange(len(literals))
    cell = csvtext.CELL
    padded = np.frombuffer("".join(t.ljust(cell, "\0") for t in texts).encode(), np.uint8)
    plain = code[padded].reshape(len(texts), cell)
    minus = np.full((len(texts), 1), 20)  # _LITERALS[0]
    return np.concatenate([plain, np.concatenate([minus, plain[:, :-1]], axis=1)])


def test_layouts_match_the_text_oracle():
    got = csvtext._layouts.__wrapped__()
    assert got.dtype == np.intp
    assert np.array_equal(got, _layouts_by_text())


def _assert_printf(values) -> None:
    x = np.asarray(values, dtype=np.float64)
    assert _float_cells(x) == ["%.17g" % v for v in x.tolist()]


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_float_kernel_matches_printf_on_any_bits(patterns):
    # every float64 bit pattern: NaN payloads, subnormals, signed zeros, infinities
    _assert_printf(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_float_kernel_matches_printf_at_powers_of_ten():
    powers = np.array([float(f"1e{e}") for e in range(-324, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    _assert_printf(np.concatenate([values, -values]))
    # some lie below their power of ten and round up to it at 17 digits
    assert Fraction(1e98) < 10**98 and _float_cells([1e98, 1e-14]) == ["1e+98", "1e-14"]
    assert Fraction(1e-14) < Fraction(1, 10**14)


def test_float_kernel_matches_printf_at_format_switch_points():
    # %g writes 1e-4 in fixed and 1e-5 in exponent form, 1e16 in fixed and
    # 1e17 in exponent form; just below 1e16 and 1e17, floor(log10 x) may
    # round up, and a scaled value may round up to 10^17
    values = []
    for edge in (1e-5, 1e-4, 1e16, 1e17):
        for toward in (0.0, np.inf):
            run = [edge]
            for _ in range(64):
                run.append(np.nextafter(run[-1], toward))
            values += run
    values += [99999999999999984.0, 9999999999999998.0, 0.000099999999999999991]
    _assert_printf(values)


def test_float_kernel_matches_printf_near_ties():
    # Doubles whose scaled value |x| 10^k, k = 16 - floor(log10 |x|), lies
    # within 2^-6 of a half, found exactly with Fraction across the whole
    # range of k the kernel takes; the ones within 2^-7 must fall back.
    rng = np.random.default_rng(11)
    x = rng.uniform(1, 10, 40_000) * 10.0 ** rng.integers(-11, 44, 40_000)
    near = []
    for v in x.tolist():
        k = 16 - int(("%.16e" % v).split("e")[1])
        y = Fraction(v) * Fraction(10) ** k
        if 10**16 <= y < 10**17 and abs(y - math.floor(y) - Fraction(1, 2)) < Fraction(1, 64):
            near.append(v)
    assert len(near) > 600
    _assert_printf(near)


def test_float_kernel_leaves_few_values_to_printf(monkeypatch):
    # The fast path must take almost every value: a kernel that falls back on
    # everything still prints the right text.
    fallback = []
    real = csvtext.printf_cells

    def counted(values):
        fallback.append(len(values))
        return real(values)

    monkeypatch.setattr(csvtext, "printf_cells", counted)
    x = np.random.default_rng(3).uniform(0, 12, 100_000)
    _assert_printf(x)
    assert sum(fallback) < 0.04 * len(x)


def test_int_kernel_matches_printf():
    ints = [0, 99, 10**16 - 1, 10**16, 123456789012345678, 2**63 - 1]
    ints += [10**e + d for e in range(19) for d in (-1, 0, 1)]
    ints += [-v for v in ints] + [-(2**63)]
    assert _int_cells(np.array(ints, dtype=np.int64)) == ["%d" % v for v in ints]
    assert _int_cells(np.array([True, False])) == ["1", "0"]
    big = [0, 1, 10**19, 2**64 - 1, 2**63]
    assert _int_cells(np.array(big, dtype=np.uint64)) == ["%d" % v for v in big]
    for dtype in (np.int8, np.int16, np.int32, np.uint32):
        info = np.iinfo(dtype)
        small = sorted({info.min, info.min + 1, max(info.min, -1), 0, 1, info.max - 1, info.max})
        assert _int_cells(np.array(small, dtype=dtype)) == ["%d" % v for v in small]


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_int_kernel_matches_printf_on_any_bits(patterns):
    # every int64 and uint64 bit pattern, through the word-arithmetic digits
    bits = np.array(patterns, dtype=np.uint64)
    for v in (bits, bits.view(np.int64)):
        assert _int_cells(v) == ["%d" % n for n in v.tolist()]


def test_write_csv_quotes_cells_that_need_it():
    cells = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "plain", ""]
    buf = io.StringIO()
    write_csv(buf, ["text", "n,m"], [cells, list(range(len(cells)))])
    rows = list(csv.reader(io.StringIO(buf.getvalue(), newline="")))
    assert rows == [["text", "n,m"]] + [[c, str(i)] for i, c in enumerate(cells)]
    assert buf.getvalue() == (
        'text,"n,m"\n"a,b",0\n"say ""hi""",1\n"two\nlines",2\n"cr\rhere",3\nplain,4\n,5\n'
    )


def _json_rows_text(tmp_path, header, columns) -> str:
    out = tmp_path / "rows.json"
    args = argparse.Namespace(output_format="json", output_path=str(out))
    cli_mod._render(args, "r", lambda: {"rows": columns}, header=header, columns=columns)
    return out.read_bytes().decode()


def _dict_rows(header, columns) -> list[dict]:
    lists = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    return [dict(zip(header, row)) for row in zip(*lists)]


def test_json_rows_match_to_json_on_typed_and_mixed_columns(tmp_path):
    # As the CSV test above, in JSON, against `to_json` of one dict per row:
    # a bool, NaN or infinity takes the per-cell path, whose text differs
    # from the `%` templates' and the kernels'.  `to_json` takes no numpy
    # ints or bools, so the columns holding them are left out.
    def check(header, columns):
        expect = to_json({"schema": "chen-report/1", "report": "r", "rows": _dict_rows(header, columns)})
        assert _json_rows_text(tmp_path, header, columns) == expect + "\n"

    copies = -(-cli_mod._CSV_KERNEL_ROWS // 7)
    for table in (_CELL_COLUMNS, _REPEATED_FLOAT_COLUMNS):
        table = {k: v for k, v in table.items() if k not in ("np_int64", "np_bool", "mixed")}
        for rows in (slice(None), slice(1), slice(0)):
            check(list(table), [column[rows] for column in table.values()])
        for name, column in table.items():
            for long in (column * copies, [v for v in column for _ in range(copies)]):
                check([name], [long])
                check([name], [np.asarray(long)])


@pytest.mark.parametrize("n", [1, 2, 2999, 3000, 3001, 3002, 4096, 4097])
def test_report_rows_match_per_row_json_and_text(capsys, monkeypatch, table_small, n):
    # n rows, on either side of the kernels' row cutoff and of the write
    # block.  The oracles are the per-row forms: `to_json` of one dict per
    # row for JSON, one f-string per row for verify's text.
    assert (cli_mod._CSV_KERNEL_ROWS, cli_mod._CSV_BLOCK) == (3000, 4096)
    monkeypatch.setattr(cli_mod, "_load_table", lambda args: table_small)
    M = 2 * n + 4
    rep = harness_mod.goldbach_chen_scan(M, table_small, mode="full", collect_rows=True)
    columns = harness_mod.lemma41_columns(range(6, M + 1, 2), table_small)
    monkeypatch.setattr(harness_mod, "lemma41_columns", lambda *a, **k: columns)  # computed once
    header = ["N", "pi2", "S_A", "Sum_S_Aq", "S_B", "lemma41_margin", "UN", "ratio"]
    scan = {"result": rep.to_dict(), "rows": _dict_rows(["N", "pi2", "UN", "ratio"], rep.columns)}
    text = "".join(
        f"N={N} pi2={pi2} S_A={S_A} Sum_S_Aq={sum_S_Aq} "
        f"S_B={S_B} margin={margin:.17g} ratio={ratio:.17g}\n"
        for N, pi2, S_A, sum_S_Aq, S_B, margin, _, ratio in zip(*(c.tolist() for c in columns))
    )
    cases = [
        (["scan", "--max", str(M), "--rows", "--emit", "json"],
         to_json({"schema": "chen-report/1", "report": "scan", **scan}) + "\n"),
        (["verify", "--scan", str(M), "--emit", "json"],
         to_json({"schema": "chen-report/1", "report": "verify", "rows": _dict_rows(header, columns)}) + "\n"),
        (["verify", "--scan", str(M), "--emit", "text"], text),
    ]
    for argv, expect in cases:
        assert main(argv) == 0
        assert capsys.readouterr().out == expect


def _traced_peak(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _ready_table(limit: int) -> primes_mod.PrimeTable:
    table = build_prime_table(limit)
    table.primes, table.odd_spf_upto(limit)
    return table


def test_scan_traced_peaks_not_above_per_N_scan():
    # Ceilings in MiB: the traced peaks of the scan that looped over N and
    # wrote CSV row by row (15.02 for the full scan and its CSV, 18.25 for
    # the floor scan), with the table's arrays built before tracing.
    table = _ready_table(100_000)

    def full_with_csv():
        rep = harness_mod.goldbach_chen_scan(100_000, table, mode="full", collect_rows=True)
        write_csv(io.StringIO(), ["N", "pi2", "UN", "ratio"], rep.columns)

    assert _traced_peak(full_with_csv) <= 15.02
    table = _ready_table(1_000_000)
    floor = _traced_peak(lambda: harness_mod.goldbach_chen_scan(1_000_000, table, mode="floor"))
    assert floor <= 18.25


def test_scan_traced_peaks_at_1e6():
    # Ceilings in MiB, with the table's arrays built before tracing.  The
    # floor scan's sweeps over the prime indicator peak at 2.1 (4.7 when the
    # P2 indicator was built first, 8.7 with the shrinking index lists the
    # whole-array sweeps replaced); the full scan frees each FFT array once
    # spent and stays at or below the 40.6 of the shifted adds.
    table = _ready_table(1_000_000)
    floor = _traced_peak(lambda: harness_mod.goldbach_chen_scan(1_000_000, table, mode="floor"))
    assert floor <= 2.5
    full = _traced_peak(lambda: harness_mod.goldbach_chen_scan(1_000_000, table, mode="full"))
    assert full <= 40.6


def test_floor_scan_traced_peak_at_1e6_with_only_the_primes_built():
    # Ceiling in MiB.  On a sound table the floor scan reads only the bits
    # and the primes, and sieves no spf store: 2.1 measured (3.0 when it
    # sieved the store and built its P2 indicator first, 6.6 with a
    # primality array to N_max and the indicator's temporaries over the
    # whole odd half).
    table = build_prime_table(1_000_000)
    table.primes
    floor = _traced_peak(lambda: harness_mod.goldbach_chen_scan(1_000_000, table, mode="floor"))
    assert floor <= 2.5


@pytest.mark.parametrize(
    "fault, message",
    [
        ("rounding", "pi2 convolution: rounding check, an output lies 0.3 > 1/4 from its integer"),
        ("checksum", "pi2 convolution: checksum 34758 != 34757"),
        ("bound", "pi2 convolution: Percival bound 0.5 >= 1/2 at n = 1024"),
    ],
)
def test_failed_convolution_check_exits_1(tmp_path, capsys, monkeypatch, fault, message):
    # +0.3 on one output of the inverse FFT that `harness` calls trips the
    # rounding check; +1.0 keeps every output on an integer, so only the
    # checksum sees it.
    irfft = np.fft.irfft

    def faulty(spectrum, n):
        out = irfft(spectrum, n)
        out[100] += 0.3 if fault == "rounding" else 1.0
        return out

    if fault == "bound":
        monkeypatch.setattr(harness_mod, "_percival_bound", lambda *a: Fraction(1, 2))
    else:
        monkeypatch.setattr(harness_mod.np.fft, "irfft", faulty)
    out = tmp_path / "rows.csv"
    argv = ["scan", "--max", "1000", "--rows", "--emit", "csv", "--table-limit", "1000"]
    assert main(argv + ["-o", str(out)]) == 1
    assert not out.exists()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n" * 2


def test_report_streams_into_its_file(tmp_path, monkeypatch):
    # Ceilings in MiB, with the table's arrays built before tracing.  The
    # 25.5 MB CSV of a 1e6 scan is written a block of rows at a time, so it
    # costs no more than the scan without rows (37.9 against 38.0; 62.5 when
    # the whole text was built, then copied, before the file was written),
    # and the finest certify grid peaks at 10.3 (27.8).
    table = _ready_table(1_000_000)
    monkeypatch.setattr(cli_mod, "_load_table", lambda args: table)
    out = str(tmp_path / "out.csv")
    scan = ["scan", "--max", "1000000", "--emit", "csv", "-o", out]
    bare = _traced_peak(lambda: main(scan))
    rows = _traced_peak(lambda: main(scan + ["--rows"]))
    assert rows <= bare + 1.0
    grid = ["sievefun", "--s-max", "12", "--step", "1e-4", "-o", out]
    assert _traced_peak(lambda: main(grid)) <= 12


def test_json_rows_stream_like_csv(tmp_path, monkeypatch):
    # Ceiling: 1.5 times the traced peak of the same rows as CSV, with the
    # table's arrays built before tracing (7.7 MiB for both; JSON peaked at
    # 65.1 when it was built as one string of per-row dicts).
    table = _ready_table(200_000)
    monkeypatch.setattr(cli_mod, "_load_table", lambda args: table)
    scan = ["scan", "--max", "200000", "--rows", "-o", str(tmp_path / "rows"), "--emit"]
    assert main(scan + ["csv"]) == 0  # the kernels' module and tables load once
    csv_peak = _traced_peak(lambda: main(scan + ["csv"]))
    json_peak = _traced_peak(lambda: main(scan + ["json"]))
    assert json_peak <= 1.5 * csv_peak


def test_failing_command_leaves_its_output_file_untouched(tmp_path, monkeypatch):
    out = tmp_path / "out.csv"
    out.write_bytes(b"keep\n")
    for argv in (
        ["scan", "--max", "20002", "--table-limit", "20000"],
        ["verify", "--scan", "20010", "--table-limit", "20000"],
    ):
        assert _exit_code(argv + ["-o", str(out)]) == 2
        assert out.read_bytes() == b"keep\n"
    scan = ["scan", "--max", "1000", "--rows", "--emit", "csv", "--table-limit", "1000"]
    with monkeypatch.context() as m:
        m.setattr(harness_mod, "_percival_bound", lambda *a: Fraction(1, 2))
        assert _exit_code(scan + ["-o", str(out)]) == 1
    assert out.read_bytes() == b"keep\n"
    assert _exit_code(scan + ["-o", str(out)]) == 0
    assert out.read_text().startswith("N,pi2,UN,ratio\n")


def test_floor_scan_peak_does_not_grow_with_the_table_limit():
    # The floor scan reads the bits only as far as N_max, so with its primes
    # unpacked a 1e7 table costs it no more than a 1e6 one (22.1 against
    # 13.5 MiB when a primality array ran to the limit; 2.1 for both now).
    peaks = []
    for limit in (1_000_000, 10_000_000):
        table = build_prime_table(limit)
        table.primes
        peaks.append(_traced_peak(lambda: harness_mod.goldbach_chen_scan(1_000_000, table, mode="floor")))
    assert peaks[1] <= peaks[0] + 1.0


# sha256 of `scan` stdout and of a `cache build` file, computed before the
# sieve took its base primes from itself; scan reads both the bitset and spf.
_PINNED_SCAN = {
    ("scan", "--max", "36000", "--rows", "--emit", "csv", "--table-limit", "36000"):
        "93e0c2fb2147f07eb30511deba136ccf181e4f16163131fa6cc248a6b6aac0dd",
    ("scan", "--max", "1000000", "--floor-only"):
        "81744b2c534b1314e3cb5715e256f90f7e5a94d93872f4385361db657eccffae",
    ("scan", "--max", "5000", "--output-format", "text", "--table-limit", "200000"):
        "0ad3a9f5344c751e625845a1f34172dfa1a29e714f5976dccb8ee2e471ab4bc4",
}


@pytest.mark.parametrize("argv", list(_PINNED_SCAN))
def test_scan_stdout_pinned(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_SCAN[argv]


def test_cache_file_pinned(tmp_path):
    path = tmp_path / "pt.bin"
    assert main(["cache", "build", "--table-limit", "1000000", "--cache-file", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "2ee0c90d8fe4dfb2d9080aed94176c578e53cc34be005c691f71bd593d655a02"
    )


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "500", "800"])
def test_bounds_loglogN_out_of_range_is_usage_error(tmp_path, capsys, value):
    argv = ["bounds", "--theorem", "all", f"--loglogN={value}"]
    assert _exit_code(argv + ["-o", str(tmp_path / "o.txt")]) == 2
    err = capsys.readouterr().err
    assert "loglog" in err and "Traceback" not in err


@pytest.mark.parametrize("limit", ["50", "50000"])
def test_constants_small_table_is_usage_error(tmp_path, capsys, limit):
    assert _exit_code(["constants", "--table-limit", limit, "-o", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_verify_small_table_builds_the_UN_table_once(capsys, monkeypatch):
    built = []
    real = primes_mod.build_prime_table

    def counting(limit, **kwargs):
        built.append(limit)
        return real(limit, **kwargs)

    monkeypatch.setattr(primes_mod, "build_prime_table", counting)
    assert main(["verify", "--scan", "2000", "--emit", "csv", "--table-limit", "2000"]) == 0
    assert built == [2000, 100_000]
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d642c020c2f3eb706309af1afcef5a3b8d8477e455039ad5d256d33814d976d5"
    )


# A path that cannot be read or written is a usage error: exit 2 with one
# `error:` line, never a traceback (exit 1 means a failed bound or invariant).
_BAD_PATHS = {
    "constants-cache-is-dir": [
        "constants", "--table-limit", "200000", "--cache-file", "{dir}",
    ],
    "cache-build-cache-is-dir": [
        "cache", "build", "--table-limit", "1000", "--cache-file", "{dir}",
    ],
    "scan-cache-in-missing-dir": [
        "scan", "--max", "100", "--table-limit", "1000", "--cache-file", "{missing}/x.bin",
    ],
    "cache-build-in-missing-dir": [
        "cache", "build", "--table-limit", "1000", "--cache-file", "{missing}/x.bin",
    ],
    "verify-output-in-missing-dir": [
        "verify", "--N", "100", "--table-limit", "1000", "-o", "{missing}/o.txt",
    ],
    "sievefun-output-is-dir": [
        "sievefun", "--s-max", "3", "--step", "0.1", "-o", "{dir}",
    ],
}


@pytest.mark.parametrize("case", list(_BAD_PATHS))
def test_unusable_path_is_usage_error(tmp_path, capsys, case):
    fill = {"dir": str(tmp_path), "missing": str(tmp_path / "missing")}
    argv = [arg.format(**fill) for arg in _BAD_PATHS[case]]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("target", ["{missing}/x.csv", "{dir}"])
def test_unusable_output_path_fails_before_any_work(tmp_path, capsys, monkeypatch, target):
    checked = []
    monkeypatch.setattr(harness_mod, "lemma41_columns", lambda *a, **k: checked.append(a))
    out = target.format(missing=tmp_path / "missing", dir=tmp_path)
    argv = ["verify", "--scan", "600", "--emit", "csv", "--table-limit", "200000", "-o", out]
    assert _exit_code(argv) == 2
    assert checked == []
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_cache_env_dir_is_a_file_is_usage_error(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    monkeypatch.setenv("CHENSIEVE_CACHE_DIR", str(blocker))
    assert _exit_code(["scan", "--max", "100", "--table-limit", "1000"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


# sha256 of stdout for the format choices no other pin covers, computed
# before the per-command format dispatchers became one renderer: text forms,
# `verify` JSON by default, `--emit` over `--output-format`, and the JSON
# that a csv request falls back to when the report has no rows (the `bounds`
# line re-pinned with the reports' radii).
_PINNED_FORMATS = {
    ("verify", "--N", "30030", "--output-format", "text", "--table-limit", "200000"):
        "0a40eb186ad6c7c6b0581e1f29790eb6789915a3efc1af972e7e927ef8ff1cd6",
    ("verify", "--scan", "300", "--table-limit", "200000"):
        "37208f855c83fd32101ce6ffb34d90ae462be4d33a44ffeb7798ba9edcca1f78",
    ("verify", "--N", "30030", "--emit", "csv", "--output-format", "text",
     "--table-limit", "200000"):
        "315122a191c37b7e51d4987b8904c8294a0fe7b1993b5a9f83721070c6b6c393",
    ("scan", "--max", "5000", "--rows", "--table-limit", "200000"):
        "1b9aa6ee7a63e89e4911f35c2ad780b2eb60f28e90b9cd1f338fa982ad816c8b",
    ("scan", "--max", "5000", "--emit", "csv", "--table-limit", "200000"):
        "32100605aeb57e2f3e055b5500ccf9c338e61a76fd757f4834c749984b49206f",
    ("bounds", "--theorem", "all", "--output-format", "csv"):
        "2f3f884f0c2fc89ca1d9c7b69d42fbb344ad4f9dfeb8c710aee0d88499261fd6",
}


@pytest.mark.parametrize("argv", list(_PINNED_FORMATS))
def test_format_choice_stdout_pinned(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_FORMATS[argv]


@pytest.mark.parametrize(
    "argv",
    [["scan", "--max", m] for m in ("-3", "0", "1", "2", "4", "5")]
    + [["verify", "--scan", m] for m in ("-2", "0", "4", "5")],
)
def test_ranges_below_6_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "o.txt"
    assert _exit_code(argv + ["--table-limit", "10", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"chensieve: error: --{argv[1][2:]} must be >= 6"
    ]
    assert "Traceback" not in err and not out.exists()
    argv[2] = "6"
    assert _exit_code(argv + ["--table-limit", "10", "-o", str(out)]) == 0


def test_verify_scan_past_table_fails_before_any_row(capsys, monkeypatch):
    checked = []
    monkeypatch.setattr(harness_mod, "_lemma41_block", lambda *a: checked.append(a))
    argv = ["verify", "--scan", "20010", "--table-limit", "20000", "--emit", "csv"]
    assert _exit_code(argv) == 2
    assert checked == []
    assert capsys.readouterr().err == "error: N=20002 exceeds table limit 20000\n"


def test_cache_build_in_missing_dir_names_the_given_path(tmp_path, capsys):
    path = tmp_path / "missing" / "x.bin"
    argv = ["cache", "build", "--table-limit", "1000", "--cache-file", str(path)]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"


def test_cache_info_does_not_create_the_env_dir(tmp_path, capsys, monkeypatch):
    cache_dir = tmp_path / "cachedir"
    monkeypatch.setenv("CHENSIEVE_CACHE_DIR", str(cache_dir))
    assert main(["cache", "info", "--table-limit", "30000"]) == 2
    assert "pt_30000.bin" in capsys.readouterr().err
    assert not cache_dir.exists()


def test_cache_info_oversized_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "pt.bin"
    save_cache(build_prime_table(1000), path)
    with open(path, "ab") as fh:
        fh.write(bytes(1 << 20))
    assert main(["cache", "info", "--cache-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cache: ") and "payload" in err


# Each command accepts only the options it reads: the five options that
# several commands share fill 23 option slots across the six commands.
_SHARED_OPTIONS = (
    "--table-limit", "--cache-file", "--output-format", "--output-path", "--threads"
)
_TABLE = {"--table-limit", "--cache-file"}
_OUTPUT = {"--output-path", "-o"}
_ACCEPTED_OPTIONS = {
    "constants": _TABLE | _OUTPUT | {"--output-format", "--threads"},
    "sievefun": _OUTPUT | {"--threads", "--s-max", "--step"},
    "bounds": _OUTPUT | {"--output-format", "--threads", "--loglogN", "--epsilon", "--theorem"},
    "verify": _TABLE | _OUTPUT | {
        "--output-format", "--threads", "--N", "--scan", "--z-exp", "--y-exp", "--emit"
    },
    "scan": _TABLE | _OUTPUT | {
        "--output-format", "--threads", "--max", "--floor-only", "--rows", "--emit"
    },
    "cache": _TABLE | {"--threads"},
}


def _subcommands(parser=None) -> dict:
    actions = (parser or build_parser())._actions
    return next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices


def test_each_command_accepts_only_the_options_it_reads():
    accepted = {
        name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, p in _subcommands().items()
    }
    assert accepted == _ACCEPTED_OPTIONS
    slots = sum(opt in opts for opts in accepted.values() for opt in _SHARED_OPTIONS)
    assert slots == 23


_BASE_ARGV = {
    "constants": ["constants", "--table-limit", "200000"],
    "sievefun": ["sievefun", "--s-max", "3", "--step", "0.1"],
    "bounds": ["bounds", "--theorem", "5"],
    "verify": ["verify", "--N", "100", "--table-limit", "1000"],
    "scan": ["scan", "--max", "100", "--table-limit", "1000"],
    "cache": ["cache", "build", "--table-limit", "1000", "--cache-file", "{tmp}/pt.bin"],
}
_REMOVED = [
    ("constants", ["--precision-target", "1e-9"]),
    ("sievefun", ["--output-format", "csv"]),
    ("sievefun", ["--table-limit", "1000"]),
    ("sievefun", ["--cache-file", "{tmp}/pt.bin"]),
    ("sievefun", ["--precision-target", "1e-9"]),
    ("bounds", ["--table-limit", "5"]),
    ("bounds", ["--cache-file", "/nonexistent/x"]),
    ("bounds", ["--precision-target", "1e-9"]),
    ("verify", ["--precision-target", "1e-9"]),
    ("scan", ["--precision-target", "1e-9"]),
    ("cache", ["--output-format", "json"]),
    ("cache", ["-o", "{tmp}/out.txt"]),
    ("cache", ["--precision-target", "1e-9"]),
]


@pytest.mark.parametrize(
    "command, extra", _REMOVED, ids=[f"{c}{e[0]}" for c, e in _REMOVED]
)
def test_removed_option_is_a_usage_error(tmp_path, capsys, command, extra):
    base = [arg.format(tmp=tmp_path) for arg in _BASE_ARGV[command]]
    extra = [arg.format(tmp=tmp_path) for arg in extra]
    out = tmp_path / "out.txt"
    if command != "cache":
        base += ["-o", str(out)]
    assert _exit_code(base + extra) == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(extra)}" in err and "Traceback" not in err
    assert not out.exists() and not (tmp_path / "pt.bin").exists()
    assert _exit_code(base) == 0


def _matrix_module():
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_matrix.py"
    spec = importlib.util.spec_from_file_location("cli_matrix", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_matrix_commands_parse(tmp_path):
    """Every matrix command outside ERRORS parses, so the matrix cannot
    drift from the parser."""
    matrix = _matrix_module()
    parser = build_parser()
    rejected = []
    for cmd in matrix.commands():
        if cmd not in matrix.ERRORS:
            try:
                parser.parse_args(cmd.format(tmp=tmp_path).split())
            except SystemExit:
                rejected.append(cmd)
    assert rejected == []


# -- what each command loads and parses -------------------------------------------

_SRC = str(Path(__file__).resolve().parents[1] / "src")
# modules that only the constants, bounds and sievefun commands run, and the
# reference evaluators, which no command runs
_LAZY = ["chensieve.bounds", "chensieve.constants", "chensieve.quadrature",
         "chensieve.sievefun", "numpy.polynomial", "chensieve.reference"]
_NOT_LOADED = {
    "scan": _LAZY,
    "verify": _LAZY,
    "cache": _LAZY,
    "sievefun": ["chensieve.bounds", "chensieve.constants", "chensieve.quadrature",
                 "numpy.polynomial", "chensieve.reference"],
    "constants": ["chensieve.bounds", "chensieve.sievefun", "numpy.polynomial",
                  "chensieve.reference"],
    "bounds": ["numpy.polynomial", "chensieve.reference"],
}
_MAIN_THEN_MODULES = """\
import sys
from chensieve.cli import main
code = main(sys.argv[1:])
print(code, *sorted(sys.modules))
"""


def _fresh_process(script: str, argv: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": _SRC}
    env.pop(cli_mod.CACHE_ENV, None)
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", script, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("command", list(_NOT_LOADED))
def test_each_command_loads_only_what_it_runs(tmp_path, command):
    argv = [arg.format(tmp=tmp_path) for arg in _BASE_ARGV[command]]
    if command != "cache":
        argv += ["-o", str(tmp_path / "out.txt")]
    proc = _fresh_process(_MAIN_THEN_MODULES, argv)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.splitlines()[-1].split()
    assert code == "0"
    assert "chensieve.harness" in loaded
    assert [m for m in _NOT_LOADED[command] if m in loaded] == []


# The last digit of the Euler-Mascheroni literal three places off: 3e-40,
# past the check's tolerance of one unit in that digit.
_WRONG_GAMMA = """\
import runpy, sys
import chensieve.ball
chensieve.ball.GAMMA_STR = chensieve.ball.GAMMA_STR[:-1] + "5"
sys.argv[0] = "chensieve"
runpy.run_module("chensieve", run_name="__main__")
"""


@pytest.mark.parametrize("command", list(_BASE_ARGV))
def test_a_wrong_euler_mascheroni_literal_fails_every_command(tmp_path, command):
    argv = [arg.format(tmp=tmp_path) for arg in _BASE_ARGV[command]]
    proc = _fresh_process(_WRONG_GAMMA, argv)
    assert proc.returncode != 0 and proc.stdout == ""
    assert "ArithmeticError: stored Euler-Mascheroni literal is off" in proc.stderr
    assert not (tmp_path / "pt.bin").exists()


@pytest.mark.parametrize("command", list(_BASE_ARGV))
def test_a_parser_for_one_command_helps_as_the_whole_tree(command):
    full, one = build_parser(), build_parser(command)
    assert one.format_help() == full.format_help()
    assert one.format_usage() == full.format_usage()
    mine, whole = _subcommands(one)[command], _subcommands(full)[command]
    assert mine.format_help() == whole.format_help()
    assert list(_subcommands(one)) == list(_subcommands(full))


_USAGE = [
    [],
    ["-h"],
    ["frobnicate", "--max", "100"],
    ["--threads", "2", "scan", "--max", "100"],
    ["scan", "--max", "100", "--bogus"],
    ["scan", "--max", "100", "verify"],
    ["verify", "--N", "100", "--scan", "200"],
    ["cache"],
    ["bounds", "--theorem", "7"],
    ["sievefun", "--step", "x"],
    *([command, "-h"] for command in _BASE_ARGV),
]


@pytest.mark.parametrize("argv", _USAGE, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_prints_the_whole_trees_help_and_usage_errors(capsys, argv):
    def outcome(parse):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    assert outcome(main) == outcome(build_parser().parse_args)
