import hashlib
import json
import os

import pytest

from chensieve import primes as primes_mod
from chensieve.cli import main, to_json
from chensieve.primes import build_prime_table, save_cache


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


def test_verify_requires_exactly_one_target(tmp_path):
    code, _ = run(tmp_path, "verify")
    assert code == 2
    code, _ = run(tmp_path, "verify", "--N", "10", "--scan", "10")
    assert code == 2


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


# sha256 of `sievefun` stdout, computed before the grid was tabulated one
# Chebyshev piece at a time; every byte must survive the vectorized path.
_PINNED_SIEVEFUN = {
    ("3", "1e-3"): "9a4bafc00536b37189252a3bfe5925c505e3d17bc60472496ec47ccd5c46c0ab",
    ("4", "0.05"): "48ffa01d597439255e38229b266e9999dcb96e9c1a2e4082709d998d402bced7",
    ("6", "1e-3"): "8f7fc96a6fe0d208a07c30beb05c23458bed531ab709062db295f0fc20261afc",
    ("8.137", "7e-4"): "8c7e27c3a4cc0f4fce5fa5fec72f742009ef9ef29047debdbebd2eb0ad644ce3",
    ("12", "1e-3"): "0202d1647a607e60e895506c8ae95076715ff77f5279fcc0f320af8f5eb0524a",
    ("11.999", "5e-4"): "62b48280081897031f37148b233409a553a61087b750fe39e44039148cb303b7",
}


@pytest.mark.parametrize("s_max, step", list(_PINNED_SIEVEFUN))
def test_sievefun_stdout_pinned(capsys, s_max, step):
    assert main(["sievefun", "--s-max", s_max, "--step", step]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_SIEVEFUN[s_max, step]


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
