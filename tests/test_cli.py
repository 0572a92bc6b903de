"""The tapsim command line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tapsim.runner import main


def test_list_prints_the_catalogue(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 16
    assert any("ttq_ctq_bypass" in l for l in lines)
    assert any("[A1,A5]" in l for l in lines)


def test_run_single_attack(capsys):
    assert main(["run", "merchant_bag"]) == 0
    out = capsys.readouterr().out
    assert "SUCCESS" in out
    assert "P2" in out


def test_run_with_fix_applied_exits_nonzero(capsys):
    assert main(["run", "merchant_bag", "--flaw", "cda=on"]) == 1
    assert "no-effect" in capsys.readouterr().out


def _usage_error(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


def test_run_rejects_unknown_attack():
    _usage_error(["run", "nonsense_attack"])


def test_run_needs_ids_or_all(capsys):
    _usage_error(["run"])
    assert "give attack ids or --all" in capsys.readouterr().err


def test_the_package_runs_as_a_module():
    src = str(Path(__file__).resolve().parents[1] / "src")
    listed = subprocess.run([sys.executable, "-m", "tapsim", "list"], capture_output=True,
                            text=True, timeout=60, check=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert len(listed.stdout.splitlines()) == 16 and "merchant_bag" in listed.stdout


def test_flaw_parsing_is_strict(capsys):
    for flaw, offender in (("cda", "cda"), ("cda=sometimes", "sometimes"),
                           ("gremlins=on", "gremlins")):
        _usage_error(["run", "merchant_bag", "--flaw", flaw])
        out, err = capsys.readouterr()
        assert offender in err, err
        assert out == ""  # refused before any attack ran


def test_run_all_writes_traces_and_report(tmp_path, capsys):
    trace_dir = tmp_path / "traces"
    report = tmp_path / "report.json"
    code = main(["run", "--all", "--trace", str(trace_dir),
                 "--report", str(report), "--format", "json"])
    assert code == 0
    files = sorted(os.listdir(trace_dir))
    assert len(files) == 16
    assert "merchant_bag.jsonl" in files
    # every trace line is a JSON object
    first = (trace_dir / files[0]).read_text().splitlines()
    assert first and all(json.loads(line) for line in first)

    rows = json.loads(report.read_text())
    assert len(rows) == 16
    assert all(row["success"] and not row["diffs"] for row in rows)


def test_report_markdown(capsys):
    assert main(["report", "--format", "md"]) == 0
    out = capsys.readouterr().out
    assert out.count("|") > 80  # a table with 16 data rows
    assert "DIVERGES" not in out


def test_traces_are_reproducible(tmp_path):
    for name in ("a", "b"):
        main(["run", "replay_nonce_reuse", "--seed", "9",
              "--trace", str(tmp_path / name)])
    a = (tmp_path / "a" / "replay_nonce_reuse.jsonl").read_bytes()
    b = (tmp_path / "b" / "replay_nonce_reuse.jsonl").read_bytes()
    assert a == b
