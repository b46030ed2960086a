"""`apkaudit report` and `import apkaudit.cli` load only the report data model."""

import json
import os
import subprocess
import sys
from pathlib import Path

from apkaudit.cli import EXIT_CLEAN, EXIT_FINDINGS, main

from .conftest import EXTRA_SINKS

SRC = Path(__file__).resolve().parents[1] / "src"
ALLOWED = {"apkaudit", "apkaudit.cli", "apkaudit.errors", "apkaudit.findings"}

TABLE = """\
Behaviors                      # of apps (%)
---------------------------------------------
Exported sensitive components  2 (33%)
Leak of sensitive data         1 (17%)
Dangerous commands             0 (0%)
Log collection                 0 (0%)
Silent installation behaviors  1 (17%)
Access / Send / Delete SMS     1 (17%)
Total apps                     6
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    path = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def _assert_light(modules: set[str]) -> None:
    assert not {m for m in modules if m.startswith("apkaudit")} - ALLOWED
    assert not {m for m in modules if m == "cryptography" or m.startswith("cryptography.")}
    assert "concurrent.futures" not in modules


def _scan_fixtures(corpus, tmp_path) -> Path:
    src = tmp_path / "apks"
    src.mkdir()
    for name in ("silent_install", "sms_delete", "listing1_location", "listing5_leak",
                 "listing3_provider", "benign"):
        (src / f"{name}.apk").write_bytes(corpus[name].read_bytes())
    return src


def test_report_command_imports_no_analyser(corpus, tmp_path, capsys):
    out = tmp_path / "reports"
    src = _scan_fixtures(corpus, tmp_path)
    assert main(["scan", str(src), "--out", str(out), "--jobs", "1",
                 "--extra-sinks", str(EXTRA_SINKS)]) == EXIT_FINDINGS
    assert main(["report", str(out), "--format", "json"]) == EXIT_CLEAN
    in_process = capsys.readouterr().out

    proc = _python("-X", "importtime", "-m", "apkaudit.cli", "report", str(out), "--format", "json")
    assert proc.returncode == EXIT_CLEAN, proc.stderr
    assert proc.stdout == in_process
    assert json.loads(proc.stdout)["total_apps"] == 6
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "imported package" not in line
    }
    assert {"apkaudit", "apkaudit.errors", "apkaudit.findings"} <= imported
    _assert_light(imported)


def test_import_cli_imports_no_analyser():
    proc = _python("-c", "import json, sys, apkaudit.cli; print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    modules = set(json.loads(proc.stdout))
    assert ALLOWED <= modules
    _assert_light(modules)


def test_scan_table_aggregates_as_report_does(corpus, tmp_path, capsys):
    src = _scan_fixtures(corpus, tmp_path)
    out = tmp_path / "reports"
    rc = main(["scan", str(src), "--out", str(out), "--format", "table", "--jobs", "2",
               "--extra-sinks", str(EXTRA_SINKS)])
    assert rc == EXIT_FINDINGS
    assert capsys.readouterr().out == TABLE
    assert main(["report", str(out)]) == EXIT_CLEAN
    assert capsys.readouterr().out == TABLE
