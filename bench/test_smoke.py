"""Smoke test of the benchmark at a tiny scale.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload (including ``taint-dense``, which BENCHMARK.json does
not gate) untraced and traced on a 5% corpus, checks that the last line
carries every metric BENCHMARK.json names, and that the planted findings
check rejects tampered reports.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
from bench import check, gen, trace  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = 0.05
SEED = 7
# the end-to-end metrics the benchmark prints, including the two whose
# value can be infinite or zero and so are only printed, not gated
PRINTED = [m["name"] for m in BENCH["end_to_end"]] + ["app_tail_s", "failed_frac"]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", str(SEED), "--seconds", "0", *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--trace", str(trace), "--scale", str(SCALE))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True, proc.stderr
    assert last["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
    printed = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
    assert set(declared) <= printed
    if not trace:
        assert set(PRINTED) <= printed


def test_check_rejects_tampered_reports():
    from apkaudit.report import analyze_apk

    corpus = gen.ensure_corpus(ROOT / ".bench_work", "corpus-scan", SEED, SCALE)
    truth = json.loads((corpus / "truth.json").read_text())["apps"]
    docs = {name: analyze_apk(corpus / "apps" / f"{name}.apk").to_dict() for name in truth}
    for name, doc in docs.items():
        assert check.check_report(doc, truth[name]) == [], name

    planted = [n for n in truth if truth[n]["leaks"] and truth[n]["absent_leak_sources"]]
    name = planted[0]
    doc = json.loads(json.dumps(docs[name]))
    doc["findings"]["leaks"] = []
    assert any("missed leak" in p for p in check.check_report(doc, truth[name]))

    doc = json.loads(json.dumps(docs[name]))
    doc["findings"]["leaks"][0]["source_site"][0] = truth[name]["absent_leak_sources"][0]
    assert any("negative flow" in p for p in check.check_report(doc, truth[name]))

    name = next(n for n in truth if truth[n]["components"] and truth[n]["absent_components"])
    doc = json.loads(json.dumps(docs[name]))
    doc["findings"]["exported_components"][0]["class"] = truth[name]["absent_components"][0]
    problems = check.check_report(doc, truth[name])
    assert any("missed component" in p for p in problems)
    assert any("negative component" in p for p in problems)

    name = next(n for n in truth if truth[n]["behaviors"])
    doc = json.loads(json.dumps(docs[name]))
    doc["findings"]["behaviors"] = []
    assert any("missed behavior" in p for p in check.check_report(doc, truth[name]))

    assert check.findings_digest(docs, {}) != check.findings_digest(docs, {name: "RecursionError"})


def test_absent_hook_is_reported(monkeypatch):
    monkeypatch.setattr(trace, "HOOKS", [
        ("apkaudit.report", "", "no_such_stage", "report.gone", None),
        ("apkaudit.no_such_module", "", "run", "gone.run", None),
    ])
    rec = trace.Recorder()
    trace.install(rec)
    assert rec.absent == ["apkaudit.report.no_such_stage", "apkaudit.no_such_module.run"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "corpus-scan", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
