import hashlib
import json
import zipfile
from pathlib import Path

import pytest

from apkaudit.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, main
from apkaudit.leaks import DEFAULT_SPEC

from .conftest import EXTRA_SINKS
from .fixtures.apk_writer import build_apk
from .test_acquire import _transcript
from .test_imports import _python


def test_scan_single_apk_json(corpus, capsys):
    rc = main(["scan", str(corpus["silent_install"])])
    assert rc == EXIT_FINDINGS
    docs = json.loads(capsys.readouterr().out)
    assert len(docs) == 1
    assert any(b["rule_id"] == "install_pm" for b in docs[0]["findings"]["behaviors"])


def test_scan_clean_apk_exit_zero(corpus, capsys):
    rc = main(["scan", str(corpus["benign"])])
    assert rc == EXIT_CLEAN
    docs = json.loads(capsys.readouterr().out)
    assert docs[0]["findings"] == {"leaks": [], "behaviors": [], "exported_components": []}


def test_scan_not_a_zip_exit_error(tmp_path, capsys):
    bad = tmp_path / "bad.apk"
    bad.write_bytes(b"nope")
    rc = main(["scan", str(bad)])
    assert rc == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["scan", "dump-manifest", "dump-dex"])
def test_missing_apk_is_an_error_not_a_traceback(tmp_path, capsys, command):
    missing = tmp_path / "no" / "such.apk"
    rc = main([command, str(missing)])
    assert rc == EXIT_ERROR
    assert capsys.readouterr().err.splitlines() == [f"error: {missing}: No such file or directory"]


@pytest.mark.parametrize("content", [None, b"nope"], ids=["missing", "not-a-zip"])
def test_failed_single_apk_scan_names_the_path_once_and_prints_no_json(tmp_path, capsys, content):
    apk = tmp_path / "such.apk"
    if content is not None:
        apk.write_bytes(content)
    assert main(["scan", str(apk)]) == EXIT_ERROR
    captured = capsys.readouterr()
    reason = "No such file or directory" if content is None else "File is not a zip file"
    assert captured.err.splitlines() == [f"error: {apk}: {reason}"]
    assert captured.out == ""


def test_directory_scan_of_failures_prints_an_empty_array(tmp_path, capsys):
    bad = tmp_path / "bad.apk"
    bad.write_bytes(b"nope")
    assert main(["scan", str(tmp_path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {bad}: File is not a zip file"]
    assert json.loads(captured.out) == []


def _with_invalid_utf8_name(src: Path, out: Path) -> Path:
    """A copy of the APK ``src`` plus one entry whose name is flagged UTF-8
    (flag bit 11) but holds the invalid bytes 0xFF 0xFE."""
    with zipfile.ZipFile(src) as zf:
        entries = {n: zf.read(n) for n in zf.namelist() if not n.startswith("META-INF/")}
    build_apk(out, {**entries, "assets/\u00e9.bin": b"payload"})
    raw = bytearray(out.read_bytes())
    old = "assets/\u00e9.bin".encode()
    with zipfile.ZipFile(out) as zf:  # only the two headers; CERT.SF lists the name too
        spots = [zf.getinfo(old.decode()).header_offset + 30, raw.index(old, zf.start_dir)]
    for at in spots:
        assert raw[at : at + len(old)] == old
        raw[at : at + len(old)] = b"assets/\xff\xfe.bin"
    out.write_bytes(bytes(raw))
    return out


def test_invalid_utf8_entry_name_is_replaced_with_a_warning(corpus, tmp_path, capsys):
    apk = _with_invalid_utf8_name(corpus["silent_install"], tmp_path / "bad-name.apk")
    assert main(["scan", str(apk)]) == EXIT_FINDINGS
    captured = capsys.readouterr()
    assert captured.err == ""
    [doc] = json.loads(captured.out)
    assert "1 entry name(s) not valid UTF-8 replaced" in doc["warnings"]
    assert doc["package"] and doc["findings"]["behaviors"]


def test_invalid_utf8_entry_name_does_not_stop_a_directory_scan(corpus, tmp_path, capsys):
    src = tmp_path / "apks"
    src.mkdir()
    _with_invalid_utf8_name(corpus["benign"], src / "bad-name.apk")
    other = src / "silent_install.apk"
    other.write_bytes(corpus["silent_install"].read_bytes())
    out = tmp_path / "reports"
    assert main(["scan", str(src), "--out", str(out), "--jobs", "1"]) == EXIT_FINDINGS
    assert capsys.readouterr().err == ""
    docs = [json.loads(r.read_text()) for r in out.glob("*.json")]
    assert len(docs) == 2
    assert any(d["sha256"] == hashlib.sha256(other.read_bytes()).hexdigest() for d in docs)


def test_scan_directory_reports_unreadable_apk_and_the_rest(corpus, tmp_path, capsys, monkeypatch):
    src = tmp_path / "apks"
    src.mkdir()
    for name in ("benign", "silent_install", "unsigned"):
        (src / f"{name}.apk").write_bytes(corpus[name].read_bytes())
    unreadable = src / "silent_install.apk"
    read_bytes = Path.read_bytes

    def deny(self):
        if self == unreadable:
            raise PermissionError(13, "Permission denied", str(self))
        return read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", deny)
    rc = main(["scan", str(src), "--jobs", "1"])
    captured = capsys.readouterr()
    assert rc == EXIT_ERROR
    assert captured.err.splitlines() == [f"error: {unreadable}: Permission denied"]
    assert len(json.loads(captured.out)) == 2


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_survives_an_analyser_fault_in_one_app(corpus, tmp_path, capsys, monkeypatch, jobs):
    import apkaudit.report

    src = tmp_path / "apks"
    src.mkdir()
    for name in ("benign", "silent_install", "unsigned"):
        (src / f"{name}.apk").write_bytes(corpus[name].read_bytes())
    faulty = src / "silent_install.apk"
    analyze_apk = apkaudit.report.analyze_apk

    def analyze_or_fail(path, config=None, device=""):
        if Path(path) == faulty:
            raise RuntimeError("analyser fault")
        return analyze_apk(path, config, device)

    # forked --jobs workers inherit the patched module
    monkeypatch.setattr(apkaudit.report, "analyze_apk", analyze_or_fail)
    out = tmp_path / "reports"
    rc = main(["scan", str(src), "--out", str(out), "--jobs", jobs])
    assert rc == EXIT_ERROR
    assert capsys.readouterr().err.splitlines() == [f"error: {faulty}: RuntimeError: analyser fault"]
    assert len(list(out.glob("*.json"))) == 2


def test_scan_directory_with_out_and_report_table(corpus, tmp_path, capsys):
    src = tmp_path / "apks"
    src.mkdir()
    for name in ("silent_install", "benign", "listing5_leak"):
        (src / f"{name}.apk").write_bytes(corpus[name].read_bytes())
    out = tmp_path / "reports"
    rc = main([
        "scan", str(src), "--out", str(out), "--jobs", "1",
        "--extra-sinks", str(EXTRA_SINKS),
    ])
    assert rc == EXIT_FINDINGS
    files = sorted(out.glob("*.json"))
    assert len(files) == 3
    for f in files:
        doc = json.loads(f.read_text())
        assert f.stem == doc["sha256"]

    rc = main(["report", str(out)])
    assert rc == EXIT_CLEAN
    table = capsys.readouterr().out
    assert table.splitlines()[0].startswith("Behaviors")
    assert "Total apps" in table and table.rstrip().endswith("3")
    assert "Silent installation behaviors" in table

    rc = main(["report", str(out), "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["total_apps"] == 3
    assert doc["categories"]["silent_install"]["count"] == 1
    assert doc["categories"]["leaks"]["count"] == 1


def test_scan_parallel_matches_serial(corpus, tmp_path, capsys):
    src = tmp_path / "apks"
    src.mkdir()
    for name, path in corpus.items():
        (src / f"{name}.apk").write_bytes(path.read_bytes())
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    assert main(["scan", str(src), "--out", str(out1), "--jobs", "1"]) == EXIT_FINDINGS
    assert main(["scan", str(src), "--out", str(out2), "--jobs", "4"]) == EXIT_FINDINGS
    serial = {p.name: p.read_text() for p in out1.glob("*.json")}
    parallel = {p.name: p.read_text() for p in out2.glob("*.json")}
    assert serial == parallel
    capsys.readouterr()
    stdouts = []
    for jobs in ("1", "2"):
        assert main(["scan", str(src), "--jobs", jobs]) == EXIT_FINDINGS
        stdouts.append(capsys.readouterr().out)
    assert stdouts[0] == stdouts[1]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_skips_directories_named_apk(corpus, tmp_path, capsys, jobs):
    src = tmp_path / "apks"
    (src / "x.apk").mkdir(parents=True)
    for name in ("benign", "unsigned"):
        (src / f"{name}.apk").write_bytes(corpus[name].read_bytes())
    assert main(["scan", str(src), "--jobs", jobs]) == EXIT_CLEAN
    assert len(json.loads(capsys.readouterr().out)) == 2


BAD_DATA = {
    "--rules": b"[{not json",
    "--susi": b"no arrow here\n",
    "--extra-sinks": b"La/B;->x -> _NEITHER_\n",
    "--sensitive-apis": b"\xff\xfe not utf-8\n",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("kind", ["missing", "malformed"])
@pytest.mark.parametrize("flag", sorted(BAD_DATA))
def test_scan_bad_data_file_stops_run(corpus, tmp_path, capsys, flag, kind, jobs):
    src = tmp_path / "apks"
    src.mkdir()
    for name in ("silent_install", "listing5_leak"):
        (src / f"{name}.apk").write_bytes(corpus[name].read_bytes())
    data = tmp_path / "data.txt"
    if kind == "malformed":
        data.write_bytes(BAD_DATA[flag])
    out = tmp_path / "reports"
    rc = main(["scan", str(src), "--out", str(out), "--jobs", jobs, flag, str(data)])
    err = capsys.readouterr().err
    assert rc == EXIT_ERROR
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(data) in errors[0]
    assert "Traceback" not in err
    assert not out.exists()


def test_scan_rules_schema_error_names_file(corpus, tmp_path, capsys):
    rules = tmp_path / "obj.json"
    rules.write_text("{}")
    rc = main(["scan", str(corpus["benign"]), "--rules", str(rules)])
    err = capsys.readouterr().err
    assert rc == EXIT_ERROR
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "obj.json" in errors[0]


def test_scan_reports_dropped_spec_lines(corpus, tmp_path, capsys):
    spec = DEFAULT_SPEC.read_text()
    susi = tmp_path / "susi.txt"
    susi.write_text(spec + "no arrow here\n")
    rc = main(["scan", str(corpus["listing5_leak"]), "--susi", str(susi),
               "--extra-sinks", str(EXTRA_SINKS)])
    assert rc == EXIT_FINDINGS
    doc = json.loads(capsys.readouterr().out)[0]
    bad_line = len(spec.splitlines()) + 1
    assert [w for w in doc["warnings"] if w.startswith("taint-spec:")] == [
        f"taint-spec: susi.txt:{bad_line}: missing '->' separator"
    ]
    assert doc["findings"]["leaks"]


def test_dump_manifest(corpus, capsys):
    rc = main(["dump-manifest", str(corpus["benign"])])
    assert rc == EXIT_CLEAN
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "E: manifest"
    assert "A: package=" in out


def test_dump_dex_single_method(corpus, capsys):
    rc = main(["dump-dex", str(corpus["silent_install"]),
               "--method", "Lcom/fix/silentinstall/Svc;->run()V"])
    assert rc == EXIT_CLEAN
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "Lcom/fix/silentinstall/Svc;->run()V"
    assert "pm install -r" in out


def test_acquire_with_transcript(tmp_path, capsys):
    tr = _transcript(tmp_path)
    tr_path = tmp_path / "transcript.json"
    tr_path.write_text(json.dumps(tr))
    out = tmp_path / "pulled"
    rc = main(["acquire", "--serial", "SER1", "--out", str(out),
               "--transcript", str(tr_path), "--device-tag", "devA"])
    assert rc == EXIT_CLEAN
    text = capsys.readouterr().out
    assert "3 packages listed (2 unparseable lines skipped)" in text
    assert (out / "corpus-index.json").exists()
    idx = json.loads((out / "corpus-index.json").read_text())
    assert len(idx["entries"]) == 3
    assert all(e["devices"] == ["devA"] for e in idx["entries"].values())
    # a second run against the existing index stays stable
    rc = main(["acquire", "--serial", "SER1", "--out", str(out),
               "--transcript", str(tr_path), "--device-tag", "devA"])
    assert rc == EXIT_CLEAN
    idx2 = json.loads((out / "corpus-index.json").read_text())
    assert idx2["entries"] == idx["entries"]


def test_acquire_logs_skipped_lines_to_stderr(tmp_path):
    tr_path = tmp_path / "transcript.json"
    tr_path.write_text(json.dumps(_transcript(tmp_path)))
    proc = _python("-m", "apkaudit.cli", "acquire", "--serial", "SER1",
                   "--out", str(tmp_path / "pulled"), "--transcript", str(tr_path))
    assert proc.returncode == EXIT_CLEAN, proc.stderr
    warnings = [line for line in proc.stderr.splitlines() if line.startswith("WARNING ")]
    assert len(warnings) == 2
    assert all(w.startswith("WARNING apkaudit.acquire: unparseable pm line skipped: ")
               for w in warnings)


@pytest.mark.parametrize("content, reason", [
    ("{not json", "JSONDecodeError: Expecting property name"),
    ('{"schema_version": "1"}', "KeyError: 'sha256'"),
    ("[1, 2]", "AttributeError: 'list' object has no attribute 'get'"),
])
def test_report_bad_file_is_an_error_not_a_traceback(corpus, tmp_path, capsys, content, reason):
    out = tmp_path / "reports"
    assert main(["scan", str(corpus["benign"]), "--out", str(out)]) == EXIT_CLEAN
    bad = out / "zz-bad.json"
    bad.write_text(content)
    capsys.readouterr()
    rc = main(["report", str(out), "--format", "json"])
    captured = capsys.readouterr()
    assert rc == EXIT_ERROR
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {bad}: not an apkaudit report ({reason}")
    assert line.endswith(")")


def test_report_missing_directory_is_an_error(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir"
    rc = main(["report", str(missing)])
    captured = capsys.readouterr()
    assert rc == EXIT_ERROR
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {missing}: not a directory"]
