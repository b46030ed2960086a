import hashlib
import json
import os
import sys
import zipfile
from pathlib import Path

import pytest

from apkaudit.acquire import CorpusIndex
from apkaudit.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, build_parser, main
from apkaudit.leaks import DEFAULT_SPEC

from .conftest import EXTRA_SINKS
from .fixtures.apk_writer import build_apk
from .fixtures.dex_writer import ACC_ABSTRACT, ACC_PUBLIC, DexWriter, MethodDef
from .test_acquire import _transcript
from .test_axml import nested_manifest
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


def test_scan_of_a_directory_without_apks_is_an_error(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("not an apk")
    assert main(["scan", str(tmp_path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "no APKs found\n")


def _copies(corpus, tmp_path, names):
    src = tmp_path / "apks"
    src.mkdir()
    for i, name in enumerate(names):
        (src / f"{i}-{name}.apk").write_bytes(corpus[name].read_bytes())
    return src


def _count_forks(monkeypatch) -> list[int]:
    """Patch ``os.fork`` to record, in this process, the pid of each worker it starts."""
    started: list[int] = []
    fork = os.fork

    def counted():
        if pid := fork():
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return started


@pytest.mark.parametrize("apks, jobs, workers", [(2, "8", [0, 1]), (3, "2", [0, 1]), (1, "8", [])])
def test_scan_starts_no_more_workers_than_apks(corpus, tmp_path, capsys, monkeypatch, apks, jobs, workers):
    started = _count_forks(monkeypatch)
    src = tmp_path / "apks"
    src.mkdir()
    for i in range(apks):
        (src / f"benign{i}.apk").write_bytes(corpus["benign"].read_bytes())
    assert main(["scan", str(src), "--jobs", jobs]) == EXIT_CLEAN
    assert len(json.loads(capsys.readouterr().out)) == apks
    assert list(range(len(started))) == workers


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked only where os.fork exists")
def test_scan_workers_reuse_the_data_loaded_before_the_fork(corpus, tmp_path, capsys, monkeypatch):
    import apkaudit.behaviors
    import apkaudit.report

    loads = tmp_path / "loads.txt"
    load_rules = apkaudit.behaviors.load_rules

    def logged(path=None):
        with open(loads, "a") as f:  # forked workers inherit the patch; each appends its own line
            f.write(f"{os.getpid()}\n")
        return load_rules(path)

    monkeypatch.setattr(apkaudit.behaviors, "load_rules", logged)
    apkaudit.report.load_detection.cache_clear()
    started = _count_forks(monkeypatch)
    src = _copies(corpus, tmp_path, ["benign", "silent_install", "sms_delete"])
    assert main(["scan", str(src), "--jobs", "2"]) == EXIT_FINDINGS
    assert len(json.loads(capsys.readouterr().out)) == 3
    assert len(started) == 2
    # the data is read once, by the scan itself, and never again by a worker
    assert loads.read_text().splitlines() == [str(os.getpid())]


def test_scan_jobs_defaults_to_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 5}, raising=False)
    assert build_parser().parse_args(["scan", "x.apk"]).jobs == 2
    # where the process cannot ask for its CPUs, the host's count stands
    monkeypatch.delattr(os, "sched_getaffinity")
    assert build_parser().parse_args(["scan", "x.apk"]).jobs == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert build_parser().parse_args(["scan", "x.apk"]).jobs == 1



@pytest.mark.parametrize("flag, value, low", [
    ("--depth", "-1", 0), ("--jobs", "0", 1), ("--jobs", "-3", 1),
])
def test_scan_refuses_a_depth_below_0_and_jobs_below_1(corpus, capsys, flag, value, low):
    with pytest.raises(SystemExit) as exc:
        main(["scan", str(corpus["listing5_leak"]), flag, value])
    assert exc.value.code == EXIT_ERROR
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err.endswith(f"apkaudit scan: error: argument {flag}: must be at least {low}, not {value}\n")
    # the lowest allowed value is taken, and a non-integer is argparse's own error
    assert getattr(build_parser().parse_args(["scan", "x.apk", flag, str(low)]), flag[2:]) == low
    with pytest.raises(SystemExit):
        build_parser().parse_args(["scan", "x.apk", flag, "1.5"])
    assert capsys.readouterr().err.endswith(f"error: argument {flag}: invalid int value: '1.5'\n")


@pytest.mark.skipif(sys.platform != "linux", reason="the pool spreads its workers only on Linux")
def test_scan_moves_each_worker_to_its_own_cpu_and_does_not_pin_it(corpus, tmp_path, capsys, monkeypatch):
    calls = tmp_path / "calls.txt"

    def record(pid, mask):
        # forked workers inherit the patch; each appends its own lines
        with open(calls, "a") as f:
            f.write(f"{os.getpid()} {sorted(mask)}\n")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 5})
    monkeypatch.setattr(os, "sched_setaffinity", record)
    src = _copies(corpus, tmp_path, ["benign"] * 3)
    assert main(["scan", str(src), "--jobs", "3"]) == EXIT_CLEAN
    assert len(json.loads(capsys.readouterr().out)) == 3
    by_worker: dict[str, list[str]] = {}
    for line in calls.read_text().splitlines():
        pid, mask = line.split(" ", 1)
        by_worker.setdefault(pid, []).append(mask)
    assert os.getpid() not in map(int, by_worker)
    # one CPU, then the whole mask back; three workers on two CPUs wrap round
    assert sorted(by_worker.values()) == [["[3]", "[3, 5]"], ["[3]", "[3, 5]"], ["[5]", "[3, 5]"]]


def test_scan_workers_that_cannot_move_still_report_every_app(corpus, tmp_path, capsys, monkeypatch):
    def refuse(pid, mask):
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    src = _copies(corpus, tmp_path, ["benign", "silent_install", "unsigned"])
    out = tmp_path / "reports"
    assert main(["scan", str(src), "--jobs", "2", "--out", str(out)]) == EXIT_FINDINGS
    assert capsys.readouterr().err == ""
    assert sorted(p.stem for p in out.iterdir()) == sorted(
        hashlib.sha256(p.read_bytes()).hexdigest() for p in src.iterdir())


def test_scan_of_two_copies_of_one_apk_writes_one_whole_report(corpus, tmp_path, capsys):
    src = _copies(corpus, tmp_path, ["silent_install"] * 2)
    out = tmp_path / "reports"
    assert main(["scan", str(src), "--jobs", "2", "--timings", "--out", str(out)]) == EXIT_FINDINGS
    [report] = out.iterdir()  # and no temporary file left behind
    assert report.name == f"{json.loads(report.read_text())['sha256']}.json"


def test_scan_report_that_cannot_be_written_is_an_error_and_leaves_no_part_file(corpus, tmp_path, capsys,
                                                                                 monkeypatch):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(os, "replace", refuse)
    src = _copies(corpus, tmp_path, ["benign", "silent_install"])
    out = tmp_path / "reports"
    assert main(["scan", str(src), "--jobs", "1", "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err.splitlines() == [
        f"error: {p}: PermissionError: [Errno 13] Permission denied" for p in sorted(src.iterdir())]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("path", ["fifo", "/dev/null"])
def test_a_path_that_is_not_a_regular_file_is_an_error(tmp_path, capsys, path):
    if path == "fifo":
        path = tmp_path / "fifo.apk"
        os.mkfifo(path)  # no writer: reading it would block for ever
    assert main(["scan", str(path)]) == EXIT_ERROR
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: not a regular file"]


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
    real_open = Path.open

    def deny(self, *args, **kwargs):
        if self == unreadable:
            raise PermissionError(13, "Permission denied", str(self))
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", deny)
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

    def analyze_or_fail(path, config=None):
        if Path(path) == faulty:
            raise RuntimeError("analyser fault")
        return analyze_apk(path, config)

    # forked --jobs workers inherit the patched module
    monkeypatch.setattr(apkaudit.report, "analyze_apk", analyze_or_fail)
    out = tmp_path / "reports"
    rc = main(["scan", str(src), "--out", str(out), "--jobs", jobs])
    assert rc == EXIT_ERROR
    assert capsys.readouterr().err.splitlines() == [f"error: {faulty}: RuntimeError: analyser fault"]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}.json" for p in src.iterdir() if p != faulty)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="only forked workers inherit the patched module")
def test_scan_worker_that_dies_costs_only_its_own_app(corpus, tmp_path, capsys, monkeypatch):
    import apkaudit.report

    src = _copies(corpus, tmp_path, ["benign", "silent_install", "sms_delete", "unsigned",
                                     "unexported_negative", "listing5_leak"])
    fatal = src / "2-sms_delete.apk"
    analyze_apk = apkaudit.report.analyze_apk

    def analyze_or_die(path, config=None):
        if Path(path) == fatal:
            os._exit(3)  # the worker process ends without a word
        return analyze_apk(path, config)

    monkeypatch.setattr(apkaudit.report, "analyze_apk", analyze_or_die)
    out = tmp_path / "reports"
    assert main(["scan", str(src), "--out", str(out), "--jobs", "2"]) == EXIT_ERROR
    assert capsys.readouterr().err.splitlines() == [
        f"error: {fatal}: its worker exited before reporting it (exit code 3)"]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}.json" for p in src.iterdir() if p != fatal)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="only forked workers inherit the patched module")
def test_scan_whose_workers_all_die_analyses_the_rest_itself(corpus, tmp_path, capsys, monkeypatch):
    import signal

    import apkaudit.report

    src = _copies(corpus, tmp_path, ["benign", "silent_install", "sms_delete", "unsigned",
                                     "unexported_negative", "listing5_leak"])
    exits, killed = src / "2-sms_delete.apk", src / "3-unsigned.apk"
    analyze_apk = apkaudit.report.analyze_apk

    def analyze_or_die(path, config=None):
        if Path(path) == exits:
            os._exit(3)
        if Path(path) == killed:
            os.kill(os.getpid(), signal.SIGKILL)
        return analyze_apk(path, config)

    # each of the two workers takes one of the two fatal apps before the last two
    # are handed out, so no worker is left for those: the scan analyses them itself
    monkeypatch.setattr(apkaudit.report, "analyze_apk", analyze_or_die)
    assert main(["scan", str(src), "--jobs", "2"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: {exits}: its worker exited before reporting it (exit code 3)",
        f"error: {killed}: its worker exited before reporting it (signal {signal.SIGKILL})"]
    assert sorted(d["sha256"] for d in json.loads(captured.out)) == sorted(
        hashlib.sha256(p.read_bytes()).hexdigest() for p in src.iterdir() if p not in (exits, killed))


# runs `scan` with `analyze_apk` logging each path it is given to the file
# named by argv[1], after the code of argv[2], and prints the scan's stdout
_LOGGED_SCAN = """\
import os, sys
import apkaudit.cli as cli, apkaudit.report as report
claims, patch = sys.argv.pop(1), sys.argv.pop(1)
analyze_apk = report.analyze_apk
def logged(path, *args):
    with open(claims, 'a') as f:
        f.write(f'{path}\\n')
    return analyze_apk(path, *args)
report.analyze_apk = logged
exec(patch)
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="only forked workers inherit the patched module")
def test_scan_workers_claim_each_app_exactly_once(corpus, tmp_path):
    # more workers than CPUs, all handed their apps by the scan: an index lost
    # or handed out twice would analyse an app never or twice
    src = _copies(corpus, tmp_path, sorted(corpus) * 4)
    claims = tmp_path / "claims.txt"
    jobs = len(os.sched_getaffinity(0)) + 2 if hasattr(os, "sched_getaffinity") else 4
    proc = _python("-c", _LOGGED_SCAN, str(claims), "", "scan", str(src), "--jobs", str(jobs))
    assert (proc.returncode, proc.stderr) == (EXIT_FINDINGS, "")
    assert len(json.loads(proc.stdout)) == 4 * len(corpus)
    assert sorted(claims.read_text().splitlines()) == sorted(str(p) for p in src.iterdir())


@pytest.mark.skipif(not hasattr(os, "fork"), reason="only forked workers inherit the patched module")
def test_scan_worker_that_exits_between_two_apps_loses_none(corpus, tmp_path):
    # the worker of app 0 closes its end of the task pipe, sends app 0's outcome
    # and exits before it reads its next app: the scan's next write to it breaks,
    # and that app goes to the other worker
    patch = (
        "parent, read, scan_one = os.getpid(), os.read, cli._scan_one\n"
        "tasks = []\n"
        "def read_task(fd, n):\n"
        "    tasks.append(fd)\n"
        "    return read(fd, n)\n"
        "def scan_then_close(path, *args):\n"
        "    if os.getpid() != parent and path.endswith('/0-benign.apk'):\n"
        "        os.close(tasks[-1])\n"
        "    return scan_one(path, *args)\n"
        "os.read, cli._scan_one = read_task, scan_then_close\n")
    src = _copies(corpus, tmp_path, ["benign", *sorted(corpus)])
    claims = tmp_path / "claims.txt"
    proc = _python("-c", _LOGGED_SCAN, str(claims), patch, "scan", str(src), "--jobs", "2")
    assert (proc.returncode, proc.stderr) == (EXIT_FINDINGS, "")
    assert len(json.loads(proc.stdout)) == len(corpus) + 1
    assert sorted(claims.read_text().splitlines()) == sorted(str(p) for p in src.iterdir())


@pytest.mark.skipif(not hasattr(os, "fork"), reason="only forked workers inherit the patched module")
def test_scan_worker_ended_by_system_exit_costs_only_its_own_app(corpus, tmp_path):
    # a forked worker that let SystemExit return into the caller's code would go on
    # to print a second JSON document of its own
    patch = (
        "scan_one = cli._scan_one\n"
        "def scan_or_exit(path, *args):\n"
        "    if path.endswith('/1-silent_install.apk'):\n"
        "        sys.exit(0)\n"
        "    return scan_one(path, *args)\n"
        "cli._scan_one = scan_or_exit\n")
    src = _copies(corpus, tmp_path, ["benign", "silent_install", "sms_delete", "unsigned"])
    claims = tmp_path / "claims.txt"
    proc = _python("-c", _LOGGED_SCAN, str(claims), patch, "scan", str(src), "--jobs", "2")
    lost = src / "1-silent_install.apk"
    assert (proc.returncode, proc.stderr) == (
        EXIT_ERROR, f"error: {lost}: its worker exited before reporting it (exit code 1)\n")
    docs = json.loads(proc.stdout)  # one document: a second would fail to parse
    assert sorted(d["sha256"] for d in docs) == sorted(
        hashlib.sha256(p.read_bytes()).hexdigest() for p in src.iterdir() if p != lost)


def test_scan_without_fork_matches_one_job(corpus, tmp_path, capsys):
    """Where ``os.fork`` does not exist, ``--jobs`` analyses the apps in this
    process, one after another."""
    src = _copies(corpus, tmp_path, ["listing5_leak", "silent_install", "benign"])
    patch = "del os.fork\n"
    args = ["scan", str(src), "--extra-sinks", str(EXTRA_SINKS), "--out"]
    claims = tmp_path / "claims.txt"
    proc = _python("-c", _LOGGED_SCAN, str(claims), patch, *args, str(tmp_path / "unforked"), "--jobs", "2")
    assert main([*args, str(tmp_path / "one"), "--jobs", "1"]) == EXIT_FINDINGS
    assert (proc.returncode, proc.stderr, proc.stdout) == (EXIT_FINDINGS, "", capsys.readouterr().out)
    reports = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert len(reports) == 3 and sorted(p.name for p in (tmp_path / "unforked").iterdir()) == reports
    for name in reports:
        assert (tmp_path / "unforked" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


@pytest.mark.parametrize("unbuffered", [None, "1"])
@pytest.mark.parametrize("command", ["scan", "report"])
def test_a_stdout_closed_early_is_an_error_not_a_traceback(corpus, tmp_path, capsys, monkeypatch,
                                                           command, unbuffered):
    # buffered, the write fails at the last flush; unbuffered, in the command's print
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    src = _copies(corpus, tmp_path, ["benign", "silent_install"])
    assert main(["scan", str(src), "--out", str(tmp_path / "reports")]) == EXIT_FINDINGS
    target = src if command == "scan" else tmp_path / "reports"
    read, write = os.pipe()
    os.close(read)  # as `apkaudit scan DIR | head` once head has gone
    try:
        proc = _python("-m", "apkaudit.cli", command, str(target), stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (EXIT_ERROR, "")


def test_a_json_output_larger_than_a_pipe_arrives_whole(corpus, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)  # the last block stays buffered until run() flushes
    src = _copies(corpus, tmp_path, ["listing1_location"] * 60)
    assert main(["scan", str(src), "--jobs", "1"]) == EXIT_FINDINGS
    in_process = capsys.readouterr().out
    assert len(in_process) > 64 * 1024  # more than a Linux pipe holds
    proc = _python("-m", "apkaudit.cli", "scan", str(src), "--jobs", "2")
    assert (proc.returncode, proc.stderr) == (EXIT_FINDINGS, "")
    assert proc.stdout == in_process


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


def test_scan_rules_with_a_list_category_is_an_error(corpus, tmp_path, capsys):
    rules = tmp_path / "typed.json"
    rules.write_text(json.dumps(
        [{"id": "a", "category": ["sms"], "pattern": "x", "match_space": "const_string"}]))
    rc = main(["scan", str(corpus["benign"]), "--rules", str(rules)])
    err = capsys.readouterr().err
    assert rc == EXIT_ERROR
    assert err.splitlines() == [
        f"error: data file {rules}: rule #0: category must be a non-empty string, not ['sms']"]


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


def test_dump_manifest_of_a_deeply_nested_manifest(tmp_path, capsys):
    apk = build_apk(tmp_path / "deep.apk", {"AndroidManifest.xml": nested_manifest(3000)})
    rc = main(["dump-manifest", str(apk)])
    assert rc == EXIT_CLEAN
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6000
    assert lines[-1] == "  " * 3000 + "A: android:name=x"


def test_dump_dex_single_method(corpus, capsys):
    rc = main(["dump-dex", str(corpus["silent_install"]),
               "--method", "Lcom/fix/silentinstall/Svc;->run()V"])
    assert rc == EXIT_CLEAN
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "Lcom/fix/silentinstall/Svc;->run()V"
    assert "pm install -r" in out


@pytest.mark.parametrize("key, message", [
    ("La;->b()V", "no method La;->b()V"),
    ("La/A;->virt()V", "La/A;->virt()V has no code (abstract or native)"),
], ids=["unknown", "abstract"])
def test_dump_dex_of_a_method_without_code_names_the_fault(tmp_path, capsys, key, message):
    w = DexWriter()
    w.add_class("La/A;", access=ACC_PUBLIC | ACC_ABSTRACT, methods=[
        MethodDef("virt", (), "V", access=ACC_PUBLIC | ACC_ABSTRACT, registers=0, code=None)])
    apk = build_apk(tmp_path / "abstract.apk", {"AndroidManifest.xml": b"", "classes.dex": w.build()})
    assert main(["dump-dex", str(apk), "--method", key]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


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


def test_acquire_of_two_devices_into_one_out(tmp_path, capsys):
    # device A holds com.a, device B com.b; both hold the same Gallery APK
    shared = build_apk(tmp_path / "src_gallery.apk", {"AndroidManifest.xml": b"", "f": b"g"})
    gallery = "/system/app/Gallery/Gallery.apk"
    out = tmp_path / "pulled"
    for device, pkg, path in (("A", "com.a", "/system/priv-app/A/A.apk"),
                              ("B", "com.b", "/data/app/com.b-1/base.apk")):
        src = build_apk(tmp_path / f"src_{pkg}.apk", {"AndroidManifest.xml": b"", "f": pkg.encode()})
        listing = f"package:{gallery}=com.vendor.gallery\npackage:{path}={pkg}\n"
        tr = {"shell": {"pm list packages -f": listing,
                        "pm list packages -f -s": f"package:{gallery}=com.vendor.gallery\n",
                        "pm path com.vendor.gallery": f"package:{gallery}\n",
                        f"pm path {pkg}": f"package:{path}\n"},
              "files": {gallery: str(shared), path: str(src)}}
        tr_path = tmp_path / f"transcript_{device}.json"
        tr_path.write_text(json.dumps(tr))
        rc = main(["acquire", "--serial", f"SER{device}", "--out", str(out),
                   "--transcript", str(tr_path), "--device-tag", device])
        assert rc == EXIT_CLEAN
    assert "index: 3 unique APKs" in capsys.readouterr().out
    idx = json.loads((out / "corpus-index.json").read_text())
    got = {e["packages"][0]: (e["devices"], e["partition_folders"]) for e in idx["entries"].values()}
    assert got == {
        "com.a": (["A"], ["/system/priv-app"]),
        "com.b": (["B"], ["/data/app"]),
        "com.vendor.gallery": (["A", "B"], ["/system/app"]),
    }


def test_acquire_of_one_package_with_other_bytes_on_each_device_keeps_both_files(tmp_path, capsys):
    gallery = "/system/app/Gallery/Gallery.apk"
    out = tmp_path / "pulled"
    for device in ("A", "B"):
        src = build_apk(tmp_path / f"src_{device}.apk", {"AndroidManifest.xml": b"", "f": device.encode()})
        tr = {"shell": {"pm list packages -f": f"package:{gallery}=com.g\n",
                        "pm list packages -f -s": f"package:{gallery}=com.g\n",
                        "pm path com.g": f"package:{gallery}\n"},
              "files": {gallery: str(src)}}
        tr_path = tmp_path / f"transcript_{device}.json"
        tr_path.write_text(json.dumps(tr))
        assert main(["acquire", "--serial", f"SER{device}", "--out", str(out),
                     "--transcript", str(tr_path), "--device-tag", device]) == EXIT_CLEAN
    capsys.readouterr()
    entries = json.loads((out / "corpus-index.json").read_text())["entries"]
    assert sorted((e["devices"], Path(e["path"]).relative_to(out).as_posix()) for e in entries.values()) == [
        (["A"], "com.g/SERA/Gallery.apk"), (["B"], "com.g/SERB/Gallery.apk")]
    for sha, e in entries.items():
        assert hashlib.sha256(Path(e["path"]).read_bytes()).hexdigest() == sha


@pytest.mark.parametrize("serial", ["..", "a/b", ""])
def test_acquire_with_a_serial_that_cannot_name_a_folder_is_an_error(tmp_path, capsys, serial):
    tr_path = tmp_path / "transcript.json"
    tr_path.write_text(json.dumps(_transcript(tmp_path)))
    out = tmp_path / "pulled"
    rc = main(["acquire", "--serial", serial, "--out", str(out), "--transcript", str(tr_path)])
    assert rc == EXIT_ERROR
    assert capsys.readouterr().err.splitlines() == [f"error: serial {serial!r} cannot name a folder"]
    assert sorted(p.name for p in out.iterdir()) == []


@pytest.mark.parametrize("content, reason", [
    (b"not json", "JSONDecodeError: Expecting value"),
    (b"\x80 not UTF-8", "UnicodeDecodeError: 'utf-8' codec"),
    (b'{"entries": {"ab12": {"packages": []}}}', "KeyError: 'path'"),
    # a set field read as it stands would be a set of its characters, or of numbers
    (b'{"entries": {"ab12": {"path": "p", "packages": "com.a", "devices": [], "partition_folders": [],'
     b' "signer_label": "", "split": false}}}', "TypeError: 'packages' is not a list of strings: 'com.a')"),
    (b'{"entries": {"ab12": {"path": "p", "packages": [], "devices": [7], "partition_folders": [],'
     b' "signer_label": "", "split": false}}}', "TypeError: 'devices' is not a list of strings: [7])"),
    (None, "IsADirectoryError: [Errno 21] Is a directory"),  # a directory named like the index
])
def test_acquire_with_a_bad_prior_index_is_an_error(tmp_path, capsys, content, reason):
    tr_path = tmp_path / "transcript.json"
    tr_path.write_text(json.dumps(_transcript(tmp_path)))
    out = tmp_path / "pulled"
    out.mkdir()
    index = out / "corpus-index.json"
    if content is None:
        index.mkdir()
    else:
        index.write_bytes(content)
    rc = main(["acquire", "--serial", "SER1", "--out", str(out), "--transcript", str(tr_path)])
    captured = capsys.readouterr()
    assert rc == EXIT_ERROR
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {index}: not a corpus index ({reason}")
    assert list(out.iterdir()) == [index]  # read before anything is pulled
    if content is None:
        assert list(index.iterdir()) == []
    else:
        assert index.read_bytes() == content


@pytest.mark.parametrize("content, reason", [
    (b"junk", "Expecting value"),
    (None, "No such file or directory"),
    (b"[]", "not an object with 'shell' and 'files' objects of strings"),
    (b'{"files": []}', "not an object with 'shell' and 'files' objects of strings"),
    (b'{"shell": {"pm list packages -f": 5}}', "not an object with 'shell' and 'files'"),
    (b'{"files": {"/system/app/A.apk": 5}}', "not an object with 'shell' and 'files'"),
], ids=["junk", "missing", "array", "files-array", "shell-number", "file-number"])
def test_acquire_with_a_bad_transcript_is_an_error(tmp_path, capsys, content, reason):
    tr_path = tmp_path / "transcript.json"
    if content is not None:
        tr_path.write_bytes(content)
    out = tmp_path / "pulled"
    rc = main(["acquire", "--serial", "SER1", "--out", str(out), "--transcript", str(tr_path)])
    captured = capsys.readouterr()
    assert rc == EXIT_ERROR
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: transcript {tr_path}: {reason}")
    assert not out.exists()


def test_acquire_of_a_package_named_like_an_apk(tmp_path, capsys):
    # the package folder out/com.acme.apk is a directory that matches *.apk
    tr = _transcript(tmp_path)
    tr["shell"]["pm list packages -f"] += "package:/data/app/com.acme.apk-1/base.apk=com.acme.apk\n"
    tr["shell"]["pm path com.acme.apk"] = "package:/data/app/com.acme.apk-1/base.apk\n"
    acme = build_apk(tmp_path / "src_acme.apk", {"AndroidManifest.xml": b"", "f": b"acme"})
    tr["files"]["/data/app/com.acme.apk-1/base.apk"] = str(acme)
    tr_path = tmp_path / "transcript.json"
    tr_path.write_text(json.dumps(tr))
    out = tmp_path / "pulled"
    rc = main(["acquire", "--serial", "SER1", "--out", str(out), "--transcript", str(tr_path)])
    assert rc == EXIT_CLEAN
    assert "index: 4 unique APKs" in capsys.readouterr().out
    idx = json.loads((out / "corpus-index.json").read_text())
    assert sorted(p for e in idx["entries"].values() for p in e["packages"]) == [
        "com.acme.apk", "com.game", "com.vendor.gallery", "com.vendor.radio"]


def test_acquire_out_that_is_a_file_is_an_error_before_anything_is_listed(tmp_path, capsys):
    tr_path = tmp_path / "transcript.json"
    tr_path.write_text(json.dumps(_transcript(tmp_path)))
    out = tmp_path / "pulled"
    out.write_text("a file")
    rc = main(["acquire", "--serial", "SER1", "--out", str(out), "--transcript", str(tr_path)])
    captured = capsys.readouterr()
    assert rc == EXIT_ERROR
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --out {out}: File exists"]
    assert out.read_text() == "a file"
    assert not any(p.is_dir() for p in tmp_path.iterdir())  # nothing pulled


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


def test_report_skips_a_directory_named_like_a_report(corpus, tmp_path, capsys):
    out = tmp_path / "reports"
    assert main(["scan", str(corpus["benign"]), "--out", str(out)]) == EXIT_CLEAN
    (out / "x.json").mkdir()
    capsys.readouterr()
    rc = main(["report", str(out), "--format", "json"])
    captured = capsys.readouterr()
    assert rc == EXIT_CLEAN
    assert captured.err == ""
    assert json.loads(captured.out)["total_apps"] == 1


def test_report_skips_the_corpus_index(corpus, tmp_path, capsys):
    out = tmp_path / "reports"
    assert main(["scan", str(corpus["benign"]), "--out", str(out)]) == EXIT_CLEAN
    (out / "corpus-index.json").write_text(CorpusIndex(created="2020-01-01T00:00:00Z").to_json())
    capsys.readouterr()
    rc = main(["report", str(out), "--format", "json"])
    captured = capsys.readouterr()
    assert (rc, captured.err) == (EXIT_CLEAN, "")
    assert json.loads(captured.out)["total_apps"] == 1


def test_report_file_that_cannot_be_read_is_an_error(corpus, tmp_path, capsys, monkeypatch):
    # root reads a mode-000 file, so the read itself is made to fail
    out = tmp_path / "reports"
    assert main(["scan", str(corpus["benign"]), "--out", str(out)]) == EXIT_CLEAN
    [report] = out.iterdir()
    capsys.readouterr()

    def read_text(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", read_text)
    rc = main(["report", str(out)])
    captured = capsys.readouterr()
    assert rc == EXIT_ERROR
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {report}: not an apkaudit report "
        f"(PermissionError: [Errno 13] Permission denied: '{report}')"]


def test_scan_out_that_is_a_file_is_an_error_before_any_apk(corpus, tmp_path, capsys, monkeypatch):
    def analyze_apk(*args, **kwargs):
        raise AssertionError("an APK was analysed")

    monkeypatch.setattr("apkaudit.report.analyze_apk", analyze_apk)
    out = tmp_path / "reports"
    out.write_text("a file")
    rc = main(["scan", str(corpus["benign"]), "--out", str(out), "--jobs", "1"])
    captured = capsys.readouterr()
    assert rc == EXIT_ERROR
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --out {out}: File exists"]
    assert out.read_text() == "a file"


def test_report_missing_directory_is_an_error(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir"
    rc = main(["report", str(missing)])
    captured = capsys.readouterr()
    assert rc == EXIT_ERROR
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {missing}: not a directory"]


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["no-such-command"], "invalid choice: 'no-such-command'"),
])
def test_missing_or_unknown_command_is_an_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_ERROR
    err = capsys.readouterr().err
    assert message in err
    assert "{acquire,scan,report,dump-manifest,dump-dex}" in err
