import json
import logging
import subprocess
import sys
from pathlib import Path

import pytest

from apkaudit.acquire import (
    BRIDGE_ENV,
    CorpusIndex,
    DevicePackage,
    SubprocessBridge,
    TranscriptBridge,
    index_corpus,
    list_device_packages,
    partition_folder,
    pull_packages,
)
from apkaudit.errors import ApkAuditError

from .conftest import raises_code
from .fixtures.apk_writer import build_apk


def test_partition_folder_rules():
    assert partition_folder("/system/app/Gallery/Gallery.apk") == "/system/app"
    assert partition_folder("/data/app/com.x-1/base.apk") == "/data/app"
    # nested partitions mounted under /system keep three segments
    assert partition_folder("/system/product/app/X/X.apk") == "/system/product/app"
    assert partition_folder("/system/system_ext/priv-app/Y/Y.apk") == "/system/system_ext/priv-app"
    assert partition_folder("/system/vendor/overlay/Z.apk") == "/system/vendor/overlay"
    assert partition_folder("/system/preload/app/W.apk") == "/system/preload/app"
    assert partition_folder("/product/priv-app/A/A.apk") == "/product/priv-app"


PM_ALL = """\
package:/system/app/Gallery/Gallery.apk=com.vendor.gallery
package:/data/app/com.game-x1/base.apk=com.game
garbage line without prefix
package:no-equals-sign-here
package:/product/app/Radio/Radio.apk=com.vendor.radio
"""
PM_SYSTEM = """\
package:/system/app/Gallery/Gallery.apk=com.vendor.gallery
package:/product/app/Radio/Radio.apk=com.vendor.radio
"""


def _transcript(tmp_path, with_files=True):
    apks = {}
    if with_files:
        for name in ("Gallery", "base", "Radio"):
            p = build_apk(tmp_path / f"src_{name}.apk", {"AndroidManifest.xml": b"", "f": name.encode()})
            apks[name] = str(p)
    return {
        "shell": {
            "pm list packages -f": PM_ALL,
            "pm list packages -f -s": PM_SYSTEM,
            "pm path com.vendor.gallery": "package:/system/app/Gallery/Gallery.apk\n",
            "pm path com.game": "package:/data/app/com.game-x1/base.apk\n",
            "pm path com.vendor.radio": "package:/product/app/Radio/Radio.apk\n",
        },
        "files": {
            "/system/app/Gallery/Gallery.apk": apks.get("Gallery", ""),
            "/data/app/com.game-x1/base.apk": apks.get("base", ""),
            "/product/app/Radio/Radio.apk": apks.get("Radio", ""),
        } if with_files else {},
    }


def _fake_bridge(tmp_path, stdout="", stderr="", code=0):
    """An executable bridge that appends its arguments to a log, one JSON
    list a line, then writes ``stdout`` and ``stderr`` and exits ``code``."""
    log = tmp_path / "argv.jsonl"
    exe = tmp_path / "fake-bridge"
    exe.write_text(
        f"#!{sys.executable}\n"
        "import json, sys\n"
        f"with open({str(log)!r}, 'a') as f:\n"
        "    f.write(json.dumps(sys.argv[1:]) + '\\n')\n"
        f"sys.stdout.write({stdout!r})\n"
        f"sys.stderr.write({stderr!r})\n"
        f"sys.exit({code})\n"
    )
    exe.chmod(0o755)
    return exe, log


def _calls(log):
    return [json.loads(line) for line in log.read_text().splitlines()]


def test_subprocess_bridge_shell_and_pull_arguments(tmp_path):
    exe, log = _fake_bridge(tmp_path, stdout=PM_ALL)
    bridge = SubprocessBridge(str(exe))
    assert bridge.shell("SER1", "pm list packages -f") == PM_ALL
    dest = tmp_path / "Gallery.apk"
    assert bridge.pull("SER1", "/system/app/Gallery/Gallery.apk", dest) is None
    assert _calls(log) == [
        ["-s", "SER1", "shell", "pm list packages -f"],
        ["-s", "SER1", "pull", "/system/app/Gallery/Gallery.apk", str(dest)],
    ]


def test_subprocess_bridge_executable_defaults_to_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv(BRIDGE_ENV, str(tmp_path / "env-bridge"))
    assert SubprocessBridge().executable == str(tmp_path / "env-bridge")
    assert SubprocessBridge("given").executable == "given"
    monkeypatch.delenv(BRIDGE_ENV)
    assert SubprocessBridge().executable == "adb"


@pytest.mark.parametrize("stderr, message", [
    ("error: no devices/emulators found\n", "no device: error: no devices/emulators found"),
    ("error: device offline\n", "no device: error: device offline"),
    ("error: device unauthorized.\n", "device unauthorized: error: device unauthorized."),
    ("remote object does not exist\n", "bridge command failed: remote object does not exist"),
])
def test_subprocess_bridge_failure_is_a_bridge_error(tmp_path, stderr, message):
    exe, log = _fake_bridge(tmp_path, stdout="partial", stderr=stderr, code=1)
    bridge = SubprocessBridge(str(exe))
    code = {"no": "bridge.no_device", "device": "bridge.unauthorized", "bridge": "bridge.failed"}
    with pytest.raises(ApkAuditError) as err:
        bridge.shell("SER1", "pm list packages -f")
    assert (str(err.value), err.value.code) == (message, code[message.split()[0]])
    with pytest.raises(ApkAuditError) as err:
        bridge.pull("SER1", "/data/app/x/base.apk", tmp_path / "base.apk")
    assert (str(err.value), err.value.code) == (message, code[message.split()[0]])
    assert len(_calls(log)) == 2


def test_subprocess_bridge_timeout_is_a_bridge_error(monkeypatch):
    def hang(argv, **kwargs):
        raise subprocess.TimeoutExpired(argv, kwargs["timeout"])

    monkeypatch.setattr(subprocess, "run", hang)
    with pytest.raises(ApkAuditError) as err:
        SubprocessBridge("bridge").shell("SER1", "pm list packages -f")
    assert str(err.value) == "bridge timed out: ['-s', 'SER1', 'shell', 'pm list packages -f']"
    assert err.value.code == "bridge.timeout"


def test_subprocess_bridge_missing_executable(tmp_path):
    missing = tmp_path / "no-such-bridge"
    with pytest.raises(ApkAuditError) as err:
        SubprocessBridge(str(missing)).shell("SER1", "pm list packages -f")
    assert str(err.value) == f"bridge executable not found: {missing}"
    assert err.value.code == "bridge.not_found"


def test_list_device_packages(tmp_path):
    commands = []

    class RecordingBridge(TranscriptBridge):
        def shell(self, serial, command):
            commands.append(command)
            return super().shell(serial, command)

    tr = _transcript(tmp_path, with_files=False)
    # no path, no name, no prefix
    tr["shell"]["pm list packages -f"] += "package:=com.x\npackage:/p.apk=\n/q.apk=com.y\n"
    bridge = RecordingBridge(tr)
    pkgs, skipped = list_device_packages(bridge, "SER1")
    assert commands == ["pm list packages -f", "pm list packages -f -s"]
    assert skipped == 5  # the five malformed lines
    by_name = {p.package: p for p in pkgs}
    assert set(by_name) == {"com.vendor.gallery", "com.game", "com.vendor.radio"}
    assert by_name["com.vendor.gallery"].system is True
    assert by_name["com.vendor.gallery"].partition_folder == "/system/app"
    assert by_name["com.game"].system is False
    assert by_name["com.vendor.radio"].system is True


def test_transcript_bridge_unknown_command_and_pull_failure(tmp_path):
    bridge = TranscriptBridge(_transcript(tmp_path, with_files=False))
    with raises_code("bridge.no_output"):
        bridge.shell("SER1", "not recorded")
    with raises_code("bridge.pull"):
        bridge.pull("SER1", "/system/app/Gallery/Gallery.apk", tmp_path / "out.apk")


def test_transcript_bridge_from_file(tmp_path):
    doc = _transcript(tmp_path, with_files=False)
    p = tmp_path / "t.json"
    p.write_text(json.dumps(doc))
    bridge = TranscriptBridge(p)
    assert "Gallery" in bridge.shell("SER1", "pm list packages -f")


def _add_split(tmp_path, tr):
    """Give com.game a split APK that ``pm path`` lists after its base."""
    split = "/data/app/com.game-x1/split_config.arm64_v8a.apk"
    split_src = build_apk(tmp_path / "src_split.apk", {"AndroidManifest.xml": b"", "f": b"split"})
    tr["files"][split] = str(split_src)
    tr["shell"]["pm path com.game"] += f"package:{split}\n"


def test_pull_packages_end_to_end(tmp_path):
    tr = _transcript(tmp_path)
    _add_split(tmp_path, tr)
    # two packages in one flat folder: neither is a split of the other
    for name in ("Foo", "Bar"):
        path = f"/system/app/{name}.apk"
        tr["shell"]["pm list packages -f"] += f"package:{path}=com.vendor.{name.lower()}\n"
        tr["shell"][f"pm path com.vendor.{name.lower()}"] = f"package:{path}\n"
        tr["files"][path] = str(build_apk(tmp_path / f"src_{name}.apk", {"f": name.encode()}))
    bridge = TranscriptBridge(tr)
    pkgs, _ = list_device_packages(bridge, "SER1")
    out = tmp_path / "corpus"
    result = pull_packages(bridge, "SER1", pkgs, out)
    assert result.failures == {}
    assert {p.relative_to(out).as_posix(): pkg.package for p, pkg in result.pulled.items()} == {
        "com.game/SER1/base.apk": "com.game",
        "com.game/SER1/split_config.arm64_v8a.apk": "com.game",
        "com.vendor.bar/SER1/Bar.apk": "com.vendor.bar",
        "com.vendor.foo/SER1/Foo.apk": "com.vendor.foo",
        "com.vendor.gallery/SER1/Gallery.apk": "com.vendor.gallery",
        "com.vendor.radio/SER1/Radio.apk": "com.vendor.radio",
    }
    assert (out / "com.game" / "SER1" / "base.apk").read_bytes() == (tmp_path / "src_base.apk").read_bytes()


def test_a_bridge_without_files_pulls_the_splits_pm_path_lists(tmp_path):
    tr = _transcript(tmp_path)
    _add_split(tmp_path, tr)
    transcript = TranscriptBridge(tr)

    class DeviceBridge:  # a bridge as a device is: commands and pulls, no file table
        def shell(self, serial, command):
            return transcript.shell(serial, command)

        def pull(self, serial, device_path, dest):
            transcript.pull(serial, device_path, dest)

    bridge = DeviceBridge()
    pkgs, _ = list_device_packages(bridge, "SER1")
    out = tmp_path / "corpus"
    result = pull_packages(bridge, "SER1", pkgs, out)
    assert result.failures == {}
    assert sorted(p.name for p, pkg in result.pulled.items() if pkg.package == "com.game") == [
        "base.apk", "split_config.arm64_v8a.apk"]
    idx = index_corpus(result.pulled, None, "DEV1")
    assert sorted((Path(e["path"]).name, e["split"]) for e in idx.entries.values()) == [
        ("Gallery.apk", False), ("Radio.apk", False), ("base.apk", False),
        ("split_config.arm64_v8a.apk", True)]


@pytest.mark.parametrize("listing, reason", [
    ("", "pm path com.game listed no file"),
    ("Error: no package\n", "pm path com.game listed no file"),
    (None, "transcript has no output for 'pm path com.game'"),
], ids=["empty", "no-package-line", "failed"])
def test_a_failed_or_empty_pm_path_fails_that_package_only(tmp_path, listing, reason):
    tr = _transcript(tmp_path)
    if listing is None:
        del tr["shell"]["pm path com.game"]
    else:
        tr["shell"]["pm path com.game"] = listing
    bridge = TranscriptBridge(tr)
    pkgs, _ = list_device_packages(bridge, "SER1")
    out = tmp_path / "corpus"
    result = pull_packages(bridge, "SER1", pkgs, out)
    assert result.failures == {"com.game": reason}
    assert sorted(pkg.package for pkg in result.pulled.values()) == ["com.vendor.gallery", "com.vendor.radio"]
    assert not (out / "com.game").exists()


def test_pull_failure_recorded_and_run_continues(tmp_path):
    tr = _transcript(tmp_path)
    del tr["files"]["/system/app/Gallery/Gallery.apk"]  # pull will be denied
    bridge = TranscriptBridge(tr)
    pkgs, _ = list_device_packages(bridge, "SER1")
    result = pull_packages(bridge, "SER1", pkgs, tmp_path / "corpus")
    assert "com.vendor.gallery" in result.failures
    assert "permission denied" in result.failures["com.vendor.gallery"]
    assert len(result.pulled) == 2  # the other two packages still arrive


def test_package_folder_that_is_a_file_is_a_failure_and_run_continues(tmp_path):
    bridge = TranscriptBridge(_transcript(tmp_path))
    pkgs, _ = list_device_packages(bridge, "SER1")
    out = tmp_path / "corpus"
    out.mkdir()
    (out / "com.vendor.gallery").write_text("a file")
    result = pull_packages(bridge, "SER1", pkgs, out)
    assert list(result.failures) == ["com.vendor.gallery"]
    assert "Not a directory" in result.failures["com.vendor.gallery"]
    assert (out / "com.vendor.gallery").read_text() == "a file"
    assert sorted(pkg.package for pkg in result.pulled.values()) == ["com.game", "com.vendor.radio"]


def test_disk_full_is_fatal(tmp_path):
    class FullBridge(TranscriptBridge):
        def pull(self, serial, device_path, dest):
            raise OSError(28, "No space left on device")

    bridge = FullBridge(_transcript(tmp_path, with_files=False))
    pkgs, _ = list_device_packages(bridge, "SER1")
    with pytest.raises(OSError):
        pull_packages(bridge, "SER1", pkgs, tmp_path / "corpus")


def _pulled(tmp_path):
    """A pull of two packages: com.a from /system/app, com.b from /data/app
    with a split and a file that is no APK."""
    d = tmp_path / "corpus"
    (d / "com.a").mkdir(parents=True)
    (d / "com.b").mkdir()
    build_apk(d / "com.a" / "base.apk", {"AndroidManifest.xml": b"", "f": b"one"},
              sign="v2", cn="Alice", org="Infinix")
    # identical bytes under a second package name: must dedup by sha256
    build_apk(d / "com.b" / "base.apk", {"AndroidManifest.xml": b"", "f": b"one"},
              sign="v2", cn="Alice", org="Infinix")
    build_apk(d / "com.b" / "split_config.en.apk", {"AndroidManifest.xml": b"", "f": b"two"},
              sign="v2", cn="Bob", org="Google")
    (d / "com.b" / "notes.apk").write_bytes(b"not a zip at all")
    a = DevicePackage("com.a", "/system/app/A/base.apk", "/system/app", True)
    b = DevicePackage("com.b", "/data/app/com.b-1/base.apk", "/data/app", False)
    return {d / "com.a" / "base.apk": a, d / "com.b" / "base.apk": b,
            d / "com.b" / "split_config.en.apk": b, d / "com.b" / "notes.apk": b}


def test_index_corpus_dedup_and_labels(tmp_path):
    idx = index_corpus(_pulled(tmp_path), None, "DEV1")
    assert len(idx.entries) == 2  # two distinct payloads, bad file skipped
    by_label = {e["signer_label"]: e for e in idx.entries.values()}
    assert set(by_label) == {"Infinix", "Google"}
    assert by_label["Infinix"]["packages"] == {"com.a", "com.b"}
    assert by_label["Infinix"]["partition_folders"] == {"/system/app", "/data/app"}
    assert by_label["Infinix"]["devices"] == {"DEV1"}
    assert by_label["Infinix"]["split"] is False
    assert by_label["Google"]["partition_folders"] == {"/data/app"}
    assert by_label["Google"]["split"] is True


def test_index_corpus_names_an_unreadable_file_once(tmp_path, caplog):
    notes = tmp_path / "corpus" / "com.b" / "notes.apk"
    with caplog.at_level(logging.WARNING, logger="apkaudit.acquire"):
        index_corpus(_pulled(tmp_path), None, "DEV1")
    assert [r.getMessage() for r in caplog.records] == [
        f"unreadable file skipped: {notes}: File is not a zip file", "1 unreadable files skipped"]


def test_index_holds_only_what_was_pulled(tmp_path):
    pulled = _pulled(tmp_path)
    a_only = {p: pkg for p, pkg in pulled.items() if pkg.package == "com.a"}
    idx = index_corpus(a_only, None, "DEV1")
    [entry] = idx.entries.values()
    assert (entry["packages"], entry["devices"]) == ({"com.a"}, {"DEV1"})
    # com.b's files sit in the same folder, but this run did not pull them
    b_only = {p: pkg for p, pkg in pulled.items() if pkg.package == "com.b"}
    index_corpus(b_only, idx, "DEV2")
    by_label = {e["signer_label"]: e for e in idx.entries.values()}
    assert by_label["Infinix"]["devices"] == {"DEV1", "DEV2"}  # same bytes on both
    assert by_label["Google"]["devices"] == {"DEV2"}


def test_index_merge_and_idempotence(tmp_path):
    pulled = _pulled(tmp_path)
    idx = index_corpus(pulled, None, "DEV1")
    again = index_corpus(pulled, idx, "DEV1")
    assert again is idx
    assert len(again.entries) == 2
    merged = index_corpus(pulled, idx, "DEV2")
    assert all(e["devices"] == {"DEV1", "DEV2"} for e in merged.entries.values())


def test_index_json_roundtrip(tmp_path):
    idx = index_corpus(_pulled(tmp_path), None, "DEV1")
    text = idx.to_json()
    (tmp_path / "corpus-index.json").write_text(text)
    back = CorpusIndex.load(tmp_path / "corpus-index.json")
    assert back.entries == idx.entries
    assert back.to_json() == text
    assert (back.created, back.updated) == (idx.created, idx.updated)


def test_a_prior_index_without_a_creation_time_gets_this_run_s():
    idx = index_corpus({}, CorpusIndex(updated="2020-01-01T00:00:00Z"), "D")
    assert idx.created and idx.created == idx.updated != "2020-01-01T00:00:00Z"
