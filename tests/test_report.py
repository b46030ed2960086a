import gc
import io
import json
import random
import struct
import zipfile
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.serialization import Encoding

from apkaudit import leaks
from apkaudit import report as report_mod
from apkaudit.acquire import CorpusIndex, pull_packages
from apkaudit.axml import AxmlElement
from apkaudit.callgraph import build_callgraph
from apkaudit.container import ApkArtifact, open_apk
from apkaudit.dex import CodeModel, DexClass, DexMethod, load_app_code
from apkaudit.errors import ApkAuditError, ApkReadError
from apkaudit.findings import (
    AppReport,
    BehaviorFinding,
    ComponentFinding,
    LeakFinding,
    aggregate,
    format_percent,
)
from apkaudit.leaks import TaintSpec
from apkaudit.manifest import ComponentDecl, ManifestModel
from apkaudit.report import AnalysisConfig, analyze_apk, load_detection

from .conftest import EXTRA_SINKS, raises_code
from .fixtures.apk_writer import build_apk
from .fixtures.corpus import FIXTURE_NAMES, build_fixture
from .test_axml import TRUNCATED


def test_format_percent_whole_and_fractional():
    assert format_percent(0, 100) == "0%"
    assert format_percent(1, 100) == "1%"
    assert format_percent(1, 200) == "0.5%"
    assert format_percent(3, 200) == "2%"  # 1.5 rounds half-up
    assert format_percent(1, 1000) == "0.1%"
    assert format_percent(1, 100000) == "0.1%"  # ceiling keeps tiny shares visible
    assert format_percent(100, 100) == "100%"
    with pytest.raises(ValueError):
        format_percent(1, 0)


def _report(sha, label="", device="", leaks=0, comps=0, cats=()):
    leak = LeakFinding("s", "k", "log", ("m", 0), ("m", 2), ("m",), "imei")
    comp = ComponentFinding("Lc;", "activity", "a", "m", ("m",), "imei")
    return AppReport(
        sha256=sha,
        signer_label=label,
        device=device,
        leaks=(leak,) * leaks,
        exported_components=(comp,) * comps,
        behaviors=tuple(
            BehaviorFinding(category=c, rule_id=f"{c}_r", confidence="high",
                            method="m", matched="x", component=None)
            for c in cats
        ),
    )


def test_aggregate_counts_apps_not_findings():
    reports = [
        _report("a" * 64, leaks=3, cats=("sms", "sms", "dangerous_command")),
        _report("b" * 64, comps=2),
        _report("c" * 64),
    ]
    summary = aggregate(reports)
    assert summary.total_apps == 3
    assert summary.category_counts == {
        "exported_components": 1,
        "leaks": 1,
        "dangerous_command": 1,
        "log_collection": 0,
        "silent_install": 0,
        "sms": 1,
    }


def test_aggregate_is_permutation_invariant():
    reports = [
        _report("a" * 64, label="Infinix", device="D1", leaks=1),
        _report("b" * 64, label="Google", device="D1", cats=("sms",)),
        _report("c" * 64, label="Infinix", device="D1"),
        _report("d" * 64, label="Others", device="D2"),
    ]
    base = aggregate(reports).to_dict()
    rng = random.Random(7)
    for _ in range(5):
        shuffled = reports[:]
        rng.shuffle(shuffled)
        assert aggregate(shuffled).to_dict() == base


def test_signer_distribution_per_device():
    reports = (
        [_report(f"{i:064x}", label="Infinix", device="D1") for i in range(3)]
        + [_report(f"{10:064x}", label="Google", device="D1")]
        + [_report(f"{20:064x}", label="Others", device="D2")]
    )
    dist = aggregate(reports).signer_distribution
    assert dist == {
        "D1": {"Google": "25%", "Infinix": "75%"},
        "D2": {"Others": "100%"},
    }


def test_render_table_layout():
    summary = aggregate([_report("a" * 64, leaks=1, cats=("sms",))])
    table = summary.render_table()
    lines = table.splitlines()
    assert lines[0].startswith("Behaviors")
    assert any(line.startswith("Leak of sensitive data") and "1 (100%)" in line for line in lines)
    assert any(line.startswith("Access / Send / Delete SMS") and "1 (100%)" in line for line in lines)
    assert lines[-1].startswith("Total apps") and lines[-1].endswith("1")


def test_empty_corpus_percent_is_zero():
    summary = aggregate([])
    assert summary.percent("sms") == "0%"
    assert "Access / Send / Delete SMS     0 (0%)" in summary.render_table()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_app_report_roundtrip(corpus, expected, name):
    report = analyze_apk(corpus[name], AnalysisConfig(extra_sinks_path=str(EXTRA_SINKS)))
    assert any(report.to_dict()["findings"].values()) == any(expected[name].values())
    hash(report)  # every field a tuple or a string: no list reached the report
    back = AppReport.from_dict(json.loads(report.to_json()))
    assert back == report
    hash(back)
    assert back.to_dict() == report.to_dict()


def test_analyze_not_a_zip_propagates(tmp_path):
    bad = tmp_path / "bad.apk"
    bad.write_bytes(b"definitely not a zip")
    with raises_code("zip.not_a_zip", cls=ApkReadError):
        analyze_apk(bad)


def test_a_negative_depth_is_refused_before_the_apk_is_opened(corpus, tmp_path):
    config = AnalysisConfig(extra_sinks_path=str(EXTRA_SINKS), depth=-1)
    with raises_code("config.depth", match="^depth must be at least 0, not -1$"):
        analyze_apk(tmp_path / "no-such.apk", config)
    # depth 0 still gives a report; each of listing5_leak's leaks crosses a call, so it has none
    assert len(analyze_apk(corpus["listing5_leak"], config._replace(depth=5)).leaks) == 4
    assert analyze_apk(corpus["listing5_leak"], config._replace(depth=0)).leaks == ()


def test_analyze_degrades_without_manifest(tmp_path):
    p = build_apk(tmp_path / "noman.apk", {"classes.dex": b"xx", "a": b"b"})
    report = analyze_apk(p)
    assert report.package == ""
    assert report.leaks == () and report.behaviors == ()
    assert any(w.startswith("manifest:") for w in report.warnings)


def test_analyze_degrades_with_bad_dex(tmp_path, corpus):
    report = analyze_apk(corpus["corrupt_dex"])
    assert any("adler32" in w for w in report.warnings)
    assert any(report.to_dict()["findings"].values())  # analysis still ran on the damaged dex


def test_mutated_apks_give_a_report_or_an_apkaudit_error(corpus, tmp_path):
    raw = corpus["listing5_leak"].read_bytes()
    rng = random.Random(3)
    p = tmp_path / "m.apk"
    outcomes = {"report": 0, "error": 0}
    for _ in range(400):
        buf = bytearray(raw)
        for _ in range(rng.randint(1, 4)):
            buf[rng.randrange(len(buf))] = rng.randrange(256)
        p.write_bytes(bytes(buf))
        try:
            analyze_apk(p)
            outcomes["report"] += 1
        except ApkAuditError:
            outcomes["error"] += 1
    assert outcomes["report"] and outcomes["error"]


def test_analyze_reads_the_apk_once(corpus, tmp_path, monkeypatch):
    from .fixtures.apk_writer import _splice_signing_block, _v2_block, make_cert

    p = tmp_path / "multidex_v2.apk"
    p.write_bytes(corpus["multidex"].read_bytes())  # v1-signed, two dex entries
    _splice_signing_block(p, _v2_block(make_cert("V2", "V2Org")[0].public_bytes(Encoding.DER)))
    assert [s.subject_cn for s in open_apk(p).signers] == ["V2", "Test"]  # the block's signer first
    opens, archives = [], []
    real_open, real_zipfile = io.open, zipfile.ZipFile

    def counting_open(file, *args, **kwargs):
        if str(file) == str(p):
            opens.append(args)
        return real_open(file, *args, **kwargs)

    class CountingZipFile(real_zipfile):
        def __init__(self, *args, **kwargs):
            archives.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(zipfile, "ZipFile", CountingZipFile)
    report = analyze_apk(p)
    assert report.package and report.behaviors  # the manifest and both dex entries were read
    assert len(opens) == 1
    assert archives == []  # the container reads the ZIP itself


def _degraded_apk(corpus, tmp_path, name: str) -> Path:
    """``listing5_leak`` with a junk ``classes.dex``, with a junk
    ``classes2.dex`` next to its own, or without its manifest."""
    with zipfile.ZipFile(corpus["listing5_leak"]) as zf:
        man, dex = zf.read("AndroidManifest.xml"), zf.read("classes.dex")
    entries = {
        "junk_dex": {"AndroidManifest.xml": man, "classes.dex": b"junk"},
        "good_and_junk_dex": {"AndroidManifest.xml": man, "classes.dex": dex, "classes2.dex": b"junk"},
        "no_manifest": {"classes.dex": dex},
    }[name]
    return build_apk(tmp_path / f"{name}.apk", entries)


DEGRADED = ["junk_dex", "good_and_junk_dex", "no_manifest"]
LEAK_CONFIG = AnalysisConfig(extra_sinks_path=str(EXTRA_SINKS))  # listing5_leak's sink


@pytest.mark.parametrize("name", FIXTURE_NAMES + DEGRADED)
def test_analysis_leaves_no_cyclic_garbage(corpus, tmp_path, name):
    # analyze_apk runs with the collector paused, so a reference cycle made
    # during analysis would outlive the report until the next collection
    path = corpus[name] if name in corpus else _degraded_apk(corpus, tmp_path, name)
    enabled = gc.isenabled()
    try:
        gc.collect()
        gc.disable()
        analyze_apk(path, LEAK_CONFIG)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_degraded_dex_entries_keep_their_warnings_and_error(corpus, tmp_path):
    report = analyze_apk(_degraded_apk(corpus, tmp_path, "junk_dex"))
    assert report.warnings == ("dex: classes.dex: bad DEX magic b'junk'",)
    with raises_code("dex.magic", match=r"^classes\.dex: bad DEX magic b'junk'$"):
        load_app_code(open_apk(tmp_path / "junk_dex.apk"))
    report = analyze_apk(_degraded_apk(corpus, tmp_path, "good_and_junk_dex"), LEAK_CONFIG)
    assert report.warnings == ("dex: classes2.dex: bad DEX magic b'junk'",)
    assert report.leaks


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_analyze_restores_the_collector_state(corpus, tmp_path, monkeypatch, enabled):
    during = []
    real = leaks.analyze_leaks
    monkeypatch.setattr(leaks, "analyze_leaks", lambda *a: during.append(gc.isenabled()) or real(*a))
    junk = tmp_path / "junk.apk"
    junk.write_bytes(b"junk")
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert analyze_apk(corpus["listing5_leak"], LEAK_CONFIG).leaks
        assert gc.isenabled() is enabled
        with pytest.raises(ApkAuditError):
            analyze_apk(junk)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False]  # paused while the analysers ran


def test_timings_only_behind_flag(corpus):
    plain = analyze_apk(corpus["benign"])
    assert plain.timings is None
    assert "timings" not in plain.to_dict()
    timed = analyze_apk(corpus["benign"], AnalysisConfig(timings=True))
    assert timed.timings is not None
    assert {"manifest", "dex", "callgraph", "behaviors", "components", "leaks", "total"} <= set(
        timed.timings
    )



def test_data_files_read_once_per_process(corpus, monkeypatch):
    reads = []
    read_text = Path.read_text

    def counting_read_text(self, *args, **kwargs):
        reads.append(self.name)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    load_detection.cache_clear()
    config = AnalysisConfig(extra_sinks_path=str(EXTRA_SINKS))
    for name in ("listing5_leak", "silent_install", "benign"):
        analyze_apk(corpus[name], config)
    assert sorted(reads) == [
        "authorities.json", "extra_sinks.txt", "rules.json", "sensitive_apis.txt",
        "sources_sinks.txt",
    ]


def test_supplementary_sinks_apply_only_to_internet_apps(corpus, monkeypatch):
    unions, specs = [], []
    union, analyze_leaks = TaintSpec.union, leaks.analyze_leaks

    def counting_union(self, other):
        unions.append(other)
        return union(self, other)

    def recording(code, g, spec, depth):
        specs.append(spec)
        return analyze_leaks(code, g, spec, depth)

    monkeypatch.setattr(TaintSpec, "union", counting_union)
    monkeypatch.setattr(leaks, "analyze_leaks", recording)
    load_detection.cache_clear()
    with_extra, plain = AnalysisConfig(extra_sinks_path=str(EXTRA_SINKS)), AnalysisConfig()
    for config in (with_extra, plain):
        for name in ("listing5_leak", "benign", "listing5_leak"):  # listing5 holds INTERNET
            analyze_apk(corpus[name], config)
    assert len(unions) == 1  # the merged spec is built once per config, not once per app

    extra, base = load_detection(with_extra), load_detection(plain)
    assert ("Lcom/fix/listing5/Net;->post", "network") in extra.internet_spec.sinks
    assert set(extra.spec.sinks) < set(extra.internet_spec.sinks)
    assert base.internet_spec is base.spec  # no supplementary sinks: INTERNET apps get the spec
    expected = [extra.internet_spec, extra.spec, extra.internet_spec, base.spec, base.spec, base.spec]
    assert [id(s) for s in specs] == [id(s) for s in expected]


def _unknown_chunks(blob: bytearray) -> None:
    at = 8 + struct.unpack_from("<I", blob, 12)[0]  # after the string pool chunk
    blob[at:at] = struct.pack("<HHI", 0x0BAD, 8, 8) + struct.pack("<HHI", 0x0BAE, 8, 8)


def _second_root(blob: bytearray) -> None:
    # a copy of the root's start and end chunks, before the closing namespace
    # chunk: the pool is followed by the 24-byte namespace start, then the root
    at = 8 + struct.unpack_from("<I", blob, 12)[0] + 24
    start = blob[at : at + struct.unpack_from("<I", blob, at + 4)[0]]
    blob[-24:-24] = start + blob[-48:-24]


@pytest.mark.parametrize("edit, warning", [
    (_unknown_chunks, "manifest: 2 chunk(s) skipped, first unknown chunk type 0x0bad"),
    (_second_root, "manifest: extra root element <manifest> ignored"),
], ids=["unknown-chunks", "second-root"])
def test_manifest_tree_warnings_reach_the_report(corpus, tmp_path, edit, warning):
    with zipfile.ZipFile(corpus["benign"]) as z:
        entries = {name: z.read(name) for name in ("AndroidManifest.xml", "classes.dex")}
    blob = bytearray(entries["AndroidManifest.xml"])
    edit(blob)
    struct.pack_into("<I", blob, 4, len(blob))
    entries["AndroidManifest.xml"] = bytes(blob)
    report = analyze_apk(build_apk(tmp_path / "edited.apk", entries))
    assert report.package == "com.fix.benign"
    assert [w for w in report.warnings if w.startswith("manifest:")] == [warning]


def test_truncated_manifest_chunk_gives_a_report_with_a_warning(corpus, tmp_path):
    with zipfile.ZipFile(corpus["benign"]) as z:
        dex = z.read("classes.dex")
    blob, at = TRUNCATED["start-namespace"]
    report = analyze_apk(build_apk(tmp_path / "short_ns.apk",
                                   {"AndroidManifest.xml": blob, "classes.dex": dex}))
    assert report.package == ""
    (warning,) = [w for w in report.warnings if w.startswith("manifest:")]
    assert warning.startswith(f"manifest: chunk at 0x{at:x} truncated (error: ")


def test_a_bug_in_the_manifest_stage_is_not_a_warning(corpus, monkeypatch):
    """Only an ``ApkAuditError`` becomes a ``manifest:`` warning; any other
    exception is a fault of the program and propagates."""
    def broken(tree):
        raise KeyError("android:name")

    monkeypatch.setattr(report_mod, "build_manifest", broken)
    with pytest.raises(KeyError, match="android:name"):
        analyze_apk(corpus["benign"])


def _every_finding_report() -> AppReport:
    sha = "c" * 64
    return AppReport(
        sha256=sha, package="com.x", version_name="1.2", version_code=12,
        signer_label="Google", device="tecno",
        leaks=(LeakFinding("Lsrc;->a()V", "Lsink;->b(I)V", "log", ("La;->m()V", 3),
                           ("La;->n()V", 7), ("La;->m()V", "La;->n()V"), "device_id"),),
        behaviors=(BehaviorFinding("sms", "sms_delete", "medium", "string-pool", "content://sms"),
                   BehaviorFinding("sms", "sms_recv", "high", "manifest", "SMS_RECEIVED",
                                   component="Lcom/x/R;")),
        exported_components=(ComponentFinding("Lcom/x/S;", "service", "Lapi;->c()V",
                                              "Lcom/x/S;->run()V", ("Lcom/x/S;->run()V",),
                                              "location", confidence="medium"),),
        warnings=("w1",),
        timings={"total": 0.5},
    )


def test_app_report_dict_layout_and_roundtrip():
    report = _every_finding_report()
    doc = report.to_dict()
    assert doc == {
        "schema_version": "1", "sha256": "c" * 64, "package": "com.x", "version_name": "1.2",
        "version_code": 12, "signer_label": "Google", "device": "tecno",
        "findings": {
            "leaks": [{"source": "Lsrc;->a()V", "sink": "Lsink;->b(I)V", "channel": "log",
                       "source_site": ["La;->m()V", 3], "sink_site": ["La;->n()V", 7],
                       "path": ["La;->m()V", "La;->n()V"], "data_kind": "device_id"}],
            "behaviors": [
                {"category": "sms", "rule_id": "sms_delete", "confidence": "medium",
                 "method": "string-pool", "matched": "content://sms", "component": None},
                {"category": "sms", "rule_id": "sms_recv", "confidence": "high",
                 "method": "manifest", "matched": "SMS_RECEIVED", "component": "Lcom/x/R;"},
            ],
            "exported_components": [
                {"class": "Lcom/x/S;", "kind": "service", "api": "Lapi;->c()V",
                 "method": "Lcom/x/S;->run()V", "path": ["Lcom/x/S;->run()V"],
                 "data_kind": "location", "confidence": "medium"}],
        },
        "warnings": ["w1"],
        "timings": {"total": 0.5},
    }
    back = AppReport.from_dict(json.loads(report.to_json()))
    assert back == report
    assert back.to_json() == report.to_json()


def test_app_report_from_dict_defaults():
    doc = _every_finding_report().to_dict()
    del doc["findings"]["behaviors"][1]["component"]
    del doc["findings"]["exported_components"][0]["confidence"]
    for key in ("package", "version_name", "version_code", "signer_label", "device",
                "warnings", "timings"):
        del doc[key]
    back = AppReport.from_dict(doc)
    assert back.behaviors[1].component is None
    assert back.exported_components[0].confidence == "high"
    assert (back.package, back.version_name, back.version_code, back.signer_label,
            back.device, back.warnings, back.timings) == ("", "", 0, "", "", (), None)
    assert "timings" not in back.to_dict()
    bare = AppReport.from_dict({"sha256": "d" * 64})
    assert bare == AppReport(sha256="d" * 64)

    del doc["findings"]["leaks"][0]["data_kind"]  # required: no default
    with pytest.raises(TypeError):
        AppReport.from_dict(doc)


def test_records_share_no_mutable_default(tmp_path):
    for make in (
        lambda: AppReport(sha256="a"),
        lambda: ApkArtifact(Path("a.apk"), {}, "a", b"", []),
        lambda: AxmlElement("manifest"),
        lambda: ManifestModel("p"),
        lambda: ComponentDecl("activity", "p.A", None, None),
        lambda: CodeModel(),
        lambda: DexClass("La;", None, ()),
        lambda: DexMethod("La;->m()V", 0),
        lambda: build_callgraph(CodeModel()),
        lambda: pull_packages(None, "S1", [], tmp_path),
        lambda: CorpusIndex(),
    ):
        a, b = make(), make()
        for name in type(a).__slots__ + getattr(type(a), "_fields", ()):
            if isinstance(getattr(a, name), (list, dict, set)):
                assert getattr(a, name) is not getattr(b, name), (type(a).__name__, name)
