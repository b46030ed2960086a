"""End-to-end acceptance suite.

Each test here pins one externally checkable property of the pipeline:
detection quality against hand-written expectations, exact table
formatting, decoder/graph/taint equality against independent oracles,
monotonicity and determinism properties, and wall-clock budgets.
"""

import json
import random
import time

from apkaudit.axml import decode_axml, dump_tree
from apkaudit.behaviors import load_rules, scan_behaviors
from apkaudit.callgraph import build_callgraph, reachable_hits
from apkaudit.cli import main
from apkaudit.container import open_apk, read_entry, AuthorityMap
from apkaudit.dex import load_app_code
from apkaudit.dex.parser import parse_dex
from apkaudit.leaks import analyze_leaks, load_taint_spec
from apkaudit.manifest import build_manifest
from apkaudit.acquire import index_corpus
from apkaudit.findings import AppReport, aggregate, format_percent
from apkaudit.report import AnalysisConfig, analyze_apk

from .conftest import EXTRA_SINKS, normalize_expected, normalize_findings
from .fixtures.apk_writer import build_apk
from .fixtures.axml_writer import encode_axml
from .fixtures.corpus import FIXTURE_NAMES, component, manifest
from .fixtures.dex_writer import DexWriter, MethodDef
from .fixtures.real_manifests import REAL_MANIFESTS, render_reference
from .oracles import behavior_oracle, callgraph_edges_oracle, leak_findings_as_tuples, taint_oracle

CONFIG = AnalysisConfig(extra_sinks_path=str(EXTRA_SINKS))

SRC = "Landroid/telephony/TelephonyManager;->getDeviceId()Ljava/lang/String;"
SINK = "Landroid/util/Log;->d(Ljava/lang/String;)I"


# 1. detection suite: 100% precision and recall against hand-written
#    expected findings for all twelve fixtures, within the time budget
def test_c1_detection_suite_precision_recall(corpus, expected):
    assert sorted(corpus) == sorted(FIXTURE_NAMES) and len(corpus) == 12
    t0 = time.monotonic()
    tp = fp = fn = 0
    for name in FIXTURE_NAMES:
        got = normalize_findings(analyze_apk(corpus[name], CONFIG).to_dict())
        want = normalize_expected(expected[name])
        for key in ("leaks", "behaviors", "exported_components"):
            got_set = {json.dumps(x, sort_keys=True) for x in got[key]}
            want_set = {json.dumps(x, sort_keys=True) for x in want[key]}
            tp += len(got_set & want_set)
            fp += len(got_set - want_set)
            fn += len(want_set - got_set)
    elapsed = time.monotonic() - t0
    assert tp > 0
    assert fp == 0, "precision below 100%"
    assert fn == 0, "recall below 100%"
    assert elapsed < 60, f"detection suite took {elapsed:.1f}s"


# 2. summary percent cells render exactly as published
def test_c2_percent_formatting():
    cells = {249: "16%", 145: "9%", 226: "15%", 10: "0.7%", 33: "2%", 79: "5%"}
    for count, text in cells.items():
        assert format_percent(count, 1544) == text, (count, text)


# 3. synthetic signer corpus reproduces the device distribution
def test_c3_signer_distribution(tmp_path):
    mix = [
        ("Infinix", "Infinix Mobility Limited", 68),
        ("Google", "Google Inc.", 20),
        ("Transsion", "Transsion Holdings", 4),
        ("Tecno", "Tecno Mobile", 2),
        ("Facebook", "Facebook Inc.", 1),
        ("Default", "Android", 1),
        ("Others", "SomeVendor", 4),
    ]
    amap = AuthorityMap.load()
    reports = []
    n = 0
    for label, org, count in mix:
        cn = "Android" if label == "Default" else "Test"
        for i in range(count):
            p = build_apk(
                tmp_path / f"{label}_{i}.apk",
                {"AndroidManifest.xml": b"", "f": f"{label}{i}".encode()},
                sign="v2", cn=cn, org=org,
            )
            art = open_apk(p)
            reports.append(AppReport(
                sha256=art.sha256,
                signer_label=amap.label(art.signers[0]),
                device="SMART8",
            ))
            n += 1
    assert n == 100
    dist = aggregate(reports).signer_distribution["SMART8"]
    assert dist == {
        "Infinix": "68%", "Google": "20%", "Transsion": "4%", "Tecno": "2%",
        "Facebook": "1%", "Default": "1%", "Others": "4%",
    }
    total = sum(float(v.rstrip("%")) for v in dist.values())
    assert 99.0 <= total <= 101.0


# 4. AXML decoder matches the stored reference dumps attribute-for-attribute
#    on five transcribed real open-source app manifests
def test_c4_manifest_reference_dumps():
    from .conftest import EXPECTED_DIR

    assert len(REAL_MANIFESTS) >= 5
    for name, make in REAL_MANIFESTS.items():
        root = make()
        stored = (EXPECTED_DIR / "manifests" / f"{name}.txt").read_text()
        assert render_reference(root) == stored, f"{name}: transcription drifted"
        for utf8 in (False, True):
            got = dump_tree(decode_axml(encode_axml(root, utf8_pool=utf8)))
            mismatches = [
                (a, b) for a, b in zip(got.splitlines(), stored.splitlines()) if a != b
            ]
            assert mismatches == [], f"{name} utf8={utf8}"
            assert got == stored, f"{name} utf8={utf8}: line count differs"
        # the dumps exercise real attribute variety, not a trivial tree
        assert sum(1 for line in stored.splitlines() if "A: " in line) >= 20


# 5. call graph equals the brute-force adjacency oracle; reachability is
#    monotone in the depth bound
def test_c5_callgraph_oracle_and_monotonicity(corpus):
    for name in FIXTURE_NAMES:
        model = load_app_code(open_apk(corpus[name]))
        assert sum(1 for _ in model.all_methods()) <= 50, name
        g = build_callgraph(model)
        assert g.edges == callgraph_edges_oracle(model), name

        roots = {m.key for m in model.all_methods() if m.is_concrete}
        targets = set(g.external)
        prev: set = set()
        for depth in range(0, 7):
            now = {(r, t) for r, t, _p in reachable_hits(g, roots, targets, depth)}
            assert prev <= now, (name, depth)
            prev = now


# 6. taint engine equals the inlining oracle on the fixtures, and finds
#    every same-method source-to-sink flow in randomized linear methods
def test_c6_taint_oracle_and_randomized_completeness(corpus):
    spec = load_taint_spec()
    for name in FIXTURE_NAMES:
        model = load_app_code(open_apk(corpus[name]))
        assert all(
            len(m.instructions) <= 30 for m in model.all_methods() if m.is_concrete
        ), name
        g = build_callgraph(model)
        got = leak_findings_as_tuples(analyze_leaks(model, g, spec, 5))
        assert got == taint_oracle(model, spec, 5), name

    rng = random.Random(1234)
    w = DexWriter()
    methods = []
    for i in range(100):
        methods.append(MethodDef(f"f{i}", (), "V", registers=8, code=_linear_flow(i, rng)))
    w.add_class("Lgen/G;", methods=methods)
    model = parse_dex(w.build())
    g = build_callgraph(model)
    found = analyze_leaks(model, g, spec, 5)
    hit_methods = {f.sink_site[0] for f in found if f.source == SRC}
    missing = {f"Lgen/G;->f{i}()V" for i in range(100)} - hit_methods
    assert missing == set(), f"{len(missing)} linear flows missed"


def _linear_flow(i: int, rng: random.Random) -> list:
    """Source into a register, taint-preserving transforms, then a sink.
    Distractors never write the tracked register."""
    free = set(range(7))  # v7 is `this`
    tracked = rng.choice(sorted(free))
    free.discard(tracked)
    code = [("invoke-virtual", [7], SRC), ("move-result-object", [tracked])]
    for k in range(rng.randint(0, 5)):
        if free and rng.random() < 0.5:
            d = rng.choice(sorted(free))
            code.append(("const-string", [d], f"noise{i}_{k}"))
        roll = rng.random()
        if roll < 0.4 and free:
            nxt = rng.choice(sorted(free))
            free.discard(nxt)
            free.add(tracked)
            code.append(("move-object", [nxt, tracked]))
            tracked = nxt
        elif roll < 0.7:
            # opaque external transform: result stays tainted
            code.append(("invoke-static", [tracked],
                         f"Lgen/Ops;->t{k}(Ljava/lang/String;)Ljava/lang/String;"))
            code.append(("move-result-object", [tracked]))
        elif free:
            # builder-style: the receiver picks up the argument's taint
            b = rng.choice(sorted(free))
            free.discard(b)
            free.add(tracked)
            code.append(("new-instance", [b], "Ljava/lang/StringBuilder;"))
            code.append(("invoke-virtual", [b, tracked],
                         "Ljava/lang/StringBuilder;->append(Ljava/lang/String;)Ljava/lang/StringBuilder;"))
            tracked = b
    code.append(("invoke-static", [tracked], SINK))
    code.append(("return-void", []))
    return code


# 7. behavior scanner equals its oracle on every fixture; removing
#    permissions never adds findings
def test_c7_behavior_oracle_and_gate_monotonicity(corpus):
    rules = load_rules()
    for name in FIXTURE_NAMES:
        art = open_apk(corpus[name])
        man = build_manifest(decode_axml(read_entry(art, "AndroidManifest.xml")))
        model = load_app_code(art)
        got = {
            (f.category, f.rule_id, f.confidence, f.method, f.component)
            for f in scan_behaviors(model, man, rules)
        }
        assert got == behavior_oracle(model, man, rules), name

    w = DexWriter()
    w.add_class("Lg/M;", methods=[MethodDef("m", (), "V", registers=3, code=[
        ("const-string", [0], "logcat -d -v time"),
        ("const-string", [0], "pm install -r /sdcard/x.apk"),
        ("const-string", [0], "su -c id"),
        ("invoke-static", [0],
         "Landroid/content/pm/PackageManager;->installPackage(Landroid/net/Uri;)V"),
        ("return-void", []),
    ])])
    model = parse_dex(w.build())
    perms = ["android.permission.READ_LOGS", "android.permission.INSTALL_PACKAGES",
             "android.permission.INTERNET"]

    def findings_for(subset):
        man = build_manifest(decode_axml(manifest("g.m", permissions=sorted(subset))))
        return {(f.rule_id, f.method) for f in scan_behaviors(model, man, rules)}

    rng = random.Random(99)
    for _ in range(10):
        order = perms[:]
        rng.shuffle(order)
        held = set(perms)
        prev = findings_for(held)
        assert ("install_pm", "Lg/M;->m()V") in prev
        for p in order:
            held.discard(p)
            now = findings_for(held)
            assert now <= prev, f"removing {p} added findings"
            prev = now
        assert ("cmd_su", "Lg/M;->m()V") in prev  # ungated rules survive


# 8. determinism, report round-trip, idempotent re-indexing
def test_c8_determinism_roundtrip_reindex(corpus, tmp_path):
    for name in ("listing5_leak", "silent_install", "benign", "corrupt_dex"):
        first = analyze_apk(corpus[name], CONFIG).to_json()
        second = analyze_apk(corpus[name], CONFIG).to_json()
        assert first == second, name
        report = AppReport.from_dict(json.loads(first))
        assert report.to_json() == first, name

    d = tmp_path / "corpus"
    for name in ("benign", "silent_install"):
        (d / name).mkdir(parents=True)
        (d / name / "base.apk").write_bytes(corpus[name].read_bytes())
    idx = index_corpus(d, device="D")
    entries_before = json.loads(idx.to_json())["entries"]
    again = index_corpus(d, prior=idx, device="D")
    assert json.loads(again.to_json())["entries"] == entries_before
    restored = index_corpus(d, prior=type(idx).from_json(idx.to_json()), device="D")
    assert json.loads(restored.to_json())["entries"] == entries_before


# 9. wall-clock budgets: one large APK and a 50-app parallel scan
def test_c9_performance(tmp_path):
    blob = random.Random(0).randbytes(10 * 1024 * 1024)  # incompressible
    w = DexWriter()
    w.add_class("Lp/Big;", methods=[MethodDef("m", (), "V", registers=3, code=[
        ("const-string", [0], "hello"),
        ("return-void", []),
    ])])
    big = build_apk(tmp_path / "big.apk", {
        "AndroidManifest.xml": encode_axml_manifest("com.perf.big"),
        "classes.dex": w.build(),
        "assets/blob.bin": blob,
    })
    assert big.stat().st_size >= 10 * 1024 * 1024
    t0 = time.monotonic()
    report = analyze_apk(big)
    elapsed = time.monotonic() - t0
    assert report.package == "com.perf.big"
    assert elapsed < 5, f"10MB APK took {elapsed:.2f}s"

    src = tmp_path / "many"
    src.mkdir()
    for i in range(50):
        wi = DexWriter()
        wi.add_class(f"Lp/App{i};", methods=[MethodDef("m", (), "V", registers=3, code=[
            ("const-string", [0], f"payload {i}"),
            ("const-string", [0], "su -c id") if i % 2 else ("const-string", [0], "benign"),
            ("return-void", []),
        ])])
        build_apk(src / f"app{i}.apk", {
            "AndroidManifest.xml": encode_axml_manifest(f"com.perf.app{i}"),
            "classes.dex": wi.build(),
        })
    out = tmp_path / "reports"
    t0 = time.monotonic()
    rc = main(["scan", str(src), "--jobs", "8", "--out", str(out)])
    elapsed = time.monotonic() - t0
    assert rc in (0, 1)
    assert len(list(out.glob("*.json"))) == 50
    assert elapsed < 60, f"50-app scan took {elapsed:.1f}s"


def encode_axml_manifest(package: str) -> bytes:
    return manifest(package, components=[component("activity", ".Main", exported=False)])
