import json

import pytest

from apkaudit.axml import decode_axml
from apkaudit.behaviors import load_rules, scan_behaviors
from apkaudit.container import open_apk, read_entry
from apkaudit.dex import load_app_code
from apkaudit.dex.parser import parse_dex
from apkaudit.errors import RuleSchemaError
from apkaudit.manifest import build_manifest

from .fixtures.axml_writer import XAttr, XElem, encode_axml
from .fixtures.corpus import component, manifest
from .fixtures.dex_writer import DexWriter, MethodDef
from .oracles import behavior_oracle


def _man(package="t.app", permissions=(), components=()):
    return build_manifest(
        decode_axml(manifest(package, permissions=permissions, components=components))
    )


def _model_with(strings=(), refs=(), cls="Lt/app/C;", method="m"):
    w = DexWriter()
    code = [("const-string", [0], s) for s in strings]
    code += [("invoke-static", [0], r) for r in refs]
    code += [("return-void", [])]
    w.add_class(cls, methods=[MethodDef(method, (), "V", registers=3, code=code)])
    return parse_dex(w.build())


def _tuples(findings):
    return {(f.category, f.rule_id, f.confidence, f.method, f.component) for f in findings}


def test_default_rules_shape():
    rs = load_rules()
    assert len(rs.rules) == 13
    by_cat = {}
    for r in rs.rules:
        by_cat.setdefault(r.category, []).append(r)
    assert len(by_cat["sms"]) == 5
    assert len(by_cat["dangerous_command"]) == 5
    assert len(by_cat["log_collection"]) == 1
    assert len(by_cat["silent_install"]) == 2
    # command patterns keep their trailing space to avoid substring noise
    assert {r.pattern for r in by_cat["dangerous_command"]} == {
        "am start ", "chmod ", "su ", "sudo ", "rm -rf ",
    }


def test_rule_schema_validation(tmp_path):
    def load(rules):
        p = tmp_path / "r.json"
        p.write_text(json.dumps(rules))
        return load_rules(p)

    ok = [{"id": "a", "category": "sms", "pattern": "x", "match_space": "const_string"}]
    assert load(ok).rules[0].id == "a"
    with pytest.raises(RuleSchemaError):
        load({"not": "a list"})
    with pytest.raises(RuleSchemaError):
        load([{"id": "a", "category": "nope", "pattern": "x", "match_space": "const_string"}])
    with pytest.raises(RuleSchemaError):
        load([{"id": "a", "category": "sms", "pattern": "x", "match_space": "regex"}])
    with pytest.raises(RuleSchemaError):
        load(ok + ok)  # duplicate id
    with pytest.raises(RuleSchemaError):
        load([{"id": "a", "category": "sms", "pattern": "x", "match_space": "const_string",
               "co_occurrence": "ghost"}])
    with pytest.raises(RuleSchemaError):
        load([{"id": "a", "category": "sms"}])  # missing keys


def test_const_string_match_high_confidence():
    model = _model_with(strings=["exec: su -c whoami"])
    found = scan_behaviors(model, _man(), load_rules())
    assert _tuples(found) == {("dangerous_command", "cmd_su", "high", "Lt/app/C;->m()V", None)}


def test_pool_only_string_is_medium():
    # the pattern never appears as a const-string operand, only as an
    # unused pool entry (here: a method name is not a const-string)
    w = DexWriter()
    w.add_class("Lt/app/C;", methods=[
        MethodDef("m", (), "V", registers=3, code=[
            ("const-string", [0], "harmless"),
            ("return-void", []),
        ]),
        MethodDef("helper", ("Ljava/lang/String;",), "V", registers=3, code=None),
    ])
    model = parse_dex(w.build())
    model.string_pool.add("rm -rf /data/local")  # pool entry with no using site
    found = scan_behaviors(model, _man(), load_rules())
    assert _tuples(found) == {("dangerous_command", "cmd_rm_rf", "medium", "string-pool", None)}


def test_permission_gate_blocks_and_admits():
    model = _model_with(strings=["logcat -d"])
    assert scan_behaviors(model, _man(), load_rules()) == []
    found = scan_behaviors(
        model, _man(permissions=["android.permission.READ_LOGS"]), load_rules()
    )
    assert _tuples(found) == {("log_collection", "log_logcat", "high", "Lt/app/C;->m()V", None)}


def test_method_ref_rule():
    model = _model_with(
        refs=["Landroid/telephony/SmsManager;->sendTextMessage(Ljava/lang/String;)V"]
    )
    found = scan_behaviors(model, _man(), load_rules())
    assert _tuples(found) == {("sms", "sms_send", "high", "Lt/app/C;->m()V", None)}


def test_co_occurrence_requires_same_class():
    rs = load_rules()
    together = _model_with(strings=["content://sms", "delete from inbox"])
    assert {t[1] for t in _tuples(scan_behaviors(together, _man(), rs))} == {
        "sms_provider", "sms_delete",
    }
    # split across two classes: only the provider rule fires
    w = DexWriter()
    w.add_class("Lt/app/A;", methods=[MethodDef("m", (), "V", registers=2, code=[
        ("const-string", [0], "content://sms"), ("return-void", [])])])
    w.add_class("Lt/app/B;", methods=[MethodDef("m", (), "V", registers=2, code=[
        ("const-string", [0], "delete it"), ("return-void", [])])])
    split = parse_dex(w.build())
    assert {t[1] for t in _tuples(scan_behaviors(split, _man(), rs))} == {"sms_provider"}


def test_manifest_sms_received_channel():
    model = _model_with(strings=["nothing"])
    man = _man(components=[component(
        "receiver", ".SmsRecv", actions=["android.provider.Telephony.SMS_RECEIVED"]
    )])
    found = scan_behaviors(model, man, load_rules())
    assert ("sms", "sms_received", "high", "manifest", "t.app.SmsRecv") in _tuples(found)


def test_dedup_one_finding_per_method_and_class():
    model = _model_with(strings=["su -c id", "su -c date"])
    found = scan_behaviors(model, _man(), load_rules())
    assert len([f for f in found if f.rule_id == "cmd_su"]) == 1


def test_output_sorted():
    model = _model_with(strings=["content://sms", "logcat"])
    man = _man(permissions=["android.permission.READ_LOGS"])
    found = scan_behaviors(model, man, load_rules())
    assert [f.sort_key() for f in found] == sorted(f.sort_key() for f in found)


def test_oracle_equality_on_corpus(corpus):
    rs = load_rules()
    for name, path in corpus.items():
        art = open_apk(path)
        man = build_manifest(decode_axml(read_entry(art, "AndroidManifest.xml")))
        code = load_app_code(art)
        got = _tuples(scan_behaviors(code, man, rs))
        assert got == behavior_oracle(code, man, rs), name


def test_oracle_equality_on_synthetic_mixes():
    rs = load_rules()
    cases = [
        (_model_with(strings=["am start -n com.x/.Y", "chmod 777 /f", "pm install -r x"]),
         _man(permissions=["android.permission.INSTALL_PACKAGES"])),
        (_model_with(strings=["Telephony.Sms stuff", "Telephony.SMS_RECEIVED"]), _man()),
        (_model_with(refs=["Landroid/content/pm/PackageManager;->installPackage(I)V"]),
         _man(permissions=["android.permission.INSTALL_PACKAGES"])),
    ]
    for code, man in cases:
        assert _tuples(scan_behaviors(code, man, rs)) == behavior_oracle(code, man, rs)
