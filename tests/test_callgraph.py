import random

import pytest

from apkaudit import leaks
from apkaudit.axml import decode_axml
from apkaudit.behaviors import load_rules, scan_behaviors
from apkaudit.callgraph import REFLECTIVE_NODE, build_callgraph, reachable_hits
from apkaudit.components import audit_components, load_sensitive_apis
from apkaudit.container import open_apk, read_entry
from apkaudit.dex import OPCODE, REF, load_app_code
from apkaudit.dex.opcodes import INVOKES
from apkaudit.dex.parser import mnemonic, parse_dex
from apkaudit.errors import ApkAuditError
from apkaudit.manifest import build_manifest
from apkaudit.report import analyze_apk

from .fixtures.apk_writer import build_apk
from .fixtures.corpus import component, manifest
from .fixtures.dex_writer import ACC_ABSTRACT, ACC_INTERFACE, ACC_PUBLIC, DexWriter, MethodDef
from .oracles import callgraph_edges_oracle, code_index_oracle
from .test_dex import _raw_dex, _raw_units, _raw_writer, _writer_pools


def _ret_void(name, calls=(), access=ACC_PUBLIC):
    code = [(mnem, regs, key) for mnem, regs, key in calls] + [("return-void", [])]
    return MethodDef(name, (), "V", access=access, registers=4, code=code)


def _hierarchy_model():
    """Base/Mid/Leaf chain plus an interface implementation."""
    w = DexWriter()
    w.add_class("La/Base;", methods=[
        _ret_void("run", [("invoke-virtual", [3], "La/Base;->step()V")]),
        _ret_void("step"),
    ])
    w.add_class("La/Mid;", superclass="La/Base;", methods=[
        _ret_void("step"),  # override
    ])
    w.add_class("La/Leaf;", superclass="La/Mid;", methods=[
        _ret_void("extra", [("invoke-super", [3], "La/Leaf;->step()V")]),
    ])
    w.add_class("La/Iface;", access=ACC_PUBLIC | ACC_INTERFACE, methods=[
        MethodDef("on", (), "V", access=ACC_PUBLIC | ACC_ABSTRACT, registers=0, code=None),
    ])
    w.add_class("La/Impl;", interfaces=("La/Iface;",), methods=[
        _ret_void("on"),
    ])
    w.add_class("La/Caller;", methods=[
        _ret_void("fire", [
            ("invoke-interface", [3], "La/Iface;->on()V"),
            ("invoke-static", [], "La/Util;->log()V"),
            ("invoke-virtual", [3], "Ljava/lang/reflect/Method;->invoke()V"),
        ]),
    ])
    return parse_dex(w.build())


def test_graph_equals_oracle_on_hierarchy():
    m = _hierarchy_model()
    g = build_callgraph(m)
    assert g.edges == callgraph_edges_oracle(m)


def test_virtual_dispatch_covers_subtypes():
    m = _hierarchy_model()
    g = build_callgraph(m)
    # Base.run's virtual step() resolves to Base.step and the Mid override
    # (Leaf inherits Mid.step, same concrete target)
    targets = {t for c, t, _s in g.edges if c == "La/Base;->run()V"}
    assert targets == {"La/Base;->step()V", "La/Mid;->step()V"}


def test_super_resolves_up_the_chain():
    g = build_callgraph(_hierarchy_model())
    targets = {t for c, t, _s in g.edges if c == "La/Leaf;->extra()V"}
    assert targets == {"La/Mid;->step()V"}


def _internal(model):
    """The concrete methods of the model; the other graph nodes are external."""
    return {m.key for m in model.all_methods() if m.is_concrete}


def test_interface_reflective_and_external():
    model = _hierarchy_model()
    g = build_callgraph(model)
    targets = {t for c, t, _s in g.edges if c == "La/Caller;->fire()V"}
    assert targets == {"La/Impl;->on()V", "La/Util;->log()V", REFLECTIVE_NODE}
    external = g.nodes() - _internal(model)
    assert "La/Util;->log()V" in external
    assert REFLECTIVE_NODE in external
    assert REFLECTIVE_NODE not in g.adjacency  # no outgoing edges


def test_graph_equals_oracle_on_corpus(corpus):
    for name, path in corpus.items():
        model = load_app_code(open_apk(path))
        g = build_callgraph(model)
        assert g.edges == callgraph_edges_oracle(model), name


def _patched_call_apk(tmp_path, params, old: bytes, new: bytes):
    """An APK whose exported activity makes a virtual call to ``La/B;->m``,
    defined in the app with ``params``, after the DEX string ``old`` is
    patched to ``new`` in place."""
    w = DexWriter()
    call = ("invoke-virtual", [2, 3], f"La/B;->m({params})V")
    w.add_class("Lx/app/Main;", methods=[_ret_void("run", [call])])
    w.add_class("La/B;", methods=[MethodDef("m", (params,), "V", registers=2, code=[("return-void", [])])])
    dex = bytearray(w.build())
    assert dex.count(old) == 1
    at = dex.index(old)
    dex[at : at + len(old)] = new
    man = manifest("x.app", components=[component("activity", ".Main", exported=True)])
    return build_apk(tmp_path / "patched.apk", {"AndroidManifest.xml": man, "classes.dex": bytes(dex)})


@pytest.mark.parametrize("params, old, new, callee", [
    # a parameter type that is only "[" (the MUTF-8 string data of "I" patched)
    ("I", b"\x01I\x00", b"\x01[\x00", "La/B;->m([)V"),
    # a class type with no ";"
    ("La/X;", b"\x05La/X;\x00", b"\x05La/XY\x00", "La/B;->m(La/XY)V"),
], ids=["bare-array", "class-without-semicolon"])
def test_malformed_proto_resolves_by_key_and_gives_a_report(tmp_path, params, old, new, callee):
    apk = _patched_call_apk(tmp_path, params, old, new)
    model = load_app_code(open_apk(apk))
    g = build_callgraph(model)
    assert g.callees("Lx/app/Main;->run()V") == (callee,)
    assert callee in _internal(model)
    report = analyze_apk(apk)
    assert report.package == "x.app"
    assert any("adler32 checksum mismatch" in w for w in report.warnings)  # from the patch


def _chain_model(n):
    """m0 -> m1 -> ... -> m(n-1) -> La/Ext;->sink()V"""
    w = DexWriter()
    calls = {i: f"La/C;->m{i + 1}()V" for i in range(n - 1)}
    methods = []
    for i in range(n):
        callee = calls.get(i, "La/Ext;->sink()V")
        methods.append(_ret_void(f"m{i}", [("invoke-virtual", [3], callee)]))
    w.add_class("La/C;", methods=methods)
    return parse_dex(w.build())


def test_reachable_hits_depth_bound_and_witness():
    m = _chain_model(4)  # m0..m3, sink invoked from m3 (3 hops from m0)
    g = build_callgraph(m)
    roots = {"La/C;->m0()V"}
    target = {"La/Ext;->sink()V"}
    assert reachable_hits(g, roots, target, depth=2) == []
    hits = reachable_hits(g, roots, target, depth=3)
    assert hits == [(
        "La/C;->m0()V",
        "La/Ext;->sink()V",
        ["La/C;->m0()V", "La/C;->m1()V", "La/C;->m2()V", "La/C;->m3()V"],
    )]


def test_reachable_hits_shortest_witness():
    w = DexWriter()
    w.add_class("La/S;", methods=[
        _ret_void("root", [
            ("invoke-virtual", [3], "La/S;->long1()V"),
            ("invoke-virtual", [3], "La/S;->direct()V"),
        ]),
        _ret_void("long1", [("invoke-virtual", [3], "La/S;->direct()V")]),
        _ret_void("direct", [("invoke-virtual", [3], "La/Ext;->hit()V")]),
    ])
    g = build_callgraph(parse_dex(w.build()))
    hits = reachable_hits(g, {"La/S;->root()V"}, {"La/Ext;->hit()V"}, depth=5)
    assert len(hits) == 1
    assert hits[0][2] == ["La/S;->root()V", "La/S;->direct()V"]


def test_a_key_listed_twice_keeps_its_first_definition():
    """A concrete ``run()`` that reaches the API through a helper, listed
    again as abstract: every analyser sees the concrete first listing."""
    run, api = "La/R;->run()V", "Landroid/telephony/TelephonyManager;->getDeviceId()Ljava/lang/String;"
    w = DexWriter()
    w.add_class("La/R;", methods=[
        _ret_void("run", [("invoke-virtual", [3], "La/R;->helper()V")]),
        _ret_void("helper", [("invoke-virtual", [3], api)]),
        MethodDef("run", (), "V", access=ACC_PUBLIC | ACC_ABSTRACT),
    ])
    model = parse_dex(w.build())
    assert model.warnings == [f"duplicate method {run} (first definition wins)"]
    assert model.method(run).is_concrete
    assert model.classes["La/R;"].methods == list(model.all_methods())  # the same objects
    g = build_callgraph(model)
    assert reachable_hits(g, {run}, {api}, depth=1) == [(run, api, [run, "La/R;->helper()V"])]


def test_reachable_hits_monotone_in_depth():
    m = _chain_model(6)
    g = build_callgraph(m)
    roots = {"La/C;->m0()V"}
    targets = {"La/Ext;->sink()V"}
    prev: set = set()
    for depth in range(0, 7):
        now = {(r, t) for r, t, _p in reachable_hits(g, roots, targets, depth)}
        assert prev <= now
        prev = now
    assert prev  # eventually found


# ---------------------------------------------------------------- code index


def _raw_model(seed):
    """Every opcode twice, with in-range and out-of-range refs (an invoke whose
    method index is out of range has ``REF`` None), the three payloads, an
    unknown payload ident and the unused-* opcodes."""
    units = _raw_units(random.Random(seed), _writer_pools(_raw_writer(5)))
    return parse_dex(_raw_dex(units)[0])


def _abstract_with_code_model():
    """A malformed abstract method that still has a code item, next to a
    concrete caller of the same names."""
    body = [
        ("const-string", [0], "su -c reboot"),
        ("const-string", [0], "su -c reboot"),
        ("invoke-static", [0], "Ljava/lang/Runtime;->exec(Ljava/lang/String;)V"),
        ("sget-object", [0], "La/Abs;->f:Ljava/lang/String;"),
        ("sput-object", [0], "La/Abs;->g:Ljava/lang/String;"),
        ("return-void", []),
    ]
    w = DexWriter()
    w.add_class("La/Abs;", methods=[
        MethodDef("odd", (), "V", access=ACC_PUBLIC | ACC_ABSTRACT, registers=2, code=body),
        _ret_void("run", [("invoke-virtual", [1], "La/Abs;->odd()V")]),
    ])
    return parse_dex(w.build())


def test_odd_fixtures_hold_what_the_index_must_cover():
    raw = [ins for m in _raw_model(1).all_methods() for ins in m.instructions]
    assert any(ins[OPCODE] in INVOKES and ins[REF] is None for ins in raw)
    assert any(mnemonic(ins[OPCODE]).endswith("-payload") for ins in raw)
    assert any(mnemonic(ins[OPCODE]).startswith("unused-") for ins in raw)
    odd = _abstract_with_code_model().method("La/Abs;->odd()V")
    assert odd.access_flags & ACC_ABSTRACT and odd.instructions


@pytest.mark.parametrize("model", [
    _raw_model(1), _raw_model(2), _abstract_with_code_model(), _hierarchy_model(),
], ids=["raw1", "raw2", "abstract-with-code", "hierarchy"])
def test_index_equals_oracle(model):
    g = build_callgraph(model)
    assert g.index == code_index_oracle(model)
    assert g.edges == callgraph_edges_oracle(model)
    internal = _internal(model)
    assert g.nodes() == internal | {t for _c, t, _s in g.edges}
    for key in internal:
        expected = sorted({t for c, t, _s in g.edges if c == key})
        assert list(g.callees(key)) == expected


def test_index_covers_an_abstract_method_with_code():
    model = _abstract_with_code_model()
    g = build_callgraph(model)
    odd = model.method("La/Abs;->odd()V")
    sites, strings, reads = g.index[odd]
    assert [ref for _, ref, _ in sites] == ["Ljava/lang/Runtime;->exec(Ljava/lang/String;)V"]
    assert strings == ("su -c reboot",)
    assert reads == ("La/Abs;->f:Ljava/lang/String;",)
    # an abstract method's sites are no edges: it never runs
    assert "La/Abs;->odd()V" not in g.adjacency
    assert g.callees("La/Abs;->run()V") == ("La/Abs;->odd()V",)


def test_index_equals_oracle_on_corpus(corpus):
    for name, path in corpus.items():
        model = load_app_code(open_apk(path))
        assert build_callgraph(model).index == code_index_oracle(model), name


class _CountingList(list):
    """An instruction list that counts the walks over it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_each_method_is_walked_once_and_only_taint_walks_again(corpus, monkeypatch):
    analyzed = []
    analyze = leaks._Engine._analyze

    def counting_analyze(self, m):
        analyzed.append(m)
        return analyze(self, m)

    monkeypatch.setattr(leaks._Engine, "_analyze", counting_analyze)
    rules, apis, spec = load_rules(), load_sensitive_apis(), leaks.load_taint_spec()
    checked = 0
    for name, path in corpus.items():
        art = open_apk(path)
        try:
            man = build_manifest(decode_axml(read_entry(art, "AndroidManifest.xml")))
            code = load_app_code(art)
        except (ApkAuditError, KeyError):
            continue
        methods = [m for cls in code.classes.values() for m in cls.methods]
        for m in methods:
            m.instructions = _CountingList(m.instructions)

        g = build_callgraph(code)
        assert {m.instructions.walks for m in methods} == {1}, name
        scan_behaviors(code, man, rules, g)
        audit_components(man, code, g, apis)
        assert {m.instructions.walks for m in methods} == {1}, name
        analyzed.clear()
        leaks.analyze_leaks(code, g, spec)
        assert sum(m.instructions.walks - 1 for m in methods) == len(analyzed) > 0, name
        checked += 1
    assert checked >= 10
