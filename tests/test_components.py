from apkaudit.axml import decode_axml
from apkaudit.callgraph import build_callgraph
from apkaudit.components import audit_components, class_to_descriptor, load_sensitive_apis
from apkaudit.dex import KeyMatcher
from apkaudit.dex.parser import parse_dex
from apkaudit.manifest import build_manifest

from .fixtures.corpus import GET_DEVICE_ID, component, manifest
from .fixtures.dex_writer import DexWriter, MethodDef


def test_match_key_pattern():
    key = "La/B;->get(I)Ljava/lang/String;"

    def matches(pattern):
        return KeyMatcher([(pattern, "hit")]).match(key) == "hit"

    assert matches(key)
    assert matches("La/B;->*")
    assert matches("La/B;->ge*")
    assert matches("La/B;->get")  # proto-insensitive
    assert not matches("La/B;->getX")
    assert not matches("La/C;->get")
    assert not matches("La/B;->get(J)V")
    # several patterns match: the first listed wins, whatever its kind
    both = [("La/B;->*", "class"), (key, "exact")]
    assert KeyMatcher(both).match(key) == "class"
    assert KeyMatcher(both[::-1]).match(key) == "exact"
    assert KeyMatcher(both).match("La/C;->get()V") is None


def test_api_list_loading(tmp_path):
    p = tmp_path / "apis.txt"
    p.write_text("# comment\nLa/B;->get imei\n\nLa/C;->* location  # trailing\nLa/D;->x\n")
    apis = load_sensitive_apis(p)
    assert apis.match("La/B;->get(I)V") == "imei"
    assert apis.match("La/C;->anything()V") == "location"
    assert apis.match("La/D;->x()V") == "sensitive"  # default label
    assert apis.match("La/E;->y()V") is None


def test_default_api_list_nonempty():
    apis = load_sensitive_apis()
    assert apis.match(GET_DEVICE_ID) == "imei"


def _audit(man_bytes, writer, depth=5, apis=None):
    man = build_manifest(decode_axml(man_bytes))
    code = parse_dex(writer.build())
    g = build_callgraph(code)
    return audit_components(man, code, g, apis or load_sensitive_apis(), depth)


def _writer(cls="Lx/app/Main;", direct_api=GET_DEVICE_ID):
    w = DexWriter()
    w.add_class(cls, methods=[MethodDef("m", (), "V", registers=3, code=[
        ("const/4", [1], 0),
        ("invoke-virtual", [1], direct_api),
        ("return-void", []),
    ])])
    return w


def test_exported_unprotected_direct_hit():
    man = manifest("x.app", components=[component("activity", ".Main", exported=True)])
    findings, warnings = _audit(man, _writer())
    assert warnings == []
    assert len(findings) == 1
    f = findings[0]
    assert f.component_class == "Lx/app/Main;"
    assert f.kind == "activity"
    assert f.sensitive_api == GET_DEVICE_ID
    assert f.containing_method == "Lx/app/Main;->m()V"
    assert f.path == ("Lx/app/Main;->m()V",)
    assert (f.data_kind, f.confidence) == ("imei", "high")


def test_protected_or_unexported_skipped():
    protected = manifest("x.app", components=[
        component("activity", ".Main", exported=True, permission="x.app.P"),
    ])
    assert _audit(protected, _writer())[0] == []
    unexported = manifest("x.app", components=[component("activity", ".Main", exported=False)])
    assert _audit(unexported, _writer())[0] == []


def test_provider_default_export_pre17():
    comp = component("provider", ".Main", authorities="x.app.p")
    man16 = manifest("x.app", components=[comp], target_sdk=16)
    assert len(_audit(man16, _writer())[0]) == 1
    man17 = manifest("x.app", components=[comp], target_sdk=17)
    assert _audit(man17, _writer())[0] == []


def test_inner_classes_are_roots():
    man = manifest("x.app", components=[component("activity", ".Main", exported=True)])
    w = DexWriter()
    w.add_class("Lx/app/Main;", methods=[MethodDef("m", (), "V", registers=2,
                                                   code=[("return-void", [])])])
    w.add_class("Lx/app/Main$Task;", methods=[MethodDef("run", (), "V", registers=3, code=[
        ("const/4", [1], 0),
        ("invoke-virtual", [1], GET_DEVICE_ID),
        ("return-void", []),
    ])])
    w.add_class("Lx/app/MainOther;", methods=[MethodDef("x", (), "V", registers=3, code=[
        ("const/4", [1], 0),
        ("invoke-virtual", [1], GET_DEVICE_ID),
        ("return-void", []),
    ])])
    findings, _ = _audit(man, w)
    assert {f.containing_method for f in findings} == {"Lx/app/Main$Task;->run()V"}


def test_absent_component_class_warns():
    man = manifest("x.app", components=[component("service", ".Ghost", exported=True)])
    w = DexWriter()
    w.add_class("Lx/app/Other;", methods=[MethodDef("m", (), "V", registers=1,
                                                    code=[("return-void", [])])])
    findings, warnings = _audit(man, w)
    assert findings == []
    assert warnings == ["declared component class absent from code: x.app.Ghost"]


def _chain_writer(hops):
    """Main.m -> h1 -> ... -> h<hops> -> sensitive API."""
    w = DexWriter()
    methods = []
    names = ["m"] + [f"h{i}" for i in range(1, hops + 1)]
    for i, name in enumerate(names):
        if i + 1 < len(names):
            call = ("invoke-virtual", [2], f"Lx/app/Main;->{names[i + 1]}()V")
        else:
            call = ("invoke-virtual", [1], GET_DEVICE_ID)
        methods.append(MethodDef(name, (), "V", registers=3, code=[
            ("const/4", [1], 0), call, ("return-void", []),
        ]))
    w.add_class("Lx/app/Main;", methods=methods)
    return w


def test_depth_bounds_call_graph_search():
    man = manifest("x.app", components=[component("activity", ".Main", exported=True)])
    # the API is a direct hit inside h3, which is itself a root (same class),
    # so it is always found; check the reported paths instead
    findings, _ = _audit(man, _chain_writer(3), depth=5)
    assert {f.containing_method for f in findings} == {"Lx/app/Main;->h3()V"}
    assert all(len(f.path) == 1 for f in findings)


def test_depth_bound_for_out_of_class_chain():
    man = manifest("x.app", components=[component("activity", ".Main", exported=True)])
    w = DexWriter()
    w.add_class("Lx/app/Main;", methods=[MethodDef("m", (), "V", registers=3, code=[
        ("invoke-static", [], "Lx/lib/Helper;->a()V"), ("return-void", []),
    ])])
    w.add_class("Lx/lib/Helper;", methods=[
        MethodDef("a", (), "V", registers=3, code=[
            ("invoke-static", [], "Lx/lib/Helper;->b()V"), ("return-void", []),
        ]),
        MethodDef("b", (), "V", registers=3, code=[
            ("const/4", [1], 0),
            ("invoke-virtual", [1], GET_DEVICE_ID),
            ("return-void", []),
        ]),
    ])
    man_model = build_manifest(decode_axml(man))
    code = parse_dex(w.build())
    g = build_callgraph(code)
    apis = load_sensitive_apis()
    shallow, _ = audit_components(man_model, code, g, apis, depth=1)
    assert shallow == []
    deep, _ = audit_components(man_model, code, g, apis, depth=2)
    assert len(deep) == 1
    assert deep[0].path == ("Lx/app/Main;->m()V", "Lx/lib/Helper;->a()V", "Lx/lib/Helper;->b()V")
    assert deep[0].containing_method == "Lx/lib/Helper;->b()V"


def test_direct_hit_excludes_api_only_for_its_own_component():
    man = manifest("x.app", components=[
        component("activity", ".A", exported=True),
        component("activity", ".B", exported=True),
    ])
    helper = "Lx/lib/Helper;->h()V"
    w = DexWriter()
    w.add_class("Lx/app/A;", methods=[MethodDef("m", (), "V", registers=3, code=[
        ("invoke-static", [], helper),
        ("const/4", [1], 0),
        ("invoke-virtual", [1], GET_DEVICE_ID),
        ("return-void", []),
    ])])
    w.add_class("Lx/app/B;", methods=[MethodDef("m", (), "V", registers=3, code=[
        ("invoke-static", [], helper), ("return-void", []),
    ])])
    w.add_class("Lx/lib/Helper;", methods=[MethodDef("h", (), "V", registers=3, code=[
        ("const/4", [1], 0),
        ("invoke-virtual", [1], GET_DEVICE_ID),
        ("return-void", []),
    ])])
    findings, _ = _audit(man, w)
    assert [(f.component_class, f.containing_method, f.path) for f in findings] == [
        ("Lx/app/A;", "Lx/app/A;->m()V", ("Lx/app/A;->m()V",)),
        ("Lx/app/B;", helper, ("Lx/app/B;->m()V", helper)),
    ]


def test_resolver_query_confidence_refinement():
    query = "Landroid/content/ContentResolver;->query(Landroid/net/Uri;)Landroid/database/Cursor;"
    man = manifest("x.app", components=[component("activity", ".Main", exported=True)])
    # bare query: medium confidence, generic label
    bare = _writer(direct_api=query)
    findings, _ = _audit(man, bare)
    assert (findings[0].data_kind, findings[0].confidence) == ("content", "medium")
    # query with a sensitive URI in the same method: pinned and high
    w = DexWriter()
    w.add_class("Lx/app/Main;", methods=[MethodDef("m", (), "V", registers=3, code=[
        ("const-string", [1], "content://call_log/calls"),
        ("const/4", [0], 0),
        ("invoke-virtual", [0, 1], query),
        ("return-void", []),
    ])])
    findings, _ = _audit(man, w)
    assert (findings[0].data_kind, findings[0].confidence) == ("call_log", "high")


def test_class_to_descriptor():
    assert class_to_descriptor("a.b.C") == "La/b/C;"
