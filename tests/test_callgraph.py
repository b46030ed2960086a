from apkaudit.callgraph import REFLECTIVE_NODE, build_callgraph, reachable_hits
from apkaudit.container import open_apk
from apkaudit.dex import load_app_code
from apkaudit.dex.parser import parse_dex

from .fixtures.dex_writer import ACC_ABSTRACT, ACC_INTERFACE, ACC_PUBLIC, DexWriter, MethodDef
from .oracles import callgraph_edges_oracle


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


def test_interface_reflective_and_external():
    g = build_callgraph(_hierarchy_model())
    targets = {t for c, t, _s in g.edges if c == "La/Caller;->fire()V"}
    assert targets == {"La/Impl;->on()V", "La/Util;->log()V", REFLECTIVE_NODE}
    assert "La/Util;->log()V" in g.external
    assert REFLECTIVE_NODE in g.external
    assert REFLECTIVE_NODE not in g.adjacency  # no outgoing edges


def test_graph_equals_oracle_on_corpus(corpus):
    for name, path in corpus.items():
        model = load_app_code(open_apk(path))
        g = build_callgraph(model)
        assert g.edges == callgraph_edges_oracle(model), name


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
