import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apkaudit import leaks
from apkaudit.callgraph import build_callgraph
from apkaudit.dex import OPCODE, REF, opcodes
from apkaudit.dex.opcodes import EFFECTS, FIELD_READS, INVOKES, OPCODES
from apkaudit.dex.parser import parse_dex
from apkaudit.leaks import (
    LeakFinding,
    TaintSpec,
    analyze_leaks,
    load_taint_spec,
)
from apkaudit.leaks import _susi_to_key

from .conftest import raises_code
from .fixtures.dex_writer import ACC_PUBLIC, ACC_STATIC, DexWriter, MethodDef
from .oracles import leak_findings_as_tuples, taint_oracle

SRC = "Landroid/telephony/TelephonyManager;->getDeviceId()Ljava/lang/String;"
SINK = "Landroid/util/Log;->d(Ljava/lang/String;)I"


# ---------------------------------------------------------------- spec parsing

def test_susi_signature_conversion():
    assert _susi_to_key(
        "android.telephony.TelephonyManager: java.lang.String getDeviceId()"
    ) == SRC
    assert _susi_to_key(
        "com.x.Y: byte[] f(int, java.lang.String[])"
    ) == "Lcom/x/Y;->f(I[Ljava/lang/String;)[B"


def test_load_spec_both_forms(tmp_path):
    p = tmp_path / "spec.txt"
    p.write_text(
        "# comment\n"
        "<a.B: void go(int)> -> _SOURCE_:imei\n"
        "La/C;->put* -> _SINK_:log\n"
        "La/D;->raw -> _SINK_\n"
        "La/E;->any -> _SOURCE_\n"
    )
    spec = load_taint_spec(p)
    assert spec.warnings == []
    assert ("La/B;->go(I)V", "imei") in spec.sources
    assert ("La/E;->any", "sensitive") in spec.sources  # default label
    assert ("La/C;->put*", "log") in spec.sinks
    assert ("La/D;->raw", "network") in spec.sinks  # default channel
    assert spec.match_source("La/B;->go(I)V") == "imei"
    assert spec.match_sink("La/C;->putString(Ljava/lang/String;)V") == "log"


def test_load_spec_bad_lines_warn_with_lineno(tmp_path):
    p = tmp_path / "spec.txt"
    p.write_text(
        "La/A;->ok -> _SINK_:log\n"
        "no arrow here\n"
        "La/B;->x -> _NEITHER_\n"
        "La/C;->y -> _SINK_:bogus_channel\n"
        "not-a-key -> _SOURCE_\n"
    )
    spec = load_taint_spec(p)
    assert len(spec.sinks) == 1 and spec.sources == []
    assert [w.split(":")[1] for w in spec.warnings] == ["2", "3", "4", "5"]
    assert "unknown channel" in spec.warnings[2]


def test_empty_spec_is_fatal(tmp_path):
    p = tmp_path / "spec.txt"
    p.write_text("# nothing but comments\n\n")
    with raises_code("data.taint_spec"):
        load_taint_spec(p)


def test_default_spec_loads():
    spec = load_taint_spec()
    assert spec.match_source(SRC) == "imei"
    assert spec.match_sink(SINK) == "log"
    assert spec.warnings == []


# ---------------------------------------------------------------- engine

def _run(writer, depth=5, spec=None):
    spec = spec or load_taint_spec()
    code = parse_dex(writer.build())
    g = build_callgraph(code)
    return code, analyze_leaks(code, g, spec, depth)


def _direct_model():
    w = DexWriter()
    w.add_class("Lt/L;", methods=[MethodDef("m", (), "V", registers=4, code=[
        ("invoke-virtual", [3], SRC),
        ("move-result-object", [0]),
        ("invoke-static", [0], SINK),
        ("return-void", []),
    ])])
    return w


def test_direct_same_method_leak():
    _, found = _run(_direct_model())
    assert len(found) == 1
    f = found[0]
    assert (f.source, f.sink, f.channel, f.data_kind) == (SRC, SINK, "log", "imei")
    assert f.source_site == ("Lt/L;->m()V", 0)
    assert f.sink_site == ("Lt/L;->m()V", 4)  # invoke(3 units) + move-result(1)
    assert f.path == ("Lt/L;->m()V",)


def _return_flow_model():
    w = DexWriter()
    w.add_class("Lt/R;", methods=[
        MethodDef("src", (), "Ljava/lang/String;", registers=3, code=[
            ("invoke-virtual", [2], SRC),
            ("move-result-object", [0]),
            ("return-object", [0]),
        ]),
        MethodDef("m", (), "V", registers=3, code=[
            ("invoke-virtual", [2], "Lt/R;->src()Ljava/lang/String;"),
            ("move-result-object", [0]),
            ("invoke-static", [0], SINK),
            ("return-void", []),
        ]),
    ])
    return w


def test_return_value_flow():
    _, found = _run(_return_flow_model())
    assert len(found) == 1
    assert found[0].path == ("Lt/R;->src()Ljava/lang/String;", "Lt/R;->m()V")
    assert found[0].source_site[0] == "Lt/R;->src()Ljava/lang/String;"
    assert found[0].sink_site[0] == "Lt/R;->m()V"


def _param_chain_model():
    """a() births the token, passes it through b() into c() where it sinks."""
    w = DexWriter()
    w.add_class("Lt/C;", methods=[
        MethodDef("c", ("Ljava/lang/String;",), "V", registers=3, code=[
            ("invoke-static", [2], SINK),
            ("return-void", []),
        ]),
        MethodDef("b", ("Ljava/lang/String;",), "V", registers=3, code=[
            ("invoke-virtual", [1, 2], "Lt/C;->c(Ljava/lang/String;)V"),
            ("return-void", []),
        ]),
        MethodDef("a", (), "V", registers=3, code=[
            ("invoke-virtual", [2], SRC),
            ("move-result-object", [0]),
            ("invoke-virtual", [2, 0], "Lt/C;->b(Ljava/lang/String;)V"),
            ("return-void", []),
        ]),
    ])
    return w


def test_depth_bound_flips_chain_findings():
    _, shallow = _run(_param_chain_model(), depth=1)
    assert shallow == []
    _, deep = _run(_param_chain_model(), depth=2)
    assert len(deep) == 1
    assert deep[0].path == (
        "Lt/C;->a()V", "Lt/C;->b(Ljava/lang/String;)V", "Lt/C;->c(Ljava/lang/String;)V"
    )


def test_depth_zero_disables_interprocedural():
    w = DexWriter()
    w.add_class("Lt/D;", methods=[
        MethodDef("send", ("Ljava/lang/String;",), "V", registers=3, code=[
            ("invoke-static", [2], SINK),
            ("return-void", []),
        ]),
        MethodDef("m", (), "V", registers=3, code=[
            ("invoke-virtual", [2], SRC),
            ("move-result-object", [0]),
            ("invoke-virtual", [2, 0], "Lt/D;->send(Ljava/lang/String;)V"),
            ("return-void", []),
        ]),
    ])
    code = parse_dex(w.build())
    g = build_callgraph(code)
    spec = load_taint_spec()
    assert analyze_leaks(code, g, spec, depth=0) == []
    found = analyze_leaks(code, g, spec, depth=1)
    assert len(found) == 1
    assert found[0].path == ("Lt/D;->m()V", "Lt/D;->send(Ljava/lang/String;)V")


def _field_flow_model():
    w = DexWriter()
    w.add_class("Lt/F;", methods=[
        MethodDef("store", (), "V", registers=3, code=[
            ("invoke-virtual", [2], SRC),
            ("move-result-object", [0]),
            ("sput-object", [0], "Lt/F;->buf:Ljava/lang/String;"),
            ("return-void", []),
        ]),
        MethodDef("read", (), "V", registers=3, code=[
            ("sget-object", [0], "Lt/F;->buf:Ljava/lang/String;"),
            ("invoke-static", [0], SINK),
            ("return-void", []),
        ]),
    ])
    return w


def test_field_store_links_writer_and_reader():
    _, found = _run(_field_flow_model())
    assert len(found) == 1
    assert found[0].path == ("Lt/F;->store()V", "Lt/F;->read()V")


def _builder_and_kill_model():
    w = DexWriter()
    w.add_class("Lt/B;", methods=[
        MethodDef("m", (), "V", registers=4, code=[
            ("invoke-virtual", [3], SRC),
            ("move-result-object", [0]),
            ("new-instance", [1], "Ljava/lang/StringBuilder;"),
            ("invoke-virtual", [1, 0],
             "Ljava/lang/StringBuilder;->append(Ljava/lang/String;)Ljava/lang/StringBuilder;"),
            ("invoke-static", [1], SINK),
            ("return-void", []),
        ]),
        MethodDef("k", (), "V", registers=4, code=[
            ("invoke-virtual", [3], SRC),
            ("move-result-object", [0]),
            ("const-string", [0], "clean"),
            ("invoke-static", [0], SINK),
            ("return-void", []),
        ]),
    ])
    return w


def test_builder_receiver_taint_and_const_kill():
    _, found = _run(_builder_and_kill_model())
    assert len(found) == 1  # m leaks through the builder, k's taint was killed
    assert found[0].sink_site[0] == "Lt/B;->m()V"


def test_dedup_same_flow_from_two_call_sites():
    w = DexWriter()
    w.add_class("Lt/D2;", methods=[
        MethodDef("send", ("Ljava/lang/String;",), "V", registers=3, code=[
            ("invoke-static", [2], SINK),
            ("return-void", []),
        ]),
        MethodDef("m", (), "V", registers=3, code=[
            ("invoke-virtual", [2], SRC),
            ("move-result-object", [0]),
            ("invoke-virtual", [2, 0], "Lt/D2;->send(Ljava/lang/String;)V"),
            ("invoke-virtual", [2, 0], "Lt/D2;->send(Ljava/lang/String;)V"),
            ("return-void", []),
        ]),
    ])
    _, found = _run(w)
    # both call sites reach the same (source site, sink site) pair
    assert len(found) == 1


def test_output_sorted():
    _, found = _run(_param_chain_model())
    assert [f.sort_key() for f in found] == sorted(f.sort_key() for f in found)


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 5])
def test_oracle_equality_on_models(depth):
    spec = load_taint_spec()
    for make in (
        _direct_model,
        _return_flow_model,
        _param_chain_model,
        _field_flow_model,
        _builder_and_kill_model,
    ):
        code = parse_dex(make().build())
        g = build_callgraph(code)
        got = leak_findings_as_tuples(analyze_leaks(code, g, spec, depth))
        assert got == taint_oracle(code, spec, depth), (make.__name__, depth)


NT_MID = "Lt/N;->mid(Ljava/lang/String;)Ljava/lang/String;"
NT_M = "Lt/N;->m()V"


def _no_target_code(tainted: bool):
    code = [("invoke-virtual", [3], SRC)]  # result discarded unless moved to v1
    if tainted:
        code.append(("move-result-object", [1]))
    return code + [
        ("invoke-virtual", [2, 1], NT_MID),  # the call under test, receiver v2
        ("move-result-object", [0]),
        ("invoke-static", [0], SINK),  # the call's result
        ("invoke-static", [2], SINK),  # its receiver
        ("return-void", []),
    ]


@pytest.mark.parametrize("tainted", [False, True])
@pytest.mark.parametrize("opcode", [None, "invoke-virtual", "invoke-custom"])
def test_a_call_with_no_target_is_opaque(opcode, tainted):
    """``opcode`` None keeps the real target, an external opaque callee.
    Otherwise the call's ref becomes None, as for invoke-custom or an
    out-of-range method index: its result is the union of its argument taint,
    it writes no receiver, and it never yields an earlier call's result."""
    w = DexWriter()
    w.add_class("Lt/N;", methods=[
        MethodDef("m", (), "V", registers=4, code=_no_target_code(tainted)),
    ])
    code = parse_dex(w.build())
    [m] = [m for m in code.all_methods() if m.key == NT_M]
    if opcode is not None:
        [i] = [i for i, ins in enumerate(m.instructions) if ins[REF] == NT_MID]
        ins = m.instructions[i]
        op = next(c for c, (name, _, _) in OPCODES.items() if name == opcode)
        m.instructions[i] = (ins[0], op, ins[2], None, *ins[4:])
    g = build_callgraph(code)
    spec = load_taint_spec()
    found = analyze_leaks(code, g, spec)
    sinks = [f.sink_site[1] for f in found]
    call_result, receiver = [ins[0] for ins in m.instructions if ins[REF] == SINK]
    if not tainted:
        assert sinks == []
    elif opcode is None:
        assert sinks == [call_result, receiver]
    else:
        assert sinks == [call_result]
    for depth in (0, 1, 5):
        got = leak_findings_as_tuples(analyze_leaks(code, g, spec, depth))
        assert got == taint_oracle(code, spec, depth), depth


PROP_CLASS = "Lt/H;"
PROP_EXTERNAL = "Ljava/lang/StringBuilder;->append(Ljava/lang/String;)Ljava/lang/StringBuilder;"
PROP_FIELDS = ("Lt/H;->f0:Ljava/lang/String;", "Lt/H;->f1:Ljava/lang/String;")
_PROP_REG = st.integers(0, 1)
_PROP_STEPS = ("source", "sink", "call", "external", "move", "const", "put", "get",
               "aput-object", "aget-object", "add-int", "add-int/2addr", "add-int/lit8", "cmp-long",
               "filled-new-array")


def _prop_method(i: int) -> str:
    return f"{PROP_CLASS}->h{i}(Ljava/lang/String;)Ljava/lang/String;"


@st.composite
def _acyclic_apps(draw):
    """Static methods h0..hn-1 of one String parameter (v1), each calling
    only later ones, with random source, sink, external, move, const,
    static-field, array, arithmetic and compare steps.  Source and in-app
    calls move their result to a register, an external call and
    filled-new-array only sometimes."""
    n = draw(st.integers(1, 5))
    methods = []
    for i in range(n):
        code = []
        for _ in range(draw(st.integers(1, 10))):
            step = draw(st.sampled_from(_PROP_STEPS))
            x, y, z = draw(_PROP_REG), draw(_PROP_REG), draw(_PROP_REG)
            if step in ("aput-object", "aget-object", "add-int", "cmp-long"):
                code.append((step, [x, y, z]))
            elif step == "add-int/2addr":
                code.append((step, [x, y]))
            elif step == "add-int/lit8":
                code.append((step, [x, y], 1))
            elif step == "filled-new-array":
                code.append((step, [x, y], "[Ljava/lang/String;"))
                if draw(st.booleans()):
                    code.append(("move-result-object", [z]))
            elif step == "move":
                code.append(("move-object", [x, y]))
            elif step == "const":
                code.append(("const-string", [x], "clean"))
            elif step in ("put", "get"):
                code.append((f"s{step}-object", [x], draw(st.sampled_from(PROP_FIELDS))))
            elif step == "sink":
                code.append(("invoke-static", [x], SINK))
            elif step == "external":
                code.append(("invoke-virtual", [x, y], PROP_EXTERNAL))
                if draw(st.booleans()):
                    code.append(("move-result-object", [draw(_PROP_REG)]))
            elif step == "source":
                code += [("invoke-virtual", [x], SRC), ("move-result-object", [y])]
            elif i + 1 < n:
                callee = _prop_method(draw(st.integers(i + 1, n - 1)))
                code += [("invoke-static", [x], callee), ("move-result-object", [y])]
        code.append(("return-object", [draw(_PROP_REG)]))
        methods.append(MethodDef(f"h{i}", ("Ljava/lang/String;",), "Ljava/lang/String;",
                                 access=ACC_PUBLIC | ACC_STATIC, registers=2, code=code))
    w = DexWriter()
    w.add_class(PROP_CLASS, methods=methods)
    return w.build()


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(dex=_acyclic_apps())
def test_engine_matches_the_inlining_oracle_on_random_acyclic_apps(dex):
    spec = load_taint_spec()
    code = parse_dex(dex)
    g = build_callgraph(code)
    for depth in (0, 1, 2, 5):
        got = leak_findings_as_tuples(analyze_leaks(code, g, spec, depth))
        assert got == taint_oracle(code, spec, depth), depth


# ---------------------------------------------------------------- fixpoint

FIX_FIELD = "Lt/Fix;->buf:Ljava/lang/String;"
FIX_A = "Lt/Fix;->a()Ljava/lang/String;"
FIX_B = "Lt/Fix;->b()Ljava/lang/String;"
FIX_C = "Lt/Fix;->c()Ljava/lang/String;"
FIX_D = "Lt/Fix;->d()V"
FIX_E = "Lt/Fix;->e()V"
FIX_K = "Lt/Fix;->k()V"
FIX_M = "Lt/Fix;->m()V"


def _fixpoint_model():
    """Findings that are right only after the second summary pass: each
    cycle's callee is ordered after its caller, and c reads the field
    before its writer d is analysed."""
    w = DexWriter()
    s = ("Ljava/lang/String;",)
    w.add_class("Lt/Fix;", methods=[
        # a <-> b: b returns a's source, which k sinks
        MethodDef("a", (), "Ljava/lang/String;", registers=3, code=[
            ("invoke-virtual", [2], SRC),
            ("move-result-object", [0]),
            ("invoke-virtual", [2], FIX_B),
            ("return-object", [0]),
        ]),
        MethodDef("b", (), "Ljava/lang/String;", registers=3, code=[
            ("invoke-virtual", [2], FIX_A),
            ("move-result-object", [0]),
            ("return-object", [0]),
        ]),
        MethodDef("k", (), "V", registers=3, code=[
            ("invoke-virtual", [2], FIX_B),
            ("move-result-object", [0]),
            ("invoke-static", [0], SINK),
            ("return-void", []),
        ]),
        MethodDef("c", (), "Ljava/lang/String;", registers=3, code=[
            ("sget-object", [0], FIX_FIELD),
            ("invoke-static", [0], SINK),
            ("return-object", [0]),
        ]),
        MethodDef("d", (), "V", registers=3, code=[
            ("invoke-virtual", [2], SRC),
            ("move-result-object", [0]),
            ("sput-object", [0], FIX_FIELD),
            ("return-void", []),
        ]),
        MethodDef("m", (), "V", registers=3, code=[
            ("invoke-virtual", [2], FIX_C),
            ("move-result-object", [0]),
            ("invoke-static", [0], SINK),
            ("return-void", []),
        ]),
        MethodDef("e", (), "V", registers=3, code=[
            ("invoke-virtual", [2], SRC),
            ("move-result-object", [0]),
            ("invoke-static", [0], SINK),
            ("return-void", []),
        ]),
        # n <-> p: p first sees n as opaque, so r's source seems to reach the
        # sink in p; n returns a constant, so the second pass drops that leak
        MethodDef("n", s, "Ljava/lang/String;", registers=3, code=[
            ("const-string", [0], "clean"),
            ("invoke-virtual", [1, 0], "Lt/Fix;->p(Ljava/lang/String;)V"),
            ("return-object", [0]),
        ]),
        MethodDef("p", s, "V", registers=3, code=[
            ("invoke-virtual", [1, 2], "Lt/Fix;->n(Ljava/lang/String;)Ljava/lang/String;"),
            ("move-result-object", [0]),
            ("invoke-static", [0], SINK),
            ("return-void", []),
        ]),
        MethodDef("r", (), "V", registers=3, code=[
            ("invoke-virtual", [2], SRC),
            ("move-result-object", [0]),
            ("invoke-virtual", [2, 0], "Lt/Fix;->p(Ljava/lang/String;)V"),
            ("return-void", []),
        ]),
    ])
    return w


def _leak(source_site, sink_site, *path):
    return LeakFinding(SRC, SINK, "log", source_site, sink_site, path, "imei")


# recorded from the engine that re-analysed every method in every pass
_FIXPOINT_D1 = [
    _leak((FIX_D, 0), (FIX_C, 2), FIX_D, FIX_C),
    _leak((FIX_E, 0), (FIX_E, 4), FIX_E),
]
_FIXPOINT_D2 = [
    _leak((FIX_A, 0), (FIX_K, 4), FIX_A, FIX_B, FIX_K),
    _leak((FIX_D, 0), (FIX_C, 2), FIX_D, FIX_C),
    _leak((FIX_D, 0), (FIX_M, 4), FIX_D, FIX_C, FIX_M),
    _leak((FIX_E, 0), (FIX_E, 4), FIX_E),
]


@pytest.mark.parametrize("depth, expected", [(1, _FIXPOINT_D1), (2, _FIXPOINT_D2), (5, _FIXPOINT_D2)])
def test_fixpoint_model_exact_findings(depth, expected):
    _, found = _run(_fixpoint_model(), depth=depth)
    assert found == expected


def test_fixpoint_skips_clean_methods_and_matches_each_target_once(monkeypatch):
    analyzed: list[str] = []
    analyze = leaks._Engine._analyze

    def counting_analyze(self, m):
        analyzed.append(m.key)
        return analyze(self, m)

    matched: list[tuple[str, str]] = []

    def counting(name):
        match = getattr(TaintSpec, name)

        def wrapper(self, key):
            matched.append((name, key))
            return match(self, key)

        return wrapper

    monkeypatch.setattr(leaks._Engine, "_analyze", counting_analyze)
    for name in ("match_sink", "match_source"):
        monkeypatch.setattr(TaintSpec, name, counting(name))
    code, _ = _run(_fixpoint_model())

    methods = [m for m in code.all_methods() if m.is_concrete]
    order = analyzed[: len(methods)]  # the first pass analyses every method once, in order
    assert sorted(order) == sorted(m.key for m in methods)
    second: list[str] = []
    for key in analyzed[len(methods):]:
        if second and order.index(key) <= order.index(second[-1]):
            break  # the third pass starts over
        second.append(key)
    assert 0 < len(second) < len(methods)

    targets = {ins[REF] for m in methods for ins in m.instructions if ins[OPCODE] in INVOKES}
    assert len(matched) == len(set(matched))
    assert {key for _, key in matched} <= targets


def test_no_analysis_after_the_sweep_converges(monkeypatch):
    """Replays the sweep's dirty rule over the recorded outputs of each
    analysis: once no method is dirty, no method is analysed again."""
    calls: list[tuple] = []  # (method key, summary, field writes) per analysis
    analyze = leaks._Engine._analyze

    def recording(self, m):
        out = analyze(self, m)
        calls.append((m.key, out[0], out[1]))
        return out

    monkeypatch.setattr(leaks._Engine, "_analyze", recording)
    monkeypatch.setattr(leaks, "SUMMARY_ITERATIONS", 10)  # the model converges in 5 sweeps
    code = parse_dex(_fixpoint_model().build())
    g = build_callgraph(code)
    analyze_leaks(code, g, load_taint_spec())

    methods = [m for m in code.all_methods() if m.is_concrete]
    order = [key for key, _, _ in calls[: len(methods)]]
    callers: dict[str, set[str]] = {}
    readers: dict[str, set[str]] = {}
    for m in methods:
        sites, _, reads = g.index[m]
        for _, target, _ in sites:
            callers.setdefault(target, set()).add(m.key)
        for fk in reads:
            readers.setdefault(fk, set()).add(m.key)
    dirty, summaries, store, sweep = set(order), {}, {}, []
    while dirty:
        for key in order:
            if key not in dirty:
                continue
            dirty.discard(key)
            sweep.append(key)
            _, summary, writes = calls[len(sweep) - 1]
            if summaries.get(key) != summary:
                summaries[key] = summary
                dirty |= callers.get(key, set())
            for fk, tokens in writes.items():
                if not tokens <= store.setdefault(fk, set()):
                    store[fk] |= tokens
                    dirty |= readers.get(fk, set())
    assert [key for key, _, _ in calls] == sweep


@pytest.mark.parametrize("iterations", [1, 2, 3])
@pytest.mark.parametrize("depth", [1, 2, 5])
def test_findings_equal_a_final_pass_over_every_sink_reaching_method(monkeypatch, iterations, depth):
    """With the sweep cut short, the kept findings plus those of the methods
    still dirty equal a final analysis of every method that calls a
    sink-reaching target, against the final summaries and field store."""
    monkeypatch.setattr(leaks, "SUMMARY_ITERATIONS", iterations)
    code = parse_dex(_fixpoint_model().build())
    g = build_callgraph(code)
    engine = leaks._Engine(code, g, load_taint_spec(), depth)
    found = engine.run()
    empty = [s for s in engine.summaries.values() if s == leaks.Summary()]
    assert empty and all(s is leaks._NO_SUMMARY for s in empty)

    final: dict[tuple, LeakFinding] = {}
    for m in sorted((m for m in code.all_methods() if m.is_concrete), key=lambda m: m.key):
        if any(engine._reaches_sink(target) for _, target, _ in g.index[m][0]):
            for f in engine._analyze(m)[2]:
                flow = f.sort_key()
                if flow not in final or (len(f.path), f.path) < (len(final[flow].path), final[flow].path):
                    final[flow] = f
    assert found == sorted(final.values(), key=LeakFinding.sort_key)


# the register effect of every opcode (sha256 b56dfbf88c54c485...), as the
# taint engine classified the mnemonics before the effect became a column
# of the opcode table
_EFFECTS_HEX = (
    "0001010101010101010102020205000606060505050505050505050505000000"
    "050105050c0c000000000000000b0b0b0b0b0000000000000000000000000000"
    "0000000001010101010101090909090909090707070707070708080808080808"
    "0707070707070708080808080808030303040300030303040300000101010101"
    "010101010101010101010101010101010b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b"
    "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a"
    "0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a01010101010101010101010101010101"
    "0101010000000000000000000000000000000000000000000000030304040505"
)


def test_effects_column_keeps_every_opcode_register_effect():
    assert EFFECTS.hex() == _EFFECTS_HEX
    for code in range(256):
        if OPCODES[code][0].startswith("unused-"):
            assert EFFECTS[code] == opcodes.NONE, OPCODES[code][0]
    # every payload ident the parser can produce: a nonzero unit with low byte 0x00
    for ident in range(0x100, 0x10000, 0x100):
        assert EFFECTS[ident & 0xFF] == opcodes.NONE


def test_code_index_and_effects_agree_on_calls_and_field_reads():
    """The fixpoint marks a method dirty through the code index's call sites
    and field reads, while ``_analyze`` acts on the effects: a call or read
    the one sees and the other does not would leave findings stale."""
    assert FIELD_READS == {c for c in range(256) if EFFECTS[c] == opcodes.FIELD_GET}
    calls = {c for c in range(256) if EFFECTS[c] in (opcodes.INVOKE, opcodes.INVOKE_STATIC)}
    assert INVOKES < calls
    # invoke-custom refers to a call site, not a method: no target to index
    assert sorted(OPCODES[c] for c in calls - INVOKES) == [
        ("invoke-custom", "35c", "none"), ("invoke-custom/range", "3rc", "none"),
    ]


# ---------------------------------------------------------------- witnesses

WIT_SRC = "Lt/W;->src()Ljava/lang/String;"
WIT_MAIN = "Lt/W;->main()V"
WIT_HELPERS = "fbdahgce"  # not in key order


def _wit_helper(name: str) -> str:
    return f"Lt/W;->{name}()Ljava/lang/String;"


def _returns_call(target: str) -> list:
    return [("invoke-virtual", [2], target), ("move-result-object", [0]), ("return-object", [0])]


def _witness_model():
    """Eight helpers return the one source call of src to main's sink, so
    the flow has eight witnesses of equal length."""
    main = [("new-instance", [1], "Ljava/lang/StringBuilder;")]
    for name in WIT_HELPERS:
        main += [
            ("invoke-virtual", [2], _wit_helper(name)),
            ("move-result-object", [0]),
            ("invoke-virtual", [1, 0],
             "Ljava/lang/StringBuilder;->append(Ljava/lang/String;)Ljava/lang/StringBuilder;"),
        ]
    main += [("invoke-static", [1], SINK), ("return-void", [])]
    w = DexWriter()
    w.add_class("Lt/W;", methods=[
        MethodDef("src", (), "Ljava/lang/String;", registers=3, code=_returns_call(SRC)),
        *(MethodDef(name, (), "Ljava/lang/String;", registers=3, code=_returns_call(WIT_SRC))
          for name in WIT_HELPERS),
        MethodDef("main", (), "V", registers=3, code=main),
    ])
    return w


_WITNESS_SCRIPT = """
import json, sys
from apkaudit.callgraph import build_callgraph
from apkaudit.dex.parser import parse_dex
from apkaudit.leaks import analyze_leaks, load_taint_spec
with open(sys.argv[1], "rb") as f:
    code = parse_dex(f.read())
found = analyze_leaks(code, build_callgraph(code), load_taint_spec())
print(json.dumps([[f.source_site, f.sink_site, f.path] for f in found]))
"""


def test_witness_is_the_least_path_under_any_hash_seed(tmp_path):
    blob = tmp_path / "classes.dex"
    blob.write_bytes(_witness_model().build())
    env = {**os.environ, "PYTHONPATH": str(Path(leaks.__file__).parents[1])}
    outputs = {
        subprocess.run(
            [sys.executable, "-c", _WITNESS_SCRIPT, str(blob)],
            env={**env, "PYTHONHASHSEED": str(seed)},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in range(6)
    }
    assert len(outputs) == 1, outputs
    [(source_site, _sink_site, path)] = json.loads(outputs.pop())
    assert source_site == [WIT_SRC, 0]
    assert path == [WIT_SRC, _wit_helper("a"), WIT_MAIN]
