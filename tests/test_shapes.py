"""A leak-shape matrix: one small app per code shape, checked through
``analyze_leaks`` with the default source/sink list at the default depth.

Each app reads ``getDeviceId`` and writes it to ``Log.d`` unless its shape
names another sink; ``expected`` is the number of leaks the engine should
report.  A shape the engine misses today is a strict ``xfail`` whose reason
names the ROADMAP item that owns the fix, so the change that fixes it must
drop the mark.  No shape that passes is marked.
"""

import pytest

from apkaudit.callgraph import build_callgraph
from apkaudit.dex.parser import parse_dex
from apkaudit.findings import DEFAULT_DEPTH
from apkaudit.leaks import analyze_leaks, load_taint_spec

from .fixtures.dex_writer import ACC_ABSTRACT, ACC_INTERFACE, ACC_PUBLIC, DexWriter, MethodDef

SRC = "Landroid/telephony/TelephonyManager;->getDeviceId()Ljava/lang/String;"
LOG = "Landroid/util/Log;->d(Ljava/lang/String;)I"
BUFFERED_WRITER = "Ljava/io/BufferedWriter;->write(Ljava/lang/String;)V"
BUFFERED_STREAM = "Ljava/io/BufferedOutputStream;->write([B)V"
STRING = "Ljava/lang/String;"
RETURN = ("return-void", [])


def _method(name, code, params=(), ret="V"):
    """A method whose locals are v0-v2, ``this`` is v3 and parameter i is v(4+i)."""
    return MethodDef(name, params, ret, registers=4 + len(params), code=code)


def _source(reg):
    return [("invoke-virtual", [3], SRC), ("move-result-object", [reg])]


def _sink(reg):
    return [("invoke-static", [reg], LOG)]


def _app(*methods):
    w = DexWriter()
    w.add_class("Lt/A;", methods=list(methods))
    return w


def straight_line():
    return _app(_method("run", [*_source(0), *_sink(0), RETURN]))


def arm_after_join():
    return _app(_method("run", [
        ("const-string", [0], "none"),
        ("if-eqz", [4], ("->", "arm")),
        ("label", "join"),
        *_sink(0),
        RETURN,
        ("label", "arm"),
        *_source(0),
        ("goto", [], ("->", "join")),
    ], params=("Z",)))


def sink_at_loop_head():
    return _app(_method("run", [
        ("const-string", [0], "none"),
        ("label", "head"),
        *_sink(0),
        ("if-eqz", [4], ("->", "done")),
        *_source(0),
        ("goto", [], ("->", "head")),
        ("label", "done"),
        RETURN,
    ], params=("Z",)))


def overwritten_by_a_constant():
    return _app(_method("run", [*_source(0), ("const-string", [0], "none"), *_sink(0), RETURN]))


def static_field():
    field = f"Lt/A;->f:{STRING}"
    return _app(_method("put", [*_source(0), ("sput-object", [0], field), RETURN]),
                _method("get", [("sget-object", [0], field), *_sink(0), RETURN]))


def array_element():
    return _app(_method("run", [
        *_source(0),
        ("const/4", [1], 1),
        ("new-array", [2, 1], f"[{STRING}"),
        ("const/4", [1], 0),
        ("aput-object", [0, 2, 1]),
        ("const-string", [0], "none"),
        ("aget-object", [0, 2, 1]),
        *_sink(0),
        RETURN,
    ]))


def override_through_base():
    w = DexWriter()
    w.add_class("Lt/Base;", methods=[
        _method("get", [("const-string", [0], "none"), ("return-object", [0])], ret=STRING)])
    w.add_class("Lt/Sub;", superclass="Lt/Base;", methods=[
        _method("get", [*_source(0), ("return-object", [0])], ret=STRING)])
    w.add_class("Lt/A;", methods=[_method("run", [
        ("invoke-virtual", [4], f"Lt/Base;->get(){STRING}"),
        ("move-result-object", [0]),
        *_sink(0),
        RETURN,
    ], params=("Lt/Base;",))])
    return w


def interface_with_one_implementation():
    w = DexWriter()
    w.add_class("Lt/I;", access=ACC_PUBLIC | ACC_INTERFACE | ACC_ABSTRACT, methods=[
        MethodDef("get", (), STRING, access=ACC_PUBLIC | ACC_ABSTRACT, registers=0, code=None)])
    w.add_class("Lt/Impl;", interfaces=("Lt/I;",), methods=[
        _method("get", [*_source(0), ("return-object", [0])], ret=STRING)])
    w.add_class("Lt/A;", methods=[_method("run", [
        ("invoke-interface", [4], f"Lt/I;->get(){STRING}"),
        ("move-result-object", [0]),
        *_sink(0),
        RETURN,
    ], params=("Lt/I;",))])
    return w


def string_builder():
    builder = "Ljava/lang/StringBuilder;"
    return _app(_method("run", [
        *_source(0),
        ("new-instance", [1], builder),
        ("invoke-direct", [1], f"{builder}-><init>()V"),
        ("invoke-virtual", [1, 0], f"{builder}->append({STRING}){builder}"),
        ("invoke-virtual", [1], f"{builder}->toString(){STRING}"),
        ("move-result-object", [2]),
        *_sink(2),
        RETURN,
    ]))


def instance_field():
    field = f"Lt/A;->f:{STRING}"
    return _app(_method("put", [*_source(0), ("iput-object", [0, 3], field), RETURN]),
                _method("get", [("iget-object", [0, 3], field), *_sink(0), RETURN]))


def _chain(w, cls, hops):
    """``m0`` reads the source and passes it through ``hops`` calls to the sink in the last."""
    def call(i):
        return ("invoke-virtual", [3, 4 if i > 1 else 0], f"{cls}->m{i}({STRING})V")

    methods = [_method("m0", [*_source(0), call(1), RETURN])]
    methods += [_method(f"m{i}", [call(i + 1), RETURN], params=(STRING,)) for i in range(1, hops)]
    methods.append(_method(f"m{hops}", [*_sink(4), RETURN], params=(STRING,)))
    w.add_class(cls, methods=methods)
    return w


def parameter_chains_of_3_and_5_hops():
    return _chain(_chain(DexWriter(), "Lt/C3;", 3), "Lt/C5;", 5)


def parameter_chain_of_6_hops():
    return _chain(DexWriter(), "Lt/C6;", 6)


def buffered_writer():
    return _app(_method("run", [*_source(0), ("invoke-virtual", [4, 0], BUFFERED_WRITER), RETURN],
                        params=("Ljava/io/BufferedWriter;",)))


def buffered_output_stream():
    return _app(_method("run", [
        *_source(0),
        ("invoke-virtual", [0], f"{STRING}->getBytes()[B"),
        ("move-result-object", [0]),
        ("invoke-virtual", [4, 0], BUFFERED_STREAM),
        RETURN,
    ], params=("Ljava/io/BufferedOutputStream;",)))


def _shape(build, expected, sink=LOG, missed=None):
    """A row of the matrix; ``missed`` is (ROADMAP item, why) for a shape the engine misses today.
    An exception while building or analysing the app fails the row: only the miss is expected."""
    marks = () if missed is None else pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="ROADMAP item %d: %s" % missed)
    return pytest.param(build, expected, sink, marks=marks, id=build.__name__)


SHAPES = [
    _shape(straight_line, 1),
    _shape(arm_after_join, 1, missed=(3, "one linear pass meets the sink before the arm")),
    _shape(sink_at_loop_head, 1, missed=(3, "no second pass over the loop body")),
    _shape(overwritten_by_a_constant, 0),
    _shape(static_field, 1),
    _shape(array_element, 1),
    _shape(override_through_base, 1, missed=(3, "the call resolves to the base class's method only")),
    _shape(interface_with_one_implementation, 1,
           missed=(3, "the call resolves to the abstract interface method only")),
    _shape(string_builder, 1),
    _shape(instance_field, 1),
    _shape(parameter_chains_of_3_and_5_hops, 2),  # one leak per chain
    _shape(parameter_chain_of_6_hops, 0),  # past the depth bound, which ROADMAP item 17 would report
    _shape(buffered_writer, 1, BUFFERED_WRITER, missed=(9, "the sink is listed on Writer, a superclass")),
    _shape(buffered_output_stream, 1, BUFFERED_STREAM,
           missed=(9, "the sink is listed on OutputStream, a superclass")),
]


@pytest.mark.parametrize("build, expected, sink", SHAPES)
def test_leak_shape(build, expected, sink):
    code = parse_dex(build().build())
    found = analyze_leaks(code, build_callgraph(code), load_taint_spec(), DEFAULT_DEPTH)
    assert [(f.source, f.sink) for f in found] == [(SRC, sink)] * expected
