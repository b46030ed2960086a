import gc
import random
import re
import struct
import zipfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apkaudit.container import open_apk
from apkaudit.dex import load_app_code, opcodes
from apkaudit.dex.model import (
    LITERAL,
    OFFSET,
    OPCODE,
    REF,
    REGISTERS,
    TARGET,
    CodeModel,
    DexClass,
    DexMethod,
    format_field_key,
    format_method_key,
)
from apkaudit.dex.opcodes import FORMAT_WIDTH, OPCODES
from apkaudit.dex.parser import _uleb128, decode_mutf8, dump_method, method_body, mnemonic, parse_dex
from apkaudit.errors import ApkAuditError
from apkaudit.report import analyze_apk

from .conftest import raises_code
from .fixtures.apk_writer import build_apk
from .fixtures.corpus import manifest
from .fixtures.dex_writer import (
    ACC_ABSTRACT,
    ACC_PUBLIC,
    ACC_STATIC,
    DexWriter,
    MethodDef,
    encode_mutf8,
    parse_method_key,
    uleb128,
)
from .oracles import (
    decode_body_oracle,
    dump_body_oracle,
    opcode_facts,
    opcode_sets_oracle,
    stored_fields,
)
from .test_container import _damage


def test_method_key_roundtrip():
    key = format_method_key("La/B;", "run", ("I", "[Ljava/lang/String;", "J"), "V")
    assert key == "La/B;->run(I[Ljava/lang/String;J)V"
    assert parse_method_key(key) == ("La/B;", "run", ("I", "[Ljava/lang/String;", "J"), "V")
    assert format_field_key("La/B;", "f", "J") == "La/B;->f:J"


def _simple_writer():
    w = DexWriter()
    w.add_class("La/Main;", methods=[
        MethodDef("go", ("I",), "V", registers=6, code=[
            ("const-string", [1], "hello"),
            ("const/4", [0], -2),
            ("const/16", [2], -300),
            ("const", [3], 0x12345678),
            ("const-wide", [0], -1),
            ("new-instance", [4], "La/Helper;"),
            ("iget-object", [2, 4], "La/Helper;->name:Ljava/lang/String;"),
            ("sput", [3], "La/Main;->count:I"),
            ("invoke-static", [1, 2], "La/Helper;->weld(Ljava/lang/String;Ljava/lang/String;)V"),
            ("move-result-object", [1]),
            ("add-int/lit8", [0, 2], 7),
            ("if-eqz", [0], ("->", "done")),
            ("goto", [], ("->", "done")),
            ("label", "done"),
            ("return-void", []),
        ]),
    ])
    return w


def test_decoded_stream_matches_assembly_input():
    model = parse_dex(_simple_writer().build())
    body = method_body(model, "La/Main;->go(I)V")
    expected = [
        ("const-string", (1,), "hello", None),
        ("const/4", (0,), None, -2),
        ("const/16", (2,), None, -300),
        ("const", (3,), None, 0x12345678),
        ("const-wide", (0,), None, -1),
        ("new-instance", (4,), "La/Helper;", None),
        ("iget-object", (2, 4), "La/Helper;->name:Ljava/lang/String;", None),
        ("sput", (3,), "La/Main;->count:I", None),
        ("invoke-static", (1, 2), "La/Helper;->weld(Ljava/lang/String;Ljava/lang/String;)V", None),
        ("move-result-object", (1,), None, None),
        ("add-int/lit8", (0, 2), None, 7),
        ("if-eqz", (0,), None, None),
        ("goto", (), None, None),
        ("return-void", (), None, None),
    ]
    got = [(mnemonic(i[OPCODE]), i[REGISTERS], i[REF], i[LITERAL]) for i in body]
    assert got == expected
    # offsets are cumulative widths; both branches land on return-void
    widths = [2, 1, 2, 3, 5, 2, 2, 2, 3, 1, 2, 2, 1]
    offsets = [sum(widths[:k]) for k in range(len(widths) + 1)]
    assert [i[OFFSET] for i in body] == offsets[: len(body)]
    assert body[11][TARGET] == body[13][OFFSET]
    assert body[12][TARGET] == body[13][OFFSET]


def test_payload_widths_keep_stream_aligned():
    w = DexWriter()
    w.add_class("La/P;", methods=[
        MethodDef("f", (), "V", access=ACC_PUBLIC | ACC_STATIC, registers=3, code=[
            ("const/4", [0], 1),
            ("packed-switch", [0], ("->", "ps")),
            ("sparse-switch", [0], ("->", "ss")),
            ("fill-array-data", [0], ("->", "fa")),
            ("return-void", []),
            ("label", "ps"),
            ("packed-switch-payload", 3),
            ("label", "ss"),
            ("sparse-switch-payload", 2),
            ("label", "fa"),
            ("fill-array-data-payload", 4, 3),
            ("nop", []),  # gives the last payload a successor to measure its width by
        ]),
    ])
    body = method_body(parse_dex(w.build()), "La/P;->f()V")
    names = [mnemonic(i[OPCODE]) for i in body]
    assert names == [
        "const/4", "packed-switch", "sparse-switch", "fill-array-data", "return-void",
        "packed-switch-payload", "sparse-switch-payload", "fill-array-data-payload", "nop",
    ]
    # a width is the offset delta to the next instruction
    widths = {mnemonic(a[OPCODE]): b[OFFSET] - a[OFFSET] for a, b in zip(body, body[1:])}
    assert widths["packed-switch-payload"] == 3 * 2 + 4
    assert widths["sparse-switch-payload"] == 2 * 4 + 2
    assert widths["fill-array-data-payload"] == (4 * 3 + 1) // 2 + 4
    # instruction count oracle: every assembled instruction decoded exactly once
    assert len(body) == 9


def test_method_idx_deltas_restart_per_list():
    # several direct and virtual methods force non-trivial delta coding
    w = DexWriter()
    w.add_class("La/D;", methods=[
        MethodDef("alpha", (), "V", access=ACC_PUBLIC | ACC_STATIC, registers=1,
                  code=[("return-void", [])]),
        MethodDef("zeta", (), "V", access=ACC_PUBLIC | ACC_STATIC, registers=1,
                  code=[("return-void", [])]),
        MethodDef("beta", (), "V", registers=1, code=[("return-void", [])]),
        MethodDef("omega", (), "V", registers=1, code=[("return-void", [])]),
    ])
    model = parse_dex(w.build())
    keys = {m.key for m in model.all_methods()}
    assert keys == {
        "La/D;->alpha()V", "La/D;->zeta()V", "La/D;->beta()V", "La/D;->omega()V",
    }
    assert all(model.method(k).is_concrete for k in keys)


def test_abstract_and_unknown_method_errors():
    w = DexWriter()
    w.add_class("La/A;", methods=[
        MethodDef("impl", (), "V", registers=1, code=[("return-void", [])]),
        MethodDef("virt", (), "V", access=ACC_PUBLIC | ACC_ABSTRACT, registers=0, code=None),
    ])
    model = parse_dex(w.build())
    assert model.method("La/A;->virt()V").access_flags & ACC_ABSTRACT
    with raises_code("dex.abstract_method", match=r"^La/A;->virt\(\)V has no code \(abstract or native\)$"):
        method_body(model, "La/A;->virt()V")
    with raises_code("dex.unknown_method", match=r"^no method La/A;->missing\(\)V$"):
        method_body(model, "La/A;->missing()V")


def test_bad_magic_and_checksum_warning():
    blob = bytearray(_simple_writer().build())
    with raises_code("dex.magic"):
        parse_dex(b"nope" + bytes(blob[4:]))
    struct.pack_into("<I", blob, 8, 0x12345678)
    model = parse_dex(bytes(blob))
    assert any("adler32 checksum mismatch" in w for w in model.warnings)
    assert model.method("La/Main;->go(I)V") is not None  # still parsed


def test_multidex_merge_and_duplicate_class(tmp_path):
    w1 = DexWriter()
    w1.add_class("La/One;", methods=[MethodDef("a", (), "V", registers=1, code=[("return-void", [])])])
    w2 = DexWriter()
    w2.add_class("La/Two;", methods=[MethodDef("b", (), "V", registers=1, code=[("return-void", [])])])
    w2.add_class("La/One;", methods=[MethodDef("a", (), "V", registers=1, code=[("return-void", [])])])
    p = build_apk(tmp_path / "m.apk", {
        "AndroidManifest.xml": b"",
        "classes.dex": w1.build(),
        "classes2.dex": w2.build(),
        "classesX.dex": b"not a dex",  # name does not match, must be ignored
    })
    model = load_app_code(open_apk(p))
    assert model.dex_count == 2
    assert set(model.classes) == {"La/One;", "La/Two;"}
    assert any("duplicate class La/One;" in w for w in model.warnings)


def test_no_dex_entry(tmp_path):
    p = build_apk(tmp_path / "n.apk", {"AndroidManifest.xml": b""})
    with raises_code("dex.no_entry"):
        load_app_code(open_apk(p))


def test_mutf8_decoding():
    assert decode_mutf8(encode_mutf8("plain")) == "plain"
    assert decode_mutf8(encode_mutf8("nul\x00inside")) == "nul\x00inside"
    assert decode_mutf8(encode_mutf8("日本語")) == "日本語"
    # supplementary plane char encoded as a CESU-8 surrogate pair
    assert decode_mutf8(encode_mutf8("\U0001F600")) == "\U0001F600"


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(raw=st.lists(st.integers(1, 0x7F), max_size=40).map(bytes))
def test_ascii_fast_path_decodes_as_the_general_path(raw):
    # a non-ASCII suffix sends the same bytes through the general path
    assert decode_mutf8(raw) + "\u00e9" == decode_mutf8(raw + "\u00e9".encode()) == raw.decode() + "\u00e9"


@pytest.mark.parametrize("value", [0, 0x7F, 0x80, 0x3FFF, 0x4000, 0xFFFFFFFF])
def test_uleb128_values(value):
    enc = uleb128(value)
    assert _uleb128(b"\xff" + enc + b"\x01", 1) == (value, 1 + len(enc))


def test_uleb128_longer_than_five_bytes_raises_at_once():
    with pytest.raises(ValueError, match=r"^uleb128 at offset 0 longer than 5 bytes$"):
        _uleb128(b"\xff" * 1_000_000 + b"\0", 0)


@pytest.mark.parametrize("tail", [b"", b"\x80", b"\xff\xff"])
def test_truncated_uleb128_raises_malformed(tail):
    # the first string's size prefix starts at the end of the data and is cut
    blob = bytearray(_simple_writer().build())
    (string_ids_off,) = struct.unpack_from("<I", blob, 0x3C)
    struct.pack_into("<I", blob, string_ids_off, len(blob))
    blob += tail
    with raises_code("dex.malformed", match=r"^classes\.dex: malformed DEX \(IndexError"):
        parse_dex(bytes(blob))


def test_string_pool_collected():
    model = parse_dex(_simple_writer().build())
    assert "hello" in model.string_pool
    assert "go" in model.string_pool  # identifiers live in the same pool


def test_dump_method_stable():
    model = parse_dex(_simple_writer().build())
    out = dump_method(model, "La/Main;->go(I)V")
    assert out.splitlines()[0] == "La/Main;->go(I)V"
    assert "  0000: const-string v1 'hello'" in out
    assert out == dump_method(model, "La/Main;->go(I)V")


# ---- every opcode against the reference decoder ---------------------------

RAW_KEY = "La/Main;->raw()V"
_MARKER = 0x5EED_C0DE_F00D_BEEF  # const-wide literal that locates the raw body in the file
_INDEX_UNITS = {"21c": 1, "22c": 1, "35c": 1, "3rc": 1, "45cc": 1, "4rcc": 1, "31c": 2}


def _raw_units(rng: random.Random, pools: dict[str, list[str]]) -> list[int]:
    """Every opcode twice (sign bits set, then clear), the three payloads, an
    unknown payload ident, and a wide const-wide as the last instruction."""
    units: list[int] = []
    for signed in (True, False):
        for opcode in range(256):
            _name, fmt, ref = OPCODES[opcode]
            hi = 0 if opcode == 0 else rng.randrange(0x80) | (0x80 if signed else 0)
            operands = [rng.randrange(0x8000) | (0x8000 if signed else 0)
                        for _ in range(FORMAT_WIDTH[fmt] - 1)]
            n_index = _INDEX_UNITS.get(fmt, 0)
            if n_index:
                size = len(pools.get(ref, ()))
                # in range with the sign bits set, out of range with them clear
                index = (rng.randrange(size) if signed and size
                         else size + rng.randrange(1 << (16 * n_index - 1)))
                operands[:n_index] = [index & 0xFFFF, index >> 16][:n_index]
            units += [opcode | hi << 8, *operands]
    n = rng.randrange(1, 4)
    units += [0x0100, n] + [rng.randrange(0x10000) for _ in range(2 + 2 * n)]
    n = rng.randrange(1, 4)
    units += [0x0200, n] + [rng.randrange(0x10000) for _ in range(4 * n)]
    elem, n = 2, 3
    units += [0x0300, elem, n, 0] + [rng.randrange(0x10000) for _ in range((elem * n + 1) // 2)]
    units += [0x2A00]  # unknown payload ident
    units += [0x0018 | 0x07 << 8, 0xFFFF, 0x1234, 0x8000, 0xFFFE]  # const-wide, sign bit set
    return units


def _raw_writer(n_units: int, names: tuple[str, ...] = ("raw",)) -> DexWriter:
    """``_simple_writer`` plus method ``RAW_KEY`` (one method per name): a marker
    const-wide padded with nops."""
    w = _simple_writer()
    for name in names:
        w.classes[0].methods.append(MethodDef(name, (), "V", registers=8, code=(
            [("const-wide", [0], _MARKER)] + [("nop", [])] * (n_units - 5))))
    return w


def _writer_pools(w: DexWriter) -> dict[str, list[str]]:
    """The writer's string, type, field and method pools in index order."""
    strings, types, _protos, fields, methods = w._collect()[:5]
    return {
        "string": strings,
        "type": types,
        "field": [format_field_key(c, n, t) for c, n, t in fields],
        "method": [format_method_key(c, n, p, r) for c, n, p, r in methods],
    }


def _raw_dex(units: list[int], declared: int | None = None,
             names: tuple[str, ...] = ("raw",)) -> tuple[bytes, int]:
    """A valid dex whose method ``RAW_KEY`` (each method of ``names``) holds
    ``units`` (declaring ``declared`` code units if given), and the file
    offset of the first such body."""
    blob = bytearray(_raw_writer(len(units), names).build())
    marker = struct.pack("<5H", 0x0018, *(_MARKER >> s & 0xFFFF for s in (0, 16, 32, 48)))
    assert blob.count(marker) == len(names)
    bases = [m.start() for m in re.finditer(re.escape(marker), blob)]
    for base in bases:
        blob[base:base + 2 * len(units)] = struct.pack(f"<{len(units)}H", *units)
        if declared is not None:
            struct.pack_into("<I", blob, base - 4, declared)
    base = bases[0]
    struct.pack_into("<I", blob, 8, zlib.adler32(bytes(blob[12:])) & 0xFFFFFFFF)
    return bytes(blob), base


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_opcode_matches_reference_decoder(seed):
    pools = _writer_pools(_raw_writer(5))
    units = _raw_units(random.Random(seed), pools)
    blob, base = _raw_dex(units)
    model = parse_dex(blob)
    assert model.warnings == []
    expected = decode_body_oracle(blob[base:], len(units), pools)
    got = method_body(model, RAW_KEY)
    assert got == [stored_fields(t) for t in expected]
    names = [mnemonic(i[OPCODE]) for i in got]
    assert names == [t[2] for t in expected]
    assert {name for name, _f, _r in OPCODES.values()} <= set(names)
    assert {"packed-switch-payload", "sparse-switch-payload", "fill-array-data-payload",
            "unknown-payload-2a00"} <= set(names)
    assert any(t[6] is not None for t in expected) and any(t[5] != "none" and t[6] is None for t in expected)
    assert names[-1] == "const-wide" and got[-1][LITERAL] < 0
    assert dump_method(model, RAW_KEY) == dump_body_oracle(RAW_KEY, expected)


def test_opcode_sets_match_the_mnemonic_classification():
    sets = {name: getattr(opcodes, name)
            for name in ("INVOKES", "EXACT_INVOKES", "SUPER_INVOKES", "CONST_STRINGS", "FIELD_READS")}
    assert all(sets.values())
    payloads = (opcodes.PACKED_SWITCH_PAYLOAD, opcodes.SPARSE_SWITCH_PAYLOAD,
                opcodes.FILL_ARRAY_PAYLOAD, 0x2A00)
    for opcode in (*range(256), *payloads):
        name = opcode_facts(opcode)[0]
        assert mnemonic(opcode) == name
        assert {s for s, members in sets.items() if opcode in members} == opcode_sets_oracle(name), name
    assert mnemonic(0x2A00) == "unknown-payload-2a00"


def test_wide_last_instruction_reads_past_declared_size():
    units = [0x0012, 0x0018 | 0x03 << 8, 0x0001, 0x0002, 0x0003, 0x8004]
    # the const-wide starts at the last declared unit and reads 4 units past it
    blob, base = _raw_dex(units, declared=2)
    body = method_body(parse_dex(blob), RAW_KEY)
    expected = decode_body_oracle(blob[base:], 2, _writer_pools(_raw_writer(len(units))))
    assert body == [stored_fields(t) for t in expected]
    assert mnemonic(body[-1][OPCODE]) == "const-wide" and body[-1][LITERAL] == 0x8004_0003_0002_0001 - (1 << 64)


def test_model_instances_have_no_dict():
    model = parse_dex(_simple_writer().build())
    cls = model.classes["La/Main;"]
    meth = cls.methods[0]
    for obj in (cls, meth, meth.instructions[0]):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    assert all(hasattr(t, "__slots__") for t in (DexClass, DexMethod))
    # a record is untracked once its register tuple is, so two passes
    gc.collect()
    gc.collect()
    assert not any(gc.is_tracked(ins) for ins in meth.instructions)


def test_equal_register_tuples_are_one_object_per_app(tmp_path):
    w2 = DexWriter()
    w2.add_class("La/Two;", methods=[MethodDef("b", (), "V", registers=1, code=[
        ("const/4", [0], 1), ("return-void", []),
    ])])
    p = build_apk(tmp_path / "m.apk", {"classes.dex": _simple_writer().build(), "classes2.dex": w2.build()})
    code = load_app_code(open_apk(p))
    assert code.dex_count == 2
    instructions = [ins for m in code.all_methods() for ins in m.instructions]
    # equal register tuples are one object, in both dex entries
    first: dict[tuple, tuple] = {}
    for ins in instructions:
        assert first.setdefault(ins[REGISTERS], ins[REGISTERS]) is ins[REGISTERS]
    zero = [ins[REGISTERS] for ins in instructions if ins[REGISTERS] == (0,)]
    assert len(zero) == 4 and len({id(r) for r in zero}) == 1


def test_equal_instructions_are_one_object_per_dex_entry():
    names = ("raw", "raw2")
    pools = _writer_pools(_raw_writer(5, names))
    units = _raw_units(random.Random(4), pools)
    blob, base = _raw_dex(units, names=names)
    model = parse_dex(blob)
    expected = [stored_fields(t) for t in decode_body_oracle(blob[base:], len(units), pools)]
    first, second = (method_body(model, f"La/Main;->{name}()V") for name in names)
    assert first == expected and second == expected
    # same offset and code units: one tuple, payloads aside
    shared = [a is b for a, b in zip(first, second) if a[OPCODE] < 256]
    assert len(shared) > 500 and all(shared)


def test_equal_units_resolve_through_the_pools_of_their_own_entry(tmp_path):
    entries = {}
    for dex, cls, text in (("classes.dex", "La/A;", "alpha"), ("classes2.dex", "La/B;", "beta")):
        w = DexWriter()
        w.add_class(cls, methods=[MethodDef("m", (), "V", registers=1, code=[
            ("const-string", [0], text),
            ("invoke-static", [], f"{cls}->m()V"),
            ("return-void", []),
        ])])
        entries[dex] = w.build()
    # both bodies hold the same code units: the pool indexes match
    body = struct.pack("<6H", 0x001A, 3, 0x0071, 0, 0, 0x000E)
    assert all(blob.count(body) == 1 for blob in entries.values())
    code = load_app_code(open_apk(build_apk(tmp_path / "pools.apk", entries)))
    for cls, text in (("La/A;", "alpha"), ("La/B;", "beta")):
        const, invoke, _ret = method_body(code, f"{cls}->m()V")
        assert (const[REF], invoke[REF]) == (text, f"{cls}->m()V")


def _cut_body_dex(units: list[int]) -> bytes:
    """A valid dex whose ``RAW_KEY`` code item is moved to the end of the
    file and holds only ``units``, which also end the data."""
    blob, base = _raw_dex([0x000E] * 8)
    blob = bytearray(blob)
    old, new = uleb128(base - 16), uleb128(len(blob))
    assert blob.count(old) == 1 and len(new) == len(old) and len(blob) % 4 == 0
    at = blob.index(old)
    blob[at:at + len(old)] = new  # the method's code_off in its class_data
    blob += blob[base - 16:base - 4] + struct.pack(f"<I{len(units)}H", len(units), *units)
    struct.pack_into("<I", blob, 8, zlib.adler32(bytes(blob[12:])) & 0xFFFFFFFF)
    return bytes(blob)


@pytest.mark.parametrize("units", [
    [0x000E, 0x0013],                  # const/16 without its literal
    [0x0071, 0x0001],                  # invoke-static without its argument unit
    [0x0018, 0x0001, 0x0002, 0x0003],  # const-wide one unit short
])
def test_truncated_last_instruction_raises_malformed(units):
    with raises_code("dex.malformed") as info:
        parse_dex(_cut_body_dex(units))
    assert str(info.value) == "classes.dex: malformed DEX (IndexError: tuple index out of range)"


def test_cut_invoke_polymorphic_reads_only_its_decoded_units():
    # the proto unit of a 45cc is not decoded, so a body cut before it still parses
    [ins] = method_body(parse_dex(_cut_body_dex([0x10FA, 0x0001, 0x0003])), RAW_KEY)
    method = _writer_pools(_raw_writer(8))["method"][1]
    assert (mnemonic(ins[OPCODE]), ins[REGISTERS], ins[REF]) == ("invoke-polymorphic", (3,), method)


# ---- malformed input ------------------------------------------------------


def test_mutated_dex_gives_model_or_dex_error():
    valid = _simple_writer().build()
    rng = random.Random(20250401)
    outcomes = {"model": 0, "error": 0}
    for _ in range(300):
        blob = bytearray(valid)
        for _ in range(rng.randint(1, 4)):
            blob[rng.randrange(0x70, len(blob))] = rng.randrange(256)
        try:
            result = parse_dex(bytes(blob))
        except ApkAuditError as exc:
            assert exc.code.startswith("dex.") and "classes.dex" in str(exc)
            outcomes["error"] += 1
        else:
            assert isinstance(result, CodeModel)
            outcomes["model"] += 1
    assert outcomes["model"] and outcomes["error"]


def _overrun_dex() -> bytes:
    """A valid dex whose raw method declares more code units than the file holds."""
    blob, base = _raw_dex([0x000E] * 8)
    blob = bytearray(blob)
    struct.pack_into("<I", blob, base - 4, 0xFFFFFFF0)
    return bytes(blob)


def test_insns_size_past_end_raises_malformed():
    with raises_code("dex.malformed", match=r"^classes2\.dex: malformed DEX \(IndexError") as info:
        parse_dex(_overrun_dex(), origin="classes2.dex")
    assert type(info.value) is ApkAuditError


def _long_uleb_dex() -> bytes:
    """A valid dex whose class data is moved to the end of the file behind
    a six-byte uleb128 (a zero with five continuation bytes)."""
    blob = bytearray(_simple_writer().build())
    at = struct.unpack_from("<I", blob, 0x64)[0] + 24  # the first class_def's class_data_off
    (class_data_off,) = struct.unpack_from("<I", blob, at)
    struct.pack_into("<I", blob, at, len(blob))
    blob += b"\x80" * 5 + b"\x00" + blob[class_data_off:]
    struct.pack_into("<I", blob, 8, zlib.adler32(bytes(blob[12:])) & 0xFFFFFFFF)
    return bytes(blob)


@pytest.mark.parametrize("dex, error", [
    (_overrun_dex, "IndexError"),
    (_long_uleb_dex, "ValueError: uleb128 at offset"),
], ids=["overrun", "long-uleb128"])
def test_analyze_apk_reports_malformed_dex_as_warning(tmp_path, dex, error):
    p = build_apk(tmp_path / "malformed.apk", {
        "AndroidManifest.xml": manifest("com.fix.malformed"),
        "classes.dex": dex(),
    })
    report = analyze_apk(p)
    assert report.package == "com.fix.malformed"
    dex_warnings = [w for w in report.warnings if w.startswith("dex:")]
    assert len(dex_warnings) == 1
    assert dex_warnings[0].startswith(f"dex: classes.dex: malformed DEX ({error}")


@pytest.mark.parametrize("name, findings", [
    ("listing1_location", 2), ("sms_delete", 2), ("silent_install", 1),
])
def test_malformed_second_dex_keeps_first_entry_findings(corpus, tmp_path, name, findings):
    with zipfile.ZipFile(corpus[name]) as zf:
        entries = {n: zf.read(n) for n in zf.namelist() if not n.startswith("META-INF/")}
    p = build_apk(tmp_path / f"{name}.apk", {**entries, "classes2.dex": _overrun_dex()})
    report = analyze_apk(p)
    found = report.leaks + report.behaviors + report.exported_components
    assert len(found) == findings
    dex_warnings = [w for w in report.warnings if w.startswith("dex:")]
    assert len(dex_warnings) == 1
    assert dex_warnings[0].startswith("dex: classes2.dex: malformed DEX (IndexError")
    code = load_app_code(open_apk(p))
    assert code.dex_count == 1
    assert set(code.classes) == set(parse_dex(entries["classes.dex"]).classes)


def test_malformed_entries_merge_in_order_and_all_bad_raises_first(tmp_path):
    w1 = DexWriter()
    w1.add_class("La/One;", methods=[MethodDef("a", (), "V", registers=1, code=[("return-void", [])])])
    w3 = DexWriter()
    w3.add_class("La/One;", methods=[MethodDef("b", (), "V", registers=1, code=[("return-void", [])])])
    w3.add_class("La/Three;", methods=[MethodDef("c", (), "V", registers=1, code=[("return-void", [])])])
    p = build_apk(tmp_path / "m.apk", {
        "classes.dex": w1.build(), "classes2.dex": _overrun_dex(), "classes3.dex": w3.build(),
    })
    model = load_app_code(open_apk(p))
    assert model.dex_count == 2
    assert set(model.classes) == {"La/One;", "La/Three;"}
    assert model.method("La/One;->a()V") is not None  # first definition wins
    assert model.warnings[0].startswith("dex: classes2.dex: malformed DEX (")
    assert model.warnings[1:] == ["duplicate class La/One; (first definition wins)"]

    p = build_apk(tmp_path / "bad.apk", {"classes.dex": b"nope" * 40, "classes2.dex": _overrun_dex()})
    with raises_code("dex.magic", match=r"^classes\.dex: bad DEX magic"):
        load_app_code(open_apk(p))


@pytest.mark.parametrize("name, findings", [
    ("listing1_location", 2), ("sms_delete", 2), ("silent_install", 1),
])
def test_undecompressable_second_dex_keeps_first_entry_findings(corpus, tmp_path, name, findings):
    with zipfile.ZipFile(corpus[name]) as zf:
        entries = {n: zf.read(n) for n in zf.namelist() if not n.startswith("META-INF/")}
    p = build_apk(tmp_path / f"{name}.apk", {**entries, "classes2.dex": _simple_writer().build()})
    raw = bytearray(p.read_bytes())
    _damage(raw, b"classes2.dex", "deflate data")
    p.write_bytes(bytes(raw))
    report = analyze_apk(p)
    found = report.leaks + report.behaviors + report.exported_components
    assert len(found) == findings
    dex_warnings = [w for w in report.warnings if w.startswith("dex:")]
    assert len(dex_warnings) == 1
    assert dex_warnings[0].startswith(f"dex: {p}:classes2.dex: error: ")
    code = load_app_code(open_apk(p))
    assert code.dex_count == 1
    assert set(code.classes) == set(parse_dex(entries["classes.dex"]).classes)


def test_undecompressable_only_dex_raises(corpus, tmp_path):
    with zipfile.ZipFile(corpus["listing1_location"]) as zf:
        entries = {n: zf.read(n) for n in zf.namelist() if not n.startswith("META-INF/")}
    p = build_apk(tmp_path / "one.apk", entries)
    raw = bytearray(p.read_bytes())
    _damage(raw, b"classes.dex", "deflate data")
    p.write_bytes(bytes(raw))
    with raises_code("zip.inflate", match=f"^{re.escape(str(p))}:classes.dex: "):
        load_app_code(open_apk(p))


def test_undecompressable_only_dex_is_a_dex_warning_in_the_report(corpus, tmp_path):
    with zipfile.ZipFile(corpus["listing1_location"]) as zf:
        entries = {n: zf.read(n) for n in zf.namelist() if not n.startswith("META-INF/")}
    p = build_apk(tmp_path / "one.apk", entries, cn="Infinix", org="Infinix Mobility")
    raw = bytearray(p.read_bytes())
    _damage(raw, b"classes.dex", "deflate data")
    p.write_bytes(bytes(raw))
    report = analyze_apk(p)
    assert report.package == analyze_apk(corpus["listing1_location"]).package != ""
    assert report.signer_label == "Infinix"
    dex = [w for w in report.warnings if w.startswith("dex: ")]
    assert len(dex) == 1 and dex[0].startswith(f"dex: {p}:classes.dex: error: ")
    assert not any(report.to_dict()["findings"].values())


def _invalid_mutf8_dex() -> bytes:
    """A dex holding two strings that are not valid MUTF-8: a stray 0xFF
    byte and an unpaired surrogate."""
    w = DexWriter()
    w.add_class("La/Strs;", methods=[MethodDef("s", (), "V", registers=1, code=[
        ("const-string", [0], "bad-one"),
        ("const-string", [0], "bad-two"),
        ("return-void", []),
    ])])
    blob = bytearray(w.build())
    for old, new in ((b"bad-one", b"bad\xffone"), (b"bad-two", b"\xed\xa0\x80-two")):
        assert blob.count(old) == 1
        at = blob.index(old)
        blob[at:at + len(old)] = new
    struct.pack_into("<I", blob, 8, zlib.adler32(bytes(blob[12:])) & 0xFFFFFFFF)
    return bytes(blob)


def test_invalid_mutf8_counted_in_one_warning_per_entry(tmp_path, caplog):
    assert decode_mutf8(b"bad\xffone") == "bad�one"
    assert decode_mutf8(b"\xed\xa0\x80-two") == "�-two"
    model = parse_dex(_invalid_mutf8_dex(), origin="classes2.dex")
    assert model.warnings == ["classes2.dex: 2 invalid MUTF-8 string(s) replaced"]
    assert {"bad�one", "�-two"} <= model.string_pool
    assert parse_dex(_simple_writer().build()).warnings == []

    p = build_apk(tmp_path / "strs.apk", {
        "AndroidManifest.xml": manifest("com.fix.strs"),
        "classes.dex": _simple_writer().build(),
        "classes2.dex": _invalid_mutf8_dex(),
    })
    report = analyze_apk(p)
    assert report.warnings == ("classes2.dex: 2 invalid MUTF-8 string(s) replaced",)
    assert not [r for r in caplog.records if r.name.startswith("apkaudit")]
