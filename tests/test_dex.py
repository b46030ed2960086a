import random
import struct
import zipfile
import zlib

import pytest

from apkaudit.container import open_apk
from apkaudit.dex import load_app_code
from apkaudit.dex.model import (
    CodeModel,
    DexClass,
    DexMethod,
    Instruction,
    format_field_key,
    format_method_key,
    parse_method_key,
)
from apkaudit.dex.opcodes import FORMAT_WIDTH, OPCODES
from apkaudit.dex.parser import decode_mutf8, dump_method, method_body, parse_dex
from apkaudit.errors import (
    AbstractMethodError,
    DexError,
    DexMagicError,
    MalformedDexError,
    NoDexEntryError,
    UnknownMethodError,
)
from apkaudit.report import analyze_apk

from .fixtures.apk_writer import build_apk
from .fixtures.corpus import manifest
from .fixtures.dex_writer import (
    ACC_ABSTRACT,
    ACC_PUBLIC,
    ACC_STATIC,
    DexWriter,
    MethodDef,
    encode_mutf8,
)
from .oracles import decode_body_oracle, dump_body_oracle


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
    got = [(i.mnemonic, i.registers, i.resolved_ref, i.literal) for i in body]
    assert got == expected
    # offsets are cumulative widths; both branches land on return-void
    widths = [2, 1, 2, 3, 5, 2, 2, 2, 3, 1, 2, 2, 1]
    offsets = [sum(widths[:k]) for k in range(len(widths) + 1)]
    assert [i.offset for i in body] == offsets[: len(body)]
    assert body[11].branch_target == body[13].offset
    assert body[12].branch_target == body[13].offset


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
        ]),
    ])
    body = method_body(parse_dex(w.build()), "La/P;->f()V")
    names = [i.mnemonic for i in body]
    assert names == [
        "const/4", "packed-switch", "sparse-switch", "fill-array-data", "return-void",
        "packed-switch-payload", "sparse-switch-payload", "fill-array-data-payload",
    ]
    widths = {i.mnemonic: i.width for i in body}
    assert widths["packed-switch-payload"] == 3 * 2 + 4
    assert widths["sparse-switch-payload"] == 2 * 4 + 2
    assert widths["fill-array-data-payload"] == (4 * 3 + 1) // 2 + 4
    # instruction count oracle: every assembled instruction decoded exactly once
    assert len(body) == 8


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
    assert model.method("La/A;->virt()V").is_abstract
    with pytest.raises(AbstractMethodError):
        method_body(model, "La/A;->virt()V")
    with pytest.raises(UnknownMethodError):
        method_body(model, "La/A;->missing()V")


def test_bad_magic_and_checksum_warning():
    blob = bytearray(_simple_writer().build())
    with pytest.raises(DexMagicError):
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
    with pytest.raises(NoDexEntryError):
        load_app_code(open_apk(p))


def test_mutf8_decoding():
    assert decode_mutf8(encode_mutf8("plain")) == "plain"
    assert decode_mutf8(encode_mutf8("nul\x00inside")) == "nul\x00inside"
    assert decode_mutf8(encode_mutf8("日本語")) == "日本語"
    # supplementary plane char encoded as a CESU-8 surrogate pair
    assert decode_mutf8(encode_mutf8("\U0001F600")) == "\U0001F600"


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


def _raw_writer(n_units: int) -> DexWriter:
    """``_simple_writer`` plus method ``RAW_KEY``: a marker const-wide padded with nops."""
    w = _simple_writer()
    w.classes[0].methods.append(MethodDef("raw", (), "V", registers=8, code=(
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


def _raw_dex(units: list[int], declared: int | None = None) -> tuple[bytes, int]:
    """A valid dex whose method ``RAW_KEY`` holds ``units`` (declaring ``declared``
    code units if given), and the file offset of that body."""
    blob = bytearray(_raw_writer(len(units)).build())
    marker = struct.pack("<5H", 0x0018, *(_MARKER >> s & 0xFFFF for s in (0, 16, 32, 48)))
    assert blob.count(marker) == 1
    base = blob.index(marker)
    blob[base:base + 2 * len(units)] = struct.pack(f"<{len(units)}H", *units)
    if declared is not None:
        struct.pack_into("<I", blob, base - 4, declared)
    struct.pack_into("<I", blob, 8, zlib.adler32(bytes(blob[12:])) & 0xFFFFFFFF)
    return bytes(blob), base


def _fields(ins: Instruction) -> tuple:
    return (ins.offset, ins.opcode, ins.mnemonic, ins.width, ins.registers, ins.ref_kind,
            ins.resolved_ref, ins.literal, ins.branch_target, ins.opaque)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_opcode_matches_reference_decoder(seed):
    pools = _writer_pools(_raw_writer(5))
    units = _raw_units(random.Random(seed), pools)
    blob, base = _raw_dex(units)
    model = parse_dex(blob)
    assert model.warnings == []
    expected = decode_body_oracle(blob[base:], len(units), pools)
    got = [_fields(i) for i in method_body(model, RAW_KEY)]
    assert got == expected
    mnemonics = {t[2] for t in got}
    assert {name for name, _f, _r in OPCODES.values()} <= mnemonics
    assert {"packed-switch-payload", "sparse-switch-payload", "fill-array-data-payload",
            "unknown-payload-2a00"} <= mnemonics
    assert any(t[6] is not None for t in got) and any(t[5] != "none" and t[6] is None for t in got)
    assert got[-1][2] == "const-wide" and got[-1][7] < 0
    assert dump_method(model, RAW_KEY) == dump_body_oracle(RAW_KEY, expected)


def test_wide_last_instruction_reads_past_declared_size():
    units = [0x0012, 0x0018 | 0x03 << 8, 0x0001, 0x0002, 0x0003, 0x8004]
    # the const-wide starts at the last declared unit and reads 4 units past it
    blob, base = _raw_dex(units, declared=2)
    body = method_body(parse_dex(blob), RAW_KEY)
    expected = decode_body_oracle(blob[base:], 2, _writer_pools(_raw_writer(len(units))))
    assert [_fields(i) for i in body] == expected
    assert body[-1].mnemonic == "const-wide" and body[-1].literal == 0x8004_0003_0002_0001 - (1 << 64)


def test_model_instances_have_no_dict():
    model = parse_dex(_simple_writer().build())
    cls = model.classes["La/Main;"]
    meth = cls.methods[0]
    for obj in (cls, meth, meth.instructions[0]):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    assert all(hasattr(t, "__slots__") for t in (DexClass, DexMethod, Instruction))


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
        except DexError as exc:
            assert "classes.dex" in str(exc)
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
    with pytest.raises(MalformedDexError, match=r"^classes2\.dex: malformed DEX \(IndexError") as info:
        parse_dex(_overrun_dex(), origin="classes2.dex")
    assert isinstance(info.value, DexError)


def test_analyze_apk_reports_malformed_dex_as_warning(tmp_path):
    p = build_apk(tmp_path / "overrun.apk", {
        "AndroidManifest.xml": manifest("com.fix.overrun"),
        "classes.dex": _overrun_dex(),
    })
    report = analyze_apk(p)
    assert report.package == "com.fix.overrun"
    dex_warnings = [w for w in report.warnings if w.startswith("dex:")]
    assert len(dex_warnings) == 1
    assert dex_warnings[0].startswith("dex: classes.dex: malformed DEX (IndexError")


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
    with pytest.raises(DexMagicError, match=r"^classes\.dex: bad DEX magic"):
        load_app_code(open_apk(p))


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
    assert report.warnings == ["classes2.dex: 2 invalid MUTF-8 string(s) replaced"]
    assert not [r for r in caplog.records if r.name.startswith("apkaudit")]
