"""Dalvik opcode table (mnemonic, encoding format, reference kind), each
opcode's register effect for the taint engine (``EFFECTS``), and the named
opcode sets derived from them: the one home of opcode facts.

The format string determines instruction width so the stream stays aligned
even for unused opcodes.  Widths are in 16-bit code units.
"""

FORMAT_WIDTH = {
    "10x": 1, "12x": 1, "11n": 1, "11x": 1, "10t": 1,
    "20t": 2, "22x": 2, "21t": 2, "21s": 2, "21h": 2, "21c": 2,
    "23x": 2, "22b": 2, "22t": 2, "22s": 2, "22c": 2,
    "30t": 3, "32x": 3, "31i": 3, "31t": 3, "31c": 3, "35c": 3, "3rc": 3,
    "45cc": 4, "4rcc": 4,
    "51l": 5,
}

# ref kinds: none | string | type | field | method
# register effects, as the taint engine's transfer functions read them: NONE
# also for unused opcodes, INVOKE_STATIC for calls with no receiver to taint
(NONE, COPY, MOVE_RESULT, INVOKE, INVOKE_STATIC, CLEAR, RETURN, FIELD_GET,
 FIELD_PUT, APUT, JOIN2, JOIN3, FILLED) = range(13)
_T = []


def _op(code, name, fmt, ref="none", effect=NONE):
    _T.append((code, name, fmt, ref, effect))


_op(0x00, "nop", "10x")
_op(0x01, "move", "12x", effect=COPY)
_op(0x02, "move/from16", "22x", effect=COPY)
_op(0x03, "move/16", "32x", effect=COPY)
_op(0x04, "move-wide", "12x", effect=COPY)
_op(0x05, "move-wide/from16", "22x", effect=COPY)
_op(0x06, "move-wide/16", "32x", effect=COPY)
_op(0x07, "move-object", "12x", effect=COPY)
_op(0x08, "move-object/from16", "22x", effect=COPY)
_op(0x09, "move-object/16", "32x", effect=COPY)
_op(0x0A, "move-result", "11x", effect=MOVE_RESULT)
_op(0x0B, "move-result-wide", "11x", effect=MOVE_RESULT)
_op(0x0C, "move-result-object", "11x", effect=MOVE_RESULT)
_op(0x0D, "move-exception", "11x", effect=CLEAR)
_op(0x0E, "return-void", "10x")
_op(0x0F, "return", "11x", effect=RETURN)
_op(0x10, "return-wide", "11x", effect=RETURN)
_op(0x11, "return-object", "11x", effect=RETURN)
_op(0x12, "const/4", "11n", effect=CLEAR)
_op(0x13, "const/16", "21s", effect=CLEAR)
_op(0x14, "const", "31i", effect=CLEAR)
_op(0x15, "const/high16", "21h", effect=CLEAR)
_op(0x16, "const-wide/16", "21s", effect=CLEAR)
_op(0x17, "const-wide/32", "31i", effect=CLEAR)
_op(0x18, "const-wide", "51l", effect=CLEAR)
_op(0x19, "const-wide/high16", "21h", effect=CLEAR)
_op(0x1A, "const-string", "21c", "string", CLEAR)
_op(0x1B, "const-string/jumbo", "31c", "string", CLEAR)
_op(0x1C, "const-class", "21c", "type", CLEAR)
_op(0x1D, "monitor-enter", "11x")
_op(0x1E, "monitor-exit", "11x")
_op(0x1F, "check-cast", "21c", "type")
_op(0x20, "instance-of", "22c", "type", CLEAR)
_op(0x21, "array-length", "12x", effect=COPY)
_op(0x22, "new-instance", "21c", "type", CLEAR)
_op(0x23, "new-array", "22c", "type", CLEAR)
_op(0x24, "filled-new-array", "35c", "type", FILLED)
_op(0x25, "filled-new-array/range", "3rc", "type", FILLED)
_op(0x26, "fill-array-data", "31t")
_op(0x27, "throw", "11x")
_op(0x28, "goto", "10t")
_op(0x29, "goto/16", "20t")
_op(0x2A, "goto/32", "30t")
_op(0x2B, "packed-switch", "31t")
_op(0x2C, "sparse-switch", "31t")
for i, n in enumerate(["cmpl-float", "cmpg-float", "cmpl-double", "cmpg-double", "cmp-long"]):
    _op(0x2D + i, n, "23x", effect=JOIN3)
for i, n in enumerate(["if-eq", "if-ne", "if-lt", "if-ge", "if-gt", "if-le"]):
    _op(0x32 + i, n, "22t")
for i, n in enumerate(["if-eqz", "if-nez", "if-ltz", "if-gez", "if-gtz", "if-lez"]):
    _op(0x38 + i, n, "21t")
for i in range(0x3E, 0x44):
    _op(i, f"unused-{i:02x}", "10x")
_SUFF = ["", "-wide", "-object", "-boolean", "-byte", "-char", "-short"]
for i, s in enumerate(_SUFF):
    _op(0x44 + i, f"aget{s}", "23x", effect=COPY)
for i, s in enumerate(_SUFF):
    _op(0x4B + i, f"aput{s}", "23x", effect=APUT)
for i, s in enumerate(_SUFF):
    _op(0x52 + i, f"iget{s}", "22c", "field", FIELD_GET)
for i, s in enumerate(_SUFF):
    _op(0x59 + i, f"iput{s}", "22c", "field", FIELD_PUT)
for i, s in enumerate(_SUFF):
    _op(0x60 + i, f"sget{s}", "21c", "field", FIELD_GET)
for i, s in enumerate(_SUFF):
    _op(0x67 + i, f"sput{s}", "21c", "field", FIELD_PUT)
for i, n in enumerate(["virtual", "super", "direct", "static", "interface"]):
    _op(0x6E + i, f"invoke-{n}", "35c", "method", INVOKE_STATIC if n == "static" else INVOKE)
_op(0x73, "unused-73", "10x")
for i, n in enumerate(["virtual", "super", "direct", "static", "interface"]):
    _op(0x74 + i, f"invoke-{n}/range", "3rc", "method", INVOKE_STATIC if n == "static" else INVOKE)
_op(0x79, "unused-79", "10x")
_op(0x7A, "unused-7a", "10x")
_UNOPS = [
    "neg-int", "not-int", "neg-long", "not-long", "neg-float", "neg-double",
    "int-to-long", "int-to-float", "int-to-double", "long-to-int",
    "long-to-float", "long-to-double", "float-to-int", "float-to-long",
    "float-to-double", "double-to-int", "double-to-long", "double-to-float",
    "int-to-byte", "int-to-char", "int-to-short",
]
for i, n in enumerate(_UNOPS):
    _op(0x7B + i, n, "12x", effect=COPY)
_BINOPS = [
    "add-int", "sub-int", "mul-int", "div-int", "rem-int", "and-int",
    "or-int", "xor-int", "shl-int", "shr-int", "ushr-int",
    "add-long", "sub-long", "mul-long", "div-long", "rem-long", "and-long",
    "or-long", "xor-long", "shl-long", "shr-long", "ushr-long",
    "add-float", "sub-float", "mul-float", "div-float", "rem-float",
    "add-double", "sub-double", "mul-double", "div-double", "rem-double",
]
for i, n in enumerate(_BINOPS):
    _op(0x90 + i, n, "23x", effect=JOIN3)
for i, n in enumerate(_BINOPS):
    _op(0xB0 + i, f"{n}/2addr", "12x", effect=JOIN2)
_LIT16 = ["add", "rsub", "mul", "div", "rem", "and", "or", "xor"]
for i, n in enumerate(_LIT16):
    _op(0xD0 + i, f"{n}-int/lit16", "22s", effect=COPY)
_LIT8 = ["add", "rsub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr", "ushr"]
for i, n in enumerate(_LIT8):
    _op(0xD8 + i, f"{n}-int/lit8", "22b", effect=COPY)
for i in range(0xE3, 0xFA):
    _op(i, f"unused-{i:02x}", "10x")
_op(0xFA, "invoke-polymorphic", "45cc", "method", INVOKE)
_op(0xFB, "invoke-polymorphic/range", "4rcc", "method", INVOKE)
_op(0xFC, "invoke-custom", "35c", effect=INVOKE_STATIC)
_op(0xFD, "invoke-custom/range", "3rc", effect=INVOKE_STATIC)
_op(0xFE, "const-method-handle", "21c", effect=CLEAR)
_op(0xFF, "const-method-type", "21c", effect=CLEAR)

OPCODES: dict[int, tuple[str, str, str]] = {c: (n, f, r) for c, n, f, r, _ in _T}
assert len(OPCODES) == 256
# opcode -> register effect, read as EFFECTS[opcode & 0xFF]: a payload
# pseudo-instruction's 16-bit ident has a low byte of 0x00 (nop), so it reads NONE
EFFECTS = bytes(effect for *_, effect in sorted(_T))


def _opcodes(test) -> frozenset[int]:
    """The opcodes whose (name, ref kind) pass ``test``."""
    return frozenset(c for c, (name, _fmt, ref) in OPCODES.items() if test(name, ref))


# invokes with a method ref (invoke-custom refers to a call site); the exact
# ones, static and direct with their /range forms, name their target
INVOKES = _opcodes(lambda name, ref: ref == "method")
CONST_STRINGS = _opcodes(lambda name, ref: ref == "string")
FIELD_READS = frozenset(c for c in range(256) if EFFECTS[c] == FIELD_GET)
EXACT_INVOKES = _opcodes(lambda name, ref: name.partition("/")[0] in ("invoke-static", "invoke-direct"))
SUPER_INVOKES = _opcodes(lambda name, ref: name.partition("/")[0] == "invoke-super")

# payload pseudo-instruction idents (full 16-bit opcode unit)
PACKED_SWITCH_PAYLOAD = 0x0100
SPARSE_SWITCH_PAYLOAD = 0x0200
FILL_ARRAY_PAYLOAD = 0x0300
