"""DEX file parser and multi-DEX merge.

Reads the published little-endian DEX layout (versions 035-041), decodes
method bodies into instruction streams, and merges classesN.dex files into
one :class:`CodeModel`.  Each entry is read and parsed on its own: an entry
that cannot be decompressed or is malformed adds one ``dex:`` warning and
no class, and the others still merge.

Each method body is unpacked once into a tuple of 16-bit code units and
decoded through ``_TABLE``, built once from :data:`opcodes.OPCODES`: for
each of the 256 opcodes it holds the width, the operand decoder of its
encoding format and the reference kind.  Each instruction becomes a plain
six-field tuple in the field order of :mod:`.model`, and equal register
tuples are stored once per app (``CodeModel.register_tuples``).  The cycle
collector then stops tracking the instructions after its first pass over
them, instead of walking every one of them again in each full collection,
and the model holds less memory.

Equal instructions at the same offset are one tuple per dex entry: each
entry's reader keeps a table from an instruction's offset and code units
to the tuple decoded from them, and a body that repeats them appends that
tuple without decoding it again (hash-consing).  The table is per entry,
since the same units resolve through each entry's own pools, and it is
dropped once the entry is parsed.  Instructions are values: no code may
compare them by identity or count them by ``id()``.

An instruction's pool reference that is out of range resolves to ``None``.
Unused opcodes and unknown payloads are kept at their correct width so the
stream never desynchronizes.  Any other offset or index that points
outside the data or a pool raises ``dex.malformed`` naming the entry.
Strings that are not valid MUTF-8 are decoded lossily and counted in one
warning per entry.
"""

from __future__ import annotations

import re
import struct
import zlib

from ..container import ApkArtifact, read_entry
from ..errors import ApkAuditError
from . import opcodes as op
from .model import (
    LITERAL,
    OFFSET,
    OPCODE,
    REF,
    REGISTERS,
    TARGET,
    CodeModel,
    DexClass,
    DexMethod,
    Instruction,
    format_field_key,
    format_method_key,
)

NO_INDEX = 0xFFFFFFFF
_DEX_NAME = re.compile(r"^classes([2-9][0-9]*)?\.dex$")
_MAGIC = re.compile(rb"^dex\n03[5-9]\x00|^dex\n04[01]\x00")


def load_app_code(a: ApkArtifact) -> CodeModel:
    """Parse and merge every classesN.dex entry of the artifact, in entry
    order.  An entry that cannot be decompressed or fails to parse becomes a
    ``dex:`` warning; when no entry parses, the first entry's error is raised."""
    names = sorted(
        (n for n in a.entries if _DEX_NAME.match(n)),
        key=lambda n: int(_DEX_NAME.match(n).group(1) or 1),
    )
    if not names:
        raise ApkAuditError(f"{a.path}: no classes*.dex entry", "dex.no_entry")
    model = CodeModel()
    first = None
    try:
        for name in names:
            try:
                parse_dex(read_entry(a, name), into=model, origin=name)
            except ApkAuditError as exc:
                first = first or exc
                model.warnings.append(f"dex: {exc}")
        if not model.dex_count:
            raise first
    finally:
        # the error's traceback holds this frame, so a local that still named
        # the error on the way out would make the two a reference cycle
        first = None
    return model


def parse_dex(data: bytes, into: CodeModel | None = None, origin: str = "classes.dex") -> CodeModel:
    model = into if into is not None else CodeModel()
    d = _DexReader(data, origin, model.register_tuples)
    warnings = d.check_header()
    try:
        d.load_pools()
        classes = list(d.classes())
    except (IndexError, struct.error, ValueError) as exc:
        raise ApkAuditError(f"{origin}: malformed DEX ({type(exc).__name__}: {exc})",
                            "dex.malformed") from exc
    # the model is only touched once the whole entry has parsed
    model.warnings.extend(warnings)
    if d.invalid_strings:
        model.warnings.append(f"{origin}: {d.invalid_strings} invalid MUTF-8 string(s) replaced")
    for cls in classes:
        model.add_class(cls)
    model.string_pool.update(d.strings)
    model.dex_count += 1
    return model


class _DexReader:
    def __init__(self, data: bytes, origin: str, register_tuples: dict):
        self.data = data
        self.origin = origin
        self.register_tuples = register_tuples
        # (offset, code units) key -> instruction, for this entry's pools only
        self.decoded: dict[tuple[int, ...], Instruction] = {}
        self.invalid_strings = 0

    def check_header(self) -> list[str]:
        if len(self.data) < 0x70 or not _MAGIC.match(self.data[:8]):
            raise ApkAuditError(f"{self.origin}: bad DEX magic {self.data[:8]!r}", "dex.magic")
        (checksum,) = struct.unpack_from("<I", self.data, 8)
        actual = zlib.adler32(memoryview(self.data)[12:]) & 0xFFFFFFFF
        if checksum == actual:
            return []
        return [f"{self.origin}: adler32 checksum mismatch "
                f"(header 0x{checksum:08x}, actual 0x{actual:08x})"]

    def load_pools(self) -> None:
        d = self.data
        (string_ids_size, string_ids_off, type_ids_size, type_ids_off,
         proto_ids_size, proto_ids_off, field_ids_size, field_ids_off,
         method_ids_size, method_ids_off, self.class_defs_size,
         self.class_defs_off) = struct.unpack_from("<12I", d, 0x38)

        self.strings = [
            self._string_data(off)
            for off in struct.unpack_from(f"<{string_ids_size}I", d, string_ids_off)
        ]
        self.types = [
            self.strings[i] for i in struct.unpack_from(f"<{type_ids_size}I", d, type_ids_off)
        ]
        self.protos = [
            (self._type_list(params_off) if params_off else (), self.types[ret])
            for _shorty, ret, params_off in _records("<3I", d, proto_ids_off, proto_ids_size)
        ]
        self.fields = [
            format_field_key(self.types[cls], self.strings[name], self.types[type_])
            for cls, type_, name in _records("<2HI", d, field_ids_off, field_ids_size)
        ]
        self.methods = [
            format_method_key(self.types[cls], self.strings[name], *self.protos[proto])
            for cls, proto, name in _records("<2HI", d, method_ids_off, method_ids_size)
        ]
        # operand pools by reference kind; "none" resolves nothing
        self.pools = {
            "none": (), "string": self.strings, "type": self.types,
            "field": self.fields, "method": self.methods,
        }

    def _type_list(self, off) -> tuple[str, ...]:
        (size,) = struct.unpack_from("<I", self.data, off)
        return tuple(self.types[i] for i in struct.unpack_from(f"<{size}H", self.data, off + 4))

    def _string_data(self, off: int) -> str:
        _n, off = _uleb128(self.data, off)
        end = self.data.index(b"\x00", off)
        text, replaced = _decode_mutf8(self.data[off:end])
        self.invalid_strings += replaced
        return text

    def classes(self):
        for (class_idx, _access, super_idx, interfaces_off, _source, _annotations,
             class_data_off, _static_values) in _records(
                 "<8I", self.data, self.class_defs_off, self.class_defs_size):
            cls = DexClass(
                descriptor=self.types[class_idx],
                superclass=self.types[super_idx] if super_idx != NO_INDEX else None,
                interfaces=self._type_list(interfaces_off) if interfaces_off else (),
            )
            if class_data_off:
                self._class_data(class_data_off, cls)
            yield cls

    def _class_data(self, off: int, cls: DexClass) -> None:
        data = self.data
        n_static, off = _uleb128(data, off)
        n_instance, off = _uleb128(data, off)
        n_direct, off = _uleb128(data, off)
        n_virtual, off = _uleb128(data, off)
        for _ in range(n_static + n_instance):
            _idx, off = _uleb128(data, off)
            _flags, off = _uleb128(data, off)
        # method_idx deltas restart at each of the two method lists
        off = self._method_list(data, off, n_direct, cls)
        off = self._method_list(data, off, n_virtual, cls)

    def _method_list(self, data: bytes, off: int, count: int, cls: DexClass) -> int:
        idx = 0
        for i in range(count):
            idx_diff, off = _uleb128(data, off)
            flags, off = _uleb128(data, off)
            code_off, off = _uleb128(data, off)
            idx = idx_diff if i == 0 else idx + idx_diff
            m = DexMethod(self.methods[idx], flags)
            if code_off:
                m.registers, m.ins, _outs, _tries, _debug, insns_size = struct.unpack_from(
                    "<4H2I", data, code_off)
                m.instructions = self._decode_insns(code_off + 16, insns_size)
            cls.methods.append(m)
        return off

    def _decode_insns(self, base: int, size: int) -> list[Instruction]:
        # A wide last instruction reads up to 4 units past the body, as the
        # DEX layout allows; the read never goes past the end of the data.
        n = max(0, min(size + 4, (len(self.data) - base) // 2))
        u = struct.unpack_from(f"<{n}H", self.data, base)
        pools = self.pools
        shared = self.register_tuples
        decoded = self.decoded
        out: list[Instruction] = []
        pos = 0
        while pos < size:
            unit = u[pos]
            opcode = unit & 0xFF
            if opcode == 0 and unit:  # a payload: its 16-bit ident is its opcode
                out.append((pos, unit, (), None, None, None))
                pos += _PAYLOADS[unit][1](u, pos) if unit in _PAYLOADS else 1
                continue
            width, operands, ref_kind = _TABLE[opcode]
            # The key is the offset and the units the format's decoder reads,
            # so a truncated body fails here as it would in the decoder.  The
            # opcode in the low byte fixes the width, so widths never collide.
            if width == 1:
                key = (pos, unit)
            elif width == 2:
                key = (pos, unit, u[pos + 1])
            elif width < 5:  # 45cc and 4rcc read the units of 35c and 3rc
                key = (pos, unit, u[pos + 1], u[pos + 2])
            else:
                key = (pos, unit, u[pos + 1], u[pos + 2], u[pos + 3], u[pos + 4])
            ins = decoded.get(key)
            if ins is None:
                regs, idx, literal, target = operands(u, pos, unit >> 8)
                pool = pools[ref_kind]
                resolved = pool[idx] if idx is not None and idx < len(pool) else None
                ins = decoded[key] = (pos, opcode, shared.setdefault(regs, regs), resolved, literal, target)
            out.append(ins)
            pos += width
        return out


def _records(fmt: str, data: bytes, off: int, count: int) -> list[tuple]:
    """``count`` consecutive fixed-size records of layout ``fmt`` starting at ``off``."""
    rec = struct.Struct(fmt)
    return [rec.unpack_from(data, off + i * rec.size) for i in range(count)]


_S32 = 1 << 31
_S64 = 1 << 63

# Operand decoders, one per encoding format: (units, pos, high byte of the
# opcode unit) -> (registers, pool index, literal, branch target).  Signed
# fields are sign-extended with (v ^ m) - m, m being the sign bit.
_OPERANDS = {
    "10x": lambda u, p, a: ((), None, None, None),
    "12x": lambda u, p, a: ((a & 0xF, a >> 4), None, None, None),
    "11n": lambda u, p, a: ((a & 0xF,), None, ((a >> 4) ^ 0x8) - 0x8, None),
    "11x": lambda u, p, a: ((a,), None, None, None),
    "10t": lambda u, p, a: ((), None, None, p + (a ^ 0x80) - 0x80),
    "20t": lambda u, p, a: ((), None, None, p + (u[p + 1] ^ 0x8000) - 0x8000),
    "22x": lambda u, p, a: ((a, u[p + 1]), None, None, None),
    "21t": lambda u, p, a: ((a,), None, None, p + (u[p + 1] ^ 0x8000) - 0x8000),
    "21s": lambda u, p, a: ((a,), None, (u[p + 1] ^ 0x8000) - 0x8000, None),
    "21c": lambda u, p, a: ((a,), u[p + 1], None, None),
    "23x": lambda u, p, a: ((a, u[p + 1] & 0xFF, u[p + 1] >> 8), None, None, None),
    "22b": lambda u, p, a: ((a, u[p + 1] & 0xFF), None, ((u[p + 1] >> 8) ^ 0x80) - 0x80, None),
    "22t": lambda u, p, a: ((a & 0xF, a >> 4), None, None, p + (u[p + 1] ^ 0x8000) - 0x8000),
    "22s": lambda u, p, a: ((a & 0xF, a >> 4), None, (u[p + 1] ^ 0x8000) - 0x8000, None),
    "22c": lambda u, p, a: ((a & 0xF, a >> 4), u[p + 1], None, None),
    "30t": lambda u, p, a: ((), None, None, p + ((u[p + 1] | u[p + 2] << 16) ^ _S32) - _S32),
    "32x": lambda u, p, a: ((u[p + 1], u[p + 2]), None, None, None),
    "31i": lambda u, p, a: ((a,), None, ((u[p + 1] | u[p + 2] << 16) ^ _S32) - _S32, None),
    "31t": lambda u, p, a: ((a,), None, None, p + ((u[p + 1] | u[p + 2] << 16) ^ _S32) - _S32),
    "31c": lambda u, p, a: ((a,), u[p + 1] | u[p + 2] << 16, None, None),
    "35c": lambda u, p, a: (_invoke_args(u[p + 2], a), u[p + 1], None, None),
    "3rc": lambda u, p, a: (tuple(range(u[p + 2], u[p + 2] + a)), u[p + 1], None, None),
    "51l": lambda u, p, a: (
        (a,), None,
        ((u[p + 1] | u[p + 2] << 16 | u[p + 3] << 32 | u[p + 4] << 48) ^ _S64) - _S64, None),
}
_OPERANDS["21h"] = _OPERANDS["21s"]
_OPERANDS["45cc"] = _OPERANDS["35c"]
_OPERANDS["4rcc"] = _OPERANDS["3rc"]


def _invoke_args(unit: int, a: int) -> tuple[int, ...]:
    """Argument registers C..G of a 35c/45cc invoke; A (high nibble of ``a``) counts them,
    and a count above 5 keeps all five."""
    return (unit & 0xF, unit >> 4 & 0xF, unit >> 8 & 0xF, unit >> 12, a & 0xF)[: a >> 4]


# opcode -> (width, operand decoder, ref kind)
_TABLE = tuple(
    (op.FORMAT_WIDTH[fmt], _OPERANDS[fmt], ref)
    for _name, fmt, ref in (op.OPCODES[code] for code in range(256))
)

# payload ident -> (mnemonic, width from the payload header); unknown: 1 unit
_PAYLOADS = {
    op.PACKED_SWITCH_PAYLOAD: ("packed-switch-payload", lambda u, p: u[p + 1] * 2 + 4),
    op.SPARSE_SWITCH_PAYLOAD: ("sparse-switch-payload", lambda u, p: u[p + 1] * 4 + 2),
    op.FILL_ARRAY_PAYLOAD: (
        "fill-array-data-payload", lambda u, p: (u[p + 1] * (u[p + 2] | u[p + 3] << 16) + 1) // 2 + 4),
}


def mnemonic(opcode: int) -> str:
    """Name of an opcode, or of a payload pseudo-instruction's 16-bit ident."""
    if opcode < 256:
        return op.OPCODES[opcode][0]
    return _PAYLOADS[opcode][0] if opcode in _PAYLOADS else f"unknown-payload-{opcode:04x}"


def method_body(model: CodeModel, key: str) -> list[Instruction]:
    """Instruction list of a concrete method."""
    m = model.method(key)
    if m is None:
        raise ApkAuditError(f"no method {key}", "dex.unknown_method")
    if not m.is_concrete:
        raise ApkAuditError(f"{key} has no code (abstract or native)", "dex.abstract_method")
    return m.instructions


def _uleb128(data: bytes, off: int) -> tuple[int, int]:
    b = data[off]
    if b < 0x80:  # most values fit in one byte
        return b, off + 1
    result = 0
    for shift in range(0, 35, 7):  # the format allows at most five bytes
        b = data[off]
        off += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, off
    raise ValueError(f"uleb128 at offset {off - 5} longer than 5 bytes")


def decode_mutf8(raw: bytes) -> str:
    """Decode MUTF-8 (CESU-8 with 0xC0 0x80 for NUL), lossy on bad input."""
    return _decode_mutf8(raw)[0]


def _decode_mutf8(raw: bytes) -> tuple[str, bool]:
    """The decoded text, and whether any invalid sequence was replaced."""
    if raw.isascii():  # MUTF-8 writes NUL as C0 80, so ASCII bytes are the text itself
        return raw.decode("ascii"), False
    try:
        s = raw.replace(b"\xc0\x80", b"\x00").decode("utf-8", errors="surrogatepass")
        # collapse CESU-8 surrogate pairs into real code points
        units = s.encode("utf-16", "surrogatepass")
    except (UnicodeDecodeError, UnicodeEncodeError):
        return raw.decode("utf-8", errors="replace"), True
    try:
        return units.decode("utf-16"), False
    except UnicodeDecodeError:  # an unpaired surrogate
        return units.decode("utf-16", errors="replace"), True


def dump_method(model: CodeModel, key: str) -> str:
    """Stable textual listing of one method body (debug CLI)."""
    lines = [key]
    for ins in method_body(model, key):
        parts = [f"  {ins[OFFSET]:04x}: {mnemonic(ins[OPCODE])}"]
        if ins[REGISTERS]:
            parts.append(" " + ", ".join(f"v{r}" for r in ins[REGISTERS]))
        if ins[REF] is not None:
            parts.append(f" {ins[REF]!r}" if ins[OPCODE] in op.CONST_STRINGS else f" {ins[REF]}")
        if ins[LITERAL] is not None:
            parts.append(f" #{ins[LITERAL]}")
        if ins[TARGET] is not None:
            parts.append(f" -> {ins[TARGET]:04x}")
        lines.append("".join(parts))
    return "\n".join(lines) + "\n"
