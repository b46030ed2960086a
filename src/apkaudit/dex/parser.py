"""DEX file parser and multi-DEX merge.

Reads the published little-endian DEX layout (versions 035-041), decodes
method bodies into instruction streams, and merges classesN.dex files into
one :class:`CodeModel`.  Each entry is parsed on its own: a malformed
entry adds one ``dex:`` warning and no class, and the others still merge.

Each method body is unpacked once into a tuple of 16-bit code units and
decoded through ``_TABLE``, built once from :data:`opcodes.OPCODES`: for
each of the 256 opcodes it holds the mnemonic, the width, the operand
decoder of its encoding format, the reference kind and whether the opcode
is opaque.  An instruction's pool reference that is out of range resolves
to ``None``.  Unused opcodes and unknown payloads are kept opaque at their
correct width so the stream never desynchronizes.  Any other offset or
index that points outside the data or a pool raises
:class:`MalformedDexError` naming the entry.  Strings that are not valid
MUTF-8 are decoded lossily and counted in one warning per entry.
"""

from __future__ import annotations

import re
import struct
import zlib

from ..container import ApkArtifact, read_entry
from ..errors import (
    AbstractMethodError,
    DexError,
    DexMagicError,
    MalformedDexError,
    NoDexEntryError,
    UnknownMethodError,
)
from . import opcodes as op
from .model import (
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
    order.  An entry that fails to parse becomes a ``dex:`` warning; when no
    entry parses, the first entry's error is raised."""
    names = sorted(
        (n for n in a.entries if _DEX_NAME.match(n)),
        key=lambda n: int(_DEX_NAME.match(n).group(1) or 1),
    )
    if not names:
        raise NoDexEntryError(f"{a.path}: no classes*.dex entry")
    model = CodeModel()
    errors = []
    for name in names:
        try:
            parse_dex(read_entry(a, name), into=model, origin=name)
            model.dex_count += 1
        except DexError as exc:
            errors.append(exc)
            model.warnings.append(f"dex: {exc}")
    if not model.dex_count:
        raise errors[0]
    return model


def parse_dex(data: bytes, into: CodeModel | None = None, origin: str = "classes.dex") -> CodeModel:
    model = into if into is not None else CodeModel()
    if into is None:
        model.dex_count = 1
    d = _DexReader(data, origin)
    warnings = d.check_header()
    try:
        d.load_pools()
        classes = list(d.classes())
    except (IndexError, struct.error, ValueError) as exc:
        raise MalformedDexError(f"{origin}: malformed DEX ({type(exc).__name__}: {exc})") from exc
    # the model is only touched once the whole entry has parsed
    model.warnings.extend(warnings)
    if d.invalid_strings:
        model.warnings.append(f"{origin}: {d.invalid_strings} invalid MUTF-8 string(s) replaced")
    for cls in classes:
        model.add_class(cls)
    model.string_pool.update(d.strings)
    return model


class _DexReader:
    def __init__(self, data: bytes, origin: str):
        self.data = data
        self.origin = origin
        self.invalid_strings = 0

    def check_header(self) -> list[str]:
        if len(self.data) < 0x70 or not _MAGIC.match(self.data[:8]):
            raise DexMagicError(f"{self.origin}: bad DEX magic {self.data[:8]!r}")
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
        self.methods = []
        for cls_idx, proto, name_idx in _records("<2HI", d, method_ids_off, method_ids_size):
            cls = self.types[cls_idx]
            params, ret = self.protos[proto]
            name = self.strings[name_idx]
            self.methods.append((format_method_key(cls, name, params, ret), cls, name, params, ret))
        # operand pools by reference kind; "none" resolves nothing
        self.pools = {
            "none": (), "string": self.strings, "type": self.types,
            "field": self.fields, "method": [m[0] for m in self.methods],
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
        for (class_idx, access, super_idx, interfaces_off, _source, _annotations,
             class_data_off, _static_values) in _records(
                 "<8I", self.data, self.class_defs_off, self.class_defs_size):
            cls = DexClass(
                descriptor=self.types[class_idx],
                superclass=self.types[super_idx] if super_idx != NO_INDEX else None,
                interfaces=self._type_list(interfaces_off) if interfaces_off else (),
                access_flags=access,
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
            key, class_desc, name, params, ret = self.methods[idx]
            m = DexMethod(
                key=key,
                class_desc=class_desc,
                name=name,
                params=params,
                return_type=ret,
                access_flags=flags,
            )
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
        out: list[Instruction] = []
        pos = 0
        while pos < size:
            unit = u[pos]
            opcode = unit & 0xFF
            if opcode == 0 and unit:
                ins = _payload(u, pos, unit)
            else:
                name, width, operands, ref_kind, opaque = _TABLE[opcode]
                regs, idx, literal, target = operands(u, pos, unit >> 8)
                pool = pools[ref_kind]
                resolved = pool[idx] if idx is not None and idx < len(pool) else None
                ins = Instruction(pos, opcode, name, width, regs, ref_kind, resolved, literal,
                                  target, opaque)
            out.append(ins)
            pos += ins.width
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


# opcode -> (mnemonic, width, operand decoder, ref kind, opaque)
_TABLE = tuple(
    (name, op.FORMAT_WIDTH[fmt], _OPERANDS[fmt], ref, name.startswith("unused-"))
    for name, fmt, ref in (op.OPCODES[code] for code in range(256))
)

# payload ident -> (mnemonic, width from the payload header)
_PAYLOADS = {
    op.PACKED_SWITCH_PAYLOAD: ("packed-switch-payload", lambda u, p: u[p + 1] * 2 + 4),
    op.SPARSE_SWITCH_PAYLOAD: ("sparse-switch-payload", lambda u, p: u[p + 1] * 4 + 2),
    op.FILL_ARRAY_PAYLOAD: (
        "fill-array-data-payload", lambda u, p: (u[p + 1] * (u[p + 2] | u[p + 3] << 16) + 1) // 2 + 4),
}


def _payload(u: tuple[int, ...], pos: int, ident: int) -> Instruction:
    name, width_of = _PAYLOADS.get(ident, (f"unknown-payload-{ident:04x}", lambda u, p: 1))
    return Instruction(offset=pos, opcode=ident, mnemonic=name, width=width_of(u, pos), opaque=True)


def method_body(model: CodeModel, key: str) -> list[Instruction]:
    """Instruction list of a concrete method."""
    m = model.method(key)
    if m is None:
        raise UnknownMethodError(key)
    if not m.is_concrete:
        raise AbstractMethodError(key)
    return m.instructions


def _uleb128(data: bytes, off: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        b = data[off]
        off += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, off
        shift += 7


def decode_mutf8(raw: bytes) -> str:
    """Decode MUTF-8 (CESU-8 with 0xC0 0x80 for NUL), lossy on bad input."""
    return _decode_mutf8(raw)[0]


def _decode_mutf8(raw: bytes) -> tuple[str, bool]:
    """The decoded text, and whether any invalid sequence was replaced."""
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
        parts = [f"  {ins.offset:04x}: {ins.mnemonic}"]
        if ins.registers:
            parts.append(" " + ", ".join(f"v{r}" for r in ins.registers))
        if ins.resolved_ref is not None:
            parts.append(f" {ins.resolved_ref!r}" if ins.ref_kind == "string" else f" {ins.resolved_ref}")
        if ins.literal is not None:
            parts.append(f" #{ins.literal}")
        if ins.branch_target is not None:
            parts.append(f" -> {ins.branch_target:04x}")
        lines.append("".join(parts))
    return "\n".join(lines) + "\n"
