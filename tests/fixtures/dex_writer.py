"""Minimal DEX assembler for building test fixtures.

Implements enough of the published DEX layout (strings, types, protos,
fields, methods, class_defs, class_data, code items, map list) to produce
real, checksum-valid classes.dex blobs from symbolic instruction lists.
Kept independent of the package under test: it has its own opcode table
and key parsing.

Instruction syntax (tuples):
    ("const-string", [reg], "text")
    ("const/4", [reg], 3)
    ("invoke-virtual", [r0, r1], "Lcom/x/Y;->m(Ljava/lang/String;)V")
    ("iget-object", [dst, obj], "Lcom/x/Y;->f:Ljava/lang/String;")
    ("goto", [], ("->", "loop"))
    ("label", "loop")
    ("packed-switch-payload", n_targets)
    ("return-void", [])
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass, field

ACC_PUBLIC = 0x1
ACC_PRIVATE = 0x2
ACC_STATIC = 0x8
ACC_INTERFACE = 0x200
ACC_ABSTRACT = 0x400
ACC_NATIVE = 0x100
ACC_CONSTRUCTOR = 0x10000

NO_INDEX = 0xFFFFFFFF

# mnemonic -> (opcode, format, ref kind); only what fixtures use
OPS = {
    "nop": (0x00, "10x", None),
    "move": (0x01, "12x", None),
    "move/from16": (0x02, "22x", None),
    "move-wide": (0x04, "12x", None),
    "move-object": (0x07, "12x", None),
    "move-object/from16": (0x08, "22x", None),
    "move-result": (0x0A, "11x", None),
    "move-result-wide": (0x0B, "11x", None),
    "move-result-object": (0x0C, "11x", None),
    "return-void": (0x0E, "10x", None),
    "return": (0x0F, "11x", None),
    "return-wide": (0x10, "11x", None),
    "return-object": (0x11, "11x", None),
    "const/4": (0x12, "11n", None),
    "const/16": (0x13, "21s", None),
    "const": (0x14, "31i", None),
    "const-wide/16": (0x16, "21s", None),
    "const-wide": (0x18, "51l", None),
    "const-string": (0x1A, "21c", "string"),
    "const-string/jumbo": (0x1B, "31c", "string"),
    "const-class": (0x1C, "21c", "type"),
    "check-cast": (0x1F, "21c", "type"),
    "instance-of": (0x20, "22c", "type"),
    "array-length": (0x21, "12x", None),
    "new-instance": (0x22, "21c", "type"),
    "new-array": (0x23, "22c", "type"),
    "filled-new-array": (0x24, "35c", "type"),
    "fill-array-data": (0x26, "31t", None),
    "throw": (0x27, "11x", None),
    "goto": (0x28, "10t", None),
    "goto/16": (0x29, "20t", None),
    "packed-switch": (0x2B, "31t", None),
    "sparse-switch": (0x2C, "31t", None),
    "cmp-long": (0x31, "23x", None),
    "if-eq": (0x32, "22t", None),
    "if-ne": (0x33, "22t", None),
    "if-eqz": (0x38, "21t", None),
    "if-nez": (0x39, "21t", None),
    "aget": (0x44, "23x", None),
    "aget-object": (0x46, "23x", None),
    "aput": (0x4B, "23x", None),
    "aput-object": (0x4D, "23x", None),
    "iget": (0x52, "22c", "field"),
    "iget-object": (0x54, "22c", "field"),
    "iput": (0x59, "22c", "field"),
    "iput-object": (0x5B, "22c", "field"),
    "sget": (0x60, "21c", "field"),
    "sget-object": (0x62, "21c", "field"),
    "sput": (0x67, "21c", "field"),
    "sput-object": (0x69, "21c", "field"),
    "invoke-virtual": (0x6E, "35c", "method"),
    "invoke-super": (0x6F, "35c", "method"),
    "invoke-direct": (0x70, "35c", "method"),
    "invoke-static": (0x71, "35c", "method"),
    "invoke-interface": (0x72, "35c", "method"),
    "invoke-virtual/range": (0x74, "3rc", "method"),
    "invoke-static/range": (0x77, "3rc", "method"),
    "neg-int": (0x7B, "12x", None),
    "int-to-long": (0x81, "12x", None),
    "long-to-int": (0x84, "12x", None),
    "add-int": (0x90, "23x", None),
    "sub-int": (0x91, "23x", None),
    "mul-int": (0x92, "23x", None),
    "xor-int": (0x97, "23x", None),
    "add-long": (0x9B, "23x", None),
    "add-int/2addr": (0xB0, "12x", None),
    "add-int/lit16": (0xD0, "22s", None),
    "add-int/lit8": (0xD8, "22b", None),
}

WIDTH = {
    "10x": 1, "12x": 1, "11n": 1, "11x": 1, "10t": 1,
    "20t": 2, "22x": 2, "21t": 2, "21s": 2, "21c": 2,
    "23x": 2, "22b": 2, "22t": 2, "22s": 2, "22c": 2,
    "31i": 3, "31t": 3, "31c": 3, "35c": 3, "3rc": 3,
    "51l": 5,
}


@dataclass
class MethodDef:
    name: str
    params: tuple[str, ...] = ()
    ret: str = "V"
    access: int = ACC_PUBLIC
    registers: int = 4
    code: list | None = None  # None => abstract/native (no code item)


@dataclass
class ClassDef:
    descriptor: str
    superclass: str | None = "Ljava/lang/Object;"
    interfaces: tuple[str, ...] = ()
    access: int = ACC_PUBLIC
    methods: list[MethodDef] = field(default_factory=list)


def parse_method_key(key: str) -> tuple[str, str, tuple[str, ...], str]:
    cls, rest = key.split("->", 1)
    name, rest = rest.split("(", 1)
    proto, ret = rest.rsplit(")", 1)
    return cls, name, tuple(_split_desc(proto)), ret


def parse_field_key(key: str) -> tuple[str, str, str]:
    cls, rest = key.split("->", 1)
    name, ftype = rest.split(":", 1)
    return cls, name, ftype


def _split_desc(proto: str) -> list[str]:
    out = []
    i = 0
    while i < len(proto):
        start = i
        while proto[i] == "[":
            i += 1
        if proto[i] == "L":
            i = proto.index(";", i) + 1
        else:
            i += 1
        out.append(proto[start:i])
    return out


def _shorty(ret: str, params: tuple[str, ...]) -> str:
    def c(d):
        return "L" if d[0] in "L[" else d[0]

    return c(ret) + "".join(c(p) for p in params)


def encode_mutf8(s: str) -> bytes:
    out = bytearray()
    units = s.encode("utf-16-be", "surrogatepass")
    for i in range(0, len(units), 2):
        u = (units[i] << 8) | units[i + 1]
        if u == 0:
            out += b"\xc0\x80"
        elif u < 0x80:
            out.append(u)
        elif u < 0x800:
            out += bytes([0xC0 | (u >> 6), 0x80 | (u & 0x3F)])
        else:
            out += bytes([0xE0 | (u >> 12), 0x80 | ((u >> 6) & 0x3F), 0x80 | (u & 0x3F)])
    return bytes(out)


def uleb128(v: int) -> bytes:
    out = bytearray()
    while True:
        b = v & 0x7F
        v >>= 7
        if v:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


class DexWriter:
    def __init__(self):
        self.classes: list[ClassDef] = []

    def add_class(self, descriptor: str, superclass: str | None = "Ljava/lang/Object;",
                  interfaces: tuple[str, ...] = (), access: int = ACC_PUBLIC,
                  methods: list[MethodDef] | None = None) -> ClassDef:
        cd = ClassDef(descriptor, superclass, interfaces, access, list(methods or []))
        self.classes.append(cd)
        return cd

    # ---- pool collection -------------------------------------------------

    def _collect(self):
        strings: set[str] = set()
        types: set[str] = set()
        protos: set[tuple[str, tuple[str, ...]]] = set()  # (ret, params)
        fields: set[tuple[str, str, str]] = set()
        methods: set[tuple[str, str, tuple[str, ...], str]] = set()

        def add_type(t):
            types.add(t)
            strings.add(t)

        def add_proto(ret, params):
            protos.add((ret, params))
            strings.add(_shorty(ret, params))
            add_type(ret)
            for p in params:
                add_type(p)

        for cls in self.classes:
            add_type(cls.descriptor)
            if cls.superclass:
                add_type(cls.superclass)
            for itf in cls.interfaces:
                add_type(itf)
            for m in cls.methods:
                strings.add(m.name)
                add_proto(m.ret, m.params)
                methods.add((cls.descriptor, m.name, m.params, m.ret))
                for ins in m.code or []:
                    self._collect_ins(ins, strings, add_type, add_proto, fields, methods)

        string_list = sorted(strings)
        type_list = sorted(types)
        sx = {s: i for i, s in enumerate(string_list)}
        tx = {t: i for i, t in enumerate(type_list)}
        proto_list = sorted(protos, key=lambda p: (tx[p[0]], tuple(tx[q] for q in p[1])))
        px = {p: i for i, p in enumerate(proto_list)}
        field_list = sorted(fields, key=lambda f: (tx[f[0]], sx[f[1]], tx[f[2]]))
        fx = {f: i for i, f in enumerate(field_list)}
        method_list = sorted(methods, key=lambda m: (tx[m[0]], sx[m[1]], px[(m[3], m[2])]))
        mx = {m: i for i, m in enumerate(method_list)}
        return string_list, type_list, proto_list, field_list, method_list, sx, tx, px, fx, mx

    def _collect_ins(self, ins, strings, add_type, add_proto, fields, methods):
        if not ins or ins[0] in ("label",) or ins[0].endswith("-payload"):
            return
        op = OPS[ins[0]]
        ref = op[2]
        if ref is None:
            return
        arg = ins[2]
        if ref == "string":
            strings.add(arg)
        elif ref == "type":
            add_type(arg)
        elif ref == "field":
            cls, name, ftype = parse_field_key(arg)
            add_type(cls)
            add_type(ftype)
            strings.add(name)
            fields.add((cls, name, ftype))
        elif ref == "method":
            cls, name, params, ret = parse_method_key(arg)
            add_type(cls)
            strings.add(name)
            add_proto(ret, params)
            methods.add((cls, name, params, ret))

    # ---- instruction assembly -------------------------------------------

    def _assemble(self, code: list, sx, tx, fx, mx, px_unused=None) -> list[int]:
        # pass 1: widths and label positions
        labels: dict[str, int] = {}
        pos = 0
        widths = []
        for ins in code:
            if ins[0] == "label":
                labels[ins[1]] = pos
                widths.append(0)
                continue
            w = self._ins_width(ins)
            widths.append(w)
            pos += w

        units: list[int] = []
        pos = 0
        for ins, w in zip(code, widths):
            if ins[0] == "label":
                continue
            units.extend(self._encode(ins, pos, labels, sx, tx, fx, mx))
            pos += w
        return units

    def _ins_width(self, ins) -> int:
        name = ins[0]
        if name == "packed-switch-payload":
            return ins[1] * 2 + 4
        if name == "sparse-switch-payload":
            return ins[1] * 4 + 2
        if name == "fill-array-data-payload":
            elem, n = ins[1], ins[2]
            return (elem * n + 1) // 2 + 4
        return WIDTH[OPS[name][1]]

    def _encode(self, ins, pos, labels, sx, tx, fx, mx) -> list[int]:
        name = ins[0]
        if name == "packed-switch-payload":
            return [0x0100, ins[1], 0, 0] + [0] * (ins[1] * 2)
        if name == "sparse-switch-payload":
            return [0x0200, ins[1]] + [0] * (ins[1] * 4)
        if name == "fill-array-data-payload":
            elem, n = ins[1], ins[2]
            return [0x0300, elem, n & 0xFFFF, n >> 16] + [0] * ((elem * n + 1) // 2)

        opcode, fmt, ref = OPS[name]
        regs = list(ins[1]) if len(ins) > 1 else []
        extra = ins[2] if len(ins) > 2 else None

        def resolve_target():
            if isinstance(extra, tuple) and extra[0] == "->":
                return labels[extra[1]] - pos
            return extra

        def ref_index():
            if ref == "string":
                return sx[extra]
            if ref == "type":
                return tx[extra]
            if ref == "field":
                return fx[parse_field_key(extra)]
            if ref == "method":
                cls, n, p, r = parse_method_key(extra)
                return mx[(cls, n, p, r)]
            raise AssertionError(name)

        if fmt == "10x":
            return [opcode]
        if fmt == "12x":
            return [opcode | (regs[0] << 8) | (regs[1] << 12)]
        if fmt == "11n":
            return [opcode | (regs[0] << 8) | ((extra & 0xF) << 12)]
        if fmt == "11x":
            return [opcode | (regs[0] << 8)]
        if fmt == "10t":
            return [opcode | ((resolve_target() & 0xFF) << 8)]
        if fmt == "20t":
            return [opcode, resolve_target() & 0xFFFF]
        if fmt == "22x":
            return [opcode | (regs[0] << 8), regs[1]]
        if fmt == "21t":
            return [opcode | (regs[0] << 8), resolve_target() & 0xFFFF]
        if fmt == "21s":
            return [opcode | (regs[0] << 8), extra & 0xFFFF]
        if fmt == "21c":
            return [opcode | (regs[0] << 8), ref_index()]
        if fmt == "23x":
            return [opcode | (regs[0] << 8), regs[1] | (regs[2] << 8)]
        if fmt == "22b":
            return [opcode | (regs[0] << 8), regs[1] | ((extra & 0xFF) << 8)]
        if fmt == "22t":
            return [opcode | (regs[0] << 8) | (regs[1] << 12), resolve_target() & 0xFFFF]
        if fmt == "22s":
            return [opcode | (regs[0] << 8) | (regs[1] << 12), extra & 0xFFFF]
        if fmt == "22c":
            return [opcode | (regs[0] << 8) | (regs[1] << 12), ref_index()]
        if fmt == "31i":
            v = extra & 0xFFFFFFFF
            return [opcode | (regs[0] << 8), v & 0xFFFF, v >> 16]
        if fmt == "31t":
            t = resolve_target() & 0xFFFFFFFF
            return [opcode | (regs[0] << 8), t & 0xFFFF, t >> 16]
        if fmt == "31c":
            ix = ref_index()
            return [opcode | (regs[0] << 8), ix & 0xFFFF, ix >> 16]
        if fmt == "35c":
            assert len(regs) <= 5
            cdef = regs + [0] * (5 - len(regs))
            g = cdef[4]
            return [
                opcode | (g << 8) | (len(regs) << 12),
                ref_index(),
                cdef[0] | (cdef[1] << 4) | (cdef[2] << 8) | (cdef[3] << 12),
            ]
        if fmt == "3rc":
            assert regs == list(range(regs[0], regs[0] + len(regs)))
            return [opcode | (len(regs) << 8), ref_index(), regs[0]]
        if fmt == "51l":
            v = extra & 0xFFFFFFFFFFFFFFFF
            return [opcode | (regs[0] << 8), v & 0xFFFF, (v >> 16) & 0xFFFF,
                    (v >> 32) & 0xFFFF, (v >> 48) & 0xFFFF]
        raise AssertionError(f"unhandled format {fmt}")

    # ---- file layout -----------------------------------------------------

    def build(self) -> bytes:
        (string_list, type_list, proto_list, field_list, method_list,
         sx, tx, px, fx, mx) = self._collect()

        S, T, P, F, M, C = (len(string_list), len(type_list), len(proto_list),
                            len(field_list), len(method_list), len(self.classes))
        off = 0x70
        string_ids_off = off
        off += 4 * S
        type_ids_off = off
        off += 4 * T
        proto_ids_off = off
        off += 12 * P
        field_ids_off = off if F else 0
        off += 8 * F
        method_ids_off = off
        off += 8 * M
        class_defs_off = off
        off += 32 * C
        data_off = off

        data = bytearray()

        def align4():
            while (data_off + len(data)) % 4:
                data.append(0)

        # type lists (proto params + interfaces)
        type_list_offs: dict[tuple[str, ...], int] = {}
        needed_lists = {p[1] for p in proto_list if p[1]} | {
            c.interfaces for c in self.classes if c.interfaces
        }
        n_type_lists = 0
        for tl in sorted(needed_lists):
            align4()
            type_list_offs[tl] = data_off + len(data)
            data += struct.pack("<I", len(tl))
            for t in tl:
                data += struct.pack("<H", tx[t])
            n_type_lists += 1

        # code items
        code_offs: dict[tuple[str, str], int] = {}
        n_code = 0
        for cls in self.classes:
            for m in cls.methods:
                if m.code is None:
                    continue
                align4()
                code_offs[(cls.descriptor, m.name)] = data_off + len(data)
                units = self._assemble(m.code, sx, tx, fx, mx)
                ins_regs = (0 if m.access & ACC_STATIC else 1) + sum(
                    2 if p[0] in "JD" else 1 for p in m.params
                )
                outs = max(
                    (len(i[1]) for i in m.code if i[0] in OPS and OPS[i[0]][2] == "method"),
                    default=0,
                )
                data += struct.pack(
                    "<HHHHII", m.registers, ins_regs, outs, 0, 0, len(units)
                )
                data += struct.pack(f"<{len(units)}H", *units)
                n_code += 1

        # class_data items
        class_data_offs: dict[str, int] = {}
        for cls in self.classes:
            direct = [m for m in cls.methods
                      if m.access & (ACC_STATIC | ACC_PRIVATE | ACC_CONSTRUCTOR)]
            virtual = [m for m in cls.methods if m not in direct]
            if not (direct or virtual):
                class_data_offs[cls.descriptor] = 0
                continue
            class_data_offs[cls.descriptor] = data_off + len(data)
            data += uleb128(0) + uleb128(0) + uleb128(len(direct)) + uleb128(len(virtual))
            for group in (direct, virtual):
                group.sort(key=lambda m: mx[(cls.descriptor, m.name, m.params, m.ret)])
                prev = 0
                for i, m in enumerate(group):
                    idx = mx[(cls.descriptor, m.name, m.params, m.ret)]
                    data += uleb128(idx if i == 0 else idx - prev)
                    prev = idx
                    data += uleb128(m.access)
                    data += uleb128(code_offs.get((cls.descriptor, m.name), 0))

        # string data
        string_data_offs = []
        for s in string_list:
            string_data_offs.append(data_off + len(data))
            data += uleb128(len(s.encode("utf-16-be", "surrogatepass")) // 2)
            data += encode_mutf8(s) + b"\x00"

        # map list
        align4()
        map_off = data_off + len(data)
        map_entries = [(0x0000, 1, 0), (0x0001, S, string_ids_off),
                       (0x0002, T, type_ids_off), (0x0003, P, proto_ids_off)]
        if F:
            map_entries.append((0x0004, F, field_ids_off))
        map_entries += [(0x0005, M, method_ids_off), (0x0006, C, class_defs_off)]
        if n_type_lists:
            map_entries.append((0x1001, n_type_lists, 0))
        if n_code:
            map_entries.append((0x2001, n_code, 0))
        map_entries += [(0x2000, C, 0), (0x2002, S, string_data_offs[0] if S else 0),
                        (0x1000, 1, map_off)]
        data += struct.pack("<I", len(map_entries))
        for mtype, msize, moff in map_entries:
            data += struct.pack("<HHII", mtype, 0, msize, moff)

        total = data_off + len(data)
        out = bytearray(total)
        out[0:8] = b"dex\n035\x00"
        struct.pack_into("<I", out, 32, total)  # file_size
        struct.pack_into("<I", out, 36, 0x70)  # header_size
        struct.pack_into("<I", out, 40, 0x12345678)  # endian tag
        struct.pack_into("<II", out, 44, 0, 0)  # link
        struct.pack_into("<I", out, 52, map_off)
        struct.pack_into("<II", out, 0x38, S, string_ids_off)
        struct.pack_into("<II", out, 0x40, T, type_ids_off)
        struct.pack_into("<II", out, 0x48, P, proto_ids_off)
        struct.pack_into("<II", out, 0x50, F, field_ids_off)
        struct.pack_into("<II", out, 0x58, M, method_ids_off)
        struct.pack_into("<II", out, 0x60, C, class_defs_off)
        struct.pack_into("<II", out, 0x68, len(data), data_off)
        out[data_off:] = data

        for i, soff in enumerate(string_data_offs):
            struct.pack_into("<I", out, string_ids_off + 4 * i, soff)
        for i, t in enumerate(type_list):
            struct.pack_into("<I", out, type_ids_off + 4 * i, sx[t])
        for i, (ret, params) in enumerate(proto_list):
            struct.pack_into(
                "<III", out, proto_ids_off + 12 * i,
                sx[_shorty(ret, params)], tx[ret],
                type_list_offs.get(params, 0) if params else 0,
            )
        for i, (cls, fname, ftype) in enumerate(field_list):
            struct.pack_into("<HHI", out, field_ids_off + 8 * i, tx[cls], tx[ftype], sx[fname])
        for i, (cls, mname, params, ret) in enumerate(method_list):
            struct.pack_into("<HHI", out, method_ids_off + 8 * i,
                             tx[cls], px[(ret, params)], sx[mname])
        for i, cls in enumerate(self.classes):
            struct.pack_into(
                "<IIIIIIII", out, class_defs_off + 32 * i,
                tx[cls.descriptor], cls.access,
                tx[cls.superclass] if cls.superclass else NO_INDEX,
                type_list_offs.get(cls.interfaces, 0) if cls.interfaces else 0,
                NO_INDEX, 0, class_data_offs[cls.descriptor], 0,
            )

        sig = hashlib.sha1(bytes(out[32:])).digest()
        out[12:32] = sig
        struct.pack_into("<I", out, 8, zlib.adler32(bytes(out[12:])) & 0xFFFFFFFF)
        return bytes(out)
