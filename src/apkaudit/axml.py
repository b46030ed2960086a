"""Binary AndroidManifest.xml (AXML) decoder.

The format is a sequence of chunks: a file header (type 0x0003), a string
pool, an optional resource-id map, then namespace/element chunks in document
order.  All integers are little-endian.  The resource-id map and text
chunks carry nothing the auditors read and are skipped; unknown chunk types
are skipped and counted in one warning.  A missing or broken string pool,
and a chunk too short for the fields it must hold, are fatal for the
manifest: every failure is an :class:`ApkAuditError` with an ``axml.*`` code.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from .errors import ApkAuditError

CHUNK_XML = 0x0003
CHUNK_STRING_POOL = 0x0001
CHUNK_RESOURCE_MAP = 0x0180
CHUNK_START_NS = 0x0100
CHUNK_END_NS = 0x0101
CHUNK_START_ELEMENT = 0x0102
CHUNK_END_ELEMENT = 0x0103
CHUNK_CDATA = 0x0104

POOL_FLAG_UTF8 = 1 << 8

# typed-value dataType codes
TYPE_NULL = 0x00
TYPE_REFERENCE = 0x01
TYPE_ATTRIBUTE = 0x02
TYPE_STRING = 0x03
TYPE_INT_HEX = 0x11
TYPE_INT_BOOLEAN = 0x12

NO_INDEX = 0xFFFFFFFF

ANDROID_NS = "http://schemas.android.com/apk/res/android"


class AxmlAttribute(NamedTuple):
    namespace: str  # resolved URI, "" for default
    name: str
    kind: str  # string | int | bool | reference | flags
    value: object  # str, int or bool depending on kind


class AxmlElement:
    __slots__ = ("name", "attributes", "children")

    def __init__(self, name: str):
        self.name = name
        self.attributes: list[AxmlAttribute] = []
        self.children: list[AxmlElement] = []

    def attr(self, name: str, namespace: str | None = ANDROID_NS):
        for a in self.attributes:
            if a.name == name and (namespace is None or a.namespace == namespace):
                return a.value
        return None

    def find_all(self, name: str) -> list["AxmlElement"]:
        return [c for c in self.children if c.name == name]


class XmlTree(NamedTuple):
    root: AxmlElement
    warnings: list[str]


def decode_axml(data: bytes) -> XmlTree:
    """Decode an AXML byte blob into an :class:`XmlTree`."""
    if len(data) < 8:
        raise ApkAuditError("file shorter than chunk header", "axml.truncated")
    ftype, _hsize, fsize = struct.unpack_from("<HHI", data, 0)
    if ftype != CHUNK_XML:
        raise ApkAuditError(f"not an AXML file (chunk type 0x{ftype:04x})", "axml.not_axml")
    if fsize > len(data):
        raise ApkAuditError("declared file size exceeds data", "axml.truncated")

    pool: list[str] | None = None
    warnings: list[str] = []
    elem_stack: list[AxmlElement] = []
    root: AxmlElement | None = None
    unknown: list[int] = []  # types of the skipped chunks

    pos = 8
    try:
        while pos + 8 <= min(fsize, len(data)):
            ctype, _hsize, csize = struct.unpack_from("<HHI", data, pos)
            if csize < 8 or pos + csize > len(data):
                raise ApkAuditError(f"chunk at 0x{pos:x} overruns file", "axml.truncated")
            body = data[pos : pos + csize]

            if ctype == CHUNK_STRING_POOL:
                pool = _decode_string_pool(body)
            elif ctype == CHUNK_START_NS:
                if pool is None:
                    raise ApkAuditError("namespace chunk before string pool", "axml.string_pool")
                # both indices are checked against the pool; no analyser reads namespaces
                prefix_ix, uri_ix = struct.unpack_from("<II", body, 16)
                _pool_str(pool, prefix_ix)
                _pool_str(pool, uri_ix)
            elif ctype == CHUNK_START_ELEMENT:
                if pool is None:
                    raise ApkAuditError("element chunk before string pool", "axml.string_pool")
                elem = _decode_start_element(body, pool)
                if elem_stack:
                    elem_stack[-1].children.append(elem)
                elif root is None:
                    root = elem
                else:
                    warnings.append(f"extra root element <{elem.name}> ignored")
                elem_stack.append(elem)
            elif ctype == CHUNK_END_ELEMENT:
                if elem_stack:
                    elem_stack.pop()
            elif ctype in (CHUNK_RESOURCE_MAP, CHUNK_CDATA, CHUNK_END_NS):
                pass  # resource ids, text nodes and namespace ends carry nothing we audit
            else:
                unknown.append(ctype)
            pos += csize
    except (IndexError, struct.error) as exc:  # a read past the end of a chunk's body
        raise ApkAuditError(f"chunk at 0x{pos:x} truncated ({type(exc).__name__}: {exc})",
                            "axml.truncated") from exc

    if pool is None:
        raise ApkAuditError("no string pool chunk", "axml.string_pool")
    if root is None:
        raise ApkAuditError("no root element", "axml.no_root")
    if unknown:
        warnings.append(f"{len(unknown)} chunk(s) skipped, first unknown chunk type 0x{unknown[0]:04x}")
    return XmlTree(root=root, warnings=warnings)


def _pool_str(pool: list[str], index: int) -> str:
    if index == NO_INDEX:
        return ""
    if index >= len(pool):
        raise ApkAuditError(f"string index {index} out of range", "axml.string_pool")
    return pool[index]


def _decode_string_pool(body: bytes) -> list[str]:
    if len(body) < 28:
        raise ApkAuditError("string pool header truncated", "axml.string_pool")
    _t, hsize, _size, count, _styles, flags, strings_start, _styles_start = struct.unpack_from(
        "<HHIIIIII", body, 0
    )
    if hsize + count * 4 > len(body):
        raise ApkAuditError("offset table truncated", "axml.string_pool")
    offsets = struct.unpack_from(f"<{count}I", body, hsize)
    utf8 = bool(flags & POOL_FLAG_UTF8)
    out: list[str] = []
    for off in offsets:
        p = strings_start + off
        if p >= len(body):
            raise ApkAuditError("string offset out of range", "axml.string_pool")
        out.append(_decode_utf8_entry(body, p) if utf8 else _decode_utf16_entry(body, p))
    return out


def _decode_utf16_entry(body: bytes, p: int) -> str:
    n = struct.unpack_from("<H", body, p)[0]
    p += 2
    if n & 0x8000:  # high word of a 2-word length
        n = ((n & 0x7FFF) << 16) | struct.unpack_from("<H", body, p)[0]
        p += 2
    end = p + n * 2
    if end > len(body):
        raise ApkAuditError("UTF-16 string truncated", "axml.string_pool")
    return body[p:end].decode("utf-16-le", errors="replace")


def _decode_utf8_entry(body: bytes, p: int) -> str:
    # two lengths: UTF-16 code units (ignored), then byte length
    n = body[p]
    p += 1
    if n & 0x80:
        p += 1
    blen = body[p]
    p += 1
    if blen & 0x80:
        blen = ((blen & 0x7F) << 8) | body[p]
        p += 1
    end = p + blen
    if end > len(body):
        raise ApkAuditError("UTF-8 string truncated", "axml.string_pool")
    return body[p:end].decode("utf-8", errors="replace")


def _decode_start_element(body: bytes, pool: list[str]) -> AxmlElement:
    # header: line, comment, then ns, name, attr start/size, counts
    ns_ix, name_ix, _attr_start, _attr_size, attr_count = struct.unpack_from("<IIHHH", body, 16)
    _pool_str(pool, ns_ix)  # checked against the pool; no analyser reads element namespaces
    elem = AxmlElement(_pool_str(pool, name_ix))
    p = 16 + 20
    for _ in range(attr_count):
        if p + 20 > len(body):
            raise ApkAuditError("attribute record truncated", "axml.truncated")
        a_ns, a_name, a_raw, _vsize_res0, vtype_hi = struct.unpack_from("<IIIHH", body, p)
        vtype = vtype_hi >> 8
        a_data = struct.unpack_from("<I", body, p + 16)[0]
        p += 20
        name = _pool_str(pool, a_name)
        kind, value = _typed_value(vtype, a_data, a_raw, pool)
        elem.attributes.append(AxmlAttribute(_pool_str(pool, a_ns), name, kind, value))
    return elem


def _typed_value(vtype: int, data: int, raw_ix: int, pool: list[str]):
    if vtype == TYPE_STRING:
        if raw_ix != NO_INDEX:
            return "string", _pool_str(pool, raw_ix)
        return "string", _pool_str(pool, data)
    if vtype == TYPE_INT_BOOLEAN:
        return "bool", data != 0
    if vtype == TYPE_REFERENCE or vtype == TYPE_ATTRIBUTE:
        return "reference", data
    if vtype == TYPE_INT_HEX:
        return "flags", data
    # decimal, float (kept raw; manifests we audit never use floats) and the rest
    return "int", _signed32(data)


def _signed32(v: int) -> int:
    return v - (1 << 32) if v & (1 << 31) else v


def dump_tree(tree: XmlTree) -> str:
    """Stable textual dump: attributes ordered by (namespace, name)."""
    lines: list[str] = []

    def fmt(v: AxmlAttribute) -> str:
        if v.kind == "bool":
            return "true" if v.value else "false"
        if v.kind == "reference":
            return f"@0x{v.value:08x}"
        if v.kind == "flags":
            return f"0x{v.value:08x}"
        return str(v.value)

    # preorder with an explicit stack, so nesting depth is not bounded by the
    # recursion limit
    stack = [(tree.root, 0)]
    while stack:
        e, depth = stack.pop()
        pad = "  " * depth
        lines.append(f"{pad}E: {e.name}")
        for a in sorted(e.attributes, key=lambda a: (a.namespace, a.name)):
            prefix = "android:" if a.namespace == ANDROID_NS else ""
            lines.append(f"{pad}  A: {prefix}{a.name}={fmt(a)}")
        stack.extend((c, depth + 1) for c in reversed(e.children))
    return "\n".join(lines) + "\n"
