"""Test-side binary-XML encoder, written independently of the decoder.

Produces the chunked AXML layout from a small element tree so decode tests
have a ground truth that did not pass through the code under test.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

ANDROID_NS = "http://schemas.android.com/apk/res/android"

CHUNK_XML = 0x0003
CHUNK_STRING_POOL = 0x0001
CHUNK_START_NS = 0x0100
CHUNK_END_NS = 0x0101
CHUNK_START_ELEMENT = 0x0102
CHUNK_END_ELEMENT = 0x0103

T_STRING = 0x03
T_INT_DEC = 0x10
T_INT_HEX = 0x11
T_BOOL = 0x12
T_REFERENCE = 0x01


@dataclass
class XAttr:
    name: str
    value: object  # str | bool | int | ("hex", int) | ("ref", int)
    ns: str | None = ANDROID_NS


@dataclass
class XElem:
    name: str
    attrs: list[XAttr] = field(default_factory=list)
    children: list["XElem"] = field(default_factory=list)


def encode_axml(root: XElem, utf8_pool: bool = False) -> bytes:
    strings: list[str] = []
    index: dict[str, int] = {}

    def intern(s: str) -> int:
        if s not in index:
            index[s] = len(strings)
            strings.append(s)
        return index[s]

    # collect in a deterministic walk so the pool layout is stable
    intern(ANDROID_NS)
    intern("android")

    def collect(e: XElem) -> None:
        for a in e.attrs:
            intern(a.name)
            if isinstance(a.value, str):
                intern(a.value)
        intern(e.name)
        for c in e.children:
            collect(c)

    collect(root)

    chunks = [_string_pool(strings, utf8_pool)]
    chunks.append(_ns_chunk(CHUNK_START_NS, index["android"], index[ANDROID_NS]))

    def emit(e: XElem) -> None:
        chunks.append(_start_element(e, index))
        for c in e.children:
            emit(c)
        chunks.append(_end_element(e, index))

    emit(root)
    chunks.append(_ns_chunk(CHUNK_END_NS, index["android"], index[ANDROID_NS]))

    body = b"".join(chunks)
    return struct.pack("<HHI", CHUNK_XML, 8, 8 + len(body)) + body


def _string_pool(strings: list[str], utf8: bool) -> bytes:
    blobs = []
    offsets = []
    pos = 0
    for s in strings:
        offsets.append(pos)
        if utf8:
            enc = s.encode("utf-8")
            assert len(s) < 0x8000 and len(enc) < 0x8000
            blob = _utf8_length(len(s)) + _utf8_length(len(enc)) + enc + b"\x00"
        else:
            assert len(s) < 0x8000
            blob = struct.pack("<H", len(s)) + s.encode("utf-16-le") + b"\x00\x00"
        blobs.append(blob)
        pos += len(blob)
    data = b"".join(blobs)
    if len(data) % 4:
        data += b"\x00" * (4 - len(data) % 4)
    header_size = 28
    strings_start = header_size + 4 * len(strings)
    total = strings_start + len(data)
    flags = (1 << 8) if utf8 else 0
    head = struct.pack(
        "<HHIIIIII", CHUNK_STRING_POOL, header_size, total, len(strings), 0, flags, strings_start, 0
    )
    return head + struct.pack(f"<{len(strings)}I", *offsets) + data


def _utf8_length(n: int) -> bytes:
    """One byte under 0x80, else two with the high bit of the first set."""
    return bytes([n]) if n < 0x80 else bytes([0x80 | n >> 8, n & 0xFF])


def _ns_chunk(ctype: int, prefix_ix: int, uri_ix: int) -> bytes:
    return struct.pack("<HHIIIII", ctype, 16, 24, 0, 0xFFFFFFFF, prefix_ix, uri_ix)


def _typed(value) -> tuple[int, int, int]:
    """(raw_index_or_-1 placeholder handled by caller, dataType, data)."""
    if isinstance(value, bool):
        return 0xFFFFFFFF, T_BOOL, 0xFFFFFFFF if value else 0
    if isinstance(value, int):
        return 0xFFFFFFFF, T_INT_DEC, value & 0xFFFFFFFF
    if isinstance(value, tuple):
        tag, v = value
        if tag == "hex":
            return 0xFFFFFFFF, T_INT_HEX, v & 0xFFFFFFFF
        if tag == "ref":
            return 0xFFFFFFFF, T_REFERENCE, v & 0xFFFFFFFF
    raise ValueError(f"unsupported attribute value {value!r}")


def _start_element(e: XElem, index: dict[str, int]) -> bytes:
    attrs = b""
    for a in e.attrs:
        ns_ix = index[a.ns] if a.ns else 0xFFFFFFFF
        name_ix = index[a.name]
        if isinstance(a.value, str):
            raw, dtype, data = index[a.value], T_STRING, index[a.value]
        else:
            raw, dtype, data = _typed(a.value)
        # ns, name, rawValue, then Res_value: size=8, res0, dataType, data
        attrs += struct.pack("<IIIHBBI", ns_ix, name_ix, raw, 8, 0, dtype, data)
    size = 36 + len(attrs)
    head = struct.pack(
        "<HHIII", CHUNK_START_ELEMENT, 16, size, 0, 0xFFFFFFFF
    ) + struct.pack(
        "<IIHHHHHH", 0xFFFFFFFF, index[e.name], 0x14, 0x14, len(e.attrs), 0, 0, 0
    )
    return head + attrs


def _end_element(e: XElem, index: dict[str, int]) -> bytes:
    return struct.pack("<HHIIIII", CHUNK_END_ELEMENT, 16, 24, 0, 0xFFFFFFFF, 0xFFFFFFFF, index[e.name])
