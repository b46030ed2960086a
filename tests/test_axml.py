import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apkaudit.axml import ANDROID_NS, XmlTree, decode_axml, dump_tree
from apkaudit.errors import ApkAuditError

from .conftest import raises_code
from .fixtures.axml_writer import (
    CHUNK_END_NS,
    CHUNK_START_NS,
    CHUNK_XML,
    XAttr,
    XElem,
    _end_element,
    _ns_chunk,
    _start_element,
    _string_pool,
    encode_axml,
)


def _sample_tree():
    return XElem(
        "manifest",
        [XAttr("package", "com.sample", ns=None), XAttr("versionCode", 41)],
        [
            XElem("application", [XAttr("debuggable", False), XAttr("theme", ("ref", 0x7F100008))], [
                XElem("activity", [
                    XAttr("name", ".Main"),
                    XAttr("exported", True),
                    XAttr("configChanges", ("hex", 0x4A0)),
                ]),
            ]),
        ],
    )


@pytest.mark.parametrize("utf8", [False, True])
def test_roundtrip_both_pool_encodings(utf8):
    tree = decode_axml(encode_axml(_sample_tree(), utf8_pool=utf8))
    root = tree.root
    assert root.name == "manifest"
    assert root.attr("package", namespace=None) == "com.sample"
    assert root.attr("versionCode") == 41
    app = root.children[0]
    assert app.attr("debuggable") is False
    theme = [a for a in app.attributes if a.name == "theme"][0]
    assert (theme.kind, theme.value) == ("reference", 0x7F100008)
    act = app.children[0]
    assert act.attr("name") == ".Main"
    assert act.attr("exported") is True
    flags = [a for a in act.attributes if a.name == "configChanges"][0]
    assert (flags.kind, flags.value) == ("flags", 0x4A0)
    assert all(a.namespace == ANDROID_NS for a in act.attributes)


def test_non_ascii_strings_roundtrip():
    tree = XElem("manifest", [XAttr("package", "com.héllo.wörld", ns=None),
                              XAttr("label", "日本語ラベル")])
    for utf8 in (False, True):
        got = decode_axml(encode_axml(tree, utf8_pool=utf8)).root
        assert got.attr("package", namespace=None) == "com.héllo.wörld"
        assert got.attr("label") == "日本語ラベル"


def test_dump_tree_stable_format():
    out = dump_tree(decode_axml(encode_axml(_sample_tree())))
    lines = out.splitlines()
    assert lines[0] == "E: manifest"
    # attributes sorted by (namespace, name): default-ns package first
    assert lines[1] == "  A: package=com.sample"
    assert lines[2] == "  A: android:versionCode=41"
    assert "    A: android:debuggable=false" in lines
    assert "    A: android:theme=@0x7f100008" in lines
    assert "      A: android:configChanges=0x000004a0" in lines
    assert "      A: android:exported=true" in lines
    # byte-identical on repeat
    assert out == dump_tree(decode_axml(encode_axml(_sample_tree())))


def test_dump_tree_lists_siblings_in_document_order():
    root = XElem("manifest", [XAttr("package", "p", ns=None)], [
        XElem("a", [], [XElem("a1"), XElem("a2", [XAttr("name", "x")])]),
        XElem("b", [], [XElem("b1")]),
    ])
    assert dump_tree(decode_axml(encode_axml(root))).splitlines() == [
        "E: manifest",
        "  A: package=p",
        "  E: a",
        "    E: a1",
        "    E: a2",
        "      A: android:name=x",
        "  E: b",
        "    E: b1",
    ]


def nested_manifest(depth: int) -> bytes:
    """AXML of ``depth`` nested ``e`` elements, each with ``android:name=x``.
    Written chunk by chunk: the recursive ``encode_axml`` would stop at the
    recursion limit."""
    index = {s: i for i, s in enumerate([ANDROID_NS, "android", "name", "x", "e"])}
    e = XElem("e", [XAttr("name", "x")])
    body = b"".join([
        _string_pool(list(index), utf8=False),
        _ns_chunk(CHUNK_START_NS, index["android"], index[ANDROID_NS]),
        _start_element(e, index) * depth,
        _end_element(e, index) * depth,
        _ns_chunk(CHUNK_END_NS, index["android"], index[ANDROID_NS]),
    ])
    return struct.pack("<HHI", CHUNK_XML, 8, 8 + len(body)) + body


def test_dump_tree_of_a_deeply_nested_manifest():
    depth = 3000  # three times the default recursion limit
    lines = dump_tree(decode_axml(nested_manifest(depth))).splitlines()
    assert len(lines) == 2 * depth
    for level in (0, 1, depth - 1):
        pad = "  " * level
        assert lines[2 * level : 2 * level + 2] == [f"{pad}E: e", f"{pad}  A: android:name=x"]


def test_header_only_file_has_no_string_pool():
    import struct

    blob = struct.pack("<HHI", 0x0003, 8, 8)
    with raises_code("axml.string_pool"):
        decode_axml(blob)


def test_truncated_and_wrong_type():
    with raises_code("axml.truncated"):
        decode_axml(b"\x03\x00")  # shorter than a chunk header
    with raises_code("axml.not_axml"):
        decode_axml(b"\x77\x00\x08\x00\x08\x00\x00\x00")  # wrong file chunk type
    good = encode_axml(_sample_tree())
    with raises_code("axml.truncated"):
        decode_axml(good[:40])  # declared size exceeds data


def test_unknown_chunk_skipped_with_warning():
    import struct

    blob = bytearray(encode_axml(_sample_tree()))
    unknown = struct.pack("<HHI", 0x0BAD, 8, 8)
    # insert after the string pool chunk
    pool_size = struct.unpack_from("<I", blob, 8 + 4)[0]
    at = 8 + pool_size
    blob[at:at] = unknown
    struct.pack_into("<I", blob, 4, len(blob))
    tree = decode_axml(bytes(blob))
    assert any("unknown chunk type 0x0bad" in w for w in tree.warnings)
    assert tree.root.name == "manifest"


def _without_pool(chunks_after: int) -> bytes:
    """The sample manifest without its string pool and the chunks_after bytes after it."""
    blob = bytearray(encode_axml(_sample_tree()))
    pool_size = struct.unpack_from("<I", blob, 8 + 4)[0]
    del blob[8 : 8 + pool_size + chunks_after]
    struct.pack_into("<I", blob, 4, len(blob))
    return bytes(blob)


def test_namespace_chunk_before_pool_is_fatal():
    with raises_code("axml.string_pool", match="^namespace chunk before string pool$"):
        decode_axml(_without_pool(0))


def test_element_chunk_before_pool_is_fatal():
    # the 24-byte start-namespace chunk goes too, so an element comes first
    with raises_code("axml.string_pool", match="^element chunk before string pool$"):
        decode_axml(_without_pool(24))


def test_pool_without_elements_has_no_root():
    blob, _ = _utf8_pool_file(b"\x01\x01a\x00")
    with raises_code("axml.no_root", match="^no root element$"):
        decode_axml(blob)


def test_utf8_strings_of_128_bytes_or_more_take_two_byte_lengths():
    # 150 code units in 300 bytes: both lengths take their two-byte form
    package = "com." + "\u00e9" * 146
    blob = encode_axml(XElem("manifest", [XAttr("package", package, ns=None)]), utf8_pool=True)
    assert decode_axml(blob).root.attr("package", None) == package


def test_string_attribute_without_raw_index_takes_its_typed_value():
    blob = bytearray(encode_axml(XElem("manifest", [XAttr("package", "com.raw", ns=None)])))
    # the raw index of the one attribute: after the pool, the 24-byte namespace
    # chunk, the element's 36-byte header and the attribute's ns and name
    raw = 8 + struct.unpack_from("<I", blob, 12)[0] + 24 + 36 + 8
    assert struct.unpack_from("<I", blob, raw)[0] != 0xFFFFFFFF
    struct.pack_into("<I", blob, raw, 0xFFFFFFFF)
    assert decode_axml(bytes(blob)).root.attributes[0].value == "com.raw"


def _after_pool(chunk: bytes) -> tuple[bytes, int]:
    """The sample manifest with ``chunk`` inserted right after its string
    pool, and the offset of the inserted chunk."""
    blob = bytearray(encode_axml(_sample_tree()))
    at = 8 + struct.unpack_from("<I", blob, 12)[0]
    blob[at:at] = chunk
    struct.pack_into("<I", blob, 4, len(blob))
    return bytes(blob), at


def _utf8_pool_file(entry: bytes) -> tuple[bytes, int]:
    """A file whose only chunk is a UTF-8 string pool holding one entry, and
    the offset of that chunk."""
    body = struct.pack("<I", 0) + entry  # offset table, then the string data
    pool = struct.pack("<HHIIIIII", 0x0001, 28, 28 + len(body), 1, 0, 1 << 8, 32, 0) + body
    return struct.pack("<HHI", 0x0003, 8, 8 + len(pool)) + pool, 8


# chunks shorter than the fields they must hold, each raised as axml.truncated
TRUNCATED = {
    # a start-namespace chunk holding only its 16-byte header (prefix and uri missing)
    "start-namespace": _after_pool(struct.pack("<HHIII", 0x0100, 16, 16, 0, 0xFFFFFFFF)),
    # a start-element chunk that ends before its attribute count
    "start-element": _after_pool(
        struct.pack("<HHIIIIIHH", 0x0102, 16, 28, 0, 0xFFFFFFFF, 0xFFFFFFFF, 0, 0x14, 0x14)),
    # UTF-8 entry: the first length has its high bit set, and the pool ends there
    "utf8-length": _utf8_pool_file(b"\x80"),
    # UTF-8 entry: the byte length has its high bit set, and the pool ends there
    "utf8-byte-length": _utf8_pool_file(b"\x01\x80"),
}


@pytest.mark.parametrize("name", TRUNCATED)
def test_short_chunk_is_a_truncated_chunk_error(name):
    blob, at = TRUNCATED[name]
    with raises_code("axml.truncated", match=f"^chunk at 0x{at:x} truncated"):
        decode_axml(blob)


_MANIFESTS = [encode_axml(_sample_tree(), utf8_pool=utf8) for utf8 in (False, True)]


def _chunk_offsets(blob: bytes) -> list[int]:
    out, pos = [], 8
    while pos < len(blob):
        out.append(pos)
        pos += struct.unpack_from("<I", blob, pos + 4)[0]
    return out


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(
    utf8=st.booleans(),
    shrink=st.one_of(st.none(), st.tuples(st.integers(0, 63), st.integers(0, 1 << 10))),
    edits=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), max_size=6),
)
def test_mutated_manifest_gives_a_tree_or_an_axml_error(utf8, shrink, edits):
    """A manifest with one chunk cut short (its size word and the file's
    kept consistent) and some bytes overwritten decodes or is refused."""
    blob = bytearray(_MANIFESTS[utf8])
    if shrink is not None:
        chunks = _chunk_offsets(blob)
        at = chunks[shrink[0] % len(chunks)]
        size = struct.unpack_from("<I", blob, at + 4)[0]
        keep = 8 + shrink[1] % (size - 7)
        del blob[at + keep : at + size]
        struct.pack_into("<I", blob, at + 4, keep)
        struct.pack_into("<I", blob, 4, len(blob))
    for at, byte in edits:
        blob[at % len(blob)] = byte
    try:
        tree = decode_axml(bytes(blob))
    except ApkAuditError as exc:
        assert exc.code.startswith("axml.")
        return
    assert isinstance(tree, XmlTree)
