import hashlib
import re
import struct
import zipfile

import pytest
from cryptography import x509
from cryptography.hazmat.primitives.serialization import Encoding

from apkaudit.container import (
    AuthorityMap,
    SignerInfo,
    extract_signers,
    open_apk,
    read_entry,
)
from apkaudit.errors import (
    ApkReadError,
    CorruptEntryError,
    CrcMismatchError,
    EntryMissingError,
    NotAZipError,
)

from .fixtures.apk_writer import SIG_MAGIC, build_apk, make_cert


def test_open_apk_enumerates_and_hashes(tmp_path):
    p = build_apk(tmp_path / "a.apk", {"AndroidManifest.xml": b"\x03\x00", "classes.dex": b"x"})
    art = open_apk(p)
    assert art.sha256 == hashlib.sha256(p.read_bytes()).hexdigest()
    assert {"AndroidManifest.xml", "classes.dex"} <= art.entries.keys()
    assert art.entries["classes.dex"].file_size == 1


def test_not_a_zip(tmp_path):
    p = tmp_path / "junk.apk"
    p.write_bytes(b"this is definitely not a zip archive")
    with pytest.raises(NotAZipError):
        open_apk(p)


def test_unreadable_path_is_coded(tmp_path):
    missing = tmp_path / "missing.apk"
    with pytest.raises(ApkReadError) as err:
        open_apk(missing)
    assert str(err.value) == f"{missing}: No such file or directory"
    with pytest.raises(ApkReadError) as err:
        open_apk(tmp_path)
    assert str(err.value) == f"{tmp_path}: Is a directory"


def test_read_entry_roundtrip_and_missing(tmp_path):
    payload = b"A" * 5000
    p = build_apk(tmp_path / "a.apk", {"assets/data.bin": payload}, sign=None)
    art = open_apk(p)
    assert read_entry(art, "assets/data.bin") == payload
    with pytest.raises(EntryMissingError):
        read_entry(art, "nope.txt")


def test_crc_mismatch(tmp_path):
    p = tmp_path / "bad.apk"
    marker = b"UNIQUE-PAYLOAD-BYTES-123"
    with zipfile.ZipFile(p, "w", zipfile.ZIP_STORED) as zf:
        zf.writestr("data.txt", marker)
    raw = bytearray(p.read_bytes())
    at = raw.find(marker)
    raw[at] ^= 0xFF
    p.write_bytes(bytes(raw))
    art = open_apk(p)
    with pytest.raises(CrcMismatchError) as err:
        read_entry(art, "data.txt")
    assert isinstance(err.value, CorruptEntryError)
    assert str(err.value) == f"{p}:data.txt: BadZipFile: Bad CRC-32 for file 'data.txt'"


def _damage(raw: bytearray, name: bytes, how: str) -> None:
    """Damage the entry ``name`` of a deflated zip in place."""
    cd = raw.find(b"PK\x01\x02")
    while raw[cd + 46 : cd + 46 + len(name)] != name:
        cd = raw.find(b"PK\x01\x02", cd + 4)
    local = struct.unpack_from("<I", raw, cd + 42)[0]
    data = local + 30 + len(name) + struct.unpack_from("<H", raw, local + 28)[0]
    if how == "deflate data":
        raw[data : data + 4] = b"\xff" * 4
    elif how == "encrypted flag":
        raw[cd + 8] |= 1
    elif how == "compression method":
        struct.pack_into("<H", raw, cd + 10, 99)
    elif how == "bzip2 method":
        struct.pack_into("<H", raw, cd + 10, zipfile.ZIP_BZIP2)
    elif how == "lzma method":
        # an LZMA header whose filter properties byte is out of range
        struct.pack_into("<H", raw, cd + 10, zipfile.ZIP_LZMA)
        raw[data : data + 9] = b"\x09\x14\x05\x00" + b"\xff" * 5


@pytest.mark.parametrize(
    "how", ["deflate data", "encrypted flag", "compression method", "bzip2 method", "lzma method"]
)
def test_corrupt_entry_is_coded_and_artifact_stays_readable(tmp_path, how):
    p = build_apk(tmp_path / "c.apk", {"bad": b"B" * 3000, "good": b"G" * 3000}, sign=None)
    raw = bytearray(p.read_bytes())
    _damage(raw, b"bad", how)
    p.write_bytes(bytes(raw))
    art = open_apk(p)
    with pytest.raises(CorruptEntryError) as err:
        read_entry(art, "bad")
    assert type(err.value) is CorruptEntryError
    assert str(err.value).startswith(f"{p}:bad: ")
    # the shared ZipFile still serves the other entry, and the same one again
    assert read_entry(art, "good") == b"G" * 3000
    with pytest.raises(CorruptEntryError):
        read_entry(art, "bad")


def test_central_directory_offset_past_its_start_is_coded(tmp_path):
    p = build_apk(tmp_path / "c.apk", {"a": b"A" * 3000, "b": b"B" * 3000}, sign=None)
    raw = bytearray(p.read_bytes())
    # zipfile still finds the directory, but every local header offset now
    # lands before the start of the buffer
    eocd = raw.rfind(b"PK\x05\x06")
    struct.pack_into("<I", raw, eocd + 16, struct.unpack_from("<I", raw, eocd + 16)[0] + 10000)
    p.write_bytes(bytes(raw))
    art = open_apk(p)
    for name in ("a", "b"):
        with pytest.raises(CorruptEntryError, match=f"^{re.escape(str(p))}:{name}: ValueError: "):
            read_entry(art, name)


def test_duplicate_entries_warn_and_dedupe(tmp_path):
    p = tmp_path / "dup.apk"
    with zipfile.ZipFile(p, "w") as zf:
        zf.writestr("classes.dex", b"one")
        zf.writestr("classes.dex", b"two")
    art = open_apk(p)
    assert list(art.entries) == ["classes.dex"]
    assert any("duplicate entry" in w for w in art.warnings)
    assert read_entry(art, "classes.dex") == b"one"  # the kept entry, not the last


@pytest.mark.parametrize("scheme", ["v1", "v2"])
def test_signer_extraction(tmp_path, scheme):
    p = build_apk(tmp_path / f"{scheme}.apk", {"f": b"x"}, sign=scheme, cn="Acme", org="AcmeOrg")
    art = open_apk(p)
    assert len(art.signers) == 1
    s = art.signers[0]
    assert (s.subject_cn, s.subject_o, s.scheme) == ("Acme", "AcmeOrg", scheme)
    # fingerprint oracle: sha256 over the DER bytes of the known cert
    cert, _ = make_cert("Acme", "AcmeOrg")
    assert s.fingerprint_sha256 == hashlib.sha256(cert.public_bytes(Encoding.DER)).hexdigest()


def test_unsigned_has_no_signers(tmp_path):
    art = open_apk(build_apk(tmp_path / "u.apk", {"f": b"x"}, sign=None))
    assert art.signers == []


def test_same_cert_in_both_schemes_dedupes(tmp_path):
    # v1 entries plus a v2 block carrying the same certificate
    from .fixtures.apk_writer import _splice_signing_block, _v2_block

    p = build_apk(tmp_path / "both.apk", {"f": b"x"}, sign="v1", cn="Dup", org="DupOrg")
    cert, _ = make_cert("Dup", "DupOrg")
    _splice_signing_block(p, _v2_block(cert.public_bytes(Encoding.DER)))
    art = open_apk(p)
    assert len(art.signers) == 1
    assert art.signers[0].scheme == "v2"  # signing block is preferred


def test_malformed_signing_block_is_warning_not_fatal(tmp_path):
    p = build_apk(tmp_path / "m.apk", {"f": b"x"}, sign=None)
    raw = bytearray(p.read_bytes())
    eocd = raw.rfind(b"PK\x05\x06")
    cd = struct.unpack_from("<I", raw, eocd + 16)[0]
    # block with inconsistent leading/trailing sizes
    bogus = struct.pack("<Q", 999) + b"\x00" * 8 + struct.pack("<Q", 40) + SIG_MAGIC
    struct.pack_into("<I", raw, eocd + 16, cd + len(bogus))
    p.write_bytes(bytes(raw[:cd]) + bogus + bytes(raw[cd:]))
    art = open_apk(p)
    assert art.signers == []
    assert any("signing block" in w for w in art.warnings)


def test_authority_map_default_grouping():
    amap = AuthorityMap.load()

    def lab(cn, o):
        return amap.label(SignerInfo(cn, o, "00", "v1"))

    assert lab("Infinix", "Infinix Mobility") == "Infinix"
    assert lab("Android", "Google Inc.") == "Google"
    assert lab("Transsion", "Transsion Holdings") == "Transsion"
    assert lab("Tecno", "Tecno Mobile") == "Tecno"
    assert lab("Facebook", "Facebook Inc") == "Facebook"
    assert lab("Android", "Android") == "Default"
    assert lab("RandomVendor", "Whoever") == "Others"
    assert amap.label(None) == "Others"


def test_authority_map_first_match_wins(tmp_path):
    rules = tmp_path / "map.json"
    rules.write_text('[{"match": "A", "label": "first"}, {"match": "Acme", "label": "second"}]')
    amap = AuthorityMap.load(rules)
    assert amap.label(SignerInfo("Acme", "X", "00", "v1")) == "first"


def test_extract_signers_bad_v1_blob_warns(tmp_path):
    p = build_apk(tmp_path / "b.apk", {"META-INF/CERT.RSA": b"not pkcs7"}, sign=None)
    art = open_apk(p)
    assert art.signers == []
    assert any("unparsable v1 signature" in w for w in art.warnings)
