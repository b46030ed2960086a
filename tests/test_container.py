import hashlib
import io
import os
import random
import re
import shutil
import struct
import tracemalloc
import warnings
import zipfile
import zlib
from pathlib import Path

import pytest
from cryptography import x509
from cryptography.hazmat.primitives.serialization import Encoding

from apkaudit import report
from apkaudit.container import (
    AuthorityMap,
    SignerInfo,
    extract_signers,
    open_apk,
    read_entry,
)
from apkaudit.errors import ApkAuditError, ApkReadError

from .conftest import raises_code
from .fixtures.apk_writer import SIG_MAGIC, V2_ID, V3_ID, _splice_signing_block, build_apk, make_cert


def test_open_apk_enumerates_and_hashes(tmp_path):
    p = build_apk(tmp_path / "a.apk", {"AndroidManifest.xml": b"\x03\x00", "classes.dex": b"x"})
    art = open_apk(p)
    assert art.sha256 == hashlib.sha256(p.read_bytes()).hexdigest()
    assert {"AndroidManifest.xml", "classes.dex"} <= art.entries.keys()
    assert art.entries["classes.dex"].file_size == 1


def test_not_a_zip(tmp_path):
    p = tmp_path / "junk.apk"
    p.write_bytes(b"this is definitely not a zip archive")
    with raises_code("zip.not_a_zip", cls=ApkReadError):
        open_apk(p)


@pytest.mark.parametrize("how", ["record signature", "truncated record"])
def test_damaged_central_directory_is_not_a_zip(tmp_path, how):
    p = build_apk(tmp_path / "d.apk", {"a": b"A" * 300, "bb": b"B" * 300}, sign=None)
    raw = bytearray(p.read_bytes())
    eocd = raw.rfind(b"PK\x05\x06")
    start = eocd - struct.unpack_from("<I", raw, eocd + 12)[0]
    if how == "record signature":
        raw[start] ^= 0xFF
        code, reason = "zip.not_a_zip", f"bad central directory record signature at offset {start}"
    else:  # the last record ends 10 bytes into its 46-byte fixed part
        cut = 46 - 10 + len(b"bb")
        struct.pack_into("<I", raw, eocd + 12, eocd - start - cut)
        del raw[eocd - cut : eocd]
        code, reason = "zip.truncated_record", "truncated record: "
    p.write_bytes(bytes(raw))
    with raises_code(code, cls=ApkReadError) as err:
        open_apk(p)
    assert str(err.value).startswith(f"{p}: {reason}")


def test_open_apk_holds_only_the_bytes_it_parses(tmp_path):
    p = tmp_path / "big.apk"
    asset = random.Random(0).randbytes(4 << 20)
    with zipfile.ZipFile(p, "w", zipfile.ZIP_STORED) as zf:
        zf.writestr("AndroidManifest.xml", b"\x03\x00\x08\x00")
        zf.writestr("assets/big.bin", asset)
    digest = hashlib.sha256(p.read_bytes()).hexdigest()
    tracemalloc.start()
    try:
        art = open_apk(p)
        assert read_entry(art, "AndroidManifest.xml") == b"\x03\x00\x08\x00"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # reading the whole file would take 4 MiB
    assert art.sha256 == digest
    assert read_entry(art, "assets/big.bin") == asset
    # entries are read from the file as it is now, so the CRC-32 sees a change
    with p.open("r+b") as f:
        f.seek(art.entries["assets/big.bin"].header_offset + 30 + len("assets/big.bin"))
        f.write(bytes([asset[0] ^ 0xFF]))
    with raises_code("zip.crc"):
        read_entry(art, "assets/big.bin")


def _shrunk(corpus, tmp_path) -> tuple[Path, str]:
    """A copy of a fixture and the reason a read of its manifest gives once
    the copy is cut to 0 bytes after ``open_apk``."""
    p = shutil.copyfile(corpus["listing5_leak"], tmp_path / "leak.apk")
    offset = open_apk(p).entries["AndroidManifest.xml"].header_offset
    return p, f"{p}:AndroidManifest.xml: file changed after open: read 0 of 30 byte(s) at offset {offset}"


def test_a_read_after_the_file_shrinks_is_a_corrupt_entry(corpus, tmp_path):
    p, reason = _shrunk(corpus, tmp_path)
    art = open_apk(p)
    os.truncate(p, 0)
    # no ``as err``: its traceback would hold this frame, and so the open file, in a cycle
    with raises_code("zip.short_read", match=f"^{re.escape(reason)}$"):
        read_entry(art, "AndroidManifest.xml")


def test_a_file_that_shrinks_after_open_gets_a_manifest_warning(corpus, tmp_path, monkeypatch):
    p, reason = _shrunk(corpus, tmp_path)

    def open_then_truncate(path):
        art = open_apk(path)
        os.truncate(path, 0)
        return art

    monkeypatch.setattr(report, "open_apk", open_then_truncate)
    got = report.analyze_apk(p).warnings
    assert [w for w in got if w.startswith("manifest:")] == [f"manifest: {reason}"]


def test_dropping_an_artifact_closes_its_file(tmp_path):
    p = build_apk(tmp_path / "a.apk", {"AndroidManifest.xml": b"\x03\x00"})
    junk = tmp_path / "junk.apk"
    junk.write_bytes(b"junk")
    fds = Path("/proc/self/fd")  # Linux only

    def open_on(path):
        """How many of this process's descriptors are open on ``path``;
        descriptors other code left open do not count."""
        if not fds.is_dir():
            return 0
        count = 0
        for fd in fds.iterdir():
            try:
                count += os.readlink(fd) == str(path.resolve())
            except OSError:  # closed since the listing (the listing's own)
                pass
        return count

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        art = open_apk(p)
        assert read_entry(art, "AndroidManifest.xml") == b"\x03\x00"
        assert open_on(p) == (1 if fds.is_dir() else 0)
        del art
        with raises_code("zip.not_a_zip", cls=ApkReadError):  # a failed open closes the file too
            open_apk(junk)
    assert caught == []
    assert open_on(p) == open_on(junk) == 0


@pytest.mark.parametrize("content", [b"", b"PK\x05\x06" + bytes(10)], ids=["empty", "short"])
def test_a_file_shorter_than_the_end_record_is_not_a_zip(tmp_path, content):
    p = tmp_path / "short.apk"
    p.write_bytes(content)
    with raises_code("zip.not_a_zip", cls=ApkReadError) as err:
        open_apk(p)
    assert str(err.value) == f"{p}: File is not a zip file"


def test_unreadable_path_is_coded(tmp_path):
    missing = tmp_path / "missing.apk"
    with raises_code("apk.unreadable", cls=ApkReadError) as err:
        open_apk(missing)
    assert str(err.value) == f"{missing}: No such file or directory"
    with raises_code("apk.unreadable", cls=ApkReadError) as err:
        open_apk(tmp_path)
    assert str(err.value) == f"{tmp_path}: Is a directory"


def test_read_entry_roundtrip_and_missing(tmp_path):
    payload = b"A" * 5000
    p = build_apk(tmp_path / "a.apk", {"assets/data.bin": payload}, sign=None)
    art = open_apk(p)
    assert read_entry(art, "assets/data.bin") == payload
    with raises_code("zip.entry_missing"):
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
    # read_entry re-raises the bare reason with the path and entry, keeping its code
    with raises_code("zip.crc") as err:
        read_entry(art, "data.txt")
    assert type(err.value) is ApkAuditError
    damaged = bytes([marker[0] ^ 0xFF]) + marker[1:]
    assert str(err.value) == (
        f"{p}:data.txt: CRC-32 is 0x{zlib.crc32(damaged):08x}, declared 0x{zlib.crc32(marker):08x}"
    )


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
    elif how == "patched flag":
        raw[cd + 8] |= 0x20
    elif how == "local header signature":
        raw[local] ^= 0xFF
    elif how == "local header name":
        raw[local + 30] ^= 0xFF


_DAMAGE_REASONS = {  # how -> (code, reason)
    "deflate data": ("zip.inflate", "error: Error -3 while decompressing data: "),
    "encrypted flag": ("zip.encrypted", "encrypted entry (flag bit 0)"),
    "compression method": ("zip.method", "unsupported compression method 99"),
    # Android reads only STORED and DEFLATE entries, and so does the reader
    "bzip2 method": ("zip.method", "unsupported compression method 12"),
    "lzma method": ("zip.method", "unsupported compression method 14"),
    "patched flag": ("zip.patched", "compressed patched data (flag bit 5)"),
    "local header signature": ("zip.local_signature", "bad local header signature at offset "),
    "local header name": ("zip.local_name", "local header name differs from the central directory's"),
}


@pytest.mark.parametrize("how", list(_DAMAGE_REASONS))
def test_corrupt_entry_is_coded_and_artifact_stays_readable(tmp_path, how):
    code, reason = _DAMAGE_REASONS[how]
    p = build_apk(tmp_path / "c.apk", {"bad": b"B" * 3000, "good": b"G" * 3000}, sign=None)
    raw = bytearray(p.read_bytes())
    _damage(raw, b"bad", how)
    p.write_bytes(bytes(raw))
    art = open_apk(p)
    with raises_code(code) as err:
        read_entry(art, "bad")
    assert type(err.value) is ApkAuditError
    assert str(err.value).startswith(f"{p}:bad: {reason}")
    # the artifact still serves the other entry, and the same one again
    assert read_entry(art, "good") == b"G" * 3000
    with raises_code(code):
        read_entry(art, "bad")


def test_central_directory_offset_past_its_start_is_coded(tmp_path):
    p = build_apk(tmp_path / "c.apk", {"a": b"A" * 3000, "b": b"B" * 3000}, sign=None)
    raw = bytearray(p.read_bytes())
    # the directory is still found, but every local header offset now
    # lands before the start of the buffer
    eocd = raw.rfind(b"PK\x05\x06")
    struct.pack_into("<I", raw, eocd + 16, struct.unpack_from("<I", raw, eocd + 16)[0] + 10000)
    p.write_bytes(bytes(raw))
    art = open_apk(p)
    with zipfile.ZipFile(p) as zf:  # which shifts the offsets the same way
        offsets = {name: zf.getinfo(name).header_offset for name in ("a", "b")}
    assert offsets["a"] == -10000
    for name, offset in offsets.items():
        with raises_code("zip.local_offset") as err:
            read_entry(art, name)
        assert str(err.value) == f"{p}:{name}: local header offset {offset} outside the file"


def test_duplicate_entries_warn_and_dedupe(tmp_path):
    p = tmp_path / "dup.apk"
    with zipfile.ZipFile(p, "w") as zf:
        zf.writestr("classes.dex", b"one")
        zf.writestr("classes.dex", b"two")
    art = open_apk(p)
    assert list(art.entries) == ["classes.dex"]
    assert any("duplicate entry" in w for w in art.warnings)
    assert read_entry(art, "classes.dex") == b"one"  # the kept entry, not the last



# differential tests: zipfile writes the archives and is the oracle

def _kept(zf: zipfile.ZipFile) -> list[zipfile.ZipInfo]:
    """The first ZipInfo of each name, in directory order."""
    kept: dict[str, zipfile.ZipInfo] = {}
    for info in zf.infolist():
        kept.setdefault(info.filename, info)
    return list(kept.values())


def _assert_reads_as_zipfile(p) -> None:
    art = open_apk(p)
    with zipfile.ZipFile(p) as zf:
        kept = _kept(zf)
        assert list(art.entries) == [info.filename for info in kept]
        for info in kept:
            assert read_entry(art, info.filename) == zf.read(info)


def _write_zip(p, entries, **kw) -> None:
    with zipfile.ZipFile(p, "w", **kw) as zf:
        for name, data, method in entries:
            zf.writestr(name, data, compress_type=method)


_PAYLOADS = [
    ("AndroidManifest.xml", b"\x03\x00\x08\x00" * 40, zipfile.ZIP_DEFLATED),
    ("classes.dex", bytes(range(256)) * 20, zipfile.ZIP_STORED),
    ("res/empty", b"", zipfile.ZIP_DEFLATED),
    ("assets/text.txt", b"hello " * 700, zipfile.ZIP_DEFLATED),
    ("assets/raw.bin", b"", zipfile.ZIP_STORED),
]


def test_stored_and_deflated_entries_read_as_zipfile(tmp_path):
    p = tmp_path / "plain.apk"
    _write_zip(p, _PAYLOADS)
    _assert_reads_as_zipfile(p)


def _zip64(p, monkeypatch, extra: bytes = b"") -> bytes:
    """Write _PAYLOADS as a ZIP64 archive, each entry also carrying ``extra``."""
    # a low limit makes zipfile write ZIP64 extra fields for the sizes and
    # offsets, and a ZIP64 end record and locator
    monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 100)
    with zipfile.ZipFile(p, "w") as zf:
        for name, data, method in _PAYLOADS:
            info = zipfile.ZipInfo(name)
            info.compress_type = method
            info.extra = extra
            with zf.open(info, "w", force_zip64=True) as f:
                f.write(data)
    monkeypatch.undo()
    return p.read_bytes()


def test_zip64_archive_reads_as_zipfile(tmp_path, monkeypatch):
    p = tmp_path / "zip64.apk"
    raw = _zip64(p, monkeypatch)
    assert b"PK\x06\x06" in raw and b"PK\x06\x07" in raw
    with zipfile.ZipFile(p) as zf:  # sizes and offsets held in ZIP64 extra fields
        start_dir = zf.start_dir
        assert raw[start_dir:].count(b"\xff\xff\xff\xff") >= len(_PAYLOADS)
    _assert_reads_as_zipfile(p)
    # a declared ZIP64 size past what zlib's max_length takes is one more bad size
    name = b"assets/text.txt"
    extra = raw.index(name, start_dir) + len(name)
    assert struct.unpack_from("<HH", raw, extra)[0] == 1
    p.write_bytes(raw[: extra + 4] + b"\xff" * 8 + raw[extra + 12 :])
    with raises_code("zip.size") as err:
        read_entry(open_apk(p), name.decode())
    assert str(err.value) == f"{p}:assets/text.txt: 4200 byte(s) where {2**64 - 1} are declared"


def test_zip64_field_after_another_extra_field_reads_as_zipfile(tmp_path, monkeypatch):
    p = tmp_path / "zip64.apk"
    other = struct.pack("<HH", 0xCAFE, 6) + b"\xff" * 6
    raw = bytearray(_zip64(p, monkeypatch, other))
    with zipfile.ZipFile(p) as zf:
        start_dir = zf.start_dir
    # zipfile writes the ZIP64 field first: move it behind the other field
    moved = 0
    cd = raw.find(b"PK\x01\x02", start_dir)
    while cd >= 0:
        name_len, extra_len = struct.unpack_from("<HH", raw, cd + 28)
        at = cd + 46 + name_len
        extra = bytes(raw[at : at + extra_len])
        if extra.startswith(b"\x01\x00") and extra.endswith(other):
            raw[at : at + extra_len] = other + extra[: -len(other)]
            moved += 1
        cd = raw.find(b"PK\x01\x02", at)
    assert moved == len(_PAYLOADS)
    p.write_bytes(bytes(raw))
    _assert_reads_as_zipfile(p)


def test_zip64_locator_naming_another_disk_is_not_a_zip(tmp_path, monkeypatch):
    p = tmp_path / "zip64.apk"
    raw = bytearray(_zip64(p, monkeypatch))
    locator = raw.rindex(b"PK\x06\x07")
    struct.pack_into("<I", raw, locator + 4, 1)  # the disk that holds the ZIP64 end record
    p.write_bytes(bytes(raw))
    with pytest.raises(zipfile.BadZipFile):
        zipfile.ZipFile(p)
    with raises_code("zip.not_a_zip", match="archive spans multiple disks", cls=ApkReadError):
        open_apk(p)


class _Unseekable(io.RawIOBase):
    def __init__(self):
        self.buf = io.BytesIO()

    def writable(self):
        return True

    def write(self, b):
        return self.buf.write(b)


def test_data_descriptors_read_as_zipfile(tmp_path):
    out = _Unseekable()
    _write_zip(out, _PAYLOADS)
    p = tmp_path / "descriptors.apk"
    p.write_bytes(out.buf.getvalue())
    assert all(info.flag_bits & 0x08 for info in zipfile.ZipFile(p).infolist())
    _assert_reads_as_zipfile(p)


def test_comment_and_prepended_bytes_read_as_zipfile(tmp_path):
    p = tmp_path / "commented.apk"
    with zipfile.ZipFile(p, "w") as zf:
        for name, data, method in _PAYLOADS:
            zf.writestr(name, data, compress_type=method)
        zf.comment = b"an archive comment " * 100
    p.write_bytes(b"#!/bin/sh prefix\n" * 64 + p.read_bytes())
    _assert_reads_as_zipfile(p)


def test_duplicate_names_read_as_zipfile(tmp_path):
    p = tmp_path / "dups.apk"
    with pytest.warns(UserWarning, match="Duplicate name"):
        _write_zip(p, _PAYLOADS + [
            ("classes.dex", b"second", zipfile.ZIP_DEFLATED),
            ("res/empty", b"not empty", zipfile.ZIP_STORED),
        ])
    _assert_reads_as_zipfile(p)
    assert open_apk(p).warnings == [
        "duplicate entry dropped: classes.dex", "duplicate entry dropped: res/empty",
    ]


def test_cp437_utf8_and_nul_names_read_as_zipfile(tmp_path):
    p = tmp_path / "names.apk"
    # zipfile writes a non-ASCII name as UTF-8 with flag bit 11; the cp437
    # name and the name with a NUL are written as ASCII and their bytes
    # patched in both headers
    _write_zip(p, [("caf\u00e9/\u4e2d\u6587.txt", b"utf8", zipfile.ZIP_DEFLATED),
                   ("cafX.txt", b"cp437", zipfile.ZIP_STORED),
                   ("classes.dexZ.txt", b"nul", zipfile.ZIP_DEFLATED)])
    raw = p.read_bytes().replace(b"cafX.txt", b"caf\x82.txt")
    p.write_bytes(raw.replace(b"classes.dexZ.txt", b"classes.dex\x00.txt"))
    _assert_reads_as_zipfile(p)
    art = open_apk(p)
    assert list(art.entries) == ["caf\u00e9/\u4e2d\u6587.txt", "caf\u00e9.txt", "classes.dex"]
    assert read_entry(art, "classes.dex") == b"nul"


def _mutant_regions(raw: bytes) -> dict[str, tuple[int, int]]:
    """The byte ranges of the directory, the end record and every local header."""
    with zipfile.ZipFile(io.BytesIO(raw)) as zf:
        eocd = raw.rfind(b"PK\x05\x06")
        regions = {"directory": (zf.start_dir, eocd), "end record": (eocd, len(raw))}
        for info in zf.infolist():
            start = info.header_offset
            regions[f"local {info.filename}"] = (start, start + 30 + len(info.orig_filename))
    return regions


def _mutate(raw: bytes, rng: random.Random, regions) -> bytes:
    start, stop = regions[rng.choice(sorted(regions))]
    width = rng.choice((1, 2, 4))
    pos = rng.randrange(start, max(start + 1, stop - width))
    old = int.from_bytes(raw[pos : pos + width], "little")
    new = rng.choice((0, (1 << 8 * width) - 1, old + 1, old - 1, old + 0x100, rng.getrandbits(8 * width)))
    out = bytearray(raw)
    out[pos : pos + width] = (new % (1 << 8 * width)).to_bytes(width, "little")
    return bytes(out)


def _consistent(info: zipfile.ZipInfo, data: bytes) -> bool:
    """Whether an entry zipfile read is one the reader must read the same:
    STORED or DEFLATE, of its declared size, and for STORED with equal sizes
    (zipfile cuts or reads short data to the CRC check)."""
    if info.compress_type == zipfile.ZIP_STORED:
        return info.compress_size == info.file_size == len(data)
    return info.compress_type == zipfile.ZIP_DEFLATED and len(data) == info.file_size


MUTANTS = 600


def test_mutated_apk_reads_as_zipfile_or_raises_only_coded_errors(corpus, tmp_path):
    """Mutants of a signed APK's directory, local headers and end record:
    when zipfile opens one and reads an entry, the reader lists the same
    names and reads that entry the same; any failure of the reader is an
    ApkAuditError."""
    from .fixtures.apk_writer import _splice_signing_block, _v2_block

    base = tmp_path / "base.apk"
    base.write_bytes(corpus["multidex"].read_bytes())  # v1-signed, two dex entries
    _splice_signing_block(base, _v2_block(make_cert("V2", "V2Org")[0].public_bytes(Encoding.DER)))
    raw = base.read_bytes()
    regions = _mutant_regions(raw)
    rng = random.Random(20261018)
    accepted = {"zipfile": 0, "reader": 0, "compared": 0}
    p = tmp_path / "mutant.apk"
    for _ in range(MUTANTS):
        mutant = _mutate(raw, rng, regions)
        p.write_bytes(mutant)
        oracle: dict[str, bytes | None] = {}
        try:
            with zipfile.ZipFile(io.BytesIO(mutant)) as zf:
                kept = {info.filename: info for info in _kept(zf)}
                for name, info in kept.items():
                    try:
                        oracle[name] = zf.read(info)
                    except Exception:  # noqa: BLE001 - any zipfile failure is a refusal
                        oracle[name] = None
        except Exception:  # noqa: BLE001
            oracle = {}
        try:
            art = open_apk(p)
        except ApkAuditError:
            art = None
        read: dict[str, bytes | None] = {}
        for name in art.entries if art else ():
            try:
                read[name] = read_entry(art, name)
            except ApkAuditError as exc:  # an entry fault, never a missing entry
                assert exc.code.startswith("zip.") and exc.code != "zip.entry_missing"
                read[name] = None
        accepted["zipfile"] += bool(oracle) and None not in oracle.values()
        accepted["reader"] += bool(art) and None not in read.values()
        if not any(data is not None for data in oracle.values()):
            continue
        accepted["compared"] += 1
        assert art is not None
        assert list(art.entries) == list(oracle)
        for name, data in oracle.items():
            if data is not None:
                assert read[name] == (data if _consistent(kept[name], data) else None), name
    # the mutants exercise both sides: most stay readable, and some do not
    assert MUTANTS > accepted["compared"] > MUTANTS // 4
    assert accepted["reader"] < MUTANTS and accepted["zipfile"] < MUTANTS


@pytest.mark.parametrize("scheme", ["v1", "v2"])
def test_signer_extraction(tmp_path, scheme):
    p = build_apk(tmp_path / f"{scheme}.apk", {"f": b"x"}, sign=scheme, cn="Acme", org="AcmeOrg")
    art = open_apk(p)
    assert len(art.signers) == 1
    s = art.signers[0]
    assert (s.subject_cn, s.subject_o) == ("Acme", "AcmeOrg")
    # fingerprint oracle: sha256 over the DER bytes of the known cert
    cert, _ = make_cert("Acme", "AcmeOrg")
    assert s.fingerprint_sha256 == hashlib.sha256(cert.public_bytes(Encoding.DER)).hexdigest()


def test_unsigned_has_no_signers(tmp_path):
    art = open_apk(build_apk(tmp_path / "u.apk", {"f": b"x"}, sign=None))
    assert art.signers == ()


def test_same_cert_in_both_schemes_dedupes(tmp_path):
    # v1 entries plus a v2 block carrying the same certificate
    from .fixtures.apk_writer import _splice_signing_block, _v2_block

    p = build_apk(tmp_path / "both.apk", {"f": b"x"}, sign="v1", cn="Dup", org="DupOrg")
    cert, _ = make_cert("Dup", "DupOrg")
    _splice_signing_block(p, _v2_block(cert.public_bytes(Encoding.DER)))
    art = open_apk(p)
    assert len(art.signers) == 1


def _sig_block(payload: bytes, size: int | None = None, head: int | None = None) -> bytes:
    """A signing block around ``payload``; ``size``/``head`` override its
    trailing/leading size fields."""
    size = len(payload) + 24 if size is None else size
    return struct.pack("<Q", size if head is None else head) + payload + struct.pack("<Q", size) + SIG_MAGIC


def _pair(block_id: int, value: bytes) -> bytes:
    return struct.pack("<QI", 4 + len(value), block_id) + value


@pytest.mark.parametrize("bogus, reason", [
    (_sig_block(b"\0" * 8), "truncated id-value pair header"),
    (_sig_block(struct.pack("<QI", 99, V2_ID)), "id-value pair overruns block"),
    (_sig_block(b"", size=1 << 40), "declared size larger than file prefix"),
    (_sig_block(b"", size=8), "declared size smaller than its size and magic fields"),
    (_sig_block(b"\0" * 16, head=999), "leading/trailing size mismatch"),
    (_sig_block(_pair(V2_ID, b"\0\0")), "length prefix past end of buffer"),
    (_sig_block(_pair(V3_ID, struct.pack("<I", 100))), "value past end of buffer"),
], ids=["pair-header", "pair-overrun", "size-too-large", "size-too-small", "size-mismatch",
        "lv-prefix", "lv-value"])
def test_malformed_signing_block_is_warning_not_fatal(tmp_path, bogus, reason):
    p = build_apk(tmp_path / "m.apk", {"f": b"x"}, sign=None)
    _splice_signing_block(p, bogus)
    art = open_apk(p)
    assert art.signers == ()
    assert art.warnings == [f"malformed signing block: {reason}"]


def test_authority_map_default_grouping():
    amap = AuthorityMap.load()

    def lab(cn, o):
        return amap.label((SignerInfo(cn, o, "00"), SignerInfo("Other", "Other", "01")))

    assert lab("Infinix", "Infinix Mobility") == "Infinix"
    assert lab("Android", "Google Inc.") == "Google"
    assert lab("Transsion", "Transsion Holdings") == "Transsion"
    assert lab("Tecno", "Tecno Mobile") == "Tecno"
    assert lab("Facebook", "Facebook Inc") == "Facebook"
    assert lab("Android", "Android") == "Default"
    assert lab("RandomVendor", "Whoever") == "Others"
    assert amap.label(()) == "Others"


def test_authority_map_first_match_wins(tmp_path):
    rules = tmp_path / "map.json"
    rules.write_text('[{"match": "A", "label": "first"}, {"match": "Acme", "label": "second"}]')
    amap = AuthorityMap.load(rules)
    assert amap.label((SignerInfo("Acme", "X", "00"),)) == "first"


def test_extract_signers_bad_v1_blob_warns(tmp_path):
    p = build_apk(tmp_path / "b.apk", {"META-INF/CERT.RSA": b"not pkcs7"}, sign=None)
    art = open_apk(p)
    assert art.signers == ()
    assert any("unparsable v1 signature" in w for w in art.warnings)
