"""APK container handling: entry enumeration, digests, signing certificates.

:func:`open_apk` opens an APK once and hashes it through one 64 KiB
buffer; the ZIP directory, the signing block and each entry are then read
by position, so only the bytes parsed are held.  The file stays open until
the artifact is freed, so hold few at a time; a file changed after the
hash is analysed as it then is, and a read past its new end raises
``zip.short_read``.  Names and offsets are read as in ``zipfile``.
Certificates come from v1 PKCS#7 blobs under META-INF/ and the v2/v3 APK
Signing Block, read by a strict DER walker.  Nothing is verified beyond
each entry's CRC-32.
"""

from __future__ import annotations

import hashlib
import os
import stat
import struct
import sys
import zlib
from pathlib import Path
from typing import NamedTuple

from .errors import ApkAuditError, ApkReadError, MalformedSigningBlockError, read_data_file

SIG_BLOCK_MAGIC = b"APK Sig Block 42"
V2_BLOCK_ID = 0x7109871A
V3_BLOCK_ID = 0xF05368C0

_V1_SUFFIXES = (".RSA", ".DSA", ".EC")

DEFAULT_AUTHORITY_MAP = Path(__file__).parent / "data" / "authorities.json"
FALLBACK_AUTHORITY = "Others"  # the label of a signer no rule matches

# ZIP records (APPNOTE 4.3): signature and the fields this reader uses
_END = struct.Struct("<4s8xLL2x")  # end of central directory: size, offset
_END_SIG = b"PK\x05\x06"
_ZIP64_LOCATOR = struct.Struct("<4sLQL")  # disk, end record offset, disks
_ZIP64_END = struct.Struct("<4s36xQQ")  # ZIP64 end record: size, offset
_DIRECTORY = struct.Struct("<L4xHH4xLLLHHH8xL")  # one central directory record
_DIRECTORY_SIG = 0x02014B50
_LOCAL = struct.Struct("<L22xHH")  # local file header: name and extra lengths
_LOCAL_SIG = 0x04034B50
_EXTRA = struct.Struct("<HH")  # extra field header: id, length
_U64 = struct.Struct("<Q")
_MAX32 = 0xFFFFFFFF
_UTF8_NAME = 0x800  # flag bit 11
_ENCRYPTED = 0x1  # flag bit 0
_PATCHED = 0x20  # flag bit 5
_STORED, _DEFLATED = 0, 8  # all Android's reader accepts


class ZipEntry(NamedTuple):
    """One central directory record, with its local-header offset shifted
    to a position in the APK's bytes."""

    raw_name: bytes
    flags: int
    method: int
    crc: int
    compress_size: int
    file_size: int
    header_offset: int


class SignerInfo(NamedTuple):
    subject_cn: str
    subject_o: str
    fingerprint_sha256: str


class _ApkFile:
    """A file read by position: ``len()`` and non-negative slices, as of
    ``bytes`` (``zip.short_read`` for bytes the file no longer holds).  Like
    ``mmap``, it closes its own descriptor when freed."""

    def __init__(self, fd, size):
        self.fd, self.size = fd, size

    def __len__(self):
        return self.size

    def __getitem__(self, s):
        stop = min(s.stop, self.size)  # os.read allocates all it is asked for
        if s.start >= stop:
            return b""
        os.lseek(self.fd, s.start, os.SEEK_SET)
        data = os.read(self.fd, stop - s.start)
        if len(data) < stop - s.start:  # the file shrank after the hash
            raise ApkAuditError(f"file changed after open: read {len(data)} of "
                                f"{stop - s.start} byte(s) at offset {s.start}", "zip.short_read")
        return data

    def __del__(self):
        os.close(self.fd)


class ApkArtifact(NamedTuple):
    path: Path
    entries: dict[str, ZipEntry]  # first entry of each name, in archive order
    sha256: str
    archive: bytes | _ApkFile  # read by slices
    warnings: list[str]
    signers: tuple[SignerInfo, ...] = ()


def open_apk(path) -> ApkArtifact:
    """Open an APK once: hash it, enumerate its entries and find its signers.

    Entries are not decompressed here; use :func:`read_entry` for that.
    A file that cannot be read, or whose ZIP directory cannot be read,
    raises :class:`ApkReadError`; one cut short after the hash
    ``zip.short_read``.
    """
    path = Path(path)
    try:
        # a device or FIFO may never end; a directory fails to open
        if not (stat.S_ISREG(mode := path.stat().st_mode) or stat.S_ISDIR(mode)):
            raise ApkReadError(f"{path}: not a regular file", "apk.not_regular_file")
        with path.open("rb", buffering=0) as file:
            digest, size, buf = hashlib.sha256(), 0, bytearray(0x10000)
            while n := file.readinto(buf):
                digest.update(memoryview(buf)[:n])
                size += n
            data = _ApkFile(os.dup(file.fileno()), size)
    except OSError as exc:
        raise ApkReadError(f"{path}: {exc.strerror or exc}", "apk.unreadable") from exc
    warnings: list[str] = []
    try:
        cd_offset, entries = _read_directory(data, warnings)
    except struct.error as exc:
        raise ApkReadError(f"{path}: truncated record: {exc}", "zip.truncated_record") from exc
    except ValueError as exc:
        raise ApkReadError(f"{path}: {exc}", "zip.not_a_zip") from exc
    art = ApkArtifact(path, entries, digest.hexdigest(), data, warnings)
    return art._replace(signers=extract_signers(art, cd_offset))


def _read_directory(data, warnings: list[str]) -> tuple[int, dict[str, ZipEntry]]:
    """The end record's (not ZIP64's) directory offset and the first entry
    of each name, in directory order.  Raises ValueError or struct.error."""
    # an archive comment of up to 64 KiB follows the end record
    base = max(len(data) - _END.size - 0x10000, 0)
    tail = data[base : len(data)]
    end = len(tail) - _END.size
    if not (end >= 0 and tail.startswith(_END_SIG, end) and tail.endswith(b"\0\0")):
        end = tail.rfind(_END_SIG)
        if end < 0 or end + _END.size > len(tail):
            raise ValueError("File is not a zip file")  # no end of central directory record
    size, offset = _END.unpack_from(tail, end)[1:]
    cd_offset = offset
    end += base
    stop = end  # where the directory ends
    locator = end - _ZIP64_LOCATOR.size
    if locator >= 0:
        sig, disk, _, disks = _ZIP64_LOCATOR.unpack(data[locator:end])
        if sig == b"PK\x06\x07":
            if disk != 0 or disks > 1:
                raise ValueError("archive spans multiple disks")
            if locator >= _ZIP64_END.size:
                sig, size64, offset64 = _ZIP64_END.unpack(data[locator - _ZIP64_END.size : locator])
                if sig == b"PK\x06\x06":
                    size, offset, stop = size64, offset64, locator - _ZIP64_END.size
    start = stop - size
    if start < 0:
        raise ValueError("central directory starts before the file")
    shift = start - offset  # bytes prepended to the archive
    directory = data[start:stop]

    entries: dict[str, ZipEntry] = {}
    bad_names = 0
    unpack, record = _DIRECTORY.unpack_from, _DIRECTORY.size
    new_entry = tuple.__new__  # ZipEntry(...) without the Python-level __new__
    pos = 0
    while pos < size:
        sig, flags, method, crc, csize, usize, name_len, extra_len, comment_len, local = unpack(
            directory, pos
        )
        if sig != _DIRECTORY_SIG:
            raise ValueError(f"bad central directory record signature at offset {start + pos}")
        pos += record
        raw = directory[pos : pos + name_len]
        if raw.isascii():
            name = raw.decode("ascii")
        elif flags & _UTF8_NAME:
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                name = raw.decode("utf-8", "replace")
                bad_names += 1
        else:
            name = raw.decode("cp437")
        if "\0" in name:
            name = name[: name.index("\0")]
        pos += name_len
        if _MAX32 in (csize, usize, local):
            usize, csize, local = _zip64_fields(directory[pos : pos + extra_len], usize, csize, local)
        pos += extra_len + comment_len
        if name in entries:
            warnings.append(f"duplicate entry dropped: {name}")
        else:
            entries[name] = new_entry(ZipEntry, (raw, flags, method, crc, csize, usize, local + shift))
    if bad_names:
        warnings.append(f"{bad_names} entry name(s) not valid UTF-8 replaced")
    return cd_offset, entries


def _zip64_fields(extra: bytes, usize: int, csize: int, local: int) -> tuple[int, int, int]:
    """Take each of the sizes and the offset that is 0xFFFFFFFF from the
    first ZIP64 extra field, in that order; without one, keep all three."""
    pos = 0
    while pos + _EXTRA.size <= len(extra):
        tag, n = _EXTRA.unpack_from(extra, pos)
        pos += _EXTRA.size
        if tag == 1:
            fields = extra[pos : pos + n]
            at = 0
            if usize == _MAX32:
                usize, at = _U64.unpack_from(fields, at)[0], at + 8
            if csize == _MAX32:
                csize, at = _U64.unpack_from(fields, at)[0], at + 8
            if local == _MAX32:
                local = _U64.unpack_from(fields, at)[0]
            break
        pos += n
    return usize, csize, local


def read_entry(a: ApkArtifact, name: str) -> bytes:
    """Fully decompress the kept entry of this name, verifying its size and
    CRC-32.

    Any failure raises :class:`ApkAuditError` with the message
    ``<path>:<entry>: <reason>`` (``zip.crc`` for a CRC-32 mismatch); the
    artifact stays readable for its other entries.
    """
    entry = a.entries.get(name)
    if entry is None:
        raise ApkAuditError(f"{a.path}: no entry {name!r}", "zip.entry_missing")
    try:
        return _entry_data(a.archive, entry)
    except ApkAuditError as exc:
        raise ApkAuditError(f"{a.path}:{name}: {exc}", exc.code) from None


def _entry_data(data, entry: ZipEntry) -> bytes:
    """The bytes of one entry of the APK; raises ApkAuditError with the
    bare reason."""
    raw, flags, method, crc, csize, size, local = entry
    if flags & _ENCRYPTED:
        raise ApkAuditError("encrypted entry (flag bit 0)", "zip.encrypted")
    if flags & _PATCHED:
        raise ApkAuditError("compressed patched data (flag bit 5)", "zip.patched")
    if not 0 <= local <= len(data) - _LOCAL.size:
        raise ApkAuditError(f"local header offset {local} outside the file", "zip.local_offset")
    sig, name_len, extra_len = _LOCAL.unpack(data[local : local + _LOCAL.size])
    if sig != _LOCAL_SIG:
        raise ApkAuditError(f"bad local header signature at offset {local}", "zip.local_signature")
    start = local + _LOCAL.size
    if data[start : start + name_len] != raw:
        raise ApkAuditError("local header name differs from the central directory's", "zip.local_name")
    start += name_len + extra_len
    body = data[start : start + csize]
    if method == _DEFLATED:
        try:
            # one byte over the declared size tells a longer stream apart; a
            # ZIP64 size can exceed the largest max_length zlib takes
            body = zlib.decompressobj(-15).decompress(body, min(size + 1, sys.maxsize))
        except zlib.error as exc:  # as "error: Error -3 while decompressing data: ..."
            raise ApkAuditError(f"{type(exc).__name__}: {exc}", "zip.inflate") from None
    elif method != _STORED:
        raise ApkAuditError(f"unsupported compression method {method}", "zip.method")
    if len(body) != size:
        more = "more than " if len(body) > size else ""
        raise ApkAuditError(f"{more}{len(body)} byte(s) where {size} are declared", "zip.size")
    if zlib.crc32(body) != crc:
        raise ApkAuditError(f"CRC-32 is 0x{zlib.crc32(body):08x}, declared 0x{crc:08x}", "zip.crc")
    return body


def extract_signers(a: ApkArtifact, cd_offset: int) -> tuple[SignerInfo, ...]:
    """One :class:`SignerInfo` per distinct certificate, the signing block's
    first; the block ends at ``cd_offset``.  A malformed signing block is a
    warning, never fatal."""
    signers: dict[str, SignerInfo] = {}  # fingerprint -> its first signer

    def add(cert_der: bytes, cn_o: tuple[str, str]) -> None:
        fp = hashlib.sha256(cert_der).hexdigest()
        signers.setdefault(fp, SignerInfo(*cn_o, fp))

    try:
        for der in _signing_block_certs(a.archive, cd_offset):
            try:
                cn_o = _subject_fields(der)
            except DerError:
                cn_o = ("", "")
            add(der, cn_o)
    except MalformedSigningBlockError as exc:
        a.warnings.append(f"malformed signing block: {exc}")

    v1_names = [n for n in a.entries if n.startswith("META-INF/") and n.upper().endswith(_V1_SUFFIXES)]
    for name in sorted(v1_names):
        try:
            # a blob holding any malformed certificate adds none of them
            certs = [(der, _subject_fields(der)) for der in _pkcs7_certs(read_entry(a, name))]
        except (ApkAuditError, DerError) as exc:
            a.warnings.append(f"unparsable v1 signature {name}: {exc}")
            continue
        for der, cn_o in certs:
            add(der, cn_o)
    return tuple(signers.values())


class DerError(ValueError):
    """A certificate or PKCS#7 blob that is not strict DER of the expected shape."""


_OID_SIGNED_DATA = bytes.fromhex("2a864886f70d010702")  # 1.2.840.113549.1.7.2
_OID_CN = bytes.fromhex("550403")  # 2.5.4.3
_OID_O = bytes.fromhex("55040a")  # 2.5.4.10
# the ASN.1 types an X.509 name attribute value may carry, by tag: the two
# wide string types have their own encodings, and the others (UTF8String,
# PrintableString, T61String, IA5String, ...) are read as UTF-8
_NAME_VALUE_CODECS = {
    **dict.fromkeys((0x03, 0x04, 0x0C, 0x12, 0x13, 0x14, 0x16, 0x17, 0x18, 0x1A), "utf-8"),
    0x1C: "utf-32-be",  # UniversalString
    0x1E: "utf-16-be",  # BMPString
}


def _tlv(buf: bytes, pos: int, end: int, tags) -> tuple[int, int, int]:
    """Read the DER header at ``pos`` of an element that must carry one of
    ``tags`` and end by ``end``: returns (tag, content start, content end)."""
    if pos + 2 > end:
        raise DerError(f"element header past end at offset {pos}")
    tag, n = buf[pos], buf[pos + 1]
    if tag not in tags:
        raise DerError(f"unexpected tag 0x{tag:02x} at offset {pos}")
    pos += 2
    if n & 0x80:
        k = n & 0x7F
        if not 1 <= k <= 4 or pos + k > end:  # k == 0 is BER's indefinite length
            raise DerError(f"bad length form 0x{n:02x} at offset {pos - 1}")
        n = int.from_bytes(buf[pos : pos + k], "big")
        if n < 0x80 or buf[pos] == 0:
            raise DerError(f"non-minimal length at offset {pos - 1}")
        pos += k
    if pos + n > end:
        raise DerError(f"element at offset {pos} overruns its container")
    return tag, pos, pos + n


def _elem(buf: bytes, pos: int, end: int, tag: int) -> tuple[int, int]:
    """Content (start, end) of the element at ``pos``, which must have this tag."""
    return _tlv(buf, pos, end, (tag,))[1:]


def _only(buf: bytes, pos: int, end: int, tag: int) -> int:
    """Content start of the element at ``pos``, which must fill ``[pos, end)``."""
    start, stop = _elem(buf, pos, end, tag)
    if stop != end:
        raise DerError(f"{end - stop} byte(s) after the element at offset {pos}")
    return start


def _pkcs7_certs(blob: bytes) -> list[bytes]:
    """The certificates of a PKCS#7 SignedData blob, as DER slices in blob order."""
    end = len(blob)
    pos = _only(blob, 0, end, 0x30)  # ContentInfo
    oid, pos = _elem(blob, pos, end, 0x06)
    if blob[oid:pos] != _OID_SIGNED_DATA:
        raise DerError("content type is not signedData")
    pos = _only(blob, _only(blob, pos, end, 0xA0), end, 0x30)  # [0] EXPLICIT SignedData
    for tag in (0x02, 0x31, 0x30):  # version, digestAlgorithms, contentInfo
        pos = _elem(blob, pos, end, tag)[1]
    if pos == end or blob[pos] != 0xA0:
        raise DerError("no certificates")
    cert, stop = _elem(blob, pos, end, 0xA0)  # [0] IMPLICIT SET OF Certificate
    certs = []
    while cert < stop:
        nxt = _elem(blob, cert, stop, 0x30)[1]
        certs.append(blob[cert:nxt])
        cert = nxt
    if stop < end and blob[stop] == 0xA1:  # [1] IMPLICIT crls
        stop = _elem(blob, stop, end, 0xA1)[1]
    _only(blob, stop, end, 0x31)  # signerInfos
    return certs


def _subject_fields(cert_der: bytes) -> tuple[str, str]:
    """The first subject CN and the first subject O of a certificate, in RDN
    order; "" for one it lacks."""
    end = len(cert_der)
    pos, end = _elem(cert_der, _only(cert_der, 0, end, 0x30), end, 0x30)  # TBSCertificate
    if pos < end and cert_der[pos] == 0xA0:  # [0] EXPLICIT version
        pos = _elem(cert_der, pos, end, 0xA0)[1]
    for tag in (0x02, 0x30, 0x30, 0x30):  # serial, signature, issuer, validity
        pos = _elem(cert_der, pos, end, tag)[1]
    rdn, end = _elem(cert_der, pos, end, 0x30)  # subject RDNSequence
    fields: dict[bytes, str] = {}
    while rdn < end:
        atv, rdn = _elem(cert_der, rdn, end, 0x31)  # SET OF AttributeTypeAndValue
        while atv < rdn:
            pos, atv = _elem(cert_der, atv, rdn, 0x30)
            oid, pos = _elem(cert_der, pos, atv, 0x06)
            tag, value, stop = _tlv(cert_der, pos, atv, _NAME_VALUE_CODECS)
            if stop != atv:
                raise DerError(f"{atv - stop} byte(s) after the attribute value at offset {pos}")
            key = cert_der[oid:pos]
            if key in (_OID_CN, _OID_O) and key not in fields:
                try:
                    fields[key] = cert_der[value:stop].decode(_NAME_VALUE_CODECS[tag])
                except UnicodeDecodeError as exc:
                    raise DerError(f"name attribute value at offset {pos}: {exc}") from None
    return fields.get(_OID_CN, ""), fields.get(_OID_O, "")


def _signing_block_certs(data, cd_offset: int):
    """Yield the certificates (DER) of every v2/v3 block of an APK, in order."""
    block = _find_signing_block(data, cd_offset)
    if block is None:
        return
    pos = 0
    while pos < len(block):
        if len(block) - pos < 12:
            raise MalformedSigningBlockError("truncated id-value pair header", "signing_block.pair_header")
        pair_len = _U64.unpack_from(block, pos)[0]
        pos += 8
        if pair_len < 4 or pos + pair_len > len(block):
            raise MalformedSigningBlockError("id-value pair overruns block", "signing_block.pair_overrun")
        block_id = struct.unpack_from("<I", block, pos)[0]
        value = block[pos + 4 : pos + pair_len]
        pos += pair_len
        if block_id in (V2_BLOCK_ID, V3_BLOCK_ID):
            yield from _scheme_block_certs(value)


def _find_signing_block(raw, cd_offset: int) -> bytes | None:
    """The signing block that ends at ``cd_offset``, or None."""
    if not 32 <= cd_offset <= len(raw) or raw[cd_offset - 16 : cd_offset] != SIG_BLOCK_MAGIC:
        return None
    # size excludes only the leading size field, so the first id-value pair
    # starts at cd_offset - size and the leading copy sits 8 bytes before it
    size = _U64.unpack(raw[cd_offset - 24 : cd_offset - 16])[0]
    if size < 24:
        raise MalformedSigningBlockError("declared size smaller than its size and magic fields",
                                         "signing_block.size_small")
    start = cd_offset - size
    if start < 8:
        raise MalformedSigningBlockError("declared size larger than file prefix", "signing_block.size_large")
    if _U64.unpack(raw[start - 8 : start])[0] != size:
        raise MalformedSigningBlockError("leading/trailing size mismatch", "signing_block.size_mismatch")
    # payload: everything between the two size fields, minus the magic+size tail
    return raw[start : cd_offset - 24]


def _scheme_block_certs(value: bytes) -> list[bytes]:
    """Walk signer → signed-data → certificates for a v2/v3 block."""
    certs: list[bytes] = []
    signers = _lv(value, 0)[0]
    pos = 0
    while pos < len(signers):
        signer, pos = _lv(signers, pos)
        signed_data = _lv(signer, 0)[0]
        # v2 and v3 signed data: digests, then certificates
        _digests, p = _lv(signed_data, 0)
        cert_seq = _lv(signed_data, p)[0]
        cp = 0
        while cp < len(cert_seq):
            der, cp = _lv(cert_seq, cp)
            certs.append(der)
    return certs


def _lv(buf: bytes, pos: int) -> tuple[bytes, int]:
    """Read one uint32-length-prefixed value; raises
    MalformedSigningBlockError when it does not fit in ``buf``."""
    if pos + 4 > len(buf):
        raise MalformedSigningBlockError("length prefix past end of buffer", "signing_block.length_prefix")
    n = struct.unpack_from("<I", buf, pos)[0]
    pos += 4
    if pos + n > len(buf):
        raise MalformedSigningBlockError("value past end of buffer", "signing_block.value_overrun")
    return buf[pos : pos + n], pos + n


class AuthorityMap:
    """Substring → label mapping for certificate-authority grouping.

    First match wins; anything unmatched gets ``FALLBACK_AUTHORITY``.
    """

    def __init__(self, rules: list[dict]):
        self.rules = [(r["match"], r["label"]) for r in rules]

    @classmethod
    def load(cls, path=None) -> "AuthorityMap":
        return cls(read_data_file(path or DEFAULT_AUTHORITY_MAP, as_json=True))

    def label(self, signers: tuple[SignerInfo, ...]) -> str:
        """The label of an app's signers: its first signer labels it."""
        if not signers:
            return FALLBACK_AUTHORITY
        subject = f"CN={signers[0].subject_cn}, O={signers[0].subject_o}"
        for match, lab in self.rules:
            if match in subject:
                return lab
        return FALLBACK_AUTHORITY
