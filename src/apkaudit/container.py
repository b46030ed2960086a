"""APK container handling: entry enumeration, digests, signing certificates.

APKs are ZIP files, read with a small strict reader over the one buffer of
the APK's bytes; each APK is read from disk once, and the hash, the
directory walk, the signing-block search and every entry read work over
that buffer.  ``_read_directory`` finds the end record in the last 64 KiB
+ 22 bytes (following a ZIP64 locator if there is one), walks the central
directory once into one :class:`ZipEntry` per record and keeps the first
entry of each name.  As in ``zipfile``, names are UTF-8 when flag bit 11 is
set and cp437 otherwise, end at a NUL, and local-header offsets are shifted
by the bytes prepended to the archive; a ZIP64 extra field is read only for
a size or offset of 0xFFFFFFFF.  :func:`read_entry` inflates only the entry
it is asked for: it checks the local header's signature and name, rejects
encrypted and patched-data entries, inflates STORED or DEFLATE data (the
only methods Android's own reader accepts) and checks the declared size and
the CRC-32.  Nothing beyond the CRC-32 is verified.

Certificate extraction understands both the v1 scheme (PKCS#7 blobs under
META-INF/) and the APK Signing Block (v2/v3) that sits just before the
central directory.  Certificates are read with a small strict DER walker
(``_pkcs7_certs``, ``_subject_fields``): definite minimal lengths, the tag
of every element it reads checked, fixed-depth loops.  It takes from a
certificate only its bytes (for the fingerprint) and the first subject CN
and O (for the authority label).  Nothing is verified: no signature, digest
or chain.
"""

from __future__ import annotations

import hashlib
import struct
import sys
import zlib
from pathlib import Path
from typing import NamedTuple

from .errors import (
    ApkReadError,
    CorruptEntryError,
    CrcMismatchError,
    EntryMissingError,
    MalformedSigningBlockError,
    NotAZipError,
    read_data_file,
)

SIG_BLOCK_MAGIC = b"APK Sig Block 42"
V2_BLOCK_ID = 0x7109871A
V3_BLOCK_ID = 0xF05368C0

_V1_SUFFIXES = (".RSA", ".DSA", ".EC")

DEFAULT_AUTHORITY_MAP = Path(__file__).parent / "data" / "authorities.json"

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
_STORED, _DEFLATED = 0, 8


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
    scheme: str  # "v1" | "v2" | "v3"


class ApkArtifact:
    __slots__ = ("path", "entries", "sha256", "archive", "signers", "warnings")

    def __init__(self, path: Path, entries: dict[str, ZipEntry], sha256: str, archive: bytes,
                 warnings: list[str]):
        self.path = path
        self.entries = entries  # first entry of each name, in archive order
        self.sha256 = sha256
        self.archive = archive  # the APK's bytes
        self.signers: list[SignerInfo] = []
        self.warnings = warnings


def open_apk(path) -> ApkArtifact:
    """Read an APK once: hash its bytes, enumerate its entries and find its
    signers, all over the one buffer.

    Entries are not decompressed here; use :func:`read_entry` for that.
    A file that cannot be read raises :class:`ApkReadError`, one whose ZIP
    directory cannot be read :class:`NotAZipError`.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ApkReadError(f"{path}: {exc.strerror or exc}") from exc
    warnings: list[str] = []
    try:
        end, entries = _read_directory(data, warnings)
    except struct.error as exc:
        raise NotAZipError(f"{path}: truncated record: {exc}") from exc
    except ValueError as exc:
        raise NotAZipError(f"{path}: {exc}") from exc
    art = ApkArtifact(path, entries, hashlib.sha256(data).hexdigest(), data, warnings)
    art.signers = extract_signers(art, end)
    return art


def _read_directory(data: bytes, warnings: list[str]) -> tuple[int, dict[str, ZipEntry]]:
    """The end record's position and the first entry of each name, in
    directory order.  Raises ValueError or struct.error."""
    end = len(data) - _END.size
    if not (end >= 0 and data.startswith(_END_SIG, end) and data.endswith(b"\0\0")):
        # an archive comment of up to 64 KiB follows the end record
        end = data.rfind(_END_SIG, max(end - 0x10000, 0))
        if end < 0 or end + _END.size > len(data):
            raise ValueError("File is not a zip file")  # no end of central directory record
    size, offset = _END.unpack_from(data, end)[1:]
    stop = end  # where the directory ends
    locator = end - _ZIP64_LOCATOR.size
    if locator >= 0:
        sig, disk, _, disks = _ZIP64_LOCATOR.unpack_from(data, locator)
        if sig == b"PK\x06\x07":
            if disk != 0 or disks > 1:
                raise ValueError("archive spans multiple disks")
            if locator >= _ZIP64_END.size:
                sig, size64, offset64 = _ZIP64_END.unpack_from(data, locator - _ZIP64_END.size)
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
    return end, entries


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

    Any failure raises :class:`CorruptEntryError` (its subclass
    :class:`CrcMismatchError` for a CRC-32 mismatch) with the message
    ``<path>:<entry>: <reason>``; the artifact stays readable for its
    other entries.
    """
    entry = a.entries.get(name)
    if entry is None:
        raise EntryMissingError(f"{a.path}: no entry {name!r}")
    try:
        return _entry_data(a.archive, entry)
    except CorruptEntryError as exc:
        raise type(exc)(f"{a.path}:{name}: {exc}") from None


def _entry_data(data: bytes, entry: ZipEntry) -> bytes:
    """The bytes of one entry of the APK's bytes; raises CorruptEntryError
    with the bare reason."""
    raw, flags, method, crc, csize, size, local = entry
    if flags & _ENCRYPTED:
        raise CorruptEntryError("encrypted entry (flag bit 0)")
    if flags & _PATCHED:
        raise CorruptEntryError("compressed patched data (flag bit 5)")
    if not 0 <= local <= len(data) - _LOCAL.size:
        raise CorruptEntryError(f"local header offset {local} outside the file")
    sig, name_len, extra_len = _LOCAL.unpack_from(data, local)
    if sig != _LOCAL_SIG:
        raise CorruptEntryError(f"bad local header signature at offset {local}")
    start = local + _LOCAL.size
    if data[start : start + name_len] != raw:
        raise CorruptEntryError("local header name differs from the central directory's")
    start += name_len + extra_len
    body = data[start : start + csize]
    if method == _DEFLATED:
        try:
            # one byte over the declared size tells a longer stream apart; a
            # ZIP64 size can exceed the largest max_length zlib takes
            body = zlib.decompressobj(-15).decompress(body, min(size + 1, sys.maxsize))
        except zlib.error as exc:  # as "error: Error -3 while decompressing data: ..."
            raise CorruptEntryError(f"{type(exc).__name__}: {exc}") from None
    elif method != _STORED:
        raise CorruptEntryError(f"unsupported compression method {method}")
    if len(body) != size:
        more = "more than " if len(body) > size else ""
        raise CorruptEntryError(f"{more}{len(body)} byte(s) where {size} are declared")
    if zlib.crc32(body) != crc:
        raise CrcMismatchError(f"CRC-32 is 0x{zlib.crc32(body):08x}, declared 0x{crc:08x}")
    return body


def extract_signers(a: ApkArtifact, end: int) -> list[SignerInfo]:
    """Collect distinct signing certificates, preferring the signing block.

    ``end`` is the position of the end of central directory record in the
    APK's bytes.  Returns one :class:`SignerInfo` per distinct certificate
    across schemes.  A malformed signing block is recorded as a warning,
    never fatal.
    """
    signers: list[SignerInfo] = []
    seen_fp: set[str] = set()

    def add(cert_der: bytes, cn_o: tuple[str, str], scheme: str) -> None:
        fp = hashlib.sha256(cert_der).hexdigest()
        if fp in seen_fp:
            return
        seen_fp.add(fp)
        signers.append(SignerInfo(*cn_o, fingerprint_sha256=fp, scheme=scheme))

    try:
        for block_id, certs in _signing_block_certs(a.archive, end):
            scheme = "v2" if block_id == V2_BLOCK_ID else "v3"
            for der in certs:
                try:
                    cn_o = _subject_fields(der)
                except DerError:
                    cn_o = ("", "")
                add(der, cn_o, scheme)
    except MalformedSigningBlockError as exc:
        a.warnings.append(f"malformed signing block: {exc}")

    v1_names = [n for n in a.entries if n.startswith("META-INF/") and n.upper().endswith(_V1_SUFFIXES)]
    for name in sorted(v1_names):
        try:
            # a blob holding any malformed certificate adds none of them
            certs = [(der, _subject_fields(der)) for der in _pkcs7_certs(read_entry(a, name))]
        except (CorruptEntryError, DerError) as exc:
            a.warnings.append(f"unparsable v1 signature {name}: {exc}")
            continue
        for der, cn_o in certs:
            add(der, cn_o, "v1")
    return signers


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


def _signing_block_certs(data: bytes, end: int):
    """Yield (block_id, [cert_der, ...]) for every v2/v3 block of an APK's bytes."""
    block = _find_signing_block(data, end)
    if block is None:
        return
    pos = 0
    while pos < len(block):
        if len(block) - pos < 12:
            raise MalformedSigningBlockError("truncated id-value pair header")
        pair_len = struct.unpack_from("<Q", block, pos)[0]
        pos += 8
        if pair_len < 4 or pos + pair_len > len(block):
            raise MalformedSigningBlockError("id-value pair overruns block")
        block_id = struct.unpack_from("<I", block, pos)[0]
        value = block[pos + 4 : pos + pair_len]
        pos += pair_len
        if block_id in (V2_BLOCK_ID, V3_BLOCK_ID):
            yield block_id, _scheme_block_certs(value, block_id)


def _find_signing_block(raw: bytes, end: int) -> bytes | None:
    """The signing block before the directory offset that the end record at
    ``end`` gives, or None."""
    cd_offset = _END.unpack_from(raw, end)[2]
    if cd_offset < 32 or cd_offset > len(raw):
        return None
    if raw[cd_offset - 16 : cd_offset] != SIG_BLOCK_MAGIC:
        return None
    # size excludes only the leading size field, so the first id-value pair
    # starts at cd_offset - size and the leading copy sits 8 bytes before it
    size = struct.unpack_from("<Q", raw, cd_offset - 24)[0]
    start = cd_offset - size
    if start < 8 or size < 24:
        raise MalformedSigningBlockError("declared size larger than file prefix")
    size_head = struct.unpack_from("<Q", raw, start - 8)[0]
    if size_head != size:
        raise MalformedSigningBlockError("leading/trailing size mismatch")
    # payload: everything between the two size fields, minus the magic+size tail
    return raw[start : cd_offset - 24]


def _scheme_block_certs(value: bytes, block_id: int) -> list[bytes]:
    """Walk signer → signed-data → certificates for a v2/v3 block."""
    certs: list[bytes] = []
    try:
        signers = _lv(value, 0)[0]
        pos = 0
        while pos < len(signers):
            signer, pos = _lv(signers, pos)
            signed_data = _lv(signer, 0)[0]
            # v2 and v3 signed data both start with digests then certificates;
            # the v3 minSDK/maxSDK fields come after and can be ignored here.
            p = 0
            _digests, p = _lv(signed_data, p)
            cert_seq, p = _lv(signed_data, p)
            cp = 0
            while cp < len(cert_seq):
                der, cp = _lv(cert_seq, cp)
                certs.append(der)
    except struct.error as exc:
        raise MalformedSigningBlockError(str(exc)) from exc
    except ValueError as exc:
        raise MalformedSigningBlockError(str(exc)) from exc
    return certs


def _lv(buf: bytes, pos: int) -> tuple[bytes, int]:
    """Read one uint32-length-prefixed value."""
    if pos + 4 > len(buf):
        raise ValueError("length prefix past end of buffer")
    n = struct.unpack_from("<I", buf, pos)[0]
    pos += 4
    if pos + n > len(buf):
        raise ValueError("value past end of buffer")
    return buf[pos : pos + n], pos + n


class AuthorityMap:
    """Substring → label mapping for certificate-authority grouping.

    First match wins; anything unmatched gets the fallback label.
    """

    def __init__(self, rules: list[dict], fallback: str = "Others"):
        self.rules = [(r["match"], r["label"]) for r in rules]
        self.fallback = fallback

    @classmethod
    def load(cls, path=None) -> "AuthorityMap":
        return cls(read_data_file(path or DEFAULT_AUTHORITY_MAP, as_json=True))

    def label(self, signer: SignerInfo | None) -> str:
        if signer is None:
            return self.fallback
        subject = f"CN={signer.subject_cn}, O={signer.subject_o}"
        for match, lab in self.rules:
            if match in subject:
                return lab
        return self.fallback
