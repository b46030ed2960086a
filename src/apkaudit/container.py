"""APK container handling: entry enumeration, digests, signing certificates.

APKs are ZIP files; enumeration and decompression go through ``zipfile``
(which covers ZIP64 and data-descriptor entries).  Each APK is read from
disk once: the hash, the signing-block search and the one ``ZipFile`` kept
on the :class:`ApkArtifact` all work over that buffer.  Certificate extraction
understands both the v1 scheme (PKCS#7 blobs under META-INF/) and the APK
Signing Block (v2/v3) that sits just before the central directory.

Certificates are read with a small strict DER walker (``_pkcs7_certs``,
``_subject_fields``): definite minimal lengths, the tag of every element it
reads checked, fixed-depth loops.  It takes from a certificate only its
bytes (for the fingerprint) and the first subject CN and O (for the
authority label).  Nothing is verified: no signature, digest or chain.
"""

from __future__ import annotations

import hashlib
import io
import lzma
import struct
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

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


@dataclass(frozen=True)
class SignerInfo:
    subject_cn: str
    subject_o: str
    fingerprint_sha256: str
    scheme: str  # "v1" | "v2" | "v3"


@dataclass
class ApkArtifact:
    path: Path
    entries: dict[str, zipfile.ZipInfo]  # first entry of each name, in archive order
    sha256: str
    archive: zipfile.ZipFile  # over the in-memory APK bytes
    signers: list[SignerInfo] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def open_apk(path) -> ApkArtifact:
    """Read an APK once: hash its bytes, enumerate its entries and find its
    signers, all over the one buffer.

    Entries are not decompressed here; use :func:`read_entry` for that.
    A file that cannot be read raises :class:`ApkReadError`.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ApkReadError(f"{path}: {exc.strerror or exc}") from exc
    try:
        archive = zipfile.ZipFile(io.BytesIO(data))
    except zipfile.BadZipFile as exc:
        raise NotAZipError(f"{path}: {exc}") from exc

    entries: dict[str, zipfile.ZipInfo] = {}
    warnings: list[str] = []
    for info in archive.infolist():
        if info.filename in entries:
            warnings.append(f"duplicate entry dropped: {info.filename}")
        else:
            entries[info.filename] = info
    art = ApkArtifact(path, entries, hashlib.sha256(data).hexdigest(), archive, warnings=warnings)
    art.signers = extract_signers(art, data)
    return art


def read_entry(a: ApkArtifact, name: str) -> bytes:
    """Fully decompress the kept entry of this name, verifying its CRC-32.

    Any failure to decompress raises :class:`CorruptEntryError` (its
    subclass :class:`CrcMismatchError` for a CRC-32 mismatch); the
    artifact stays readable for its other entries.
    """
    # what a damaged entry raises inside zipfile: zlib.error and EOFError for
    # bad deflate data, OSError for bad bzip2 data, LZMAError for bad LZMA
    # data, ValueError for a header offset before the start of the buffer,
    # RuntimeError for a set encryption flag or (NotImplementedError) an
    # unknown compression method, and BadZipFile for a bad local header or CRC
    info = a.entries.get(name)
    if info is None:
        raise EntryMissingError(f"{a.path}: no entry {name!r}")
    try:
        return a.archive.read(info)
    except (
        zipfile.BadZipFile, zlib.error, lzma.LZMAError, EOFError, OSError, RuntimeError, ValueError
    ) as exc:
        crc = isinstance(exc, zipfile.BadZipFile) and "CRC" in str(exc)
        error = CrcMismatchError if crc else CorruptEntryError
        raise error(f"{a.path}:{name}: {type(exc).__name__}: {exc}") from exc


def extract_signers(a: ApkArtifact, data: bytes) -> list[SignerInfo]:
    """Collect distinct signing certificates, preferring the signing block.

    ``data`` is the whole APK file.  Returns one :class:`SignerInfo` per
    distinct certificate across schemes.
    A malformed signing block is recorded as a warning, never fatal.
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
        for block_id, certs in _signing_block_certs(data):
            scheme = "v2" if block_id == V2_BLOCK_ID else "v3"
            for der in certs:
                try:
                    cn_o = _subject_fields(der)
                except DerError:
                    cn_o = ("", "")
                add(der, cn_o, scheme)
    except MalformedSigningBlockError as exc:
        a.warnings.append(f"malformed signing block: {exc}")

    for name in sorted(a.entries):
        if name.startswith("META-INF/") and name.upper().endswith(_V1_SUFFIXES):
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


def _signing_block_certs(data: bytes):
    """Yield (block_id, [cert_der, ...]) for every v2/v3 block of an APK's bytes."""
    block = _find_signing_block(data)
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


def _find_signing_block(raw: bytes) -> bytes | None:
    eocd = raw.rfind(b"PK\x05\x06")
    if eocd < 0:
        return None
    cd_offset = struct.unpack_from("<I", raw, eocd + 16)[0]
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
