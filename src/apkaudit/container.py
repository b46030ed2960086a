"""APK container handling: entry enumeration, digests, signing certificates.

APKs are ZIP files; enumeration and decompression go through ``zipfile``
(which covers ZIP64 and data-descriptor entries).  Each APK is read from
disk once: the hash, the signing-block search and the one ``ZipFile`` kept
on the :class:`ApkArtifact` all work over that buffer.  Certificate extraction
understands both the v1 scheme (PKCS#7 blobs under META-INF/) and the APK
Signing Block (v2/v3) that sits just before the central directory.
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

from cryptography import x509
from cryptography.hazmat.primitives.serialization import Encoding, pkcs7
from cryptography.x509.oid import NameOID

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

    def add(cert_der: bytes, scheme: str) -> None:
        fp = hashlib.sha256(cert_der).hexdigest()
        if fp in seen_fp:
            return
        seen_fp.add(fp)
        cn, o = _subject_fields(cert_der)
        signers.append(SignerInfo(subject_cn=cn, subject_o=o, fingerprint_sha256=fp, scheme=scheme))

    try:
        for block_id, certs in _signing_block_certs(data):
            scheme = "v2" if block_id == V2_BLOCK_ID else "v3"
            for der in certs:
                add(der, scheme)
    except MalformedSigningBlockError as exc:
        a.warnings.append(f"malformed signing block: {exc}")

    for name in sorted(a.entries):
        if name.startswith("META-INF/") and name.upper().endswith(_V1_SUFFIXES):
            try:
                blob = read_entry(a, name)
                for cert in pkcs7.load_der_pkcs7_certificates(blob):
                    add(cert.public_bytes(Encoding.DER), "v1")
            except Exception as exc:  # noqa: BLE001 - per-entry, keep going
                a.warnings.append(f"unparsable v1 signature {name}: {exc}")
    return signers


def _subject_fields(cert_der: bytes) -> tuple[str, str]:
    try:
        cert = x509.load_der_x509_certificate(cert_der)
    except Exception:  # noqa: BLE001
        return "", ""

    def first(oid) -> str:
        attrs = cert.subject.get_attributes_for_oid(oid)
        return str(attrs[0].value) if attrs else ""

    return first(NameOID.COMMON_NAME), first(NameOID.ORGANIZATION_NAME)


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
