"""Builds signed APK fixtures: zip packaging, v1 (PKCS#7) signing and a
synthetic v2 signing block spliced in front of the central directory."""

from __future__ import annotations

import hashlib
import struct
import zipfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

from cryptography import x509
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import rsa
from cryptography.hazmat.primitives.serialization import pkcs7
from cryptography.x509.oid import NameOID

SIG_MAGIC = b"APK Sig Block 42"
V2_ID = 0x7109871A
V3_ID = 0xF05368C0

# a fixed RSA-1024 key: PKCS#1 v1.5 signatures are deterministic, so with a
# serial derived from the subject every certificate and v1 signature blob,
# and so every fixture APK, has the same bytes in every build
_P = int(
    "f4ffbfa37e79c0aa9944997c87b6854747fda0eabffc09ac3c9cd7be7eadebc3"
    "aa44cbaf286d818af4aa2337aebddb8e10ea6b14e7dc0d0620f44869ab46e049", 16)
_Q = int(
    "ed84d88beb6a3d2e1efa0a969261fca860dce6813417102ae481c979262942ef"
    "23033a5178d34fccc69d0c15e672ab9291c971dbf865040962b136c1f867f9eb", 16)
_D = pow(65537, -1, (_P - 1) * (_Q - 1))
KEY = rsa.RSAPrivateNumbers(
    p=_P, q=_Q, d=_D, dmp1=rsa.rsa_crt_dmp1(_D, _P), dmq1=rsa.rsa_crt_dmq1(_D, _Q),
    iqmp=rsa.rsa_crt_iqmp(_P, _Q), public_numbers=rsa.RSAPublicNumbers(65537, _P * _Q),
).private_key()


def make_cert(cn: str = "Test", org: str = "TestOrg") -> tuple:
    """Self-signed cert + key; the same (cn, org) gives the same bytes."""
    name = x509.Name([
        x509.NameAttribute(NameOID.COMMON_NAME, cn),
        x509.NameAttribute(NameOID.ORGANIZATION_NAME, org),
    ])
    serial = int.from_bytes(hashlib.sha256(f"{cn}\0{org}".encode()).digest()[:8], "big") >> 1 | 1
    now = datetime(2020, 1, 1, tzinfo=timezone.utc)
    cert = (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(name)
        .public_key(KEY.public_key())
        .serial_number(serial)
        .not_valid_before(now)
        .not_valid_after(now + timedelta(days=365 * 30))
        .sign(KEY, hashes.SHA256())
    )
    return cert, KEY


def build_apk(
    path,
    entries: dict[str, bytes],
    sign: str | None = "v1",
    cn: str = "Test",
    org: str = "TestOrg",
) -> Path:
    """Write a zip with the given entries; sign='v1' | 'v2' | None."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, data in sorted(entries.items()):
            info = zipfile.ZipInfo(name, date_time=(2020, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            zf.writestr(info, data)
        if sign == "v1":
            cert, key = make_cert(cn, org)
            manifest = _jar_manifest(entries)
            zf.writestr(zipfile.ZipInfo("META-INF/MANIFEST.MF", (2020, 1, 1, 0, 0, 0)), manifest)
            zf.writestr(zipfile.ZipInfo("META-INF/CERT.SF", (2020, 1, 1, 0, 0, 0)), manifest)
            blob = (
                pkcs7.PKCS7SignatureBuilder()
                .set_data(manifest)
                .add_signer(cert, key, hashes.SHA256())
                .sign(
                    serialization.Encoding.DER,
                    [pkcs7.PKCS7Options.DetachedSignature, pkcs7.PKCS7Options.NoAttributes],
                )
            )
            zf.writestr(zipfile.ZipInfo("META-INF/CERT.RSA", (2020, 1, 1, 0, 0, 0)), blob)
    if sign == "v2":
        cert, _key = make_cert(cn, org)
        _splice_signing_block(path, _v2_block(cert.public_bytes(serialization.Encoding.DER)))
    return path


def _jar_manifest(entries: dict[str, bytes]) -> bytes:
    import base64

    lines = ["Manifest-Version: 1.0", ""]
    for name, data in sorted(entries.items()):
        digest = base64.b64encode(hashlib.sha256(data).digest()).decode()
        lines += [f"Name: {name}", f"SHA-256-Digest: {digest}", ""]
    return ("\r\n".join(lines) + "\r\n").encode()


def _lv(data: bytes) -> bytes:
    return struct.pack("<I", len(data)) + data


def _v2_block(
    cert_der: bytes, scheme_id: int = V2_ID, more_certs: tuple[bytes, ...] = ()
) -> bytes:
    """Signing-block bytes holding one signer with one certificate, then one
    more signer for each of ``more_certs``.

    Digests/signatures are placeholders; only the nested length-prefixed
    structure and the certificates matter to consumers here.
    """
    digests = _lv(_lv(struct.pack("<I", 0x0103) + _lv(b"\x00" * 32)))
    signatures = _lv(_lv(struct.pack("<I", 0x0103) + _lv(b"\x00" * 64)))
    public_key = _lv(b"\x00" * 16)
    signers = b""
    for der in (cert_der, *more_certs):
        signed_data = _lv(digests + _lv(_lv(der)) + _lv(b""))  # + empty additional attrs
        signers += _lv(signed_data + signatures + public_key)
    signers = _lv(signers)
    pair = struct.pack("<Q", 4 + len(signers)) + struct.pack("<I", scheme_id) + signers
    size = len(pair) + 8 + 16  # pairs + trailing size copy + magic
    return struct.pack("<Q", size) + pair + struct.pack("<Q", size) + SIG_MAGIC


def _splice_signing_block(path: Path, block: bytes) -> None:
    raw = bytearray(path.read_bytes())
    eocd = raw.rfind(b"PK\x05\x06")
    assert eocd >= 0
    cd_off = struct.unpack_from("<I", raw, eocd + 16)[0]
    struct.pack_into("<I", raw, eocd + 16, cd_off + len(block))
    path.write_bytes(bytes(raw[:cd_off]) + block + bytes(raw[cd_off:]))
