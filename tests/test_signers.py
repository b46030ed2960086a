"""Signer certificates read by the DER walker, checked against `cryptography`.

`cryptography` is the oracle here: `_oracle_fields` and `_oracle_pkcs7` are
what `container` called before it read certificates itself.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
import warnings
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from cryptography import x509
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.serialization import Encoding, pkcs7
from cryptography.x509.name import _ASN1Type
from cryptography.x509.oid import NameOID

from apkaudit.container import DerError, SignerInfo, _pkcs7_certs, _subject_fields, open_apk

from .fixtures.apk_writer import KEY, V2_ID, V3_ID, _splice_signing_block, _v2_block, build_apk

CN, O = NameOID.COMMON_NAME, NameOID.ORGANIZATION_NAME


def attr(oid, value, kind=_ASN1Type.UTF8String):
    return x509.NameAttribute(oid, value, _type=kind)


def cert(*rdns, serial: int = 1) -> x509.Certificate:
    """Self-signed certificate whose subject holds these RDNs, each a list of attributes."""
    name = x509.Name([x509.RelativeDistinguishedName(rdn) for rdn in rdns])
    start = datetime(2020, 1, 1, tzinfo=timezone.utc)
    return (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(name)
        .public_key(KEY.public_key())
        .serial_number(serial)
        .not_valid_before(start)
        .not_valid_after(start + timedelta(days=365))
        .sign(KEY, hashes.SHA256())
    )


def der(c: x509.Certificate) -> bytes:
    return c.public_bytes(Encoding.DER)


def pkcs7_blob(*certs: x509.Certificate) -> bytes:
    """A detached v1 signature blob with one signer per certificate."""
    builder = pkcs7.PKCS7SignatureBuilder().set_data(b"Manifest-Version: 1.0\r\n")
    for c in certs:
        builder = builder.add_signer(c, KEY, hashes.SHA256())
    options = [pkcs7.PKCS7Options.DetachedSignature, pkcs7.PKCS7Options.NoAttributes]
    return builder.sign(Encoding.DER, options)


def _oracle_fields(cert_der: bytes) -> tuple[str, str]:
    c = x509.load_der_x509_certificate(cert_der)

    def first(oid) -> str:
        attrs = c.subject.get_attributes_for_oid(oid)
        return str(attrs[0].value) if attrs else ""

    return first(CN), first(O)


def _oracle_pkcs7(blob: bytes) -> list[bytes]:
    return [der(c) for c in pkcs7.load_der_pkcs7_certificates(blob)]


def _walk_pkcs7(blob):
    return [(d, _subject_fields(d)) for d in _pkcs7_certs(blob)]


def _oracle_walk_pkcs7(blob):
    return [(d, _oracle_fields(d)) for d in _oracle_pkcs7(blob)]


# every string type cryptography writes into a name, with a value it accepts
STRING_VALUES = {
    kind: "12 34" if kind is _ASN1Type.NumericString
    else "Acme Ltd." if kind is _ASN1Type.PrintableString
    else "Acmé ß中 \U0001f600"
    for kind in _ASN1Type
    if kind is not _ASN1Type.BitString  # allowed only for x500UniqueIdentifier
}


@pytest.mark.parametrize("kind", list(STRING_VALUES), ids=lambda k: k.name)
def test_subject_string_types_match_cryptography(kind):
    value = STRING_VALUES[kind]
    cert_der = der(cert([attr(CN, value, kind)], [attr(O, value + " Org", kind)]))
    assert _subject_fields(cert_der) == _oracle_fields(cert_der) == (value, value + " Org")


@pytest.mark.parametrize(
    "rdns, fields",
    [
        pytest.param(
            [[attr(CN, "Multi"), attr(O, "Valued")]], ("Multi", "Valued"), id="multi-valued"
        ),
        pytest.param(
            [[attr(CN, "First")], [attr(O, "Org")], [attr(CN, "Second")]], ("First", "Org"),
            id="repeated-cn",
        ),
        pytest.param([[attr(O, "Org only")]], ("", "Org only"), id="no-cn"),
        pytest.param(
            [[attr(NameOID.COUNTRY_NAME, "NG")], [attr(CN, "CN only")]], ("CN only", ""), id="no-o"
        ),
        pytest.param([], ("", ""), id="empty-subject"),
    ],
)
def test_subject_shapes_match_cryptography(rdns, fields):
    cert_der = der(cert(*rdns))
    assert _subject_fields(cert_der) == _oracle_fields(cert_der) == fields


SIGNER_CERTS = [
    cert([attr(CN, "Infinix")], [attr(O, "Infinix Mobility")], serial=11),
    cert([attr(CN, "Android", _ASN1Type.PrintableString)], [attr(O, "Google Inc.")], serial=12),
    cert([attr(CN, "Transsion", _ASN1Type.BMPString)], serial=13),
]


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("scheme", ["v1", "v2", "v3"])
def test_apk_signers_match_cryptography(tmp_path, scheme, count):
    ders = [der(c) for c in SIGNER_CERTS[:count]]
    if scheme == "v1":
        blob = pkcs7_blob(*SIGNER_CERTS[:count])
        p = build_apk(tmp_path / "s.apk", {"f": b"x", "META-INF/CERT.RSA": blob}, sign=None)
        # the certificates SET is written in DER order, not signer order
        assert _pkcs7_certs(blob) == _oracle_pkcs7(blob)
        assert sorted(_pkcs7_certs(blob)) == sorted(ders)
        ders = _oracle_pkcs7(blob)
    else:
        p = build_apk(tmp_path / "s.apk", {"f": b"x"}, sign=None)
        _splice_signing_block(p, _v2_block(ders[0], V2_ID if scheme == "v2" else V3_ID, ders[1:]))
    art = open_apk(p)
    assert art.warnings == []
    assert art.signers == tuple(
        SignerInfo(*_oracle_fields(d), hashlib.sha256(d).hexdigest()) for d in ders
    )


def test_unparsable_v2_certificate_has_empty_subject(tmp_path):
    p = build_apk(tmp_path / "g.apk", {"f": b"x"}, sign=None)
    good = der(SIGNER_CERTS[0])
    # a subject CN that is a NULL: cryptography loads the certificate but
    # raises a KeyError on reading its subject
    at = good.rindex(b"\x06\x03\x55\x04\x03") + 5
    null_cn = good[:at] + b"\x05" + good[at + 1 :]
    _splice_signing_block(p, _v2_block(b"\x30\x03\x02\x01", V2_ID, (null_cn, good)))
    art = open_apk(p)
    assert art.warnings == []
    assert [(s.subject_cn, s.subject_o) for s in art.signers] == [
        ("", ""), ("", ""), ("Infinix", "Infinix Mobility")
    ]


BLOB = pkcs7_blob(SIGNER_CERTS[0])
# the same blob with an indefinite outer length, as BER allows and DER does not
BER_BLOB = b"\x30\x80" + BLOB[2 + (BLOB[1] & 0x7F) :] + b"\x00\x00"


@pytest.mark.parametrize(
    "blob, reason",
    [
        (b"not pkcs7", "unexpected tag 0x6e at offset 0"),
        (BLOB + b"\x00", "1 byte(s) after the element at offset 0"),
        (BLOB[:-1], "element at offset 4 overruns its container"),
        (BER_BLOB, "bad length form 0x80 at offset 1"),
        (b"\x30\x81\x05" + b"\x06\x03\x2a\x03\x04", "non-minimal length at offset 1"),
        (b"\x30", "element header past end at offset 0"),
        (b"\x30\x05\x06\x03\x2a\x03\x04", "content type is not signedData"),
        (
            pkcs7.PKCS7SignatureBuilder()
            .set_data(b"m")
            .add_signer(SIGNER_CERTS[0], KEY, hashes.SHA256())
            .sign(Encoding.DER, [pkcs7.PKCS7Options.DetachedSignature, pkcs7.PKCS7Options.NoCerts]),
            "no certificates",
        ),
    ],
    ids=["not-der", "trailing", "truncated", "indefinite", "non-minimal", "header-past-end",
         "not-signed-data", "no-certs"],
)
def test_bad_v1_blob_is_one_warning(tmp_path, blob, reason):
    p = build_apk(tmp_path / "b.apk", {"META-INF/CERT.RSA": blob}, sign=None)
    art = open_apk(p)
    assert art.signers == ()
    assert art.warnings == [f"unparsable v1 signature META-INF/CERT.RSA: {reason}"]


def test_v1_blob_with_a_malformed_certificate_adds_none(tmp_path):
    blob = pkcs7_blob(*SIGNER_CERTS[:2])
    second = _pkcs7_certs(blob)[1]
    # the second certificate's subject CN becomes a NULL, which no name value may be
    at = blob.index(second) + second.rindex(b"\x06\x03\x55\x04\x03") + 5
    bad = blob[:at] + b"\x05" + blob[at + 1 :]
    with pytest.raises(ValueError):
        _oracle_walk_pkcs7(bad)
    art = open_apk(build_apk(tmp_path / "m.apk", {"META-INF/CERT.RSA": bad}, sign=None))
    assert art.signers == ()
    offset = at - blob.index(second)
    assert art.warnings == [
        f"unparsable v1 signature META-INF/CERT.RSA: unexpected tag 0x05 at offset {offset}"
    ]


def _der(tag: int, content: bytes) -> bytes:
    n = len(content)
    size = n.to_bytes((n.bit_length() + 7) // 8, "big")
    return bytes([tag]) + (bytes([n]) if n < 0x80 else bytes([0x80 | len(size)]) + size) + content


def _children(content: bytes) -> list[tuple[int, bytes]]:
    """The (tag, content) of each DER element that ``content`` holds."""
    out, pos = [], 0
    while pos < len(content):
        tag, n = content[pos], content[pos + 1]
        pos += 2
        if n & 0x80:
            n, pos = int.from_bytes(content[pos : pos + (n & 0x7F)], "big"), pos + (n & 0x7F)
        out.append((tag, content[pos : pos + n]))
        pos += n
    return out


def test_v1_blob_with_crls_gives_its_certificates():
    start = datetime(2020, 1, 1, tzinfo=timezone.utc)
    crl = (
        x509.CertificateRevocationListBuilder()
        .issuer_name(SIGNER_CERTS[0].subject)
        .last_update(start)
        .next_update(start + timedelta(days=30))
        .sign(KEY, hashes.SHA256())
    ).public_bytes(Encoding.DER)
    blob = pkcs7_blob(*SIGNER_CERTS[:2])
    [(_, info)] = _children(blob)
    oid, (_, explicit) = _children(info)
    [(_, signed)] = _children(explicit)
    # version, digestAlgorithms, contentInfo, [0] certificates, [1] crls, signerInfos
    parts = _children(signed)
    parts.insert(-1, (0xA1, crl))
    with_crls = _der(0x30, _der(*oid) + _der(0xA0, _der(0x30, b"".join(_der(*e) for e in parts))))
    assert _pkcs7_certs(with_crls) == _oracle_pkcs7(with_crls) == _pkcs7_certs(blob)


def _mutants(raw: bytes, rng: random.Random, count: int):
    for _ in range(count):
        buf = bytearray(raw)
        if rng.random() < 0.1:
            del buf[rng.randrange(1, len(buf)) :]
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(buf))
            flip = rng.random() < 0.5
            buf[at] = buf[at] ^ (1 << rng.randrange(8)) if flip else rng.randrange(256)
        yield bytes(buf)


def _oracle_outcome(parse, data):
    """What ``parse`` gives for ``data``, or None when it rejects it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # cryptography's BER fallback warns
        try:
            return parse(data)
        except Exception:  # noqa: BLE001 - any rejection by the oracle
            return None


def _walker(parse, data):
    try:
        return parse(data)
    except DerError:
        return None


@pytest.mark.parametrize(
    "raw, walker, oracle",
    [
        (pkcs7_blob(*SIGNER_CERTS[:2]), _walk_pkcs7, _oracle_walk_pkcs7),
        (der(SIGNER_CERTS[2]), _subject_fields, _oracle_fields),
    ],
    ids=["pkcs7", "certificate"],
)
def test_mutants_agree_with_cryptography_whenever_it_parses(raw, walker, oracle):
    rng = random.Random(8)
    tally = {"both": 0, "neither": 0, "walker only": 0}
    for mutant in _mutants(raw, rng, 600):
        expected = _oracle_outcome(oracle, mutant)
        got = _walker(walker, mutant)  # raises anything but DerError
        if expected is not None:
            assert got == expected, mutant.hex()
            tally["both"] += 1
        else:
            tally["walker only" if got is not None else "neither"] += 1
    assert tally["both"] and tally["neither"]


def test_two_builds_of_the_fixture_corpus_have_the_same_bytes(tmp_path):
    """Each build runs in a fresh interpreter, so they share no key or
    certificate, and the second starts in a later second than the first."""
    build = ("import hashlib, json, sys\n"
             "from tests.fixtures.corpus import build_corpus\n"
             "apks = build_corpus(sys.argv[1])\n"
             "print(json.dumps({n: hashlib.sha256(p.read_bytes()).hexdigest() for n, p in apks.items()}))")
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))])}
    digests = []
    for side in ("a", "b"):
        if digests:
            time.sleep(1 - time.time() % 1)  # so a signing time would differ in its second
        done = subprocess.run([sys.executable, "-c", build, str(tmp_path / side)], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        digests.append(json.loads(done.stdout))
    assert len(digests[0]) == 12
    assert digests[0] == digests[1]
