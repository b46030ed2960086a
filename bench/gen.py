"""Seeded generator of synthetic APK corpora for the apkaudit benchmark.

Every APK is assembled with the test-side writers in ``tests/fixtures``
(imported, never edited), so no input passes through the code under test.
The same (workload, seed, scale) always gives byte-identical APKs: signing
keys are derived from the seed, certificates carry fixed serials and dates,
and v1 signatures carry no signing-time attribute.

Next to the APKs, ``truth.json`` records what the generator planted in each
app, DroidBench-style: leaks within the depth bound, exported-component to
API hits, behavior-rule strings, expected degradation warnings, and the
negatives (protected or unexported components, flows beyond the depth
bound) that must never be reported.

Corpora are cached under ``<work>/corpus/`` keyed by workload, seed, scale
and ``GENERATOR_VERSION``; building one is never part of a timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import struct
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

from cryptography import x509
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import rsa
from cryptography.hazmat.primitives.serialization import pkcs7
from cryptography.x509.oid import NameOID

from tests.fixtures import apk_writer
from tests.fixtures.apk_writer import build_apk
from tests.fixtures.corpus import component, manifest
from tests.fixtures.dex_writer import ACC_PUBLIC, ACC_STATIC, DexWriter, MethodDef

GENERATOR_VERSION = 3
WORKLOADS = ("corpus-scan", "taint-dense", "system-large")
DEPTH = 5  # apkaudit's default depth bound; planted flows are sized against it
KEEP_CORPORA = 12  # cached corpora kept per workload; older ones are evicted

INTERNET = "android.permission.INTERNET"
READ_LOGS = "android.permission.READ_LOGS"

GET_DEVICE_ID = "Landroid/telephony/TelephonyManager;->getDeviceId()Ljava/lang/String;"
GET_SUBSCRIBER_ID = "Landroid/telephony/TelephonyManager;->getSubscriberId()Ljava/lang/String;"
GET_LINE1 = "Landroid/telephony/TelephonyManager;->getLine1Number()Ljava/lang/String;"
GET_SIM_SERIAL = "Landroid/telephony/TelephonyManager;->getSimSerialNumber()Ljava/lang/String;"
GET_MAC = "Landroid/net/wifi/WifiInfo;->getMacAddress()Ljava/lang/String;"
LOG_D = "Landroid/util/Log;->d(Ljava/lang/String;Ljava/lang/String;)I"
LOG_I = "Landroid/util/Log;->i(Ljava/lang/String;Ljava/lang/String;)I"
# supplementary network sink, only active for INTERNET apps via extra_sinks
BEACON_UPLOAD = "Lcom/bench/sdk/Beacon;->upload(Ljava/lang/String;)V"
EXTRA_SINKS = "Lcom/bench/sdk/Beacon;->upload -> _SINK_:network\n"
STRING_CONCAT = "Ljava/lang/String;->concat(Ljava/lang/String;)Ljava/lang/String;"

# (source key, data kind) used by filler code and planted flows
SOURCES = [
    (GET_DEVICE_ID, "imei"),
    (GET_SUBSCRIBER_ID, "imsi"),
    (GET_LINE1, "phone_number"),
    (GET_MAC, "mac_address"),
]
# static sinks taking (tag, message)
SINKS = [(LOG_D, "log"), (LOG_I, "log")]
# sensitive APIs for the component audit, all returning an object
COMPONENT_APIS = [(GET_DEVICE_ID, "imei"), (GET_SUBSCRIBER_ID, "imsi"), (GET_LINE1, "phone_number")]

# filler vocabulary: none of these contains a behavior-rule pattern
WORDS = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
    "india", "juliet", "kilo", "lima", "mike", "november", "oscar", "papa",
    "quebec", "romeo", "sierra", "tango", "uniform", "victor", "whiskey", "yankee",
]

# (common name, organisation): labels Transsion, Google, Infinix and Default
SIGNERS = [
    ("Transsion Release", "TRANSSION"),
    ("Google Platform", "Google LLC"),
    ("Infinix Mobility", "Infinix"),
    ("Android", "Android"),
]
SIGNER_LABELS = ["Transsion", "Google", "Infinix", "Default"]
UNSIGNED_LABEL = "Others"

FILLER_PROTO = "(Ljava/lang/String;)Ljava/lang/String;"
_STATIC = ACC_PUBLIC | ACC_STATIC


# ---- deterministic signing material --------------------------------------

_SMALL_PRIMES = [p for p in range(3, 2000, 2) if all(p % q for q in range(3, int(p**0.5) + 1, 2))]


def _probable_prime(n: int, rng: random.Random) -> bool:
    if any(n % p == 0 for p in _SMALL_PRIMES):
        return n in _SMALL_PRIMES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for _ in range(24):
        x = pow(rng.randrange(2, n - 2), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(rng: random.Random, bits: int, e: int) -> int:
    while True:
        n = rng.getrandbits(bits) | (3 << (bits - 2)) | 1
        if (n - 1) % e and _probable_prime(n, rng):
            return n


def _signer(seed: int, index: int) -> tuple[x509.Certificate, rsa.RSAPrivateKey]:
    """RSA-1024 key and self-signed certificate derived from the seed."""
    rng = random.Random(f"signer:{seed}:{index}")
    e = 65537
    p = _prime(rng, 512, e)
    q = _prime(rng, 512, e)
    while q == p:
        q = _prime(rng, 512, e)
    d = pow(e, -1, math.lcm(p - 1, q - 1))
    key = rsa.RSAPrivateNumbers(
        p=p, q=q, d=d, dmp1=d % (p - 1), dmq1=d % (q - 1), iqmp=pow(q, -1, p),
        public_numbers=rsa.RSAPublicNumbers(e, p * q),
    ).private_key()
    cn, org = SIGNERS[index]
    name = x509.Name([
        x509.NameAttribute(NameOID.COMMON_NAME, cn),
        x509.NameAttribute(NameOID.ORGANIZATION_NAME, org),
    ])
    start = datetime(2020, 1, 1, tzinfo=timezone.utc)
    cert = (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(name)
        .public_key(key.public_key())
        .serial_number(rng.getrandbits(63) | 1)
        .not_valid_before(start)
        .not_valid_after(start + timedelta(days=365 * 30))
        .sign(key, hashes.SHA256())
    )
    return cert, key


def _v1_entries(entries: dict[str, bytes], cert, key) -> dict[str, bytes]:
    """JAR signature entries (MANIFEST.MF, CERT.SF, CERT.RSA) for ``entries``."""
    mf = apk_writer._jar_manifest(entries)
    blob = (
        pkcs7.PKCS7SignatureBuilder()
        .set_data(mf)
        .add_signer(cert, key, hashes.SHA256())
        .sign(
            serialization.Encoding.DER,
            [pkcs7.PKCS7Options.DetachedSignature, pkcs7.PKCS7Options.NoAttributes],
        )
    )
    return {"META-INF/MANIFEST.MF": mf, "META-INF/CERT.SF": mf, "META-INF/CERT.RSA": blob}


# ---- code assembly -------------------------------------------------------


def _key(cls: str, name: str, proto: str = FILLER_PROTO) -> str:
    return f"{cls}->{name}{proto}"


@dataclass
class _Code:
    """Classes of one app, split over one or more dex files."""

    dex_files: int = 1
    classes: list[tuple[str, str, list[MethodDef]]] = field(default_factory=list)

    def add(self, desc: str, methods: list[MethodDef], superclass: str = "Ljava/lang/Object;"):
        self.classes.append((desc, superclass, methods))

    @property
    def methods(self) -> int:
        return sum(1 for _d, _s, ms in self.classes for m in ms if m.code is not None)

    def dex_entries(self) -> dict[str, bytes]:
        writers = [DexWriter() for _ in range(self.dex_files)]
        per = math.ceil(len(self.classes) / self.dex_files)
        for i, (desc, sup, methods) in enumerate(self.classes):
            writers[min(i // per, self.dex_files - 1)].add_class(desc, superclass=sup, methods=methods)
        return {
            ("classes.dex" if i == 0 else f"classes{i + 1}.dex"): w.build()
            for i, w in enumerate(writers)
        }


@dataclass
class _Truth:
    leaks: list[dict] = field(default_factory=list)
    components: list[dict] = field(default_factory=list)
    behaviors: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    absent_leak_sources: list[str] = field(default_factory=list)  # source-site methods
    absent_components: list[str] = field(default_factory=list)  # component classes


def _filler_method(name: str, rng: random.Random, calls: list[str], *, arith: int, source=None,
                   sink=None, field_write=None, field_read=None, virtual_call=None,
                   extra_sink=None, api=None) -> MethodDef:
    """``static String name(String p)``: taint flows from p and an optional
    source through each call, field and sink, then to the return value."""
    code = [("const-string", [0], rng.choice(WORDS)), ("move-object", [2, 5])]
    if source:
        code += [("const/4", [1], 0), ("invoke-virtual", [1], source), ("move-result-object", [2])]
    if api:
        code += [("const/4", [1], 0), ("invoke-virtual", [1], api), ("move-result-object", [4])]
    for _ in range(arith):
        code += [("const/16", [1], rng.randint(1, 999)), ("add-int/lit8", [1, 1], rng.randint(1, 99))]
    for target in calls:
        code += [("invoke-static", [2], target), ("move-result-object", [3]), ("move-object", [2, 3])]
    if virtual_call:
        base, method = virtual_call
        code += [("new-instance", [4], base), ("invoke-virtual", [4, 2], method),
                 ("move-result-object", [2])]
    if field_read:
        code += [("sget-object", [4], field_read),
                 ("invoke-static", [2, 4], STRING_CONCAT), ("move-result-object", [2])]
    if field_write:
        code += [("sput-object", [2], field_write)]
    if sink:
        code += [("invoke-static", [0, 2], sink), ("move-result", [1])]
    if extra_sink:
        code += [("invoke-static", [2], extra_sink)]
    code += [("return-object", [2])]
    return MethodDef(name, ("Ljava/lang/String;",), "Ljava/lang/String;", access=_STATIC,
                     registers=6, code=code)


def _source_call(source: str) -> list:
    return [("const/4", [1], 0), ("invoke-virtual", [1], source), ("move-result-object", [2])]


def _plant_leak(code: _Code, truth: _Truth, pkg: str, k: int, rng: random.Random, hops: int) -> None:
    """Source in ``a``, then ``hops`` static calls, then a log sink.

    A flow whose witness path is longer than the depth bound is planted as a
    negative: it must not be reported.
    """
    cls = f"L{pkg}/flow/Chain{k};"
    source, kind = rng.choice(SOURCES) if hops <= DEPTH else (GET_SIM_SERIAL, "sim_serial")
    sink, channel = rng.choice(SINKS)
    names = ["a"] + [f"h{i}" for i in range(1, hops + 1)]
    methods = []
    for i, name in enumerate(names):
        body = [("const-string", [0], rng.choice(WORDS))]
        if i == 0:
            body += _source_call(source)
        else:
            body += [("move-object", [2, 5])]
        if i < hops:
            body += [("invoke-static", [2], _key(cls, names[i + 1], "(Ljava/lang/String;)V"))]
        else:
            body += [("invoke-static", [0, 2], sink), ("move-result", [1])]
        body += [("return-void", [])]
        params = () if i == 0 else ("Ljava/lang/String;",)
        methods.append(MethodDef(name, params, "V", access=_STATIC, registers=6, code=body))
    code.add(cls, methods)
    a = _key(cls, "a", "()V")
    if hops <= DEPTH:
        last = _key(cls, names[-1], "(Ljava/lang/String;)V")
        truth.leaks.append({"source": source, "sink": sink, "channel": channel, "data_kind": kind,
                            "source_method": a, "sink_method": last})
    else:
        truth.absent_leak_sources.append(a)


def _plant_field_leak(code: _Code, truth: _Truth, pkg: str, k: int, rng: random.Random) -> None:
    """Source written to a static field in ``w``, read and logged in ``r``."""
    cls = f"L{pkg}/flow/Store{k};"
    fkey = f"{cls}->held:Ljava/lang/String;"
    source, kind = rng.choice(SOURCES)
    sink, channel = rng.choice(SINKS)
    w = MethodDef("w", (), "V", access=_STATIC, registers=6, code=[
        *_source_call(source), ("sput-object", [2], fkey), ("return-void", []),
    ])
    r = MethodDef("r", (), "V", access=_STATIC, registers=6, code=[
        ("const-string", [0], rng.choice(WORDS)), ("sget-object", [2], fkey),
        ("invoke-static", [0, 2], sink), ("move-result", [1]), ("return-void", []),
    ])
    code.add(cls, [w, r])
    truth.leaks.append({"source": source, "sink": sink, "channel": channel, "data_kind": kind,
                        "source_method": _key(cls, "w", "()V"), "sink_method": _key(cls, "r", "()V")})


def _plant_extra_sink_leak(code: _Code, truth: _Truth, pkg: str, k: int, rng: random.Random) -> None:
    """Source passed to the supplementary network sink (INTERNET apps only)."""
    cls = f"L{pkg}/flow/Upload{k};"
    source, kind = rng.choice(SOURCES)
    code.add(cls, [MethodDef("send", (), "V", access=_STATIC, registers=6, code=[
        *_source_call(source), ("invoke-static", [2], BEACON_UPLOAD), ("return-void", []),
    ])])
    m = _key(cls, "send", "()V")
    truth.leaks.append({"source": source, "sink": BEACON_UPLOAD, "channel": "network",
                        "data_kind": kind, "source_method": m, "sink_method": m})


_KIND_BASE = {
    "activity": "Landroid/app/Activity;",
    "service": "Landroid/app/Service;",
    "receiver": "Landroid/content/BroadcastReceiver;",
    "provider": "Landroid/content/ContentProvider;",
}


def _plant_component(code: _Code, truth: _Truth, pkg: str, name: str, kind: str,
                     rng: random.Random, *, mode: str, entry: str | None = None) -> object:
    """A component class whose ``onCreate`` reaches a sensitive API.

    mode ``direct``: the API is invoked in ``onCreate``; ``helper``: one hop
    through a static helper; ``protected`` / ``unexported``: a negative with
    the same code shape.  ``entry`` adds a call into filler code, so the
    reachability search walks the app's call graph from this component.
    Returns the manifest element.
    """
    desc = f"L{pkg}/{name.replace('.', '/')};"
    api, label = rng.choice(COMPONENT_APIS)
    on_create = _key(desc, "onCreate", "(Landroid/os/Bundle;)V")
    body = [("const-string", [0], rng.choice(WORDS))]
    if mode == "helper":
        # a top-level class, so the hit is found by the call-graph search
        # rather than as a direct invoke inside the component's own methods
        helper_cls = desc[:-1] + "Helper;"
        helper = _key(helper_cls, "fetch", "()V")
        body += [("invoke-static", [], helper)]
        code.add(helper_cls, [MethodDef("fetch", (), "V", access=_STATIC, registers=4, code=[
            ("const/4", [1], 0), ("invoke-virtual", [1], api), ("move-result-object", [2]),
            ("return-void", []),
        ])])
        containing = helper
    else:
        body += [("const/4", [1], 0), ("invoke-virtual", [1], api), ("move-result-object", [2])]
        containing = on_create
    if entry:
        body += [("invoke-static", [0], entry), ("move-result-object", [2])]
    body += [("return-void", [])]
    code.add(desc, [MethodDef("onCreate", ("Landroid/os/Bundle;",), "V", registers=6, code=body)],
             superclass=_KIND_BASE[kind])

    cls_name = f"{pkg.replace('/', '.')}.{name}"
    extra = {}
    if mode == "protected":
        extra["permission"] = f"{pkg.replace('/', '.')}.permission.PRIVATE"
    if kind == "provider":
        extra["authorities"] = f"{cls_name.lower()}.auth"
    exported = mode != "unexported"
    if mode in ("protected", "unexported"):
        truth.absent_components.append(desc)
    else:
        truth.components.append({"class": desc, "kind": kind, "api": api, "method": containing,
                                 "data_kind": label})
    return component(kind, f".{name}", exported=exported, **extra)


def _plant_behaviors(code: _Code, truth: _Truth, pkg: str, k: int, rng: random.Random,
                     which: list[str]) -> None:
    """Rule strings, one per method of a ``Tools`` class."""
    cls = f"L{pkg}/sys/Tools{k};"
    strings = {
        "cmd_su": "su -c id",
        "cmd_chmod": "chmod 777 /data/local/tmp/x",
        "cmd_rm_rf": "rm -rf /sdcard/tmp",
        "log_logcat": "logcat -d -v time",
    }
    methods = []
    for i, rule in enumerate(which):
        name = f"t{i}"
        if rule == "sms_delete":
            body = [("const-string", [0], "content://sms/inbox"), ("const-string", [1], "delete")]
            m = _key(cls, name, "()V")
            truth.behaviors.append({"rule_id": "sms_provider", "method": m})
            truth.behaviors.append({"rule_id": "sms_delete", "method": m})
        else:
            body = [("const-string", [0], strings[rule])]
            truth.behaviors.append({"rule_id": rule, "method": _key(cls, name, "()V")})
        methods.append(MethodDef(name, (), "V", access=_STATIC, registers=3,
                                 code=body + [("return-void", [])]))
    code.add(cls, methods)


def _filler(code: _Code, pkg: str, rng: random.Random, *, classes: int, methods: int,
            shape: str, source_rate: float, sink_rate: float, field_rate: float = 0.0,
            virtual_rate: float = 0.0, extra_sink_rate: float = 0.0, api_rate: float = 0.0,
            module: int = 16) -> list[str]:
    """Filler classes ``C0000..``; returns the method keys of class 0 .. n.

    ``shape`` sets the in-app static calls of each method:

    * ``local``: two calls to random methods of the same module of
      ``module`` classes, so cycles are common and call chains stay inside
      a module;
    * ``layered``: every method calls the same method of the next class and
      one random method of the class after it, the layered call structure
      of a large app; call chains run the length of the app;
    * ``flat``: at most one call into the same class.

    The layout (call targets, and which methods hold a source, sink, field
    access, override call or sensitive API) comes from an RNG keyed by the
    package and size only, so every seed gives the same amount of analysis
    work; ``rng``, which the seed drives, picks the APIs and constants.
    """
    layout = random.Random(f"layout:{pkg}:{classes}:{methods}:{shape}")
    descs = [f"L{pkg}/m{i // module:03d}/C{i:04d};" for i in range(classes)]
    names = [f"f{j}" for j in range(methods)]
    bases = {}
    if virtual_rate:
        for mod in range(math.ceil(classes / module)):
            base = f"L{pkg}/m{mod:03d}/Base;"
            bases[mod] = base
            code.add(base, [MethodDef("run", ("Ljava/lang/String;",), "Ljava/lang/String;",
                                      registers=4, code=[("return-object", [3])])])
    n_fields = max(1, classes // 4)
    fields = [f"L{pkg}/Shared;->s{i}:Ljava/lang/String;" for i in range(n_fields)]
    for i, desc in enumerate(descs):
        mod = i // module
        lo, hi = mod * module, min(classes, (mod + 1) * module) - 1
        superclass = "Ljava/lang/Object;"
        mdefs = []
        if mod in bases and i % 4 == 1:
            # in-app override of the module base's virtual method
            superclass = bases[mod]
            mdefs.append(MethodDef("run", ("Ljava/lang/String;",), "Ljava/lang/String;",
                                   registers=6, code=[
                                       ("invoke-static", [5], _key(descs[layout.randint(lo, hi)], names[0])),
                                       ("move-result-object", [2]), ("return-object", [2])]))
        for j, name in enumerate(names):
            if shape == "local":
                calls = [_key(descs[layout.randint(lo, hi)], layout.choice(names)) for _ in range(2)]
            elif shape == "layered":
                calls = []
                if i + 1 < classes:
                    calls.append(_key(descs[i + 1], name))
                if i + 2 < classes:
                    calls.append(_key(descs[i + 2], layout.choice(names)))
            else:
                calls = [_key(desc, names[j + 1])] if j + 1 < methods and layout.random() < 0.5 else []
            vcall = None
            if mod in bases and layout.random() < virtual_rate:
                vcall = (bases[mod], _key(bases[mod], "run"))
            mdefs.append(_filler_method(
                name, rng, calls, arith=layout.randint(1, 3),
                source=rng.choice(SOURCES)[0] if layout.random() < source_rate else None,
                sink=rng.choice(SINKS)[0] if layout.random() < sink_rate else None,
                field_write=fields[layout.randrange(n_fields)] if layout.random() < field_rate else None,
                field_read=fields[layout.randrange(n_fields)] if layout.random() < field_rate else None,
                virtual_call=vcall,
                extra_sink=BEACON_UPLOAD if layout.random() < extra_sink_rate else None,
                api=rng.choice(COMPONENT_APIS)[0] if layout.random() < api_rate else None,
            ))
        code.add(desc, mdefs, superclass=superclass)
    return [_key(d, names[0]) for d in descs]


# ---- apps ----------------------------------------------------------------


@dataclass
class _App:
    name: str
    package: str
    code: _Code | None
    manifest: bytes | None
    truth: _Truth
    signer: int | None = 0  # index into SIGNERS; None = unsigned
    block: int | None = None  # V2_ID / V3_ID block spliced in front of the central directory
    malformed_block: bool = False
    corrupt_checksum: bool = False
    resources: int = 0
    asset_bytes: int = 0


def _write_app(app: _App, out: Path, seed: int, signers: dict, rng: random.Random) -> dict:
    entries: dict[str, bytes] = {}
    if app.manifest is not None:
        entries["AndroidManifest.xml"] = app.manifest
    if app.code is not None:
        dex = app.code.dex_entries()
        if app.corrupt_checksum:
            raw = bytearray(dex["classes.dex"])
            struct.pack_into("<I", raw, 8, struct.unpack_from("<I", raw, 8)[0] ^ 0x5A5A5A5A)
            dex["classes.dex"] = bytes(raw)
        entries.update(dex)
    for j in range(app.resources):
        entries[f"res/raw/r{j:03d}.bin"] = rng.randbytes(64 + (j * 53) % 448)
    if app.asset_bytes:
        entries["assets/payload.bin"] = rng.randbytes(app.asset_bytes)
    cert = None
    if app.signer is not None:
        if app.signer not in signers:
            signers[app.signer] = _signer(seed, app.signer)
        cert, key = signers[app.signer]
        entries.update(_v1_entries(entries, cert, key))
    path = build_apk(out / f"{app.name}.apk", entries, sign=None)
    if app.block is not None or app.malformed_block:
        der = cert.public_bytes(serialization.Encoding.DER)
        block = bytearray(apk_writer._v2_block(der, app.block or apk_writer.V2_ID))
        if app.malformed_block:
            struct.pack_into("<Q", block, 0, struct.unpack_from("<Q", block, 0)[0] + 8)
        apk_writer._splice_signing_block(path, bytes(block))
    truth = app.truth
    return {
        "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "package": app.package,
        "methods": app.code.methods if app.code is not None and app.manifest is not None else 0,
        "signer_label": SIGNER_LABELS[app.signer] if app.signer is not None else UNSIGNED_LABEL,
        "leaks": truth.leaks,
        "components": truth.components,
        "behaviors": truth.behaviors,
        "warnings": truth.warnings,
        "absent_leak_sources": truth.absent_leak_sources,
        "absent_components": truth.absent_components,
    }


def _corpus_scan_apps(seed: int, scale: float) -> list[_App]:
    """A device's worth of small apps: few classes, many resource entries,
    a mix of signing schemes, some large assets, some multidex, and a few
    degraded inputs that must still yield a report with warnings."""
    n = max(8, round(150 * scale))
    apps = []
    for i in range(n):
        rng = random.Random(f"corpus-scan:{seed}:{i}")
        pkg = f"com/bench/c{i:03d}"
        truth = _Truth()
        code = _Code(dex_files=2 if i % 7 == 3 else 1)
        _filler(code, pkg, rng, classes=3 + i % 4, methods=4, shape="flat",
                source_rate=0.05, sink_rate=0.05)
        perms = [INTERNET]
        comps = []
        slot = i % 4
        if slot == 0:
            _plant_leak(code, truth, pkg, 0, rng, hops=1 + i % 3)
        elif slot == 1:
            kind = ("activity", "service", "receiver", "provider")[(i // 4) % 4]
            comps.append(_plant_component(code, truth, pkg, "ui.Entry", kind, rng,
                                          mode="helper" if i % 8 == 1 else "direct"))
            comps.append(_plant_component(code, truth, pkg, "ui.Guarded", "activity", rng,
                                          mode="protected"))
        elif slot == 2:
            rules = [["cmd_su"], ["cmd_chmod", "sms_delete"], ["cmd_rm_rf"], ["log_logcat"]][(i // 4) % 4]
            if "log_logcat" in rules:
                perms.append(READ_LOGS)
            _plant_behaviors(code, truth, pkg, 0, rng, rules)
        else:
            _plant_field_leak(code, truth, pkg, 0, rng)
            _plant_leak(code, truth, pkg, 1, rng, hops=DEPTH + 2)
            comps.append(_plant_component(code, truth, pkg, "ui.Hidden", "service", rng,
                                          mode="unexported"))
        app = _App(
            name=f"c{i:03d}", package=pkg.replace("/", "."), code=code,
            manifest=manifest(pkg.replace("/", "."), permissions=perms, components=comps),
            truth=truth, signer=i % len(SIGNERS),
            block=(apk_writer.V2_ID, None, None, apk_writer.V3_ID, None, None)[i % 6],
            resources=20 + (i * 37) % 180,
            asset_bytes=(2 + i % 3) * 1024 * 1024 if i % 10 == 5 else 0,
        )
        degraded = i % 50
        if degraded == 11:
            app.corrupt_checksum = True
            truth.warnings.append("adler32 checksum mismatch")
        elif degraded == 23:
            app.signer, app.block = None, None
        elif degraded == 37:
            app.block, app.malformed_block = None, True
            truth.warnings.append("malformed signing block")
        elif degraded == 49:
            app.manifest = None
            truth.warnings.append("manifest:")
            truth.leaks, truth.components, truth.behaviors = [], [], []
        apps.append(app)
    return apps


def _taint_dense_apps(seed: int, scale: float) -> list[_App]:
    """A few medium apps with dense sources, sinks, field pairs, in-app
    overrides and call cycles, INTERNET plus a supplementary sink file, and
    no exported, unprotected component."""
    apps = []
    for i, classes in enumerate((240, 300, 360)):
        classes = max(16, round(classes * scale))
        rng = random.Random(f"taint-dense:{seed}:{i}")
        pkg = f"com/bench/taint{i}"
        truth = _Truth()
        code = _Code(dex_files=1 + classes // 300)
        _filler(code, pkg, rng, classes=classes, methods=8, shape="local",
                source_rate=0.15, sink_rate=0.15, field_rate=0.1, virtual_rate=0.1,
                extra_sink_rate=0.05)
        for k in range(4):
            _plant_leak(code, truth, pkg, k, rng, hops=1 + k)
        _plant_leak(code, truth, pkg, 4, rng, hops=DEPTH + 1)
        _plant_field_leak(code, truth, pkg, 0, rng)
        _plant_extra_sink_leak(code, truth, pkg, 0, rng)
        comps = [
            _plant_component(code, truth, pkg, "ui.Settings", "activity", rng, mode="protected"),
            _plant_component(code, truth, pkg, "ui.Sync", "service", rng, mode="unexported"),
        ]
        apps.append(_App(
            name=f"taint{i}", package=pkg.replace("/", "."), code=code,
            manifest=manifest(pkg.replace("/", "."), permissions=[INTERNET], components=comps),
            truth=truth, signer=i % len(SIGNERS), resources=40,
        ))
    return apps


SYSTEM_RUNGS = (400, 800, 800, 800, 1600)


def _system_large_apps(seed: int, scale: float) -> list[_App]:
    """A ladder of system-scale multidex apps (classes x 8 methods) with
    dozens of exported components of all four kinds, protected and
    unexported ones as negatives, and a layered call structure."""
    apps = []
    for i, classes in enumerate(SYSTEM_RUNGS):
        classes = max(16, round(classes * scale))
        rng = random.Random(f"system-large:{seed}:{i}")
        pkg = f"com/bench/sys{i}"
        truth = _Truth()
        code = _Code(dex_files=1 + classes // 600)
        entries = _filler(code, pkg, rng, classes=classes, methods=8, shape="layered",
                          source_rate=0.05, sink_rate=0.05, field_rate=0.02, api_rate=0.03)
        comps = []
        n_exported = max(4, classes // 50)
        for k in range(n_exported):
            kind = ("activity", "service", "receiver", "provider")[k % 4]
            comps.append(_plant_component(
                code, truth, pkg, f"app.{kind.title()}{k}", kind, rng,
                mode="helper" if k % 2 else "direct",
                entry=entries[(k * 7919) % len(entries)],
            ))
        for k in range(max(2, classes // 200)):
            mode = "protected" if k % 2 == 0 else "unexported"
            comps.append(_plant_component(code, truth, pkg, f"app.Private{k}", "activity", rng,
                                          mode=mode))
        _plant_leak(code, truth, pkg, 0, rng, hops=2)
        _plant_leak(code, truth, pkg, 1, rng, hops=DEPTH + 2)
        _plant_field_leak(code, truth, pkg, 0, rng)
        _plant_behaviors(code, truth, pkg, 0, rng, ["cmd_su", "sms_delete"])
        apps.append(_App(
            name=f"sys{i}", package=pkg.replace("/", "."), code=code,
            manifest=manifest(pkg.replace("/", "."), permissions=[INTERNET], components=comps),
            truth=truth, signer=i % len(SIGNERS), block=apk_writer.V2_ID, resources=120,
        ))
    return apps


_BUILDERS = {
    "corpus-scan": _corpus_scan_apps,
    "taint-dense": _taint_dense_apps,
    "system-large": _system_large_apps,
}


def _minimal_app() -> _App:
    """The one-class APK that the set-up measurement scans."""
    code = _Code()
    code.add("Lcom/bench/minimal/Main;", [MethodDef("m", (), "V", access=_STATIC, registers=2,
                                                    code=[("return-void", [])])])
    return _App(name="minimal", package="com.bench.minimal", code=code,
                manifest=manifest("com.bench.minimal"), truth=_Truth())


def corpus_dir(work: Path, workload: str, seed: int, scale: float = 1.0) -> Path:
    tag = "" if scale == 1.0 else f"-x{scale:g}"
    return Path(work) / "corpus" / f"{workload}-s{seed}{tag}-g{GENERATOR_VERSION}"


def ensure_corpus(work: Path, workload: str, seed: int, scale: float = 1.0) -> Path:
    """Build the corpus for (workload, seed, scale) unless it is cached.

    Layout: ``apps/*.apk``, ``minimal.apk``, ``truth.json`` (app name ->
    planted ground truth and method count) and, for ``taint-dense`` only,
    the supplementary sink file ``extra_sinks.txt``.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    final = corpus_dir(work, workload, seed, scale)
    if (final / "truth.json").exists():
        return final
    tmp = final.with_name(final.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    (tmp / "apps").mkdir(parents=True)
    signers: dict = {}
    rng = random.Random(f"bytes:{workload}:{seed}")
    truth = {
        app.name: _write_app(app, tmp / "apps", seed, signers, rng)
        for app in _BUILDERS[workload](seed, scale)
    }
    _write_app(_minimal_app(), tmp, seed, signers, rng)
    if workload == "taint-dense":
        (tmp / "extra_sinks.txt").write_text(EXTRA_SINKS)
    (tmp / "truth.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "scale": scale,
         "generator_version": GENERATOR_VERSION, "apps": truth},
        indent=1, sort_keys=True))
    tmp.rename(final)
    _evict(final)
    return final


def _evict(newest: Path) -> None:
    """Keep the KEEP_CORPORA most recently built corpora of this workload."""
    workload = newest.name.rsplit("-s", 1)[0]
    cached = sorted(
        (p for p in newest.parent.glob(f"{workload}-s*-g*") if p.is_dir() and p != newest
         and not p.name.endswith(".tmp")),
        key=lambda p: p.stat().st_mtime,
    )
    for old in cached[: max(0, len(cached) - (KEEP_CORPORA - 1))]:
        shutil.rmtree(old, ignore_errors=True)
