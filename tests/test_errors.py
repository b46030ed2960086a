"""Error codes: every raise names its fault with a code from README's table,
and no mutated APK makes the pipeline raise anything but a coded
ApkAuditError.  That a re-raise keeps its code is checked where it happens:
``test_crc_mismatch`` (read_entry) and ``test_rule_schema_validation``
(load_rules)."""

import ast
import functools
import io
import os
import pickle
import re
import zipfile
from pathlib import Path
from unittest import mock

from cryptography.hazmat.primitives.serialization import Encoding
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import apkaudit
from apkaudit import errors, report
from apkaudit.container import open_apk, read_entry
from apkaudit.errors import ApkAuditError, ApkReadError
from apkaudit.findings import AppReport

from .fixtures.apk_writer import _splice_signing_block, _v2_block, make_cert
from .fixtures.corpus import FIXTURE_NAMES

SRC = Path(apkaudit.__file__).parent
README = SRC.parent.parent / "README.md"
CODE = re.compile(r"^[a-z_]+\.[a-z0-9_]+$")
TABLE_CODES = set(re.findall(r"^\| `([^`]+)` \|", README.read_text(encoding="utf-8"), re.M))
ERROR_CLASSES = {name for name, value in vars(errors).items()
                 if isinstance(value, type) and issubclass(value, ApkAuditError)}


def _raises():
    """(where, call) for every ``raise <error class>(...)`` in the package."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name) and node.exc.func.id in ERROR_CLASSES):
                found.append((f"{path.relative_to(SRC)}:{node.lineno}", node.exc))
    return found


def test_errors_defines_only_the_classes_an_except_tells_apart():
    assert ERROR_CLASSES == {"ApkAuditError", "ApkReadError", "MalformedSigningBlockError"}


def test_every_raise_names_a_code_from_the_readme_table():
    raised, reraised = set(), []
    for where, call in _raises():
        assert len(call.args) == 2 and not call.keywords, f"{where}: pass (message, code)"
        code = call.args[1]
        if isinstance(code, ast.Attribute) and ast.unparse(code) == "exc.code":
            reraised.append(where)
            continue
        assert isinstance(code, ast.Constant) and isinstance(code.value, str), where
        assert CODE.match(code.value), f"{where}: {code.value!r}"
        raised.add(code.value)
    # read_entry's and load_rules's, which add context to a coded error
    assert sorted(w.split(":")[0] for w in reraised) == ["behaviors.py", "container.py"]
    assert all(CODE.match(code) for code in TABLE_CODES)
    assert raised - TABLE_CODES == set(), "raised, but not in README's table"
    assert TABLE_CODES - raised == set(), "in README's table, but never raised"


def test_code_is_carried_and_not_printed():
    exc = ApkAuditError("the message", "zip.crc")
    assert (str(exc), exc.args, exc.code) == ("the message", ("the message",), "zip.crc")
    # as a process pool returns it
    back = pickle.loads(pickle.dumps(ApkReadError("p: File is not a zip file", "zip.not_a_zip")))
    assert (type(back), str(back), back.code) == (ApkReadError, "p: File is not a zip file", "zip.not_a_zip")


# ---- whole-APK property test ----------------------------------------------

_TARGETS = ("classes.dex", "AndroidManifest.xml", "META-INF/CERT.RSA", "v2 signing block")
# 32-bit words at the edges of the sizes, counts and offsets the readers take
_WORDS = (0, 1, 0x7F, 0x80, 0xFFFF, 0x10000, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFE, 0xFFFFFFFF)
_EDIT = st.one_of(
    st.tuples(st.just("byte"), st.integers(0, 1 << 16), st.integers(0, 255)),
    st.tuples(st.just("word"), st.integers(0, 1 << 16), st.sampled_from(_WORDS)),
    st.tuples(st.just("cut"), st.integers(0, 1 << 16), st.just(0)),
)


def _mutate(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for kind, at, value in edits:
        if not buf:
            break
        if kind == "byte":
            buf[at % len(buf)] = value
        elif kind == "word":
            at %= max(len(buf) - 3, 1)
            buf[at : at + 4] = value.to_bytes(4, "little")
        else:
            del buf[at % len(buf) :]
    return bytes(buf)


@functools.lru_cache(maxsize=len(FIXTURE_NAMES))
def _entries(path: Path) -> dict[str, bytes]:
    with zipfile.ZipFile(path) as zf:
        return {info.filename: zf.read(info) for info in zf.infolist()}


@functools.lru_cache(maxsize=1)
def _v2_cert() -> bytes:
    return make_cert("V2", "V2Org")[0].public_bytes(Encoding.DER)


def _coded(run):
    """What ``run()`` returns, or None when it raises an ApkAuditError whose
    code is in README's table; any other exception fails the test."""
    try:
        return run()
    except ApkAuditError as exc:
        code = exc.code
    assert code in TABLE_CODES, code
    return None


def _apk(corpus, tmp, name, target, edits) -> Path:
    """The fixture re-zipped, valid CRCs and all, with one part mutated."""
    entries = dict(_entries(corpus[name]))
    names = [t for t in _TARGETS if t in entries or t.startswith("v2")]
    target = names[target % len(names)]
    if target in entries:
        entries[target] = _mutate(entries[target], edits)
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
        for entry, data in entries.items():
            zf.writestr(zipfile.ZipInfo(entry, (2020, 1, 1, 0, 0, 0)), data)
    path = tmp / "mutant.apk"
    path.write_bytes(buf.getvalue())
    if target.startswith("v2"):
        _splice_signing_block(path, _mutate(_v2_block(_v2_cert()), edits))
    return path


_MUTANT = dict(name=st.sampled_from(FIXTURE_NAMES), target=st.integers(0, len(_TARGETS) - 1),
               edits=st.lists(_EDIT, min_size=1, max_size=4))
_SETTINGS = dict(derandomize=True, database=None, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@settings(max_examples=200, **_SETTINGS)
@given(**_MUTANT)
def test_mutated_parts_give_a_report_or_a_coded_error(corpus, tmp_path_factory, name, target, edits):
    path = _apk(corpus, tmp_path_factory.getbasetemp(), name, target, edits)
    result = _coded(lambda: report.analyze_apk(path))
    assert result is None or isinstance(result, AppReport)


@settings(max_examples=60, **_SETTINGS)
@given(cut=st.integers(0, 1 << 16), **_MUTANT)
def test_a_file_cut_short_after_open_gives_a_report_or_a_coded_error(
        corpus, tmp_path_factory, name, target, edits, cut):
    path = _apk(corpus, tmp_path_factory.getbasetemp(), name, target, edits)
    size = path.stat().st_size

    def open_then_cut(p):
        art = open_apk(p)
        os.truncate(p, cut % size)
        return art

    art = _coded(lambda: open_then_cut(path))
    for entry in art.entries if art else ():
        _coded(lambda: read_entry(art, entry))
    del art
    _apk(corpus, path.parent, name, target, edits)  # whole again, to be cut inside analyze_apk
    with mock.patch.object(report, "open_apk", open_then_cut):
        result = _coded(lambda: report.analyze_apk(path))
    assert result is None or isinstance(result, AppReport)
