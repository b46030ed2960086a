import json
from contextlib import contextmanager
from pathlib import Path

import pytest

from apkaudit.errors import ApkAuditError

from .fixtures.corpus import FIXTURE_NAMES, build_corpus

TESTS_DIR = Path(__file__).parent
EXPECTED_DIR = TESTS_DIR / "expected"
EXTRA_SINKS = TESTS_DIR / "data" / "extra_sinks.txt"


@contextmanager
def raises_code(code: str, match: str | None = None, cls: type = ApkAuditError):
    """``pytest.raises(cls, match=match)`` that also checks the error's ``code``."""
    with pytest.raises(cls, match=match) as info:
        yield info
    got = info.value.code
    del info  # the error's traceback holds this frame, which must not hold the error
    assert got == code


@pytest.fixture(scope="session")
def corpus(tmp_path_factory) -> dict[str, Path]:
    """All 12 fixture APKs, built once per session."""
    out = tmp_path_factory.mktemp("corpus")
    return build_corpus(out)


@pytest.fixture(scope="session")
def expected() -> dict[str, dict]:
    return {name: json.loads((EXPECTED_DIR / f"{name}.json").read_text()) for name in FIXTURE_NAMES}


def normalize_findings(doc: dict) -> dict:
    """Reduce a report's findings to the comparison form used by the
    expected files (drops instruction-offset sites, keeps identity fields)."""
    f = doc["findings"]
    return {
        "leaks": sorted(
            (
                {k: x[k] for k in ("source", "sink", "channel", "data_kind", "path")}
                for x in f["leaks"]
            ),
            key=json.dumps,
        ),
        "behaviors": sorted(
            (
                {k: x[k] for k in ("category", "rule_id", "confidence", "method", "matched", "component")}
                for x in f["behaviors"]
            ),
            key=json.dumps,
        ),
        "exported_components": sorted(
            (
                {k: x[k] for k in ("class", "kind", "api", "method", "path", "data_kind", "confidence")}
                for x in f["exported_components"]
            ),
            key=json.dumps,
        ),
    }


def normalize_expected(doc: dict) -> dict:
    return {key: sorted(doc[key], key=json.dumps) for key in ("leaks", "behaviors", "exported_components")}
