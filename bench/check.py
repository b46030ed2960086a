"""Correctness checks for the apkaudit benchmark.

``check_report`` compares one report against the ground truth the
generator planted: every planted finding must be reported and no planted
negative may be.  ``findings_digest`` reduces the reports of a whole pass
(and the apps that failed) to one sha256, which must be the same on every
pass and, for seeds recorded in ``reference.json``, equal to the digest
recorded when the benchmark was defined.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")


def check_report(doc: dict, truth: dict) -> list[str]:
    """Problems found in one report; an empty list means it is correct."""
    problems = []
    f = doc["findings"]
    if truth["package"] and "manifest:" not in truth["warnings"] and doc["package"] != truth["package"]:
        problems.append(f"package {doc['package']!r}, planted {truth['package']!r}")
    if doc["signer_label"] != truth["signer_label"]:
        problems.append(f"signer label {doc['signer_label']!r}, planted {truth['signer_label']!r}")
    for expected in truth["warnings"]:
        if not any(expected in w for w in doc["warnings"]):
            problems.append(f"missing warning containing {expected!r}")

    leaks = {
        (x["source"], x["sink"], x["source_site"][0], x["sink_site"][0]): x for x in f["leaks"]
    }
    for t in truth["leaks"]:
        got = leaks.get((t["source"], t["sink"], t["source_method"], t["sink_method"]))
        if got is None or (got["channel"], got["data_kind"]) != (t["channel"], t["data_kind"]):
            problems.append(f"missed leak {t['source_method']} -> {t['sink']}")
    comps = {(x["class"], x["api"], x["method"]): x for x in f["exported_components"]}
    for t in truth["components"]:
        got = comps.get((t["class"], t["api"], t["method"]))
        if got is None or (got["kind"], got["data_kind"]) != (t["kind"], t["data_kind"]):
            problems.append(f"missed component hit {t['class']} -> {t['api']}")
    behaviors = {(x["rule_id"], x["method"]) for x in f["behaviors"]}
    for t in truth["behaviors"]:
        if (t["rule_id"], t["method"]) not in behaviors:
            problems.append(f"missed behavior {t['rule_id']} in {t['method']}")

    absent_sources = set(truth["absent_leak_sources"])
    for x in f["leaks"]:
        if x["source_site"][0] in absent_sources:
            problems.append(f"reported planted negative flow from {x['source_site'][0]}")
    absent_classes = set(truth["absent_components"])
    for x in f["exported_components"]:
        if x["class"] in absent_classes:
            problems.append(f"reported planted negative component {x['class']}")
    return problems


def check_summary(summary: dict, docs: list[dict]) -> list[str]:
    """The ``apkaudit report --format json`` summary must agree with the reports."""
    expected = {
        "exported_components": sum(1 for d in docs if d["findings"]["exported_components"]),
        "leaks": sum(1 for d in docs if d["findings"]["leaks"]),
    }
    problems = []
    if summary["total_apps"] != len(docs):
        problems.append(f"summary counts {summary['total_apps']} apps, {len(docs)} reports")
    for key, count in expected.items():
        if summary["categories"][key]["count"] != count:
            problems.append(f"summary {key} count {summary['categories'][key]['count']}, expected {count}")
    return problems


def _normalise(doc: dict) -> dict:
    f = doc["findings"]
    return {
        "package": doc["package"],
        "signer_label": doc["signer_label"],
        "warnings": sorted(doc["warnings"]),
        "findings": {key: sorted(f[key], key=json.dumps) for key in sorted(f)},
    }


def findings_digest(docs_by_app: dict[str, dict], failures: dict[str, str]) -> str:
    """sha256 over every app's normalised findings, or its exception type."""
    state = {name: _normalise(doc) for name, doc in docs_by_app.items()}
    state.update({name: {"failed": kind} for name, kind in failures.items()})
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()


def reference_digest(workload: str, seed: int, scale: float, generator_version: int) -> str | None:
    """The recorded digest for this full-scale corpus, if one was recorded
    with the same generator version."""
    if scale != 1.0 or not REFERENCE.exists():
        return None
    ref = json.loads(REFERENCE.read_text())
    if ref["generator_version"] != generator_version:
        return None
    return ref["digests"].get(workload, {}).get(str(seed))
