"""Per-app analysis pipeline: ``analyze_apk`` and the detection data it loads.

The report data model and the corpus roll-up live in :mod:`apkaudit.findings`.
"""

from __future__ import annotations

import functools
import time
from typing import NamedTuple

from . import behaviors as behaviors_mod
from . import components as components_mod
from . import leaks as leaks_mod
from .axml import decode_axml
from .behaviors import RuleSet
from .callgraph import build_callgraph
from .container import AuthorityMap, open_apk, read_entry
from .dex import KeyMatcher, load_app_code
from .errors import ApkAuditError, AxmlError, CorruptEntryError, DexError
from .findings import DEFAULT_DEPTH, AppReport
from .leaks import INTERNET_PERMISSION, TaintSpec, load_taint_spec
from .manifest import ManifestModel, build_manifest


class AnalysisConfig(NamedTuple):
    rules_path: str | None = None
    taint_path: str | None = None
    extra_sinks_path: str | None = None
    apis_path: str | None = None
    depth: int = DEFAULT_DEPTH
    timings: bool = False


class Detection(NamedTuple):
    """The detection data a config names, loaded by ``load_detection``."""

    authorities: AuthorityMap
    rules: RuleSet
    apis: KeyMatcher
    spec: TaintSpec
    internet_spec: TaintSpec  # spec plus the supplementary sinks, for INTERNET apps


@functools.lru_cache(maxsize=8)
def load_detection(config: AnalysisConfig) -> Detection:
    """Read the data files of a config once per process; later calls with an
    equal config return the same object.  A missing or malformed file raises
    ApkAuditError, and nothing is cached for that config."""
    authorities = AuthorityMap.load()
    rules = behaviors_mod.load_rules(config.rules_path)
    apis = components_mod.load_sensitive_apis(config.apis_path)
    spec = load_taint_spec(config.taint_path)
    extra = config.extra_sinks_path
    internet_spec = spec.union(load_taint_spec(extra)) if extra else spec
    return Detection(authorities, rules, apis, spec, internet_spec)


def analyze_apk(path, config: AnalysisConfig | None = None, device: str = "") -> AppReport:
    """Full pipeline for one APK; analyzer failures degrade to warnings.

    The detection data of ``config`` is loaded on first use and cached per
    process for each config (``load_detection``), so a bad data file raises
    ApkAuditError before any APK is opened.
    """
    config = config or AnalysisConfig()
    data = load_detection(config)
    t0 = time.monotonic()
    timings: dict[str, float] = {}

    art = open_apk(path)  # invalid-apk propagates: no report without a container
    report = AppReport(sha256=art.sha256, device=device)
    report.warnings.extend(art.warnings)
    report.signer_label = data.authorities.label(art.signers[0] if art.signers else None)

    man: ManifestModel | None = None
    try:
        tree = decode_axml(read_entry(art, "AndroidManifest.xml"))
        report.warnings.extend(f"manifest: {w}" for w in tree.warnings)
        man = build_manifest(tree)
        report.package = man.package
        report.version_name = man.version_name
        report.version_code = man.version_code
    except (ApkAuditError, AxmlError, KeyError) as exc:
        report.warnings.append(f"manifest: {exc}")
    timings["manifest"] = time.monotonic() - t0

    code = None
    if man is not None:
        t = time.monotonic()
        try:
            code = load_app_code(art)
            report.warnings.extend(code.warnings)
        except (CorruptEntryError, DexError) as exc:
            report.warnings.append(f"dex: {exc}")
        timings["dex"] = time.monotonic() - t

    if man is not None and code is not None:
        t = time.monotonic()
        graph = build_callgraph(code)
        timings["callgraph"] = time.monotonic() - t

        t = time.monotonic()
        report.behaviors = behaviors_mod.scan_behaviors(code, man, data.rules)
        timings["behaviors"] = time.monotonic() - t

        t = time.monotonic()
        report.exported_components, comp_warnings = components_mod.audit_components(
            man, code, graph, data.apis, config.depth
        )
        report.warnings.extend(comp_warnings)
        timings["components"] = time.monotonic() - t

        t = time.monotonic()
        spec = data.internet_spec if INTERNET_PERMISSION in man.uses_permissions else data.spec
        report.warnings.extend(f"taint-spec: {w}" for w in spec.warnings)
        report.leaks = leaks_mod.analyze_leaks(code, graph, spec, config.depth)
        timings["leaks"] = time.monotonic() - t

    timings["total"] = time.monotonic() - t0
    if config.timings:
        report.timings = {k: round(v, 6) for k, v in timings.items()}
    return report
