"""Per-app report assembly, corpus aggregation and percent formatting."""

from __future__ import annotations

import functools
import json
import logging
import time
from dataclasses import dataclass, field

from . import behaviors as behaviors_mod
from . import components as components_mod
from . import leaks as leaks_mod
from .axml import decode_axml
from .behaviors import BehaviorFinding, RuleSet
from .callgraph import DEFAULT_DEPTH, build_callgraph
from .components import ComponentFinding
from .container import AuthorityMap, open_apk, read_entry
from .dex import KeyMatcher, load_app_code
from .errors import ApkAuditError, AxmlError, DexError
from .leaks import LeakFinding, TaintSpec, augment_for_internet, load_taint_spec
from .manifest import ManifestModel, build_manifest

log = logging.getLogger(__name__)

SCHEMA_VERSION = "1"

# Table row order used by the plain-text summary
CATEGORY_ORDER = [
    ("exported_components", "Exported sensitive components"),
    ("leaks", "Leak of sensitive data"),
    ("dangerous_command", "Dangerous commands"),
    ("log_collection", "Log collection"),
    ("silent_install", "Silent installation behaviors"),
    ("sms", "Access / Send / Delete SMS"),
]


@dataclass(frozen=True)
class AnalysisConfig:
    rules_path: str | None = None
    taint_path: str | None = None
    extra_sinks_path: str | None = None
    apis_path: str | None = None
    depth: int = DEFAULT_DEPTH
    timings: bool = False


@dataclass(frozen=True)
class Detection:
    """The detection data a config names, loaded by ``load_detection``."""

    authorities: AuthorityMap
    rules: RuleSet
    apis: KeyMatcher
    spec: TaintSpec
    extra_sinks: TaintSpec | None


@functools.lru_cache(maxsize=8)
def load_detection(config: AnalysisConfig) -> Detection:
    """Read the data files of a config once per process; later calls with an
    equal config return the same object.  A missing or malformed file raises
    ApkAuditError, and nothing is cached for that config."""
    extra = config.extra_sinks_path
    return Detection(
        authorities=AuthorityMap.load(),
        rules=behaviors_mod.load_rules(config.rules_path),
        apis=components_mod.load_sensitive_apis(config.apis_path),
        spec=load_taint_spec(config.taint_path),
        extra_sinks=load_taint_spec(extra, origin="supplementary") if extra else None,
    )


@dataclass
class AppReport:
    sha256: str
    package: str = ""
    version_name: str = ""
    version_code: int = 0
    signer_label: str = ""
    device: str = ""
    leaks: list[LeakFinding] = field(default_factory=list)
    behaviors: list[BehaviorFinding] = field(default_factory=list)
    exported_components: list[ComponentFinding] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    timings: dict[str, float] | None = None

    def to_dict(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "sha256": self.sha256,
            "package": self.package,
            "version_name": self.version_name,
            "version_code": self.version_code,
            "signer_label": self.signer_label,
            "device": self.device,
            "findings": {
                "leaks": [
                    {
                        "source": f.source,
                        "sink": f.sink,
                        "channel": f.channel,
                        "source_site": list(f.source_site),
                        "sink_site": list(f.sink_site),
                        "path": list(f.path),
                        "data_kind": f.data_kind,
                    }
                    for f in self.leaks
                ],
                "behaviors": [
                    {
                        "category": f.category,
                        "rule_id": f.rule_id,
                        "confidence": f.confidence,
                        "method": f.method,
                        "matched": f.matched,
                        "component": f.component,
                    }
                    for f in self.behaviors
                ],
                "exported_components": [
                    {
                        "class": f.component_class,
                        "kind": f.kind,
                        "api": f.sensitive_api,
                        "method": f.containing_method,
                        "path": list(f.path),
                        "data_kind": f.data_kind,
                        "confidence": f.confidence,
                    }
                    for f in self.exported_components
                ],
            },
            "warnings": self.warnings,
        }
        if self.timings is not None:
            doc["timings"] = self.timings
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "AppReport":
        f = doc.get("findings", {})
        return cls(
            sha256=doc["sha256"],
            package=doc.get("package", ""),
            version_name=doc.get("version_name", ""),
            version_code=doc.get("version_code", 0),
            signer_label=doc.get("signer_label", ""),
            device=doc.get("device", ""),
            leaks=[
                LeakFinding(
                    source=x["source"],
                    sink=x["sink"],
                    channel=x["channel"],
                    source_site=tuple(x["source_site"]),
                    sink_site=tuple(x["sink_site"]),
                    path=tuple(x["path"]),
                    data_kind=x["data_kind"],
                )
                for x in f.get("leaks", [])
            ],
            behaviors=[
                BehaviorFinding(
                    category=x["category"],
                    rule_id=x["rule_id"],
                    confidence=x["confidence"],
                    method=x["method"],
                    matched=x["matched"],
                    component=x.get("component"),
                    apk_sha256=doc["sha256"],
                )
                for x in f.get("behaviors", [])
            ],
            exported_components=[
                ComponentFinding(
                    component_class=x["class"],
                    kind=x["kind"],
                    sensitive_api=x["api"],
                    containing_method=x["method"],
                    path=tuple(x["path"]),
                    data_kind=x["data_kind"],
                    confidence=x.get("confidence", "high"),
                )
                for x in f.get("exported_components", [])
            ],
            warnings=list(doc.get("warnings", [])),
            timings=doc.get("timings"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @property
    def has_findings(self) -> bool:
        return bool(self.leaks or self.behaviors or self.exported_components)


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
        except DexError as exc:
            report.warnings.append(f"dex: {exc}")
        timings["dex"] = time.monotonic() - t

    if man is not None and code is not None:
        t = time.monotonic()
        graph = build_callgraph(code)
        timings["callgraph"] = time.monotonic() - t

        t = time.monotonic()
        report.behaviors = behaviors_mod.scan_behaviors(code, man, data.rules, art.sha256)
        timings["behaviors"] = time.monotonic() - t

        t = time.monotonic()
        report.exported_components, comp_warnings = components_mod.audit_components(
            man, code, graph, data.apis, config.depth
        )
        report.warnings.extend(comp_warnings)
        timings["components"] = time.monotonic() - t

        t = time.monotonic()
        spec = augment_for_internet(data.spec, man, data.extra_sinks)
        report.warnings.extend(f"taint-spec: {w}" for w in spec.warnings)
        report.leaks = leaks_mod.analyze_leaks(code, graph, spec, config.depth)
        timings["leaks"] = time.monotonic() - t

    timings["total"] = time.monotonic() - t0
    if config.timings:
        report.timings = {k: round(v, 6) for k, v in timings.items()}
    return report


def format_percent(count: int, total: int) -> str:
    """Percent rendering used by the summary table.

    Whole percents are rounded half-up; values under 1% keep one decimal,
    rounded up so a small non-zero share never displays as zero.
    """
    if total <= 0:
        raise ValueError("total must be positive")
    if count == 0:
        return "0%"
    if 100 * count >= total:
        return f"{(200 * count + total) // (2 * total)}%"
    tenths = (1000 * count + total - 1) // total
    return f"0.{tenths}%" if tenths < 10 else "1%"


@dataclass
class CorpusSummary:
    total_apps: int
    category_counts: dict[str, int]
    signer_distribution: dict[str, dict[str, str]]  # device → label → percent

    def percent(self, category: str) -> str:
        if self.total_apps == 0:
            return "0%"
        return format_percent(self.category_counts.get(category, 0), self.total_apps)

    def to_dict(self) -> dict:
        return {
            "total_apps": self.total_apps,
            "categories": {
                key: {"count": self.category_counts.get(key, 0), "percent": self.percent(key)}
                for key, _label in CATEGORY_ORDER
            },
            "signer_distribution": self.signer_distribution,
        }

    def render_table(self) -> str:
        width = max(len(label) for _k, label in CATEGORY_ORDER) + 2
        lines = [f"{'Behaviors':<{width}}# of apps (%)"]
        lines.append("-" * (width + 14))
        for key, label in CATEGORY_ORDER:
            count = self.category_counts.get(key, 0)
            pct = self.percent(key) if self.total_apps else "0%"
            lines.append(f"{label:<{width}}{count} ({pct})")
        lines.append(f"{'Total apps':<{width}}{self.total_apps}")
        return "\n".join(lines) + "\n"


def aggregate(reports: list[AppReport]) -> CorpusSummary:
    """App-level counts: an app counts once per category it has findings in."""
    counts = {key: 0 for key, _ in CATEGORY_ORDER}
    for r in reports:
        if r.exported_components:
            counts["exported_components"] += 1
        if r.leaks:
            counts["leaks"] += 1
        behavior_cats = {f.category for f in r.behaviors}
        for cat in behavior_cats:
            if cat in counts:
                counts[cat] += 1

    per_device: dict[str, dict[str, int]] = {}
    for r in reports:
        if not r.signer_label:
            continue
        dev = r.device or "unknown"
        per_device.setdefault(dev, {}).setdefault(r.signer_label, 0)
        per_device[dev][r.signer_label] += 1
    distribution = {
        dev: {
            label: format_percent(n, sum(labels.values()))
            for label, n in sorted(labels.items())
        }
        for dev, labels in sorted(per_device.items())
    }
    return CorpusSummary(
        total_apps=len(reports),
        category_counts=counts,
        signer_distribution=distribution,
    )
