"""Report data model: findings, per-app reports and the corpus summary.

This module imports only ``json`` and ``dataclasses``, so ``apkaudit report``
rolls up saved reports without loading any analyser.  The pipeline that
produces an :class:`AppReport` lives in :mod:`apkaudit.report`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

SCHEMA_VERSION = "1"

# call-graph hops searched by the component audit and taint summaries
DEFAULT_DEPTH = 5

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
class LeakFinding:
    source: str
    sink: str
    channel: str
    source_site: tuple[str, int]
    sink_site: tuple[str, int]
    path: tuple[str, ...]
    data_kind: str

    def sort_key(self):
        return (self.source, self.sink, self.source_site, self.sink_site)


@dataclass(frozen=True)
class BehaviorFinding:
    category: str
    rule_id: str
    confidence: str  # high | medium
    method: str  # MethodKey, "string-pool" or "manifest"
    matched: str  # the configured pattern literal
    component: str | None = None
    apk_sha256: str = ""

    def sort_key(self):
        return (self.category, self.rule_id, self.method, self.component or "")


@dataclass(frozen=True)
class ComponentFinding:
    component_class: str  # class descriptor
    kind: str
    sensitive_api: str
    containing_method: str
    path: tuple[str, ...]
    data_kind: str
    confidence: str = "high"

    def sort_key(self):
        return (self.component_class, self.sensitive_api, self.containing_method)


# Finding fields whose JSON key differs from the field name.
_RENAMES = {"component_class": "class", "sensitive_api": "api", "containing_method": "method"}

# findings key -> (finding type, [(field name, JSON key)]).  Tuple fields are
# JSON lists.  ``BehaviorFinding.apk_sha256`` is not written: it is the
# report's own ``sha256``.
_CODECS = {
    key: (cls, [(f.name, _RENAMES.get(f.name, f.name)) for f in fields(cls) if f.name != "apk_sha256"])
    for key, cls in (("leaks", LeakFinding), ("behaviors", BehaviorFinding),
                     ("exported_components", ComponentFinding))
}
_HEADER = ("sha256", "package", "version_name", "version_code", "signer_label", "device")


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
        doc = {name: getattr(self, name) for name in _HEADER}
        doc["schema_version"] = SCHEMA_VERSION
        doc["findings"] = {
            key: [
                {k: list(v) if isinstance(v := getattr(f, name), tuple) else v for name, k in codec}
                for f in getattr(self, key)
            ]
            for key, (_finding, codec) in _CODECS.items()
        }
        doc["warnings"] = self.warnings
        if self.timings is not None:
            doc["timings"] = self.timings
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> AppReport:
        """Inverse of ``to_dict``.  A key absent from a finding takes the
        field's default; a required one raises TypeError."""
        found = doc.get("findings", {})

        def decode(key: str, **extra) -> list:
            finding, codec = _CODECS[key]
            return [
                finding(**{name: tuple(v) if isinstance(v := x[k], list) else v
                           for name, k in codec if k in x}, **extra)
                for x in found.get(key, [])
            ]

        return cls(
            sha256=doc["sha256"],
            **{name: doc[name] for name in _HEADER[1:] if name in doc},
            leaks=decode("leaks"),
            behaviors=decode("behaviors", apk_sha256=doc["sha256"]),
            exported_components=decode("exported_components"),
            warnings=list(doc.get("warnings", [])),
            timings=doc.get("timings"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @property
    def has_findings(self) -> bool:
        return bool(self.leaks or self.behaviors or self.exported_components)


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
            lines.append(f"{label:<{width}}{self.category_counts.get(key, 0)} ({self.percent(key)})")
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
        for cat in {f.category for f in r.behaviors} & counts.keys():
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
