"""Pattern-based suspicious-behavior scanner.

A rule fires when its literal pattern occurs (case-sensitive substring) in
its match space, its permission gate passes, and any co-occurrence partner
matched inside the same class.  Matches sitting only in the string pool
(never used by a decoded body) are kept at medium confidence instead of
being dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .dex import CodeModel
from .errors import RuleSchemaError, read_data_file
from .findings import BehaviorFinding
from .manifest import ManifestModel

DEFAULT_RULES = Path(__file__).parent / "data" / "rules.json"

CATEGORIES = {"sms", "dangerous_command", "log_collection", "silent_install"}
MATCH_SPACES = {"string_pool", "const_string", "method_ref"}

SMS_RECEIVED_ACTION = "android.provider.Telephony.SMS_RECEIVED"


@dataclass(frozen=True)
class Rule:
    id: str
    category: str
    pattern: str
    match_space: str
    required_permissions: frozenset[str] = frozenset()
    co_occurrence: str | None = None


@dataclass
class RuleSet:
    rules: list[Rule] = field(default_factory=list)

    def by_id(self, rule_id: str) -> Rule | None:
        for r in self.rules:
            if r.id == rule_id:
                return r
        return None


def load_rules(path=None) -> RuleSet:
    """Load a rules file, or the shipped defaults when path is omitted; a
    schema error names the file."""
    path = path or DEFAULT_RULES
    raw = read_data_file(path, as_json=True)
    try:
        return _parse_rules(raw)
    except RuleSchemaError as exc:
        raise RuleSchemaError(f"data file {path}: {exc}") from None


def _parse_rules(raw) -> RuleSet:
    if not isinstance(raw, list):
        raise RuleSchemaError("rules file must be a JSON array")
    rules: list[Rule] = []
    seen: set[str] = set()
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise RuleSchemaError(f"rule #{i} is not an object")
        try:
            rid = entry["id"]
            category = entry["category"]
            pattern = entry["pattern"]
            space = entry["match_space"]
        except KeyError as exc:
            raise RuleSchemaError(f"rule #{i} missing key {exc}") from exc
        if category not in CATEGORIES:
            raise RuleSchemaError(f"rule {rid!r}: unknown category {category!r}")
        if space not in MATCH_SPACES:
            raise RuleSchemaError(f"rule {rid!r}: unknown match_space {space!r}")
        if rid in seen:
            raise RuleSchemaError(f"duplicate rule id {rid!r}")
        seen.add(rid)
        rules.append(
            Rule(
                id=rid,
                category=category,
                pattern=pattern,
                match_space=space,
                required_permissions=frozenset(entry.get("required_permissions", [])),
                co_occurrence=entry.get("co_occurrence"),
            )
        )
    rs = RuleSet(rules)
    for r in rules:
        if r.co_occurrence and rs.by_id(r.co_occurrence) is None:
            raise RuleSchemaError(f"rule {r.id!r}: unknown co_occurrence partner {r.co_occurrence!r}")
    return rs


def scan_behaviors(
    code: CodeModel, man: ManifestModel, rs: RuleSet, apk_sha256: str = ""
) -> list[BehaviorFinding]:
    sites = _collect_sites(code)
    findings: list[BehaviorFinding] = []

    # class → rule ids with a body-level match there (for co-occurrence)
    class_matches: dict[str, set[str]] = {}
    per_rule: dict[str, list[tuple[str, str, str]]] = {}  # rule → (method, class, conf)

    for rule in rs.rules:
        hits: list[tuple[str, str, str]] = []
        if rule.match_space in ("const_string", "string_pool"):
            for method_key, class_desc, s in sites.const_strings:
                if rule.pattern in s:
                    hits.append((method_key, class_desc, "high"))
            for s in sites.pool_only:
                if rule.pattern in s:
                    hits.append(("string-pool", "", "medium"))
                    break
        elif rule.match_space == "method_ref":
            for method_key, class_desc, ref in sites.method_refs:
                if rule.pattern in ref:
                    hits.append((method_key, class_desc, "high"))
        # manifest side channel for the SMS broadcast action
        if rule.pattern == "Telephony.SMS_RECEIVED":
            for comp in man.components:
                if SMS_RECEIVED_ACTION in comp.actions:
                    hits.append(("manifest", comp.class_name, "high"))
        per_rule[rule.id] = hits
        for _method, cls, _conf in hits:
            if cls:
                class_matches.setdefault(cls, set()).add(rule.id)

    for rule in rs.rules:
        if rule.required_permissions and not (rule.required_permissions & man.uses_permissions):
            continue
        emitted: set[tuple[str, str]] = set()
        for method_key, class_desc, conf in per_rule[rule.id]:
            if rule.co_occurrence is not None:
                if not class_desc or rule.co_occurrence not in class_matches.get(class_desc, set()):
                    continue
            dedup = (method_key, class_desc)
            if dedup in emitted:
                continue
            emitted.add(dedup)
            findings.append(
                BehaviorFinding(
                    category=rule.category,
                    rule_id=rule.id,
                    confidence=conf,
                    method=method_key,
                    matched=rule.pattern,
                    component=class_desc if method_key == "manifest" else None,
                    apk_sha256=apk_sha256,
                )
            )
    return sorted(findings, key=BehaviorFinding.sort_key)


@dataclass
class _Sites:
    const_strings: list[tuple[str, str, str]]  # (method key, class, string)
    method_refs: list[tuple[str, str, str]]  # (method key, class, callee key)
    pool_only: list[str]  # pool strings never used as a const-string operand


def _collect_sites(code: CodeModel) -> _Sites:
    const_strings: list[tuple[str, str, str]] = []
    method_refs: list[tuple[str, str, str]] = []
    used: set[str] = set()
    for cls in code.classes.values():
        for m in cls.methods:
            for ins in m.instructions:
                if ins.ref_kind == "string" and ins.resolved_ref is not None:
                    const_strings.append((m.key, cls.descriptor, ins.resolved_ref))
                    used.add(ins.resolved_ref)
                elif ins.ref_kind == "method" and ins.resolved_ref is not None:
                    method_refs.append((m.key, cls.descriptor, ins.resolved_ref))
    pool_only = sorted(code.string_pool - used)
    return _Sites(const_strings, method_refs, pool_only)
