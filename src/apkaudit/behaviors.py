"""Pattern-based suspicious-behavior scanner.

A rule fires when its literal pattern occurs (case-sensitive substring) in
its match space, its permission gate passes, and any co-occurrence partner
matched inside the same class.  Matches sitting only in the string pool
(never used by a decoded body) are kept at medium confidence instead of
being dropped.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .callgraph import CallGraph
from .dex import CodeModel
from .errors import RuleSchemaError, read_data_file
from .findings import BehaviorFinding
from .manifest import ManifestModel

DEFAULT_RULES = Path(__file__).parent / "data" / "rules.json"

CATEGORIES = {"sms", "dangerous_command", "log_collection", "silent_install"}
# match space name -> the space it loads as; string_pool is an older name
MATCH_SPACES = {"const_string": "const_string", "string_pool": "const_string",
                "method_ref": "method_ref"}

SMS_RECEIVED_ACTION = "android.provider.Telephony.SMS_RECEIVED"


class Rule(NamedTuple):
    id: str
    category: str
    pattern: str
    match_space: str
    required_permissions: frozenset[str] = frozenset()
    co_occurrence: str | None = None


def load_rules(path=None) -> tuple[Rule, ...]:
    """Load a rules file, or the shipped defaults when path is omitted; a
    schema error names the file."""
    path = path or DEFAULT_RULES
    raw = read_data_file(path, as_json=True)
    try:
        return _parse_rules(raw)
    except RuleSchemaError as exc:
        raise RuleSchemaError(f"data file {path}: {exc}") from None


def _parse_rules(raw) -> tuple[Rule, ...]:
    if not isinstance(raw, list):
        raise RuleSchemaError("rules file must be a JSON array")
    rules: list[Rule] = []
    seen: set[str] = set()
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise RuleSchemaError(f"rule #{i} is not an object")
        for key in ("id", "category", "pattern", "match_space"):
            if key not in entry:
                raise RuleSchemaError(f"rule #{i} missing key {key!r}")
            if not (isinstance(entry[key], str) and entry[key]):
                raise RuleSchemaError(
                    f"rule #{i}: {key} must be a non-empty string, not {entry[key]!r}")
        rid, category, space = entry["id"], entry["category"], entry["match_space"]
        perms = entry.get("required_permissions", [])
        if not (isinstance(perms, list) and all(isinstance(p, str) for p in perms)):
            raise RuleSchemaError(f"rule {rid!r}: required_permissions must be a list of strings")
        if category not in CATEGORIES:
            raise RuleSchemaError(f"rule {rid!r}: unknown category {category!r}")
        if space not in MATCH_SPACES:
            raise RuleSchemaError(f"rule {rid!r}: unknown match_space {space!r}")
        if rid in seen:
            raise RuleSchemaError(f"duplicate rule id {rid!r}")
        seen.add(rid)
        rules.append(Rule(rid, category, entry["pattern"], MATCH_SPACES[space], frozenset(perms),
                          entry.get("co_occurrence")))
    for r in rules:
        partner = r.co_occurrence
        if partner is not None and (not isinstance(partner, str) or partner not in seen):
            raise RuleSchemaError(f"rule {r.id!r}: unknown co_occurrence partner {partner!r}")
    return tuple(rules)


def scan_behaviors(code: CodeModel, man: ManifestModel, rules: tuple[Rule, ...],
                   g: CallGraph) -> list[BehaviorFinding]:
    """Reads the code through the index of ``g``, the app's call graph."""
    const_strings, method_refs, pool_only = _collect_sites(code, g)
    findings: list[BehaviorFinding] = []

    # class → rule ids with a body-level match there (for co-occurrence)
    class_matches: dict[str, set[str]] = {}
    per_rule: dict[str, list[tuple[str, str, str]]] = {}  # rule → (method, class, conf)

    for rule in rules:
        pattern = rule.pattern
        hits: list[tuple[str, str, str]] = []
        if rule.match_space == "const_string":
            for method_key, class_desc, s in const_strings:
                if pattern in s:
                    hits.append((method_key, class_desc, "high"))
            for s in pool_only:  # one hit whichever string matched
                if pattern in s:
                    hits.append(("string-pool", "", "medium"))
                    break
        elif rule.match_space == "method_ref":
            for method_key, class_desc, ref in method_refs:
                if pattern in ref:
                    hits.append((method_key, class_desc, "high"))
        # manifest side channel for the SMS broadcast action
        if pattern == "Telephony.SMS_RECEIVED":
            for comp in man.components:
                if SMS_RECEIVED_ACTION in comp.actions:
                    hits.append(("manifest", comp.class_name, "high"))
        per_rule[rule.id] = hits
        for _method, cls, _conf in hits:
            if cls:
                class_matches.setdefault(cls, set()).add(rule.id)

    for rule in rules:
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
                )
            )
    return sorted(findings, key=BehaviorFinding.sort_key)


def _collect_sites(code: CodeModel, g: CallGraph):
    """(method key, class, string) of each const-string, (method key, class,
    callee key) of each call site, and the pool strings no const-string uses."""
    const_strings: list[tuple[str, str, str]] = []
    method_refs: list[tuple[str, str, str]] = []
    used: set[str] = set()
    for cls in code.classes.values():
        for m in cls.methods:
            sites, strings, _ = g.index[m]
            for s in strings:
                const_strings.append((m.key, cls.descriptor, s))
            used.update(strings)
            for _, ref, _ in sites:
                method_refs.append((m.key, cls.descriptor, ref))
    pool_only = code.string_pool - used
    return const_strings, method_refs, pool_only
