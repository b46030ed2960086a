"""Pattern-based suspicious-behavior scanner.

A rule fires when its literal pattern occurs (case-sensitive substring) in
its match space, its permission gate passes, and any co-occurrence partner
matched inside the same class.  Matches sitting only in the string pool
(never used by a decoded body) are kept at medium confidence instead of
being dropped.  The rules are matched while the call graph's code index is
walked, in place.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .callgraph import CallGraph
from .dex import CodeModel
from .errors import ApkAuditError, read_data_file
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
    except ApkAuditError as exc:
        raise ApkAuditError(f"data file {path}: {exc}", exc.code) from None


def _parse_rules(raw) -> tuple[Rule, ...]:
    if not isinstance(raw, list):
        raise ApkAuditError("rules file must be a JSON array", "data.rules")
    rules: list[Rule] = []
    seen: set[str] = set()
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ApkAuditError(f"rule #{i} is not an object", "data.rules")
        for key in ("id", "category", "pattern", "match_space"):
            if key not in entry:
                raise ApkAuditError(f"rule #{i} missing key {key!r}", "data.rules")
            if not (isinstance(entry[key], str) and entry[key]):
                raise ApkAuditError(
                    f"rule #{i}: {key} must be a non-empty string, not {entry[key]!r}", "data.rules")
        rid, category, space = entry["id"], entry["category"], entry["match_space"]
        perms = entry.get("required_permissions", [])
        if not (isinstance(perms, list) and all(isinstance(p, str) for p in perms)):
            raise ApkAuditError(f"rule {rid!r}: required_permissions must be a list of strings",
                                "data.rules")
        if category not in CATEGORIES:
            raise ApkAuditError(f"rule {rid!r}: unknown category {category!r}", "data.rules")
        if space not in MATCH_SPACES:
            raise ApkAuditError(f"rule {rid!r}: unknown match_space {space!r}", "data.rules")
        if rid in seen:
            raise ApkAuditError(f"duplicate rule id {rid!r}", "data.rules")
        seen.add(rid)
        rules.append(Rule(rid, category, entry["pattern"], MATCH_SPACES[space], frozenset(perms),
                          entry.get("co_occurrence")))
    for r in rules:
        partner = r.co_occurrence
        if partner is not None and (not isinstance(partner, str) or partner not in seen):
            raise ApkAuditError(f"rule {r.id!r}: unknown co_occurrence partner {partner!r}",
                                "data.rules")
    return tuple(rules)


def scan_behaviors(code: CodeModel, man: ManifestModel, rules: tuple[Rule, ...],
                   g: CallGraph) -> list[BehaviorFinding]:
    """Reads the code through the index of ``g``, the app's call graph."""
    per_rule: dict[str, set[tuple[str, str, str]]] = {r.id: set() for r in rules}  # (method, class, conf)
    strings = [(r.pattern, per_rule[r.id]) for r in rules if r.match_space == "const_string"]
    refs = [(r.pattern, per_rule[r.id]) for r in rules if r.match_space == "method_ref"]
    used: set[str] = set()
    for cls in code.classes.values():
        for m in cls.methods:
            sites, consts, _ = g.index[m]
            for s in consts:
                for pattern, hits in strings:
                    if pattern in s:
                        hits.add((m.key, cls.descriptor, "high"))
            used.update(consts)
            for _, ref, _ in sites:
                for pattern, hits in refs:
                    if pattern in ref:
                        hits.add((m.key, cls.descriptor, "high"))
    for s in code.string_pool:
        if s not in used:
            for pattern, hits in strings:
                if pattern in s:
                    hits.add(("string-pool", "", "medium"))  # one per rule, whichever string matched
    for rule in rules:  # manifest side channel for the SMS broadcast action
        if rule.pattern == "Telephony.SMS_RECEIVED":
            per_rule[rule.id].update(("manifest", comp.class_name, "high") for comp in man.components
                                     if SMS_RECEIVED_ACTION in comp.actions)

    # class → rule ids with a body-level match there (for co-occurrence);
    # a pool hit's class "" is no key, so it never co-occurs
    class_matches: dict[str, set[str]] = {}
    for rule_id, hits in per_rule.items():
        for _method, cls, _conf in hits:
            if cls:
                class_matches.setdefault(cls, set()).add(rule_id)
    # within one rule, (method, class) fixes the confidence, so a hit is one finding
    return sorted(
        (BehaviorFinding(rule.category, rule.id, conf, method, rule.pattern,
                         cls if method == "manifest" else None)
         for rule in rules
         if not rule.required_permissions or rule.required_permissions & man.uses_permissions
         for method, cls, conf in per_rule[rule.id]
         if rule.co_occurrence is None or rule.co_occurrence in class_matches.get(cls, ())),
        key=BehaviorFinding.sort_key)
