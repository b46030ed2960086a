"""Auditor for exported, unprotected components reaching sensitive APIs.

For every component that is exported and carries no permission attribute,
the roots are all concrete methods of the component class plus its inner
classes.  Direct invokes of a sensitive API are reported first; remaining
APIs are searched through the call graph up to a configurable depth.
"""

from __future__ import annotations

from bisect import bisect_left
from pathlib import Path

from .callgraph import CallGraph, reachable_hits
from .dex import CodeModel, KeyMatcher, class_to_descriptor
from .errors import read_data_file
from .findings import DEFAULT_DEPTH, ComponentFinding
from .manifest import ManifestModel, is_exported, is_protected

DEFAULT_APIS = Path(__file__).parent / "data" / "sensitive_apis.txt"
_QUERY = "Landroid/content/ContentResolver;->query("  # ContentResolver.query, whatever its proto

SENSITIVE_URIS = {
    "content://sms": "sms",
    "content://contacts": "contacts",
    "content://com.android.contacts": "contacts",
    "content://call_log": "call_log",
    "content://media/external": "media",
}


def load_sensitive_apis(path=None) -> KeyMatcher:
    """Parse a ``pattern [label]`` API list; the shipped one when path is omitted."""
    entries = []
    for line in read_data_file(path or DEFAULT_APIS).splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        pattern, _, label = line.partition(" ")
        entries.append((pattern, label.strip() or "sensitive"))
    return KeyMatcher(entries)


def audit_components(
    man: ManifestModel,
    code: CodeModel,
    g: CallGraph,
    apis: KeyMatcher,
    depth: int = DEFAULT_DEPTH,
) -> tuple[list[ComponentFinding], list[str]]:
    """Returns (findings, warnings). Warnings cover declared-but-absent classes."""
    findings: dict[tuple[str, str, str], ComponentFinding] = {}
    warnings: list[str] = []
    labels: dict[str, str] | None = None  # sensitive call-graph node → label
    descriptors = sorted(code.classes)

    for comp in man.components:
        if not is_exported(comp, man.target_sdk) or is_protected(comp):
            continue
        desc = class_to_descriptor(comp.class_name)
        roots = _component_roots(code, descriptors, desc)
        if not roots:
            warnings.append(f"declared component class absent from code: {comp.class_name}")
            continue

        # direct invokes inside the component's own methods, then a call-graph
        # search for the APIs not hit directly; each hit is (api, label, path)
        hits: list[tuple[str, str, tuple[str, ...]]] = []
        for root in sorted(roots):
            for _, api, _ in g.index[code.method(root)][0]:
                label = apis.match(api)
                if label is not None:
                    hits.append((api, label, (root,)))
        direct_apis = {api for api, _, _ in hits}
        if labels is None:
            labels = {node: label for node in g.nodes() if (label := apis.match(node)) is not None}
        targets = {node: label for node, label in labels.items() if node not in direct_apis}
        if targets:
            for _, target, path in reachable_hits(g, roots, set(targets), depth):
                hits.append((target, targets[target], tuple(path)))

        for api, label, path in hits:
            containing = path[-1]
            label, conf = _refine_query(api, label, g.index[code.method(containing)][1])
            findings.setdefault(
                (desc, api, containing),
                ComponentFinding(desc, comp.kind, api, containing, path, label, conf),
            )
    return sorted(findings.values(), key=ComponentFinding.sort_key), warnings


def _component_roots(code: CodeModel, descriptors: list[str], desc: str) -> set[str]:
    """Concrete methods of the component class and its inner classes, the
    classes whose descriptor starts with ``desc[:-1] + "$"``; ``descriptors``
    is the sorted list of the model's class descriptors, where those sit in
    one run."""
    inner_prefix = desc[:-1] + "$"
    names = [desc] if desc in code.classes else []
    i = bisect_left(descriptors, inner_prefix)
    while i < len(descriptors) and descriptors[i].startswith(inner_prefix):
        names.append(descriptors[i])
        i += 1
    return {m.key for name in names for m in code.classes[name].methods if m.is_concrete}


def _refine_query(api_key: str, label: str, strings: tuple[str, ...]) -> tuple[str, str]:
    """ContentResolver.query alone is only medium confidence; a sensitive
    content URI among the method's ``strings`` (in first-use order) pins the
    data kind and raises it."""
    if not api_key.startswith(_QUERY):
        return label, "high"
    for s in strings:
        for uri, uri_label in SENSITIVE_URIS.items():
            if s.startswith(uri):
                return uri_label, "high"
    return label, "medium"
