"""Auditor for exported, unprotected components reaching sensitive APIs.

For every component that is exported and carries no permission attribute,
the roots are all concrete methods of the component class plus its inner
classes.  Direct invokes of a sensitive API are reported first; remaining
APIs are searched through the call graph up to a configurable depth.
"""

from __future__ import annotations

from pathlib import Path

from .callgraph import CallGraph, reachable_hits
from .dex import CodeModel, KeyMatcher, parse_method_key
from .errors import read_data_file
from .findings import DEFAULT_DEPTH, ComponentFinding
from .manifest import ManifestModel, is_exported, is_protected

DEFAULT_APIS = Path(__file__).parent / "data" / "sensitive_apis.txt"

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


def class_to_descriptor(class_name: str) -> str:
    return "L" + class_name.replace(".", "/") + ";"


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

    for comp in man.components:
        if not is_exported(comp, man.target_sdk) or is_protected(comp):
            continue
        desc = class_to_descriptor(comp.class_name)
        roots = _component_roots(code, desc)
        if not roots:
            warnings.append(f"declared component class absent from code: {comp.class_name}")
            continue

        # direct invokes inside the component's own methods
        direct_apis: set[str] = set()
        for root in sorted(roots):
            meth = code.method(root)
            for ins in meth.instructions:
                if ins.ref_kind != "method" or ins.resolved_ref is None:
                    continue
                label = apis.match(ins.resolved_ref)
                if label is None:
                    continue
                label, conf = _refine_query(ins.resolved_ref, label, meth)
                key = (desc, ins.resolved_ref, root)
                findings.setdefault(
                    key,
                    ComponentFinding(
                        component_class=desc,
                        kind=comp.kind,
                        sensitive_api=ins.resolved_ref,
                        containing_method=root,
                        path=(root,),
                        data_kind=label,
                        confidence=conf,
                    ),
                )
                direct_apis.add(ins.resolved_ref)

        # call-graph search for APIs not hit directly
        if labels is None:
            labels = {node: label for node in g.nodes() if (label := apis.match(node)) is not None}
        targets = {node: label for node, label in labels.items() if node not in direct_apis}
        if targets:
            for root, target, path in reachable_hits(g, roots, set(targets), depth):
                containing = path[-1]
                meth = code.method(containing)
                label, conf = _refine_query(target, targets[target], meth)
                key = (desc, target, containing)
                findings.setdefault(
                    key,
                    ComponentFinding(
                        component_class=desc,
                        kind=comp.kind,
                        sensitive_api=target,
                        containing_method=containing,
                        path=tuple(path),
                        data_kind=label,
                        confidence=conf,
                    ),
                )
    return sorted(findings.values(), key=ComponentFinding.sort_key), warnings


def _component_roots(code: CodeModel, desc: str) -> set[str]:
    """Concrete methods of the component class and its inner classes."""
    inner_prefix = desc[:-1] + "$"
    roots: set[str] = set()
    for cls_desc, cls in code.classes.items():
        if cls_desc == desc or cls_desc.startswith(inner_prefix):
            for m in cls.methods:
                if m.is_concrete:
                    roots.add(m.key)
    return roots


def _refine_query(api_key: str, label: str, meth) -> tuple[str, str]:
    """ContentResolver.query alone is only medium confidence; a sensitive
    content URI in the same method pins the data kind and raises it."""
    cls, name, _params, _ret = parse_method_key(api_key)
    if cls != "Landroid/content/ContentResolver;" or name != "query":
        return label, "high"
    if meth is not None:
        for ins in meth.instructions:
            if ins.ref_kind == "string" and ins.resolved_ref:
                for uri, uri_label in SENSITIVE_URIS.items():
                    if ins.resolved_ref.startswith(uri):
                        return uri_label, "high"
    return label, "medium"
