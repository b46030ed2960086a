"""Application call graph built with class-hierarchy analysis.

Static/direct invokes resolve exactly by method key.  Virtual and interface
invokes resolve against the declared class plus every in-app subtype,
walking up superclass chains for inherited implementations.  Anything that
cannot be resolved inside the code model becomes an external node with no
outgoing edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .dex import MNEMONIC, OFFSET, REF, REF_KIND, CodeModel, parse_method_key

REFLECTIVE_NODE = "<reflective-call>"
_REFLECT_CLASSES = ("Ljava/lang/reflect/Method;", "Ljava/lang/reflect/Constructor;")


@dataclass
class CallGraph:
    internal: set[str] = field(default_factory=set)
    external: set[str] = field(default_factory=set)
    edges: set[tuple[str, str, int]] = field(default_factory=set)  # (caller, callee, site)
    subclasses: dict[str, set[str]] = field(default_factory=dict)
    adjacency: dict[str, set[str]] = field(default_factory=dict)

    def add_edge(self, caller: str, callee: str, site: int) -> None:
        self.edges.add((caller, callee, site))
        self.adjacency.setdefault(caller, set()).add(callee)

    def callees(self, key: str) -> set[str]:
        return self.adjacency.get(key, set())

    def nodes(self) -> set[str]:
        return self.internal | self.external


def build_callgraph(m: CodeModel) -> CallGraph:
    g = CallGraph()
    for meth in m.all_methods():
        if meth.is_concrete:
            g.internal.add(meth.key)

    # subtype map over in-app classes (superclass and interface edges)
    for cls in m.classes.values():
        for parent in (cls.superclass, *cls.interfaces):
            if parent:
                g.subclasses.setdefault(parent, set()).add(cls.descriptor)

    # the targets of one (mnemonic, ref) pair are the same at every call site
    resolved: dict[tuple[str, str], list[str]] = {}
    for cls in m.classes.values():
        for meth in cls.methods:
            if not meth.is_concrete:
                continue
            for ins in meth.instructions:
                if ins[REF_KIND] != "method" or ins[REF] is None:
                    continue
                site = (ins[MNEMONIC], ins[REF])
                targets = resolved.get(site)
                if targets is None:
                    targets = resolved[site] = _resolve(m, g, *site)
                for target in targets:
                    if target not in g.internal:
                        g.external.add(target)
                    g.add_edge(meth.key, target, ins[OFFSET])
    return g


def _resolve(m: CodeModel, g: CallGraph, mnemonic: str, ref: str) -> list[str]:
    cls, name, params, ret = parse_method_key(ref)
    if cls in _REFLECT_CLASSES and name in ("invoke", "newInstance"):
        return [REFLECTIVE_NODE]
    if "static" in mnemonic or "direct" in mnemonic:
        return [ref]  # exact key; becomes an external node if undefined
    if "super" in mnemonic:
        impl = _lookup_up(m, m.classes.get(cls) and m.classes[cls].superclass, name, params, ret)
        return [impl] if impl else [ref]
    # virtual / interface: CHA over declared type and all in-app subtypes
    targets: set[str] = set()
    for sub in _subtypes(g, cls):
        if sub in m.classes:
            impl = _lookup_up(m, sub, name, params, ret)
            if impl:
                targets.add(impl)
    if not targets:
        return [ref]
    return sorted(targets)


def _subtypes(g: CallGraph, cls: str) -> set[str]:
    seen = {cls}
    work = [cls]
    while work:
        c = work.pop()
        for sub in g.subclasses.get(c, ()):
            if sub not in seen:
                seen.add(sub)
                work.append(sub)
    return seen


def _lookup_up(m: CodeModel, cls: str | None, name: str, params, ret: str) -> str | None:
    """Walk the superclass chain inside the code model for a concrete impl."""
    while cls is not None:
        dc = m.classes.get(cls)
        if dc is None:
            return None
        for meth in dc.methods:
            if meth.name == name and meth.params == tuple(params) and meth.return_type == ret:
                return meth.key if meth.is_concrete else None
        cls = dc.superclass
    return None


def reachable_hits(
    g: CallGraph, roots: set[str], targets: set[str], depth: int
) -> list[tuple[str, str, list[str]]]:
    """BFS from each root; a hit at hop h means the h-th method on the path
    directly invokes a target.  Returns one shortest witness path per
    (root, target), sorted lexicographically.
    """
    hits: dict[tuple[str, str], list[str]] = {}
    for root in sorted(roots):
        if root not in g.internal:
            continue
        queue: deque[tuple[str, list[str]]] = deque([(root, [root])])
        visited = {root}
        while queue:
            current, path = queue.popleft()
            hops = len(path) - 1
            for callee in sorted(g.callees(current)):
                if callee in targets:
                    hits.setdefault((root, callee), path)
            if hops < depth:
                for callee in sorted(g.callees(current)):
                    if callee in g.internal and callee not in visited:
                        visited.add(callee)
                        queue.append((callee, path + [callee]))
    return sorted((r, t, p) for (r, t), p in hits.items())
