"""Application call graph built with class-hierarchy analysis (CHA), and
the per-app code index that every analyser reads.

A method is its key, ``Lcls;->name(params)ret``.  Static/direct invokes
resolve exactly by key.  Virtual and interface invokes resolve against the
declared class plus every in-app subtype, walking up superclass chains for
inherited implementations: each class on a chain is one key lookup, its
descriptor followed by the ref's text from ``->``.  Anything that cannot be
resolved inside the code model becomes an external node with no outgoing
edges.

``build_callgraph`` walks each method's instructions once.  ``index`` maps
every ``DexMethod`` (abstract ones with a code item included) to a tuple
``(sites, strings, reads)``: its call sites ``(offset, ref, targets)`` in
order, the CHA targets resolved once per ``(opcode, ref)``; its distinct
const-strings in first-use order; the distinct fields it reads.
``adjacency`` maps each concrete caller to the sorted tuple of its callees.
The index holds only tuples, which the cycle collector stops tracking.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .dex import OFFSET, OPCODE, REF, CodeModel, DexMethod
from .dex.opcodes import CONST_STRINGS, EXACT_INVOKES, FIELD_READS, INVOKES, SUPER_INVOKES

REFLECTIVE_NODE = "<reflective-call>"
# keys of Method.invoke and Constructor.newInstance, whatever their proto
_REFLECTIVE_CALLS = tuple(
    f"Ljava/lang/reflect/{cls};->{name}("
    for cls in ("Method", "Constructor") for name in ("invoke", "newInstance")
)
_NO_CODE = ((), (), ())


class CallGraph(NamedTuple):
    adjacency: dict[str, tuple[str, ...]]
    index: dict[DexMethod, tuple[tuple, tuple[str, ...], tuple[str, ...]]]

    def callees(self, key: str) -> tuple[str, ...]:
        return self.adjacency.get(key, ())

    def nodes(self) -> set[str]:
        """The concrete methods and every call target."""
        return {m.key for m in self.index if m.is_concrete}.union(*self.adjacency.values())

    @property
    def edges(self) -> set[tuple[str, str, int]]:
        """(caller, callee, call-site offset) triples, computed from the index."""
        return {
            (m.key, target, offset)
            for m, (sites, _, _) in self.index.items() if m.is_concrete
            for offset, _, targets in sites for target in targets
        }


def build_callgraph(m: CodeModel) -> CallGraph:
    adjacency: dict[str, tuple[str, ...]] = {}
    index: dict[DexMethod, tuple] = {}
    # subtype map over in-app classes (superclass and interface edges)
    subclasses: dict[str, set[str]] = {}
    for cls in m.classes.values():
        for parent in (cls.superclass, *cls.interfaces):
            if parent:
                subclasses.setdefault(parent, set()).add(cls.descriptor)

    # the targets of one (opcode, ref) pair are the same at every call site
    resolved: dict[tuple[int, str], tuple[str, ...]] = {}
    for cls in m.classes.values():
        for meth in cls.methods:
            sites, strings, reads = [], {}, {}  # the dicts keep the first use of each key
            for ins in meth.instructions:
                ref = ins[REF]
                if ref is None:
                    continue
                opcode = ins[OPCODE]
                if opcode in INVOKES:
                    site = (opcode, ref)
                    targets = resolved.get(site)
                    if targets is None:
                        targets = resolved[site] = _resolve(m, subclasses, *site)
                    sites.append((ins[OFFSET], ref, targets))
                elif opcode in CONST_STRINGS:
                    strings[ref] = None
                elif opcode in FIELD_READS:
                    reads[ref] = None
            if not (sites or strings or reads):
                index[meth] = _NO_CODE
                continue
            index[meth] = (tuple(sites), tuple(strings), tuple(reads))
            if sites and meth.is_concrete:
                adjacency[meth.key] = tuple(sorted({t for _, _, ts in sites for t in ts}))
    return CallGraph(adjacency, index)


def _resolve(m: CodeModel, subclasses: dict[str, set[str]], opcode: int,
             ref: str) -> tuple[str, ...]:
    if ref.startswith(_REFLECTIVE_CALLS):
        return (REFLECTIVE_NODE,)
    if opcode in EXACT_INVOKES:
        return (ref,)  # exact key; becomes an external node if undefined
    cls, arrow, name_proto = ref.partition("->")
    sig = arrow + name_proto
    if opcode in SUPER_INVOKES:
        impl = _lookup_up(m, m.classes.get(cls) and m.classes[cls].superclass, sig)
        return (impl or ref,)
    # virtual / interface: CHA over declared type and all in-app subtypes
    targets = {impl for sub in _subtypes(subclasses, cls) if (impl := _lookup_up(m, sub, sig))}
    return tuple(sorted(targets)) if targets else (ref,)


def _subtypes(subclasses: dict[str, set[str]], cls: str) -> set[str]:
    seen = {cls}
    work = [cls]
    while work:
        c = work.pop()
        for sub in subclasses.get(c, ()):
            if sub not in seen:
                seen.add(sub)
                work.append(sub)
    return seen


def _lookup_up(m: CodeModel, cls: str | None, sig: str) -> str | None:
    """Walk the superclass chain inside the code model for a concrete impl of
    ``sig`` (``->name(params)ret``): the first class defining ``cls + sig``
    decides, and an abstract or native definition there gives ``None``."""
    while cls is not None:
        dc = m.classes.get(cls)
        if dc is None:
            return None
        meth = m.method(cls + sig)
        if meth is not None:
            return meth.key if meth.is_concrete else None
        cls = dc.superclass
    return None


def reachable_hits(
    g: CallGraph, roots: set[str], targets: set[str], depth: int
) -> list[tuple[str, str, list[str]]]:
    """BFS from each root; a hit at hop h means the h-th method on the path
    directly invokes a target.  Returns one shortest witness path per
    (root, target), sorted lexicographically.  Only ``adjacency`` keys are
    walked: a method without call sites has no callees.
    """
    hits: dict[tuple[str, str], list[str]] = {}
    for root in sorted(roots):
        if root not in g.adjacency:
            continue
        queue: deque[tuple[str, list[str]]] = deque([(root, [root])])
        visited = {root}
        while queue:
            current, path = queue.popleft()
            hops = len(path) - 1
            callees = g.callees(current)
            for callee in callees:
                if callee in targets:
                    hits.setdefault((root, callee), path)
            if hops < depth:
                for callee in callees:
                    if callee in g.adjacency and callee not in visited:
                        visited.add(callee)
                        queue.append((callee, path + [callee]))
    return sorted((r, t, p) for (r, t), p in hits.items())
