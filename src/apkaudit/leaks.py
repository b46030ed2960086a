"""Source-to-sink taint leak detection.

Phase 1 is a forward, flow-sensitive register taint per method over the
linear instruction stream.  A global, flow-insensitive field store links
writes and reads of the same field key.  Phase 2 is depth-bounded and
summary-based: each method summary records which parameter slots taint the
return value and which reach a sink inside, and callers apply summaries at
call sites.  Summaries are computed callees first, and cycles are cut by
repeating that sweep up to a bounded number of times.  Each sweep analyses
only the dirty methods: every method is dirty at the start, and a method
turns dirty again when its inputs change, that is, the summary of a method
it calls or the field store bucket of a field it reads.  The call sites and
field reads of each method come from the call graph's code index
(``CallGraph.index``), and each call target is matched against the
source/sink list once per app; only the transfer functions (``_analyze``)
read the instructions, each one's register effect looked up by opcode in
``dex.opcodes.EFFECTS``.  The findings of each method's last analysis are
kept; only if the sweep bound stops the sweep are the methods still dirty
that can reach a sink (those that call a sink or a method whose summary
reaches one) analysed again, against the final summaries and field store.
Of the witnesses of one flow (source, sink and their sites) the least by
(length, path) is reported, so the report does not depend on set iteration
order.  A call to a target that is neither a source nor a sink takes a
short path when its callee is opaque (the result is the union of the
argument taint) or has the empty summary, always the one ``_NO_SUMMARY``
(the result is empty).

Taint is tracked per named register slot, as a set of tokens: a
``SrcToken``, or the int index of the parameter the value came from.  The
second register of a wide value is not modeled separately.  Any invoke
with a tainted argument taints the receiver register (builder-style
writes) and, for calls we cannot see into, the result.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .callgraph import CallGraph
from .dex import (OFFSET, OPCODE, REF, REGISTERS, CodeModel, DexMethod, KeyMatcher,
                  class_to_descriptor, format_method_key)
from .dex.opcodes import (APUT, CLEAR, COPY, EFFECTS, FIELD_GET, FIELD_PUT, FILLED, INVOKE,
                          INVOKE_STATIC, JOIN2, JOIN3, MOVE_RESULT, RETURN)
from .errors import TaintSpecError, read_data_file
from .findings import DEFAULT_DEPTH, LeakFinding

DEFAULT_SPEC = Path(__file__).parent / "data" / "sources_sinks.txt"
SUMMARY_ITERATIONS = 3

CHANNELS = {"network", "sms", "log", "shared_prefs", "intent", "file", "exec"}

INTERNET_PERMISSION = "android.permission.INTERNET"

_PRIMITIVES = {
    "void": "V", "boolean": "Z", "byte": "B", "short": "S", "char": "C",
    "int": "I", "long": "J", "float": "F", "double": "D",
}


class TaintSpec:
    """Source and sink lists, compiled into matchers when the spec is built;
    derive a new spec (``union``) rather than editing the lists."""

    __slots__ = ("sources", "sinks", "warnings", "_sources", "_sinks")

    def __init__(self, sources: list[tuple[str, str]], sinks: list[tuple[str, str]],
                 warnings: list[str]):
        self.sources = sources  # (pattern, label)
        self.sinks = sinks  # (pattern, channel)
        self.warnings = warnings
        self._sources = KeyMatcher(sources)
        self._sinks = KeyMatcher(sinks)

    def match_source(self, key: str) -> str | None:
        return self._sources.match(key)

    def match_sink(self, key: str) -> str | None:
        return self._sinks.match(key)

    def union(self, other: "TaintSpec") -> "TaintSpec":
        return TaintSpec(
            sources=self.sources + [s for s in other.sources if s not in self.sources],
            sinks=self.sinks + [s for s in other.sinks if s not in self.sinks],
            warnings=self.warnings + other.warnings,
        )


def load_taint_spec(path=None) -> TaintSpec:
    """Parse a source/sink list; the embedded default when path is omitted."""
    p = DEFAULT_SPEC if path is None else Path(path)
    sources, sinks, warnings = [], [], []
    for lineno, line in enumerate(read_data_file(p).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            pattern, role, tag = _parse_spec_line(line)
        except ValueError as exc:
            warnings.append(f"{p.name}:{lineno}: {exc}")
            continue
        if role == "_SOURCE_":
            sources.append((pattern, tag or "sensitive"))
        else:
            sinks.append((pattern, tag or "network"))
    if not sources and not sinks:
        raise TaintSpecError(f"{p}: no sources or sinks parsed")
    return TaintSpec(sources, sinks, warnings)


def _parse_spec_line(line: str) -> tuple[str, str, str | None]:
    # a canonical key holds an arrow of its own, so its role separator is the last '->'
    lhs, sep, rhs = (line.rpartition if line.lstrip().startswith("L") else line.partition)("->")
    lhs = lhs.strip()
    if not sep:
        raise ValueError("missing '->' separator")
    rhs = rhs.strip()
    role, _, tag = rhs.partition(":")
    role = role.strip()
    if role not in ("_SOURCE_", "_SINK_"):
        raise ValueError(f"bad role {role!r}")
    tag = tag.strip() or None
    if role == "_SINK_" and tag is not None and tag not in CHANNELS:
        raise ValueError(f"unknown channel {tag!r}")
    if lhs.startswith("<") and lhs.endswith(">"):
        return _susi_to_key(lhs[1:-1]), role, tag
    if lhs.startswith("L"):
        return lhs, role, tag
    raise ValueError(f"bad signature {lhs!r}")


def _susi_to_key(body: str) -> str:
    """``pkg.Cls: ret name(a,b)`` to ``Lpkg/Cls;->name(AB)R`` (canonical)."""
    cls, _, sig = body.partition(":")
    ret_type, _, rest = sig.strip().partition(" ")
    name, _, args = rest.partition("(")
    params = [_java_to_descriptor(a.strip()) for a in args.rstrip(")").split(",") if a.strip()]
    return format_method_key(_java_to_descriptor(cls.strip()), name.strip(), params,
                             _java_to_descriptor(ret_type))


def _java_to_descriptor(t: str) -> str:
    dims = 0
    while t.endswith("[]"):
        t = t[:-2]
        dims += 1
    base = _PRIMITIVES.get(t) or class_to_descriptor(t)
    return "[" * dims + base


class SrcToken(NamedTuple):
    source: str  # matched method key
    label: str
    site: tuple[str, int]  # (method key, instruction offset)
    path: tuple[str, ...]  # flow witness, ends at the holding method


class SinkHit(NamedTuple):
    param: int
    sink: str
    channel: str
    site: tuple[str, int]
    suffix: tuple[str, ...]  # methods from this summary's owner down to the sink


class Summary(NamedTuple):
    ret_params: frozenset[int] = frozenset()
    ret_sources: frozenset[SrcToken] = frozenset()
    sink_hits: frozenset[SinkHit] = frozenset()
    param_fields: tuple[tuple[int, str], ...] = ()


_EMPTY: frozenset = frozenset()
_NO_SUMMARY = Summary()  # the one empty summary: test it with ``is``
_PARAM_TAINT: list[frozenset] = []  # index -> frozenset({index}), grown on demand


def analyze_leaks(
    code: CodeModel, g: CallGraph, spec: TaintSpec, depth: int = DEFAULT_DEPTH
) -> list[LeakFinding]:
    return _Engine(code, g, spec, depth).run()


def _postorder(g: CallGraph, index: dict[str, DexMethod], seen: set[str],
               order: list[DexMethod], key: str) -> None:
    """Append the methods reachable from ``key`` to ``order``, callees first.
    A module-level function, not a closure: a closure that calls itself is a
    reference cycle, and analysis must leave none (``report.analyze_apk``
    runs with the cycle collector paused)."""
    seen.add(key)
    for callee in g.callees(key):
        if callee in index and callee not in seen:
            _postorder(g, index, seen, order, callee)
    order.append(index[key])


class _Engine:
    def __init__(self, code: CodeModel, g: CallGraph, spec: TaintSpec, depth: int):
        self.code = code
        self.g = g
        self.spec = spec
        self.depth = depth
        self.summaries: dict[str, Summary] = {}
        self.field_store: dict[str, set[SrcToken]] = {}
        self.matches: dict[str, tuple[str | None, str | None]] = {}  # target -> (channel, label)

    def run(self) -> list[LeakFinding]:
        methods = [m for m in self.code.all_methods() if m.is_concrete]
        order = self._bottom_up_order(methods)
        callers: dict[str, list[str]] = {}  # invoke target -> calling methods
        readers: dict[str, list[str]] = {}  # field key -> reading methods
        for m in order:
            sites, _, reads = self.g.index[m]
            for _, target, _ in sites:  # a repeated target only repeats a set update
                if target not in self.matches:
                    self.matches[target] = (
                        self.spec.match_sink(target), self.spec.match_source(target)
                    )
                callers.setdefault(target, []).append(m.key)
            for fk in reads:
                readers.setdefault(fk, []).append(m.key)

        # _analyze is a pure function of a method's callee summaries and read
        # field buckets, so a method is analysed again only when one of them
        # changed after its last analysis: the change marks it dirty.  For the
        # same reason the findings of a method's last analysis stand unless
        # it is still dirty when the sweep bound is reached.
        dirty = {m.key for m in order}
        found: dict[str, list[LeakFinding]] = {}  # method key -> findings, once it has any
        for _ in range(SUMMARY_ITERATIONS):
            if not dirty:
                break
            for m in order:
                if m.key not in dirty:
                    continue
                dirty.discard(m.key)
                summary, field_writes, emitted = self._analyze(m)
                if emitted or m.key in found:
                    found[m.key] = emitted
                if self.summaries.get(m.key) != summary:
                    self.summaries[m.key] = summary
                    dirty.update(callers.get(m.key, ()))
                for fk, tokens in field_writes.items():
                    bucket = self.field_store.setdefault(fk, set())
                    if not tokens <= bucket:
                        bucket.update(tokens)
                        dirty.update(readers.get(fk, ()))

        if dirty:
            # only a call to a sink, or to a callee whose summary reaches one,
            # can emit a finding: of the methods still dirty only those are
            # analysed again, against the final summaries and field store
            sinking = {key for t, keys in callers.items() if self._reaches_sink(t) for key in keys}
            for m in order:
                if m.key in dirty:
                    found[m.key] = self._analyze(m)[2] if m.key in sinking else []

        # of a flow's witnesses the least (length, path) is kept
        findings: dict[tuple, LeakFinding] = {}
        for emitted in found.values():
            for f in emitted:
                flow = (f.source, f.sink, f.source_site, f.sink_site)
                held = findings.get(flow)
                if held is None or (len(f.path), f.path) < (len(held.path), held.path):
                    findings[flow] = f
        return sorted(findings.values(), key=LeakFinding.sort_key)

    def _bottom_up_order(self, methods: list[DexMethod]) -> list[DexMethod]:
        """Callees before callers (DFS postorder; cycles broken arbitrarily)."""
        index = {m.key: m for m in methods}
        seen: set[str] = set()
        order: list[DexMethod] = []
        for key in sorted(index):
            if key not in seen:
                _postorder(self.g, index, seen, order, key)
        return order

    def _reaches_sink(self, target: str) -> bool:
        if self.matches[target][0] is not None:
            return True
        summary = self.summaries.get(target) if self.depth >= 1 else None
        return summary is not None and bool(summary.sink_hits)

    def _analyze(self, m: DexMethod):
        base = m.registers - m.ins
        if len(_PARAM_TAINT) < m.ins:
            _PARAM_TAINT.extend(frozenset({i}) for i in range(len(_PARAM_TAINT), m.ins))
        regs: dict[int, frozenset] = dict(zip(range(base, base + m.ins), _PARAM_TAINT))
        get = regs.get

        pending = _EMPTY
        ret_params: set[int] = set()
        ret_sources: set[SrcToken] = set()
        sink_hits: set[SinkHit] = set()
        param_fields: set[tuple[int, str]] = set()
        field_writes: dict[str, set[SrcToken]] = {}
        findings: list[LeakFinding] = []

        for ins in m.instructions:
            kind = EFFECTS[ins[OPCODE] & 0xFF]
            r = ins[REGISTERS]
            if kind == COPY:
                regs[r[0]] = get(r[1], _EMPTY)
            elif kind == MOVE_RESULT:
                regs[r[0]] = pending
                pending = _EMPTY
            elif kind == INVOKE or kind == INVOKE_STATIC:
                if ins[REF] is None:
                    # invoke-custom and out-of-range refs have no target: an
                    # opaque call, with no receiver write
                    pending = _EMPTY.union(*[get(x, _EMPTY) for x in r])
                else:
                    pending = self._invoke(
                        m, ins, kind, regs, sink_hits, param_fields, field_writes, findings
                    )
            elif kind == CLEAR:
                regs[r[0]] = _EMPTY
            elif kind == RETURN:
                for t in get(r[0], _EMPTY):
                    if isinstance(t, int):
                        ret_params.add(t)
                    else:
                        ret_sources.add(t)
            elif kind == FIELD_GET:
                fk = ins[REF]
                stored = self.field_store.get(fk, ()) if fk else ()
                regs[r[0]] = frozenset(self._rebase(t, m.key) for t in stored)
            elif kind == FIELD_PUT:
                fk = ins[REF]
                if fk:
                    for t in get(r[0], _EMPTY):
                        if isinstance(t, int):
                            param_fields.add((t, fk))
                        else:
                            field_writes.setdefault(fk, set()).add(t)
            elif kind == APUT:
                regs[r[1]] = get(r[1], _EMPTY) | get(r[0], _EMPTY)
            elif kind == JOIN2:
                regs[r[0]] = get(r[0], _EMPTY) | get(r[1], _EMPTY)
            elif kind == JOIN3:
                regs[r[0]] = get(r[1], _EMPTY) | get(r[2], _EMPTY)
            elif kind == FILLED:
                pending = _EMPTY.union(*[get(x, _EMPTY) for x in r])

        if not (ret_params or ret_sources or sink_hits or param_fields):
            return _NO_SUMMARY, field_writes, findings
        summary = Summary(
            ret_params=frozenset(ret_params),
            ret_sources=frozenset(ret_sources),
            sink_hits=frozenset(sink_hits),
            param_fields=tuple(sorted(param_fields)),
        )
        return summary, field_writes, findings

    def _invoke(self, m, ins, kind, regs, sink_hits, param_fields, field_writes, findings):
        target = ins[REF]
        channel, label = self.matches[target]
        callee_summary = self.summaries.get(target) if self.depth >= 1 else None
        get = regs.get
        r = ins[REGISTERS]
        if channel is None and label is None and (
            callee_summary is None or callee_summary is _NO_SUMMARY
        ):
            # a neutral call: an opaque callee passes its arguments to the
            # result, a callee with the empty summary gives nothing
            result = _EMPTY.union(*[get(x, _EMPTY) for x in r]) if callee_summary is None else _EMPTY
            if kind == INVOKE and len(r) > 1:
                extra = _EMPTY.union(*[get(x, _EMPTY) for x in r[1:]])
                if extra:
                    regs[r[0]] = get(r[0], _EMPTY) | extra
            return result

        arg_tokens = [get(x, _EMPTY) for x in r]
        result: set = set()

        if channel is not None:
            for tokens in arg_tokens:
                for t in tokens:
                    if isinstance(t, SrcToken):
                        findings.append(self._finding(t, target, channel, (m.key, ins[OFFSET]), t.path))
                    else:
                        sink_hits.add(SinkHit(t, target, channel, (m.key, ins[OFFSET]), (m.key,)))

        if callee_summary is not None:
            for hit in callee_summary.sink_hits:
                suffix = (m.key,) + hit.suffix
                if len(suffix) - 1 > self.depth:
                    continue
                if hit.param < len(arg_tokens):
                    for t in arg_tokens[hit.param]:
                        if isinstance(t, SrcToken):
                            full = t.path + hit.suffix
                            if len(full) - 1 <= self.depth:
                                findings.append(
                                    self._finding(t, hit.sink, hit.channel, hit.site, full)
                                )
                        else:
                            sink_hits.add(hit._replace(param=t, suffix=suffix))
            for i in callee_summary.ret_params:
                if i < len(arg_tokens):
                    result |= arg_tokens[i]
            for t in callee_summary.ret_sources:
                ext = t.path + (m.key,)
                if len(ext) - 1 <= self.depth:
                    result.add(t._replace(path=ext))
            for i, fk in callee_summary.param_fields:
                if i < len(arg_tokens):
                    for t in arg_tokens[i]:
                        if isinstance(t, int):
                            param_fields.add((t, fk))
                        else:
                            field_writes.setdefault(fk, set()).add(t)
        else:
            # opaque callee: arguments may flow into the result
            result.update(*arg_tokens)

        if label is not None:
            result.add(SrcToken(source=target, label=label, site=(m.key, ins[OFFSET]), path=(m.key,)))

        # builder-style writes: a tainted argument taints the receiver
        if kind == INVOKE and len(r) > 1:
            extra = _EMPTY.union(*arg_tokens[1:])
            if extra:
                regs[r[0]] = get(r[0], _EMPTY) | extra

        return frozenset(result)

    def _finding(self, t: SrcToken, sink: str, channel: str, sink_site, path) -> LeakFinding:
        return LeakFinding(t.source, sink, channel, t.site, sink_site, tuple(path), t.label)

    @staticmethod
    def _rebase(t: SrcToken, method_key: str) -> SrcToken:
        if t.path and t.path[-1] == method_key:
            return t
        return t._replace(path=t.path + (method_key,))

