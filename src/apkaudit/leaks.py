"""Source-to-sink taint leak detection.

Taint is tracked per named register slot, as a set of tokens: a
``SrcToken``, or the int index of the parameter the value came from.  The
second register of a wide value is not modeled separately.

Each method gets one ``Summary`` (FlowDroid-style): the tokens that reach
its return value, the parameters that reach a sink inside it and the
parameters it stores into fields.  The transfer functions (``_analyze``)
walk a method's linear instruction stream once, forward, each instruction's
register effect looked up by opcode in ``dex.opcodes.EFFECTS``.  A call
(``_invoke``) applies its callee's summary, within the depth bound; a callee
with no summary (opaque, or a call with no target) passes its arguments to
the result, and the empty summary is always the one ``_NO_SUMMARY``.  An
invoke with a target also taints its receiver with its other arguments
(builder-style writes).  A global, flow-insensitive field store links
writes and reads of the same field key.

Summaries are computed callees first, and cycles are cut by repeating that
sweep up to a bounded number of times.  Each sweep analyses only the dirty
methods: every method is dirty at the start, and a method turns dirty again
when its inputs change, that is, the summary of a method it calls or the
field store bucket of a field it reads.  The call sites and field reads of
each method come from the call graph's code index (``CallGraph.index``),
and each call target is matched against the source/sink list once per app.
The findings of each method's last analysis are kept; only if the sweep
bound stops the sweep are the methods still dirty that can reach a sink
(those that call a sink or a method whose summary reaches one) analysed
again, against the final summaries and field store.  Of the witnesses of
one flow (source, sink and their sites) the least by (length, path) is
reported, so the report does not depend on set iteration order.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .callgraph import CallGraph
from .dex import (OFFSET, OPCODE, REF, REGISTERS, CodeModel, DexMethod, KeyMatcher,
                  class_to_descriptor, format_method_key)
from .dex.opcodes import (APUT, CLEAR, COPY, EFFECTS, FIELD_GET, FIELD_PUT, FILLED, INVOKE,
                          INVOKE_STATIC, JOIN2, JOIN3, MOVE_RESULT, RETURN)
from .errors import ApkAuditError, read_data_file
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
        raise ApkAuditError(f"{p}: no sources or sinks parsed", "data.taint_spec")
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
    ret: frozenset = frozenset()  # parameter indices and SrcTokens that reach the return value
    sink_hits: frozenset[SinkHit] = frozenset()
    param_fields: frozenset[tuple[int, str]] = frozenset()  # (parameter index, field key)


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
        # depth 0 reads no callee summary
        self.callee_summaries = self.summaries if depth >= 1 else {}
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
        return (self.matches[target][0] is not None
                or bool(self.callee_summaries.get(target, _NO_SUMMARY).sink_hits))

    def _analyze(self, m: DexMethod):
        key = m.key
        base = m.registers - m.ins
        if len(_PARAM_TAINT) < m.ins:
            _PARAM_TAINT.extend(frozenset({i}) for i in range(len(_PARAM_TAINT), m.ins))
        regs: dict[int, frozenset] = dict(zip(range(base, base + m.ins), _PARAM_TAINT))
        get = regs.get

        pending = _EMPTY
        ret: set = set()
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
                pending = self._invoke(key, ins, get, sink_hits, param_fields, field_writes, findings)
                # builder-style writes: a tainted argument taints the receiver;
                # a call with no target (invoke-custom, an out-of-range ref) has none
                if kind == INVOKE and len(r) > 1 and ins[REF] is not None:
                    extra = _EMPTY.union(*[get(x, _EMPTY) for x in r[1:]])
                    if extra:
                        regs[r[0]] = get(r[0], _EMPTY) | extra
            elif kind == CLEAR:
                regs[r[0]] = _EMPTY
            elif kind == RETURN:
                ret.update(get(r[0], _EMPTY))
            elif kind == FIELD_GET:
                fk = ins[REF]
                # a read extends each stored token's path to this method once
                regs[r[0]] = frozenset(
                    t if t.path[-1] == key else t._replace(path=t.path + (key,))
                    for t in (self.field_store.get(fk, ()) if fk else ())
                )
            elif kind == FIELD_PUT:
                fk = ins[REF]
                if fk:
                    _store(get(r[0], _EMPTY), fk, param_fields, field_writes)
            elif kind == APUT:
                regs[r[1]] = get(r[1], _EMPTY) | get(r[0], _EMPTY)
            elif kind == JOIN2:
                regs[r[0]] = get(r[0], _EMPTY) | get(r[1], _EMPTY)
            elif kind == JOIN3:
                regs[r[0]] = get(r[1], _EMPTY) | get(r[2], _EMPTY)
            elif kind == FILLED:
                pending = _EMPTY.union(*[get(x, _EMPTY) for x in r])

        if not (ret or sink_hits or param_fields):
            return _NO_SUMMARY, field_writes, findings
        return Summary(frozenset(ret), frozenset(sink_hits), frozenset(param_fields)), field_writes, findings

    def _invoke(self, key, ins, get, sink_hits, param_fields, field_writes, findings):
        """The taint of a call's result: the callee's summary applied to the
        arguments, where a callee with no summary (opaque, or no target at
        all) passes them all on, and a new token if the target is a source.
        A sink target records the arguments' taint as findings and sink hits."""
        target = ins[REF]
        channel, label = self.matches.get(target, (None, None))
        summary = self.callee_summaries.get(target)
        result = _EMPTY
        if channel is not None or summary is not _NO_SUMMARY:  # else no argument is read
            arg_tokens = [get(x, _EMPTY) for x in ins[REGISTERS]]
            if channel is not None:
                for tokens in arg_tokens:
                    for t in tokens:
                        if isinstance(t, SrcToken):
                            findings.append(LeakFinding(t.source, target, channel, t.site,
                                                        (key, ins[OFFSET]), t.path, t.label))
                        else:
                            sink_hits.add(SinkHit(t, target, channel, (key, ins[OFFSET]), (key,)))
            if summary is None:
                result = _EMPTY.union(*arg_tokens)
            elif summary is not _NO_SUMMARY:
                for hit in summary.sink_hits:
                    suffix = (key,) + hit.suffix
                    if len(suffix) - 1 > self.depth or hit.param >= len(arg_tokens):
                        continue
                    for t in arg_tokens[hit.param]:
                        if isinstance(t, int):
                            sink_hits.add(hit._replace(param=t, suffix=suffix))
                        elif len(t.path) + len(hit.suffix) - 1 <= self.depth:
                            findings.append(LeakFinding(t.source, hit.sink, hit.channel, t.site,
                                                        hit.site, t.path + hit.suffix, t.label))
                ret: set = set()
                for t in summary.ret:
                    if isinstance(t, int):
                        if t < len(arg_tokens):
                            ret |= arg_tokens[t]
                    elif len(t.path) <= self.depth:
                        ret.add(t._replace(path=t.path + (key,)))
                result = frozenset(ret)
                for i, fk in summary.param_fields:
                    if i < len(arg_tokens):
                        _store(arg_tokens[i], fk, param_fields, field_writes)
        if label is not None:
            result = result | {SrcToken(target, label, (key, ins[OFFSET]), (key,))}
        return result


def _store(tokens, fk: str, param_fields: set, field_writes: dict) -> None:
    """Store tokens into field ``fk``: a parameter index becomes a summary
    fact, a source token goes to the method's field writes."""
    for t in tokens:
        if isinstance(t, int):
            param_fields.add((t, fk))
        else:
            field_writes.setdefault(fk, set()).add(t)
