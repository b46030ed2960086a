"""Source-to-sink taint leak detection.

Phase 1 is a forward, flow-sensitive register taint per method over the
linear instruction stream.  A global, flow-insensitive field store links
writes and reads of the same field key.  Phase 2 is depth-bounded and
summary-based: each method summary records which parameter slots taint the
return value and which reach a sink inside, and callers apply summaries at
call sites.  Summaries are computed callees first, and cycles are cut by
repeating that sweep up to a bounded number of times.  After the first
sweep a method is re-analysed only when its inputs changed: the summary of
a method it calls, or the field store bucket of a field it reads.  Each call
target is matched against the source/sink list once per app.  A last pass
collects the findings; it covers only methods that can reach a sink, that
is, those that call a sink or a method whose summary reaches one.

Taint is tracked per named register slot; the second register of a wide
value is not modeled separately.  Any invoke with a tainted argument taints
the receiver register (builder-style writes) and, for calls we cannot see
into, the result.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .callgraph import CallGraph
from .dex import CodeModel, DexMethod, KeyMatcher
from .errors import TaintSpecError, read_data_file
from .findings import DEFAULT_DEPTH, LeakFinding
from .manifest import ManifestModel

log = logging.getLogger(__name__)

DEFAULT_SPEC = Path(__file__).parent / "data" / "sources_sinks.txt"
SUMMARY_ITERATIONS = 3

CHANNELS = {"network", "sms", "log", "shared_prefs", "intent", "file", "exec"}

INTERNET_PERMISSION = "android.permission.INTERNET"

_PRIMITIVES = {
    "void": "V", "boolean": "Z", "byte": "B", "short": "S", "char": "C",
    "int": "I", "long": "J", "float": "F", "double": "D",
}


@dataclass
class TaintSpec:
    """Source and sink lists, compiled into matchers when the spec is built;
    derive a new spec (``union``) rather than editing the lists."""

    sources: list[tuple[str, str, str]] = field(default_factory=list)  # (pattern, label, origin)
    sinks: list[tuple[str, str, str]] = field(default_factory=list)  # (pattern, channel, origin)
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        self._sources = KeyMatcher((p, label) for p, label, _origin in self.sources)
        self._sinks = KeyMatcher((p, channel) for p, channel, _origin in self.sinks)

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


def load_taint_spec(path=None, origin: str | None = None) -> TaintSpec:
    """Parse a source/sink list; the embedded default when path is omitted."""
    if path is None:
        p = DEFAULT_SPEC
        origin = origin or "default"
    else:
        p = Path(path)
        origin = origin or "supplementary"
    sources, sinks, warnings = [], [], []
    for lineno, line in enumerate(read_data_file(p).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            pattern, role, tag = _parse_spec_line(line)
        except ValueError as exc:
            warnings.append(f"{p.name}:{lineno}: {exc}")
            log.warning("%s:%d: unparseable line: %s", p.name, lineno, exc)
            continue
        if role == "_SOURCE_":
            sources.append((pattern, tag or "sensitive", origin))
        else:
            sinks.append((pattern, tag or "network", origin))
    if not sources and not sinks:
        raise TaintSpecError(f"{p}: no sources or sinks parsed")
    return TaintSpec(sources, sinks, warnings)


def _parse_spec_line(line: str) -> tuple[str, str, str | None]:
    lhs, sep, rhs = line.partition("->")
    if lhs.strip().startswith("L"):
        # canonical key form; the arrow inside the key is part of it, so the
        # role separator is the *last* '->'
        lhs, sep, rhs = line.rpartition("->")
        lhs = lhs.strip()
    else:
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
    cls = cls.strip()
    sig = sig.strip()
    ret_type, _, rest = sig.partition(" ")
    name, _, args = rest.partition("(")
    args = args.rstrip(")")
    params = [a.strip() for a in args.split(",") if a.strip()]
    return (
        _java_to_descriptor(cls)
        + "->"
        + name.strip()
        + "("
        + "".join(_java_to_descriptor(a) for a in params)
        + ")"
        + _java_to_descriptor(ret_type)
    )


def _java_to_descriptor(t: str) -> str:
    dims = 0
    while t.endswith("[]"):
        t = t[:-2]
        dims += 1
    base = _PRIMITIVES.get(t) or ("L" + t.replace(".", "/") + ";")
    return "[" * dims + base


def augment_for_internet(spec: TaintSpec, man: ManifestModel, extra: TaintSpec | None) -> TaintSpec:
    """Supplementary sinks only apply to apps holding the INTERNET permission."""
    if extra is None or INTERNET_PERMISSION not in man.uses_permissions:
        return spec
    return spec.union(extra)


class SrcToken(NamedTuple):
    source: str  # matched method key
    label: str
    site: tuple[str, int]  # (method key, instruction offset)
    path: tuple[str, ...]  # flow witness, ends at the holding method


class ParamToken(NamedTuple):
    index: int


class SinkHit(NamedTuple):
    param: int
    sink: str
    channel: str
    site: tuple[str, int]
    suffix: tuple[str, ...]  # methods from this summary's owner down to the sink


@dataclass
class Summary:
    ret_params: frozenset[int] = frozenset()
    ret_sources: frozenset[SrcToken] = frozenset()
    sink_hits: frozenset[SinkHit] = frozenset()
    param_fields: tuple[tuple[int, str], ...] = ()


def analyze_leaks(
    code: CodeModel, g: CallGraph, spec: TaintSpec, depth: int = DEFAULT_DEPTH
) -> list[LeakFinding]:
    return _Engine(code, g, spec, depth).run()


class _Engine:
    def __init__(self, code: CodeModel, g: CallGraph, spec: TaintSpec, depth: int):
        self.code = code
        self.g = g
        self.spec = spec
        self.depth = depth
        self.summaries: dict[str, Summary] = {}
        self.field_store: dict[str, set[SrcToken]] = {}
        # filled once per app by _prepare
        self.kinds: dict[str, bytes] = {}  # method key -> effect kind of each instruction
        self.matches: dict[str, tuple[str | None, str | None]] = {}  # target -> (channel, label)

    def run(self) -> list[LeakFinding]:
        methods = [m for m in self.code.all_methods() if m.is_concrete]
        order = self._bottom_up_order(methods)
        inputs = {m.key: self._prepare(m) for m in order}

        # _analyze is a pure function of a method's callee summaries and read
        # field buckets, so a method none of whose inputs changed since it was
        # last analysed would repeat its summary and field writes: skip it
        tick = 0
        summary_tick: dict[str, int] = {}
        field_tick: dict[str, int] = {}
        analysed_at: dict[str, int] = {}
        for sweep in range(SUMMARY_ITERATIONS):
            changed = False
            for m in order:
                if sweep:
                    at = analysed_at[m.key]
                    targets, reads = inputs[m.key]
                    if not (
                        any(summary_tick.get(t, 0) > at for t in targets)
                        or any(field_tick.get(fk, 0) > at for fk in reads)
                    ):
                        continue
                analysed_at[m.key] = tick
                summary, field_writes, _ = self._analyze(m, symbolic=True)
                if self.summaries.get(m.key) != summary:
                    self.summaries[m.key] = summary
                    tick += 1
                    summary_tick[m.key] = tick
                    changed = True
                for fk, tokens in field_writes.items():
                    bucket = self.field_store.setdefault(fk, set())
                    if not tokens <= bucket:
                        bucket.update(tokens)
                        tick += 1
                        field_tick[fk] = tick
                        changed = True
            if not changed:
                break

        # only a call to a sink, or to a callee whose summary reaches one, can
        # emit a finding; order is kept so the first witness per key is too
        findings: dict[tuple, LeakFinding] = {}
        for m in order:
            if not any(self._reaches_sink(t) for t in inputs[m.key][0]):
                continue
            _, _, found = self._analyze(m, symbolic=False)
            for f in found:
                findings.setdefault((f.source, f.sink, f.source_site, f.sink_site), f)
        return sorted(findings.values(), key=LeakFinding.sort_key)

    def _bottom_up_order(self, methods: list[DexMethod]) -> list[DexMethod]:
        """Callees before callers (DFS postorder; cycles broken arbitrarily)."""
        index = {m.key: m for m in methods}
        seen: set[str] = set()
        order: list[DexMethod] = []

        def visit(key: str) -> None:
            seen.add(key)
            for callee in sorted(self.g.callees(key)):
                if callee in index and callee not in seen:
                    visit(callee)
            order.append(index[key])

        for key in sorted(index):
            if key not in seen:
                visit(key)
        return order

    def _prepare(self, m: DexMethod) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Record the effect kind of each of m's instructions, and match each
        new invoke target against the spec; returns m's distinct invoke
        targets and the field keys it reads."""
        kinds = bytearray(len(m.instructions))
        targets: dict[str, None] = {}
        reads: dict[str, None] = {}
        for i, ins in enumerate(m.instructions):
            if ins.opaque:
                continue
            kind = _KINDS.get(ins.mnemonic)
            if kind is None:
                kind = _KINDS[ins.mnemonic] = _effect_kind(ins.mnemonic)
            if kind == _INVOKE or kind == _INVOKE_STATIC:
                target = ins.resolved_ref
                if not ins.is_invoke or target is None:
                    continue
                if target not in self.matches:
                    self.matches[target] = (
                        self.spec.match_sink(target), self.spec.match_source(target)
                    )
                targets[target] = None
            elif kind == _FIELD_GET and ins.resolved_ref:
                reads[ins.resolved_ref] = None
            kinds[i] = kind
        self.kinds[m.key] = bytes(kinds)
        return tuple(targets), tuple(reads)

    def _reaches_sink(self, target: str) -> bool:
        if self.matches[target][0] is not None:
            return True
        summary = self.summaries.get(target) if self.depth >= 1 else None
        return summary is not None and bool(summary.sink_hits)

    def _analyze(self, m: DexMethod, symbolic: bool):
        regs: dict[int, frozenset] = {}
        if symbolic:
            base = m.registers - m.ins
            for i in range(m.ins):
                regs[base + i] = frozenset({ParamToken(i)})

        empty: frozenset = frozenset()
        pending = empty
        ret_params: set[int] = set()
        ret_sources: set[SrcToken] = set()
        sink_hits: set[SinkHit] = set()
        param_fields: set[tuple[int, str]] = set()
        field_writes: dict[str, set[SrcToken]] = {}
        findings: list[LeakFinding] = []

        def get(r: int) -> frozenset:
            return regs.get(r, empty)

        for kind, ins in zip(self.kinds[m.key], m.instructions):
            r = ins.registers
            if kind == _COPY:
                regs[r[0]] = get(r[1])
            elif kind == _MOVE_RESULT:
                regs[r[0]] = pending
                pending = empty
            elif kind == _INVOKE or kind == _INVOKE_STATIC:
                pending = self._invoke(
                    m, ins, kind, regs, get, symbolic, sink_hits, param_fields, field_writes, findings
                )
            elif kind == _CLEAR:
                regs[r[0]] = empty
            elif kind == _RETURN:
                for t in get(r[0]):
                    if isinstance(t, ParamToken):
                        ret_params.add(t.index)
                    else:
                        ret_sources.add(t)
            elif kind == _FIELD_GET:
                fk = ins.resolved_ref
                stored = self.field_store.get(fk, set()) if fk else set()
                regs[r[0]] = frozenset(self._rebase(t, m.key) for t in stored)
            elif kind == _FIELD_PUT:
                fk = ins.resolved_ref
                if fk:
                    for t in get(r[0]):
                        if isinstance(t, ParamToken):
                            param_fields.add((t.index, fk))
                        else:
                            field_writes.setdefault(fk, set()).add(t)
            elif kind == _APUT:
                regs[r[1]] = get(r[1]) | get(r[0])
            elif kind == _JOIN2:
                regs[r[0]] = get(r[0]) | get(r[1])
            elif kind == _JOIN3:
                regs[r[0]] = get(r[1]) | get(r[2])
            elif kind == _FILLED:
                pending = empty.union(*(get(x) for x in r)) if r else empty

        summary = Summary(
            ret_params=frozenset(ret_params),
            ret_sources=frozenset(ret_sources),
            sink_hits=frozenset(sink_hits),
            param_fields=tuple(sorted(param_fields)),
        )
        return summary, field_writes, findings

    def _invoke(self, m, ins, kind, regs, get, symbolic, sink_hits, param_fields, field_writes, findings):
        target = ins.resolved_ref
        arg_tokens = [get(r) for r in ins.registers]
        all_tokens = frozenset().union(*arg_tokens) if arg_tokens else frozenset()
        result: set = set()
        channel, label = self.matches[target]

        if channel is not None:
            for i, tokens in enumerate(arg_tokens):
                for t in tokens:
                    if isinstance(t, SrcToken):
                        findings.append(self._finding(t, target, channel, (m.key, ins.offset), t.path))
                    elif symbolic:
                        sink_hits.add(
                            SinkHit(t.index, target, channel, (m.key, ins.offset), (m.key,))
                        )

        callee_summary = self.summaries.get(target) if self.depth >= 1 else None
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
                        elif symbolic:
                            sink_hits.add(replace_hit(hit, t.index, suffix))
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
                        if isinstance(t, ParamToken):
                            if symbolic:
                                param_fields.add((t.index, fk))
                        else:
                            field_writes.setdefault(fk, set()).add(t)
        elif all_tokens:
            # opaque callee: arguments may flow into the result
            result |= all_tokens

        if label is not None:
            result.add(SrcToken(source=target, label=label, site=(m.key, ins.offset), path=(m.key,)))

        # builder-style writes: a tainted argument taints the receiver
        if kind == _INVOKE and len(ins.registers) > 1:
            extra = frozenset().union(*arg_tokens[1:])
            if extra:
                recv = ins.registers[0]
                regs[recv] = get(recv) | extra

        return frozenset(result)

    def _finding(self, t: SrcToken, sink: str, channel: str, sink_site, path) -> LeakFinding:
        return LeakFinding(
            source=t.source,
            sink=sink,
            channel=channel,
            source_site=t.site,
            sink_site=sink_site,
            path=tuple(path),
            data_kind=t.label,
        )

    @staticmethod
    def _rebase(t: SrcToken, method_key: str) -> SrcToken:
        if t.path and t.path[-1] == method_key:
            return t
        return t._replace(path=t.path + (method_key,))


def replace_hit(hit: SinkHit, param: int, suffix: tuple[str, ...]) -> SinkHit:
    return SinkHit(param, hit.sink, hit.channel, hit.site, suffix)


# Effect kinds of an instruction on the register taint; _NONE (0) is also
# the kind of opaque instructions and of invokes without a resolved target.
(_NONE, _COPY, _MOVE_RESULT, _INVOKE, _INVOKE_STATIC, _CLEAR, _RETURN, _FIELD_GET,
 _FIELD_PUT, _APUT, _JOIN2, _JOIN3, _FILLED) = range(13)

# mnemonic -> effect kind; bounded by the opcode table, opaque instructions never enter
_KINDS: dict[str, int] = {}

_BINOP_ROOTS = ("add-", "sub-", "rsub-", "mul-", "div-", "rem-", "and-", "or-", "xor-", "shl-", "shr-", "ushr-")
_UNOP_ROOTS = ("neg-", "not-", "int-to-", "long-to-", "float-to-", "double-to-")


def _effect_kind(op: str) -> int:
    """The prefixes overlap (``move-result`` before ``move``), so the order of
    the tests decides."""
    if op.startswith("move-result"):
        return _MOVE_RESULT
    if op == "move-exception":
        return _CLEAR
    if op.startswith("move"):
        return _COPY
    if op.startswith("const") or op in ("new-instance", "new-array"):
        return _CLEAR
    if op.startswith("return"):
        return _NONE if op == "return-void" else _RETURN
    if op.startswith("aget"):
        return _COPY
    if op.startswith("aput"):
        return _APUT
    if op.startswith(("iget", "sget")):
        return _FIELD_GET
    if op.startswith(("iput", "sput")):
        return _FIELD_PUT
    if op.startswith("invoke-"):
        # static and custom calls have no receiver to taint
        return _INVOKE_STATIC if op.startswith(("invoke-static", "invoke-custom")) else _INVOKE
    if op in ("filled-new-array", "filled-new-array/range"):
        return _FILLED
    if op == "array-length":
        return _COPY
    if op == "instance-of":
        return _CLEAR
    if op.startswith(_BINOP_ROOTS):
        if op.endswith("/2addr"):
            return _JOIN2
        return _COPY if "lit" in op else _JOIN3
    if op.startswith("cmp"):
        return _JOIN3
    if op.startswith(_UNOP_ROOTS):
        return _COPY
    # branches, switches, throw, monitor, check-cast, nop: no register effect
    return _NONE
