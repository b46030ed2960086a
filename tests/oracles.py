"""Independent brute-force oracles for the analyzers.

These re-derive expected results with deliberately different mechanics:
the DEX decoder oracle reads each instruction with one ``struct`` layout
per encoding format and lets ``struct`` do the sign extension, the
call-graph oracle re-enumerates adjacency by scanning classes per
query, the behavior oracle is a flat grep-plus-gates pass, and the taint
oracle is an inlining interpreter (no summaries, no fixpoint over methods,
recursion realized by actual descent).
"""

from __future__ import annotations

import struct

from apkaudit.dex.model import CodeModel, parse_method_key
from apkaudit.dex.opcodes import OPCODES

REFLECTIVE = "<reflective-call>"
_REFLECT = ("Ljava/lang/reflect/Method;", "Ljava/lang/reflect/Constructor;")


# ---- DEX instruction decoder ---------------------------------------------

# Whole-instruction struct layout per encoding format.  Field 0 is the opcode
# byte; lower-case codes are signed; "x" skips a byte the format leaves unused.
_LAYOUT = {
    "10x": "<Bx", "12x": "<BB", "11n": "<BB", "11x": "<BB", "10t": "<Bb",
    "20t": "<Bxh", "22x": "<BBH", "21t": "<BBh", "21s": "<BBh", "21h": "<BBh",
    "21c": "<BBH", "23x": "<BBBB", "22b": "<BBBb", "22t": "<BBh", "22s": "<BBh",
    "22c": "<BBH", "30t": "<Bxi", "32x": "<BxHH", "31i": "<BBi", "31t": "<BBi",
    "31c": "<BBI", "35c": "<BBHH", "3rc": "<BBHH", "45cc": "<BBHHH", "4rcc": "<BBHHH",
    "51l": "<BBq",
}
_PAYLOAD_NAMES = {0x0100: "packed-switch-payload", 0x0200: "sparse-switch-payload",
                  0x0300: "fill-array-data-payload"}


def decode_body_oracle(body: bytes, size: int, pools: dict[str, list[str]]) -> list[tuple]:
    """Decode ``size`` code units at the start of ``body``.

    Returns one tuple per instruction, in ``Instruction`` field order:
    (offset, opcode, mnemonic, width, registers, ref_kind, resolved_ref,
    literal, branch_target, opaque).  ``pools`` maps each ref kind but
    "none" to its pool in index order.
    """
    out = []
    pos = 0
    while pos < size:
        (unit,) = struct.unpack_from("<H", body, 2 * pos)
        if unit & 0xFF == 0 and unit != 0:
            ins = _payload_oracle(body, pos, unit)
        else:
            name, fmt, ref = OPCODES[unit & 0xFF]
            f = struct.unpack_from(_LAYOUT[fmt], body, 2 * pos)
            regs, index, literal, target = _operands_oracle(fmt, f, pos)
            pool = pools.get(ref, [])
            resolved = pool[index] if index is not None and index < len(pool) else None
            width = struct.calcsize(_LAYOUT[fmt]) // 2
            ins = (pos, unit & 0xFF, name, width, regs, ref, resolved, literal, target,
                   name.startswith("unused-"))
        out.append(ins)
        pos += ins[3]
    return out


def _operands_oracle(fmt, f, pos):
    """(registers, pool index, literal, branch target) from unpacked fields."""
    lo, hi = (f[1] & 0xF, f[1] >> 4) if len(f) > 1 else (0, 0)
    if fmt == "10x":
        return (), None, None, None
    if fmt == "12x":
        return (lo, hi), None, None, None
    if fmt == "11n":
        return (lo,), None, hi - 16 if hi >= 8 else hi, None
    if fmt == "11x":
        return (f[1],), None, None, None
    if fmt in ("10t", "20t", "30t"):
        return (), None, None, pos + f[1]
    if fmt in ("22x", "32x"):
        return (f[1], f[2]), None, None, None
    if fmt in ("21t", "31t"):
        return (f[1],), None, None, pos + f[2]
    if fmt in ("21s", "21h", "31i", "51l"):
        return (f[1],), None, f[2], None
    if fmt in ("21c", "31c"):
        return (f[1],), f[2], None, None
    if fmt == "23x":
        return (f[1], f[2], f[3]), None, None, None
    if fmt == "22b":
        return (f[1], f[2]), None, f[3], None
    if fmt == "22t":
        return (lo, hi), None, None, pos + f[2]
    if fmt == "22s":
        return (lo, hi), None, f[2], None
    if fmt == "22c":
        return (lo, hi), f[2], None, None
    if fmt in ("35c", "45cc"):
        args = [(f[3] >> shift) & 0xF for shift in (0, 4, 8, 12)] + [lo]
        return tuple(args[:hi]), f[2], None, None
    if fmt in ("3rc", "4rcc"):
        return tuple(f[3] + k for k in range(f[1])), f[2], None, None
    raise AssertionError(fmt)


def _payload_oracle(body, pos, ident):
    if ident == 0x0300:
        _ident, elem, n = struct.unpack_from("<HHI", body, 2 * pos)
        width = 4 + (elem * n + 1) // 2
    elif ident in (0x0100, 0x0200):
        _ident, n = struct.unpack_from("<HH", body, 2 * pos)
        width = 4 + 2 * n if ident == 0x0100 else 2 + 4 * n
    else:
        width = 1
    name = _PAYLOAD_NAMES.get(ident, f"unknown-payload-{ident:04x}")
    return (pos, ident, name, width, (), "none", None, None, None, True)


def dump_body_oracle(key: str, decoded: list[tuple]) -> str:
    """``dump-dex`` listing of a method from oracle tuples."""
    lines = [key]
    for off, _op, name, _w, regs, ref, resolved, literal, target, _opaque in decoded:
        line = f"  {off:04x}: {name}"
        if regs:
            line += " " + ", ".join(f"v{r}" for r in regs)
        if resolved is not None:
            line += f" {resolved!r}" if ref == "string" else f" {resolved}"
        if literal is not None:
            line += f" #{literal}"
        if target is not None:
            line += f" -> {target:04x}"
        lines.append(line)
    return "\n".join(lines) + "\n"


# ---- call graph ----------------------------------------------------------


def callgraph_edges_oracle(m: CodeModel) -> set[tuple[str, str, int]]:
    """Expected (caller, callee, site) set by per-query brute force."""
    edges = set()
    internal = {meth.key for meth in m.all_methods() if meth.is_concrete}
    for cls in m.classes.values():
        for meth in cls.methods:
            if not meth.is_concrete:
                continue
            for ins in meth.instructions:
                if ins.ref_kind != "method" or not ins.mnemonic.startswith("invoke-") or ins.resolved_ref is None:
                    continue
                for tgt in _oracle_resolve(m, internal, ins.mnemonic, ins.resolved_ref):
                    edges.add((meth.key, tgt, ins.offset))
    return edges


def _oracle_resolve(m, internal, mnemonic, ref):
    cls, name, params, ret = parse_method_key(ref)
    if cls in _REFLECT and name in ("invoke", "newInstance"):
        return [REFLECTIVE]
    if "static" in mnemonic or "direct" in mnemonic:
        return [ref]
    if "super" in mnemonic:
        parent = m.classes[cls].superclass if cls in m.classes else None
        impl = _chain_lookup(m, parent, name, params, ret)
        return [impl] if impl else [ref]
    out = set()
    for sub in _all_subtypes(m, cls):
        if sub in m.classes:
            impl = _chain_lookup(m, sub, name, params, ret)
            if impl:
                out.add(impl)
    return sorted(out) if out else [ref]


def _all_subtypes(m, cls):
    # fixpoint over the whole class list instead of a precomputed map
    subs = {cls}
    changed = True
    while changed:
        changed = False
        for c in m.classes.values():
            parents = {c.superclass, *c.interfaces}
            if c.descriptor not in subs and parents & subs:
                subs.add(c.descriptor)
                changed = True
    return subs


def _chain_lookup(m, cls, name, params, ret):
    while cls in m.classes:
        for meth in m.classes[cls].methods:
            if meth.name == name and meth.params == tuple(params) and meth.return_type == ret:
                return meth.key if meth.is_concrete else None
        cls = m.classes[cls].superclass
        if cls is None:
            return None
    return None


# ---- behaviors -----------------------------------------------------------


def behavior_oracle(code: CodeModel, man, rules) -> set[tuple]:
    """Expected findings as (category, rule_id, confidence, method, component)."""
    const_sites, ref_sites, used = [], [], set()
    for cls in code.classes.values():
        for meth in cls.methods:
            for ins in meth.instructions:
                if ins.ref_kind == "string" and ins.resolved_ref is not None:
                    const_sites.append((meth.key, cls.descriptor, ins.resolved_ref))
                    used.add(ins.resolved_ref)
                elif ins.ref_kind == "method" and ins.resolved_ref is not None:
                    ref_sites.append((meth.key, cls.descriptor, ins.resolved_ref))
    pool_only = code.string_pool - used

    hits: dict[str, list[tuple[str, str, str]]] = {}
    for rule in rules.rules:
        rh = []
        if rule.match_space in ("const_string", "string_pool"):
            rh += [(mk, cd, "high") for mk, cd, s in const_sites if rule.pattern in s]
            if any(rule.pattern in s for s in pool_only):
                rh.append(("string-pool", "", "medium"))
        else:
            rh += [(mk, cd, "high") for mk, cd, r in ref_sites if rule.pattern in r]
        if rule.pattern == "Telephony.SMS_RECEIVED":
            for comp in man.components:
                if "android.provider.Telephony.SMS_RECEIVED" in comp.actions:
                    rh.append(("manifest", comp.class_name, "high"))
        hits[rule.id] = rh

    class_hits: dict[str, set[str]] = {}
    for rid, rh in hits.items():
        for _mk, cd, _c in rh:
            if cd:
                class_hits.setdefault(cd, set()).add(rid)

    out = set()
    for rule in rules.rules:
        if rule.required_permissions and not (rule.required_permissions & man.uses_permissions):
            continue
        for mk, cd, conf in hits[rule.id]:
            if rule.co_occurrence and rule.co_occurrence not in class_hits.get(cd, set()):
                continue
            out.add((rule.category, rule.id, conf, mk, cd if mk == "manifest" else None))
    return out


# ---- taint ---------------------------------------------------------------


class _OTok:
    """Oracle taint token: birth identity plus descent suffix length."""

    __slots__ = ("source", "label", "site", "path")

    def __init__(self, source, label, site, path):
        self.source = source
        self.label = label
        self.site = site
        self.path = path  # engine-style birth path (tuple of method keys)

    def key(self):
        return (self.source, self.label, self.site, self.path)


def taint_oracle(code: CodeModel, spec, depth: int) -> set[tuple]:
    """Findings as (source, sink, channel, source_site, sink_site, data_kind)
    from an inlining interpreter with a global field store."""
    field_store: dict[str, set[tuple]] = {}
    findings: set[tuple] = set()
    concrete = [m for m in code.all_methods() if m.is_concrete]

    def interp(m, init_regs, stack, suffix_len, emit, store_fields):
        regs: dict[int, set] = {r: set(v) for r, v in init_regs.items()}
        pending: set = set()
        ret: set = set()
        entry_ids = {id(t) for ts in init_regs.values() for t in ts}

        def get(r):
            return regs.get(r, set())

        for ins in m.instructions:
            op = ins.mnemonic
            if ins.opaque:
                continue
            if op.startswith("move-result"):
                regs[ins.registers[0]] = pending
                pending = set()
            elif op == "move-exception":
                regs[ins.registers[0]] = set()
            elif op.startswith("move"):
                regs[ins.registers[0]] = set(get(ins.registers[1]))
            elif op.startswith("const") or op in ("new-instance", "new-array"):
                regs[ins.registers[0]] = set()
            elif op.startswith("return") and op != "return-void":
                ret |= get(ins.registers[0])
            elif op.startswith("aget"):
                regs[ins.registers[0]] = set(get(ins.registers[1]))
            elif op.startswith("aput"):
                regs[ins.registers[1]] = get(ins.registers[1]) | get(ins.registers[0])
            elif op.startswith(("iget", "sget")):
                stored = field_store.get(ins.resolved_ref, set()) if ins.resolved_ref else set()
                regs[ins.registers[0]] = {
                    _OTok(s, l, st, p if p and p[-1] == m.key else p + (m.key,))
                    for (s, l, st, p) in stored
                }
            elif op.startswith(("iput", "sput")):
                if ins.resolved_ref and store_fields:
                    for t in get(ins.registers[0]):
                        field_store.setdefault(ins.resolved_ref, set()).add(t.key())
            elif ins.is_invoke and ins.resolved_ref is not None:
                pending = do_invoke(m, ins, regs, get, stack, suffix_len, emit, store_fields)
            elif op in ("filled-new-array", "filled-new-array/range"):
                pending = set().union(*(get(r) for r in ins.registers)) if ins.registers else set()
            elif op == "array-length":
                regs[ins.registers[0]] = set(get(ins.registers[1]))
            elif op == "instance-of":
                regs[ins.registers[0]] = set()
            elif _binop(op):
                if op.endswith("/2addr"):
                    regs[ins.registers[0]] = get(ins.registers[0]) | get(ins.registers[1])
                elif "lit" in op:
                    regs[ins.registers[0]] = set(get(ins.registers[1]))
                else:
                    regs[ins.registers[0]] = get(ins.registers[1]) | get(ins.registers[2])
            elif op.startswith("cmp"):
                regs[ins.registers[0]] = get(ins.registers[1]) | get(ins.registers[2])
            elif _unop(op):
                regs[ins.registers[0]] = set(get(ins.registers[1]))
        # tokens identical to an entry token return unchanged; others are
        # extended with the caller on the way up (handled by the caller)
        return ret, entry_ids

    def do_invoke(m, ins, regs, get, stack, suffix_len, emit, store_fields):
        target = ins.resolved_ref
        arg_tokens = [get(r) for r in ins.registers]
        all_tokens = set().union(*arg_tokens) if arg_tokens else set()
        result: set = set()

        channel = spec.match_sink(target)
        if channel is not None and emit:
            for t in all_tokens:
                # sinks in the interpreted method itself are unconditional;
                # only the inlined call chain counts against the depth bound
                if suffix_len == 0 or len(t.path) + suffix_len - 1 <= depth:
                    findings.add((t.source, target, channel, t.site, (m.key, ins.offset), t.label))

        callee = code.method(target)
        if depth >= 1 and callee is not None and callee.is_concrete and target not in stack:
            base = callee.registers - callee.ins
            init = {}
            for i, toks in enumerate(arg_tokens):
                if i < callee.ins and toks:
                    init[base + i] = toks
            ret, entry_ids = interp(
                callee, init, stack | {target}, suffix_len + 1, emit, store_fields
            )
            for t in ret:
                if id(t) in entry_ids:
                    result.add(t)  # parameter round trip: identity preserved
                else:
                    ext = t.path + (m.key,)
                    if len(ext) - 1 <= depth:
                        result.add(_OTok(t.source, t.label, t.site, ext))
        elif all_tokens:
            result |= all_tokens

        label = spec.match_source(target)
        if label is not None:
            result.add(_OTok(target, label, (m.key, ins.offset), (m.key,)))

        if not ins.mnemonic.startswith(("invoke-static", "invoke-custom")) and len(ins.registers) > 1:
            extra = set().union(*arg_tokens[1:])
            if extra:
                regs[ins.registers[0]] = get(ins.registers[0]) | extra
        return result

    # phase 1: field store to a bounded fixpoint (same bound as the engine)
    for _ in range(3):
        before = {k: set(v) for k, v in field_store.items()}
        for m in concrete:
            interp(m, {}, frozenset({m.key}), 0, emit=False, store_fields=True)
        if field_store == before:
            break
    # phase 2: findings
    for m in concrete:
        interp(m, {}, frozenset({m.key}), 0, emit=True, store_fields=False)
    return findings


_BIN = ("add-", "sub-", "rsub-", "mul-", "div-", "rem-", "and-", "or-", "xor-", "shl-", "shr-", "ushr-")
_UN = ("neg-", "not-", "int-to-", "long-to-", "float-to-", "double-to-")


def _binop(op):
    return op.startswith(_BIN)


def _unop(op):
    return op.startswith(_UN)


def leak_findings_as_tuples(findings) -> set[tuple]:
    return {(f.source, f.sink, f.channel, f.source_site, f.sink_site, f.data_kind) for f in findings}
