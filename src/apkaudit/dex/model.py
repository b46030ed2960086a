"""Code model shared by the analyzers: classes, methods, instructions.

An instruction is a plain ``tuple`` of ten fields, read by the index
constants below: offset (in 16-bit code units from the method start),
opcode, mnemonic, width, registers (a tuple of ints), ref kind (none |
string | type | field | method), resolved ref (method key, field key,
string or type; ``None`` when unresolved), literal, branch target and
opaque.  A large system app decodes to over a hundred thousand
instructions, all held until its report is done.  A tuple of ints, strings,
``None`` and bools cannot form a reference cycle, and CPython's cycle
collector stops tracking a plain tuple once it finds that all its items are
untracked; a tuple subclass (``NamedTuple``) or a slotted class stays tracked
and is walked again by every full collection.  Plain tuples keep that walk
off the code model and hold less memory than slotted objects.

``DexMethod``, ``DexClass`` and ``CodeModel`` are plain classes with
``__slots__``, so none of the instances carries a ``__dict__``.
"""

from __future__ import annotations

ACC_STATIC = 0x0008
ACC_NATIVE = 0x0100
ACC_INTERFACE = 0x0200
ACC_ABSTRACT = 0x0400


def format_method_key(class_desc: str, name: str, params: list[str] | tuple[str, ...], ret: str) -> str:
    return f"{class_desc}->{name}({''.join(params)}){ret}"


def parse_method_key(key: str) -> tuple[str, str, tuple[str, ...], str]:
    """Split a canonical key back into (class, name, params, return)."""
    cls, rest = key.split("->", 1)
    name, rest = rest.split("(", 1)
    params_s, ret = rest.rsplit(")", 1)
    return cls, name, tuple(_split_descriptors(params_s)), ret


class KeyMatcher:
    """First-match lookup of method keys in an ordered ``[(pattern, value)]`` list.

    A pattern is an exact key, a class wildcard (``Lcls;->*``), a name-prefix
    wildcard (``Lcls;->put*``) or a proto-insensitive key (``Lcls;->name``).
    ``match`` returns the value of the first listed pattern that matches.
    """

    def __init__(self, entries):
        self._compiled = [(p, _pattern_prefix(p), v) for p, v in entries]

    def match(self, key: str):
        for exact, prefix, value in self._compiled:
            if key == exact or (prefix is not None and key.startswith(prefix)):
                return value
        return None


def _pattern_prefix(pattern: str) -> str | None:
    if pattern.endswith("*"):
        return pattern[:-1]
    if "(" not in pattern:
        return pattern + "("
    return None


def _split_descriptors(s: str) -> list[str]:
    out = []
    i = 0
    while i < len(s):
        start = i
        while s[i] == "[":
            i += 1
        if s[i] == "L":
            i = s.index(";", i) + 1
        else:
            i += 1
        out.append(s[start:i])
    return out


def format_field_key(class_desc: str, name: str, type_desc: str) -> str:
    return f"{class_desc}->{name}:{type_desc}"


# Instruction fields, in tuple order.  Ref kind "method" is set only on the
# invoke-* opcodes, so ``ins[REF_KIND] == "method"`` marks an invoke.
OFFSET, OPCODE, MNEMONIC, WIDTH, REGISTERS, REF_KIND, REF, LITERAL, TARGET, OPAQUE = range(10)

# annotation alias: (offset, opcode, mnemonic, width, registers, ref kind,
# resolved ref, literal, branch target, opaque)
Instruction = tuple


class DexMethod:
    __slots__ = ("key", "class_desc", "name", "params", "return_type", "access_flags",
                 "registers", "ins", "instructions")

    def __init__(self, key: str, class_desc: str, name: str, params: tuple[str, ...],
                 return_type: str, access_flags: int):
        self.key = key
        self.class_desc = class_desc
        self.name = name
        self.params = params
        self.return_type = return_type
        self.access_flags = access_flags
        self.registers = 0
        self.ins = 0
        self.instructions: list[Instruction] = []

    @property
    def is_abstract(self) -> bool:
        return bool(self.access_flags & ACC_ABSTRACT)

    @property
    def is_native(self) -> bool:
        return bool(self.access_flags & ACC_NATIVE)

    @property
    def is_concrete(self) -> bool:
        return not (self.is_abstract or self.is_native)


class DexClass:
    __slots__ = ("descriptor", "superclass", "interfaces", "access_flags", "methods")

    def __init__(self, descriptor: str, superclass: str | None, interfaces: tuple[str, ...],
                 access_flags: int):
        self.descriptor = descriptor
        self.superclass = superclass
        self.interfaces = interfaces
        self.access_flags = access_flags
        self.methods: list[DexMethod] = []


class CodeModel:
    __slots__ = ("classes", "string_pool", "dex_count", "warnings", "_method_index",
                 "register_tuples")

    def __init__(self):
        self.classes: dict[str, DexClass] = {}
        self.string_pool: set[str] = set()
        self.dex_count = 0
        self.warnings: list[str] = []
        self._method_index: dict[str, DexMethod] = {}
        # one object per distinct register tuple, shared by all of the app's instructions
        self.register_tuples: dict[tuple[int, ...], tuple[int, ...]] = {}

    def add_class(self, cls: DexClass) -> bool:
        if cls.descriptor in self.classes:
            self.warnings.append(f"duplicate class {cls.descriptor} (first definition wins)")
            return False
        self.classes[cls.descriptor] = cls
        for m in cls.methods:
            self._method_index[m.key] = m
        return True

    def method(self, key: str) -> DexMethod | None:
        return self._method_index.get(key)

    def all_methods(self):
        return self._method_index.values()
