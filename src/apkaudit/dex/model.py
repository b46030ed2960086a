"""Code model shared by the analyzers: classes, methods, instructions.

An instruction is a plain ``tuple`` of six fields, read by the index
constants below: offset (in 16-bit code units from the method start),
opcode (a payload pseudo-instruction's 16-bit ident), registers (a tuple
of ints), resolved ref (method key, field key, string or type; ``None``
when unresolved), literal and branch target.  The mnemonic, width and ref
kind are facts of the opcode, read from :mod:`.opcodes`
(``parser.mnemonic`` names payloads too).  A large system app decodes to
over a hundred thousand instructions, all held until its report is done.
A tuple of ints, strings and ``None`` cannot form a reference cycle, and
CPython's cycle collector stops tracking a plain tuple once it finds that
all its items are untracked; a tuple subclass (``NamedTuple``) or a slotted
class stays tracked and is walked again by every full collection.  Plain
tuples keep that walk off the code model and hold less memory than slotted
objects.  The parser stores equal instructions at the same offset once per
dex entry, through a table it drops once the entry is parsed, so one tuple
may sit in many methods' lists: no code may compare instructions by
identity or count them by ``id()``.

``DexMethod``, ``DexClass`` and ``CodeModel`` are plain classes with
``__slots__``, so none of the instances carries a ``__dict__``.
"""

from __future__ import annotations

ACC_NATIVE = 0x0100
ACC_ABSTRACT = 0x0400


def format_method_key(class_desc: str, name: str, params: list[str] | tuple[str, ...], ret: str) -> str:
    return f"{class_desc}->{name}({''.join(params)}){ret}"


class KeyMatcher:
    """First-match lookup of method keys in an ordered ``[(pattern, value)]`` list.

    A pattern is an exact key, a class wildcard (``Lcls;->*``), a name-prefix
    wildcard (``Lcls;->put*``) or a proto-insensitive key (``Lcls;->name``,
    matching itself and ``Lcls;->name(...``).  ``match`` returns the value of
    the first listed pattern that matches.  Patterns are indexed by list
    position: keys in a dict, prefixes that hold ``->`` under their text up
    to it (a key can only start with those of its own bucket), the others in
    one list; the lowest matching position wins.
    """

    __slots__ = ("_exact", "_by_head", "_loose")

    def __init__(self, entries):
        self._exact: dict[str, tuple[int, object]] = {}
        self._by_head: dict[str, list[tuple[int, str, object]]] = {}
        self._loose: list[tuple[int, str, object]] = []
        for pos, (pattern, value) in enumerate(entries):
            # a key equal to a wildcard pattern also starts with its prefix
            if pattern.endswith("*"):
                prefix = pattern[:-1]
            else:
                self._exact.setdefault(pattern, (pos, value))
                if "(" in pattern:
                    continue
                prefix = pattern + "("
            head, arrow, _ = prefix.partition("->")
            (self._by_head.setdefault(head, []) if arrow else self._loose).append((pos, prefix, value))

    def match(self, key: str):
        best = self._exact.get(key)
        arrow = key.find("->")
        if arrow >= 0:
            for pos, prefix, value in self._by_head.get(key[:arrow], ()):
                if key.startswith(prefix):
                    if best is None or pos < best[0]:
                        best = (pos, value)
                    break
        for pos, prefix, value in self._loose:
            if best is not None and pos > best[0]:
                break
            if key.startswith(prefix):
                best = (pos, value)
                break
        return None if best is None else best[1]


def class_to_descriptor(class_name: str) -> str:
    return "L" + class_name.replace(".", "/") + ";"


def format_field_key(class_desc: str, name: str, type_desc: str) -> str:
    return f"{class_desc}->{name}:{type_desc}"


# Instruction fields, in tuple order, and the annotation alias of an instruction
OFFSET, OPCODE, REGISTERS, REF, LITERAL, TARGET = range(6)
Instruction = tuple


class DexMethod:
    """A method is its key, ``Lcls;->name(params)ret``: a code model keeps
    the first listing of each key, and no analyser splits the key."""

    __slots__ = ("key", "access_flags", "registers", "ins", "instructions")

    def __init__(self, key: str, access_flags: int):
        self.key = key
        self.access_flags = access_flags
        self.registers = 0
        self.ins = 0
        self.instructions: list[Instruction] = []

    @property
    def is_concrete(self) -> bool:
        return not self.access_flags & (ACC_ABSTRACT | ACC_NATIVE)


class DexClass:
    __slots__ = ("descriptor", "superclass", "interfaces", "methods")

    def __init__(self, descriptor: str, superclass: str | None, interfaces: tuple[str, ...]):
        self.descriptor = descriptor
        self.superclass = superclass
        self.interfaces = interfaces
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

    def add_class(self, cls: DexClass) -> None:
        if cls.descriptor in self.classes:
            self.warnings.append(f"duplicate class {cls.descriptor} (first definition wins)")
            return
        self.classes[cls.descriptor] = cls
        for m in cls.methods:
            if self._method_index.setdefault(m.key, m) is not m:
                self.warnings.append(f"duplicate method {m.key} (first definition wins)")
        cls.methods = [m for m in cls.methods if self._method_index[m.key] is m]

    def method(self, key: str) -> DexMethod | None:
        return self._method_index.get(key)

    def all_methods(self):
        return self._method_index.values()
