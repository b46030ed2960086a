from .model import (  # noqa: F401
    LITERAL,
    OFFSET,
    OPCODE,
    REF,
    REGISTERS,
    TARGET,
    CodeModel,
    DexClass,
    DexMethod,
    Instruction,
    KeyMatcher,
    class_to_descriptor,
    format_method_key,
)
from .parser import load_app_code, method_body, parse_dex  # noqa: F401
