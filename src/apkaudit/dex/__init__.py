from .model import (  # noqa: F401
    LITERAL,
    MNEMONIC,
    OFFSET,
    OPAQUE,
    OPCODE,
    REF,
    REF_KIND,
    REGISTERS,
    TARGET,
    WIDTH,
    CodeModel,
    DexClass,
    DexMethod,
    Instruction,
    KeyMatcher,
    format_method_key,
)
from .parser import load_app_code, method_body, parse_dex  # noqa: F401
