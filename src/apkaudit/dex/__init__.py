from .model import (  # noqa: F401
    CodeModel,
    DexClass,
    DexMethod,
    Instruction,
    KeyMatcher,
    format_method_key,
    parse_method_key,
)
from .parser import load_app_code, method_body, parse_dex  # noqa: F401
