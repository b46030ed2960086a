"""Exception hierarchy shared by all analysis modules, and the data-file reader."""

import json
from pathlib import Path


class ApkAuditError(Exception):
    """Base class for everything raised by this package."""


class NotAZipError(ApkAuditError):
    """File is not a ZIP container (bad magic / no central directory)."""


class EntryMissingError(ApkAuditError):
    """Requested entry name not present in the archive."""


class CorruptEntryError(ApkAuditError):
    """An entry's local header or compressed data cannot be read back."""


class CrcMismatchError(CorruptEntryError):
    """Entry decompressed but its CRC-32 does not match the directory record."""


class MalformedSigningBlockError(ApkAuditError):
    """APK Signing Block present but structurally broken (non-fatal: warning)."""


class AxmlError(ApkAuditError):
    """Base for binary-XML decode failures."""


class TruncatedChunkError(AxmlError):
    pass


class BadStringPoolError(AxmlError):
    pass


class MissingPackageError(ApkAuditError):
    """Manifest root lacks the mandatory package attribute."""


class DexError(ApkAuditError):
    """Base for DEX parse failures."""


class NoDexEntryError(DexError):
    pass


class DexMagicError(DexError):
    pass


class MalformedDexError(DexError):
    """A DEX entry's structure points outside the data or outside its own pools."""


class UnknownMethodError(DexError):
    pass


class AbstractMethodError(DexError):
    """Method exists but has no code item (abstract or native)."""


class DataFileError(ApkAuditError):
    """A detection data file is missing, unreadable or not valid JSON/UTF-8."""


def read_data_file(path, as_json: bool = False):
    """Text, or parsed JSON, of a detection data file; failures name the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        return json.loads(text) if as_json else text
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFileError(f"data file {path}: {exc}") from exc


class RuleSchemaError(ApkAuditError):
    """Behavior rules file violates the expected JSON schema."""


class TaintSpecError(ApkAuditError):
    """Source/sink list empty or unusable."""


class ReportFormatError(ApkAuditError):
    """A file in a report directory is not an apkaudit per-app report."""


class BridgeError(ApkAuditError):
    """Device bridge command failed (no device, unauthorized, ...)."""
