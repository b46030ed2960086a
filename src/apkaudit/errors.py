"""The package's exceptions, and the data-file reader.

Every fault is an :class:`ApkAuditError` whose ``code`` names it as
``area.fault`` (README lists the codes).  A subclass exists only where an
``except`` must tell its fault apart from others that reach it.
"""

import json
from pathlib import Path


class ApkAuditError(Exception):
    """Base class for everything raised by this package; ``str()`` is the message alone."""

    def __init__(self, message: str, code: str):
        super().__init__(message)
        self.code = code

    def __reduce__(self):  # a process pool pickles it: rebuilt from the message and the code
        return type(self), (str(self), self.code)


class ApkReadError(ApkAuditError):
    """The file cannot be read, or is not a ZIP (``acquire`` skips it; a short read later is not one)."""


class MalformedSigningBlockError(ApkAuditError):
    """The APK Signing Block is broken: a warning, where a short read of the file is not."""


def read_data_file(path, as_json: bool = False):
    """Text, or parsed JSON, of a detection data file; failures name the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        return json.loads(text) if as_json else text
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ApkAuditError(f"data file {path}: {exc}", "data.unreadable") from exc
