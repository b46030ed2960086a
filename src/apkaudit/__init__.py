"""Static-analysis toolkit for auditing pre-installed Android packages."""

from importlib import import_module

__version__ = "0.1.0"

# public name -> submodule, imported on first access (PEP 562) so that
# ``import apkaudit`` loads no analyser
_EXPORTS = {
    "ApkArtifact": "container", "open_apk": "container", "read_entry": "container",
    "AnalysisConfig": "report", "analyze_apk": "report", "AppReport": "findings",
}


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
