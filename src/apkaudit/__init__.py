"""Static-analysis toolkit for auditing pre-installed Android packages."""

__version__ = "0.1.0"
