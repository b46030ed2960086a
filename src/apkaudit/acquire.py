"""Device package acquisition and content-addressed corpus indexing.

The debug bridge is invoked as an external command; a transcript-backed
stub implements the same interface for offline tests.  Each package's
files are the ones ``pm path <package>`` lists, and each pulled file keeps
the package record it came from.  The corpus index holds what was pulled:
it dedups those files by sha256 and merges their packages, partition
folders and devices.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import subprocess
import time
from pathlib import Path
from typing import NamedTuple

from .container import AuthorityMap, open_apk
from .errors import ApkReadError, BridgeError, CorpusIndexError, NotAZipError

log = logging.getLogger(__name__)

BRIDGE_ENV = "PIP_BRIDGE"

_SYSTEM_PREFIXES = ("/system/", "/system_ext/", "/product/", "/vendor/", "/odm/", "/oem/")
_NESTED_SYSTEM = {"product", "system_ext", "vendor", "preload"}


class DevicePackage(NamedTuple):
    package: str
    device_path: str
    partition_folder: str
    system: bool


class SubprocessBridge:
    """Real bridge: shells out to the platform debug-bridge binary."""

    def __init__(self, executable: str | None = None):
        self.executable = executable or os.environ.get(BRIDGE_ENV, "adb")

    def shell(self, serial: str, command: str) -> str:
        return self._run(["-s", serial, "shell", command])

    def pull(self, serial: str, device_path: str, dest: Path) -> None:
        self._run(["-s", serial, "pull", device_path, str(dest)])

    def _run(self, args: list[str]) -> str:
        try:
            proc = subprocess.run(
                [self.executable, *args], capture_output=True, text=True, timeout=300
            )
        except FileNotFoundError as exc:
            raise BridgeError(f"bridge executable not found: {self.executable}") from exc
        except subprocess.TimeoutExpired as exc:
            raise BridgeError(f"bridge timed out: {args}") from exc
        if proc.returncode != 0:
            stderr = proc.stderr.strip()
            if "no devices" in stderr or "device offline" in stderr:
                raise BridgeError(f"no device: {stderr}")
            if "unauthorized" in stderr:
                raise BridgeError(f"device unauthorized: {stderr}")
            raise BridgeError(f"bridge command failed: {stderr}")
        return proc.stdout


class TranscriptBridge:
    """Offline stub replaying a recorded transcript.

    Transcript schema: {"shell": {command: output}, "files": {device_path:
    local_source_path}}, all strings; another shape raises BridgeError.
    ``shell`` records ``pm list packages -f``, ``pm list packages -f -s``
    and ``pm path <package>`` for each package pulled.  Pulls copy the
    mapped local file.
    """

    def __init__(self, transcript: dict | str | Path):
        source = transcript
        if not isinstance(transcript, dict):
            try:
                transcript = json.loads(Path(source).read_bytes())
            except OSError as exc:
                raise BridgeError(f"transcript {source}: {exc.strerror or exc}") from exc
            except ValueError as exc:  # not JSON, or not Unicode
                raise BridgeError(f"transcript {source}: {exc}") from exc
        maps = [transcript.get(k, {}) if isinstance(transcript, dict) else None
                for k in ("shell", "files")]
        if not all(isinstance(m, dict) and all(isinstance(v, str) for v in m.values()) for m in maps):
            raise BridgeError(
                f"transcript {source}: not an object with 'shell' and 'files' objects of strings")
        self.shell_map, self.files = maps

    def shell(self, serial: str, command: str) -> str:
        if command not in self.shell_map:
            raise BridgeError(f"transcript has no output for {command!r}")
        return self.shell_map[command]

    def pull(self, serial: str, device_path: str, dest: Path) -> None:
        src = self.files.get(device_path)
        if src is None:
            raise BridgeError(f"pull failed: {device_path} (permission denied)")
        shutil.copyfile(src, dest)


def list_device_packages(bridge, serial: str) -> tuple[list[DevicePackage], int]:
    """Enumerate installed packages; returns (packages, skipped_line_count)."""
    all_out = bridge.shell(serial, "pm list packages -f")
    system_out = bridge.shell(serial, "pm list packages -f -s")
    system_paths = {path for path, _name, ok in _parse_pm_lines(system_out) if ok}

    packages: list[DevicePackage] = []
    skipped = 0
    for path, name, ok in _parse_pm_lines(all_out):
        if not ok:
            skipped += 1
            continue
        packages.append(
            DevicePackage(
                package=name,
                device_path=path,
                partition_folder=partition_folder(path),
                system=path in system_paths or path.startswith(_SYSTEM_PREFIXES),
            )
        )
    return packages, skipped


def _parse_pm_lines(out: str):
    results = []
    for line in out.splitlines():
        line = line.strip()
        if not line:
            continue
        path, _, name = line.removeprefix("package:").rpartition("=")
        if not (line.startswith("package:") and path and name):
            log.warning("unparseable pm line skipped: %s", line)
            results.append((line, "", False))
            continue
        results.append((path, name, True))
    return results


def partition_folder(device_path: str) -> str:
    """First two path segments; three for nested partitions under /system."""
    parts = [p for p in device_path.split("/") if p]
    take = 2
    if len(parts) >= 3 and parts[0] == "system" and parts[1] in _NESTED_SYSTEM:
        take = 3
    return "/" + "/".join(parts[:take])


class PullResult(NamedTuple):
    pulled: dict[Path, DevicePackage]  # destination file → the package it came from
    failures: dict[str, str]  # package → reason


def pull_packages(bridge, serial: str, pkgs: list[DevicePackage], out_dir) -> PullResult:
    """Pull the files ``pm path <package>`` lists (the base APK and its
    splits) to ``out_dir/<package>/<serial>/<basename>``, so that the same
    package pulled from two devices into one ``out_dir`` keeps both files.

    A package whose listing or pull fails is recorded and the run continues.
    """
    if serial in ("", ".", "..") or "/" in serial or os.sep in serial:
        raise BridgeError(f"serial {serial!r} cannot name a folder")
    out_dir = Path(out_dir)
    pulled: dict[Path, DevicePackage] = {}
    failures: dict[str, str] = {}
    for pkg in pkgs:
        dest_dir = out_dir / pkg.package / serial
        try:
            listed = [line.strip() for line in bridge.shell(serial, f"pm path {pkg.package}").splitlines()]
            paths = [line.removeprefix("package:") for line in listed if line.startswith("package:/")]
            if not paths:
                raise BridgeError(f"pm path {pkg.package} listed no file")
            # a regular file named like the package fails this package only
            dest_dir.mkdir(parents=True, exist_ok=True)
            for device_path in paths:
                dest = dest_dir / device_path.rpartition("/")[2]
                bridge.pull(serial, device_path, dest)
                pulled[dest] = pkg
        except BridgeError as exc:
            failures[pkg.package] = str(exc)
        except OSError as exc:
            if exc.errno == 28:  # disk full is fatal
                raise
            failures[pkg.package] = str(exc)
    return PullResult(pulled, failures)


_INDEX_FIELDS = ("path", "packages", "devices", "partition_folders", "signer_label", "split")
_SET_FIELDS = {"packages", "devices", "partition_folders"}  # held as sets, stored sorted


class CorpusIndex:
    __slots__ = ("entries", "created", "updated")

    def __init__(self, created: str = "", updated: str = ""):
        self.entries: dict[str, dict] = {}  # sha256 → metadata
        self.created = created
        self.updated = updated

    def to_json(self) -> str:
        doc = {
            "created": self.created,
            "updated": self.updated,
            "entries": {
                sha: {k: sorted(e[k]) if k in _SET_FIELDS else e[k] for k in _INDEX_FIELDS}
                for sha, e in sorted(self.entries.items())
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str | bytes | None, path) -> "CorpusIndex":
        """Parse the index ``text`` read from ``path`` (read here when it is
        None); an unreadable or malformed one raises CorpusIndexError naming
        the file."""
        try:
            doc = json.loads(Path(path).read_bytes() if text is None else text)
            idx = cls(created=doc.get("created", ""), updated=doc.get("updated", ""))
            for sha, e in doc.get("entries", {}).items():
                idx.entries[sha] = {k: set(e[k]) if k in _SET_FIELDS else e[k] for k in _INDEX_FIELDS}
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise CorpusIndexError(
                f"{path}: not a corpus index ({type(exc).__name__}: {exc})") from exc
        return idx


def index_corpus(pulled: dict[Path, DevicePackage], prior: CorpusIndex | None,
                 device: str) -> CorpusIndex:
    """Merge the pulled files into ``prior`` (or a new index) by sha256.

    Each entry gains the file's package and partition folder and this run's
    ``device``; a file is a split when it is not the base APK that
    ``pm list packages -f`` gave for its package.
    """
    amap = AuthorityMap.load()
    now = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    idx = prior or CorpusIndex(created=now)
    if not idx.created:
        idx.created = now
    idx.updated = now

    skipped = 0
    for path, pkg in sorted(pulled.items()):
        try:
            art = open_apk(path)
        except (ApkReadError, NotAZipError) as exc:
            log.warning("unreadable file skipped: %s (%s)", path, exc)
            skipped += 1
            continue
        entry = idx.entries.setdefault(
            art.sha256,
            {
                "path": str(path),
                "packages": set(),
                "devices": set(),
                "partition_folders": set(),
                "signer_label": amap.label(art.signers),
                # the pulled file keeps its device name
                "split": path.name != pkg.device_path.rpartition("/")[2],
            },
        )
        entry["packages"].add(pkg.package)
        entry["partition_folders"].add(pkg.partition_folder)
        entry["devices"].add(device)
    if skipped:
        log.warning("%d unreadable files skipped", skipped)
    return idx
