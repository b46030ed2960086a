"""Device package acquisition and content-addressed corpus indexing.

The debug bridge is invoked as an external command; a transcript-backed
stub implements the same interface for offline tests.  The corpus index
dedups files by sha256 and merges package/device/partition metadata.
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
from .errors import BridgeError, NotAZipError

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
    local_source_path}}.  Pulls copy the mapped local file.
    """

    def __init__(self, transcript: dict | str | Path):
        if not isinstance(transcript, dict):
            transcript = json.loads(Path(transcript).read_text())
        self.shell_map: dict[str, str] = transcript.get("shell", {})
        self.files: dict[str, str] = transcript.get("files", {})

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
                system=path in system_paths or _looks_system(path),
            )
        )
    return packages, skipped


def _parse_pm_lines(out: str):
    results = []
    for line in out.splitlines():
        line = line.strip()
        if not line:
            continue
        if not line.startswith("package:") or "=" not in line:
            log.warning("unparseable pm line skipped: %s", line)
            results.append((line, "", False))
            continue
        body = line[len("package:") :]
        path, _, name = body.rpartition("=")
        if not path or not name:
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


def _looks_system(path: str) -> bool:
    return path.startswith(_SYSTEM_PREFIXES)


class PullResult:
    __slots__ = ("pulled", "failures")

    def __init__(self):
        self.pulled: list[Path] = []
        self.failures: dict[str, str] = {}  # package → reason


def pull_packages(bridge, serial: str, pkgs: list[DevicePackage], out_dir) -> PullResult:
    """Pull each package APK to ``out_dir/<package>/<basename>``.

    Per-item failures are recorded and the run continues.  Split APKs
    sitting next to the base APK (transcript ``files`` siblings) are pulled
    alongside when the bridge exposes them.
    """
    out_dir = Path(out_dir)
    result = PullResult()
    for pkg in pkgs:
        dest_dir = out_dir / pkg.package
        dest_dir.mkdir(parents=True, exist_ok=True)
        paths = [pkg.device_path]
        folder = pkg.device_path.rsplit("/", 1)[0]
        for sibling in _sibling_apks(bridge, folder):
            if sibling != pkg.device_path:
                paths.append(sibling)
        for device_path in paths:
            dest = dest_dir / device_path.rsplit("/", 1)[1]
            try:
                bridge.pull(serial, device_path, dest)
                result.pulled.append(dest)
            except BridgeError as exc:
                result.failures[pkg.package] = str(exc)
            except OSError as exc:
                if exc.errno == 28:  # disk full is fatal
                    raise
                result.failures[pkg.package] = str(exc)
    return result


def _sibling_apks(bridge, folder: str) -> list[str]:
    files = getattr(bridge, "files", None)
    if files is not None:
        return sorted(p for p in files if p.rsplit("/", 1)[0] == folder and p.endswith(".apk"))
    return []


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
                sha: {
                    "path": e["path"],
                    "packages": sorted(e["packages"]),
                    "devices": sorted(e["devices"]),
                    "partition_folders": sorted(e["partition_folders"]),
                    "signer_label": e["signer_label"],
                    "split": e["split"],
                }
                for sha, e in sorted(self.entries.items())
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CorpusIndex":
        doc = json.loads(text)
        idx = cls(created=doc.get("created", ""), updated=doc.get("updated", ""))
        for sha, e in doc.get("entries", {}).items():
            idx.entries[sha] = {
                "path": e["path"],
                "packages": set(e["packages"]),
                "devices": set(e["devices"]),
                "partition_folders": set(e["partition_folders"]),
                "signer_label": e["signer_label"],
                "split": e["split"],
            }
        return idx


def index_corpus(
    directory,
    prior: CorpusIndex | None = None,
    device: str | None = None,
    authority_map: AuthorityMap | None = None,
) -> CorpusIndex:
    """Walk a directory of APKs and build/merge the dedup index."""
    directory = Path(directory)
    amap = authority_map or AuthorityMap.load()
    now = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    idx = prior or CorpusIndex(created=now)
    if not idx.created:
        idx.created = now
    idx.updated = now

    skipped = 0
    for path in sorted(directory.rglob("*.apk")):
        try:
            art = open_apk(path)
        except (NotAZipError, OSError) as exc:
            log.warning("unreadable file skipped: %s (%s)", path, exc)
            skipped += 1
            continue
        signer = art.signers[0] if art.signers else None
        entry = idx.entries.setdefault(
            art.sha256,
            {
                "path": str(path),
                "packages": set(),
                "devices": set(),
                "partition_folders": set(),
                "signer_label": amap.label(signer),
                "split": _is_split(path.name),
            },
        )
        entry["packages"].add(path.parent.name)
        if device:
            entry["devices"].add(device)
    if skipped:
        log.warning("%d unreadable files skipped", skipped)
    return idx


def _is_split(name: str) -> bool:
    return name.startswith(("split_", "config.")) or ".config." in name
