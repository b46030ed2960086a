"""Manifest model: components, permissions and export/protection rules."""

from __future__ import annotations

from typing import NamedTuple

from .axml import AxmlElement, XmlTree
from .errors import ApkAuditError

COMPONENT_TAGS = frozenset(("activity", "service", "receiver", "provider"))


class ComponentDecl(NamedTuple):
    kind: str  # activity | service | receiver | provider
    class_name: str  # fully qualified
    exported_attr: bool | None
    permission_attr: str | None
    read_permission: str | None = None  # providers only
    write_permission: str | None = None
    intent_filters: int = 0
    actions: tuple[str, ...] = ()  # of every intent filter, in document order


class ManifestModel(NamedTuple):
    package: str
    version_name: str = ""
    version_code: int = 0
    target_sdk: int | None = None
    uses_permissions: frozenset[str] = frozenset()
    components: tuple[ComponentDecl, ...] = ()


def build_manifest(t: XmlTree) -> ManifestModel:
    """Collect package metadata and all four component kinds from a tree."""
    root = t.root
    if root.name != "manifest":
        raise ApkAuditError(f"root element is <{root.name}>, expected <manifest>", "manifest.root")
    package = root.attr("package", namespace=None)
    if not package:
        raise ApkAuditError("manifest has no package attribute", "manifest.package")
    package = str(package)
    vc = root.attr("versionCode")
    sdks = [tg for sdk in root.find_all("uses-sdk")
            if isinstance(tg := sdk.attr("targetSdkVersion"), int)]
    return ManifestModel(
        package=package,
        version_name=str(root.attr("versionName") or ""),
        # int(): a bool attribute is an int too, and the report writes 1, not true
        version_code=int(vc) if isinstance(vc, int) else 0,
        target_sdk=sdks[-1] if sdks else None,  # the last int wins
        uses_permissions=frozenset(
            str(name) for up in root.find_all("uses-permission") if (name := up.attr("name"))
        ),
        components=tuple(
            _component(child.name, child, package)
            for app in root.find_all("application")
            for child in app.children
            if child.name in COMPONENT_TAGS
        ),
    )


def _component(kind: str, el: AxmlElement, package: str) -> ComponentDecl:
    exported = el.attr("exported")
    provider = kind == "provider"
    filters = el.find_all("intent-filter")
    return ComponentDecl(
        kind=kind,
        class_name=_qualify(str(el.attr("name") or ""), package),
        exported_attr=exported if isinstance(exported, bool) else None,
        permission_attr=_opt_str(el.attr("permission")),
        read_permission=_opt_str(el.attr("readPermission")) if provider else None,
        write_permission=_opt_str(el.attr("writePermission")) if provider else None,
        intent_filters=len(filters),
        actions=tuple(str(name) for filt in filters for act in filt.find_all("action")
                      if (name := act.attr("name"))),
    )


def _qualify(name: str, package: str) -> str:
    if name.startswith("."):
        return package + name
    if "." not in name and name:
        return f"{package}.{name}"
    return name


def _opt_str(v) -> str | None:
    return str(v) if v else None


def is_exported(c: ComponentDecl, target_sdk: int | None = None) -> bool:
    """Export status: explicit flag wins, else intent filters imply export.

    Providers default to exported below targetSdk 17 even without filters.
    """
    if c.exported_attr is not None:
        return c.exported_attr
    if c.intent_filters >= 1:
        return True
    if c.kind == "provider" and target_sdk is not None and target_sdk < 17:
        return True
    return False


def is_protected(c: ComponentDecl) -> bool:
    """A component counts as protected when any permission attribute is set.

    Protection level is deliberately not evaluated.
    """
    if c.permission_attr:
        return True
    if c.kind == "provider" and (c.read_permission or c.write_permission):
        return True
    return False
