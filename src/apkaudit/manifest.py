"""Manifest model: components, permissions and export/protection rules."""

from __future__ import annotations

from .axml import AxmlElement, XmlTree
from .errors import MissingPackageError

COMPONENT_TAGS = {
    "activity": "activity",
    "service": "service",
    "receiver": "receiver",
    "provider": "provider",
}


class ComponentDecl:
    __slots__ = ("kind", "class_name", "exported_attr", "permission_attr", "read_permission",
                 "write_permission", "intent_filters", "actions")

    def __init__(
        self,
        kind: str,  # activity | service | receiver | provider
        class_name: str,  # fully qualified
        exported_attr: bool | None,
        permission_attr: str | None,
        read_permission: str | None = None,  # providers only
        write_permission: str | None = None,
        intent_filters: int = 0,
    ):
        self.kind = kind
        self.class_name = class_name
        self.exported_attr = exported_attr
        self.permission_attr = permission_attr
        self.read_permission = read_permission
        self.write_permission = write_permission
        self.intent_filters = intent_filters
        self.actions: list[str] = []


class ManifestModel:
    __slots__ = ("package", "version_name", "version_code", "target_sdk", "uses_permissions",
                 "components")

    def __init__(self, package: str):
        self.package = package
        self.version_name = ""
        self.version_code = 0
        self.target_sdk: int | None = None
        self.uses_permissions: set[str] = set()
        self.components: list[ComponentDecl] = []


def build_manifest(t: XmlTree) -> ManifestModel:
    """Collect package metadata and all four component kinds from a tree."""
    root = t.root
    if root.name != "manifest":
        raise MissingPackageError(f"root element is <{root.name}>, expected <manifest>")
    package = root.attr("package", namespace=None)
    if not package:
        raise MissingPackageError("manifest has no package attribute")

    m = ManifestModel(package=str(package))
    m.version_name = str(root.attr("versionName") or "")
    vc = root.attr("versionCode")
    m.version_code = int(vc) if isinstance(vc, int) else 0

    for sdk in root.find_all("uses-sdk"):
        tg = sdk.attr("targetSdkVersion")
        if isinstance(tg, int):
            m.target_sdk = tg
    for up in root.find_all("uses-permission"):
        name = up.attr("name")
        if name:
            m.uses_permissions.add(str(name))

    for app in root.find_all("application"):
        for child in app.children:
            kind = COMPONENT_TAGS.get(child.name)
            if kind is None:
                continue
            m.components.append(_component(kind, child, m.package))
    return m


def _component(kind: str, el: AxmlElement, package: str) -> ComponentDecl:
    raw_name = str(el.attr("name") or "")
    exported = el.attr("exported")
    comp = ComponentDecl(
        kind=kind,
        class_name=_qualify(raw_name, package),
        exported_attr=exported if isinstance(exported, bool) else None,
        permission_attr=_opt_str(el.attr("permission")),
    )
    if kind == "provider":
        comp.read_permission = _opt_str(el.attr("readPermission"))
        comp.write_permission = _opt_str(el.attr("writePermission"))
    for filt in el.find_all("intent-filter"):
        comp.intent_filters += 1
        for act in filt.find_all("action"):
            name = act.attr("name")
            if name:
                comp.actions.append(str(name))
    return comp


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
