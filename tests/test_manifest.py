import pytest

from apkaudit.axml import decode_axml
from apkaudit.manifest import ComponentDecl, build_manifest, is_exported, is_protected

from .conftest import raises_code
from .fixtures.axml_writer import XAttr, XElem, encode_axml


def _decode(root):
    return build_manifest(decode_axml(encode_axml(root)))


def _root(package="com.acme.app", children=()):
    return XElem(
        "manifest",
        [XAttr("package", package, ns=None), XAttr("versionCode", 9),
         XAttr("versionName", "2.1"), XAttr("sharedUserId", "android.uid.system")],
        list(children),
    )


def test_metadata_and_permissions():
    root = _root(children=[
        XElem("uses-sdk", [XAttr("minSdkVersion", 19), XAttr("targetSdkVersion", 28)]),
        XElem("uses-permission", [XAttr("name", "android.permission.INTERNET")]),
        XElem("uses-permission", [XAttr("name", "android.permission.READ_SMS")]),
        XElem("permission", [XAttr("name", "com.acme.app.MY_PERM")]),
        XElem("application"),
    ])
    m = _decode(root)
    assert m.package == "com.acme.app"
    assert (m.version_code, m.version_name) == (9, "2.1")
    assert m.target_sdk == 28
    assert m.uses_permissions == {"android.permission.INTERNET", "android.permission.READ_SMS"}


def test_component_collection_and_name_qualification():
    root = _root(children=[XElem("application", [], [
        XElem("activity", [XAttr("name", ".Main")]),
        XElem("service", [XAttr("name", "Worker")]),
        XElem("receiver", [XAttr("name", "com.other.Recv")], [
            XElem("intent-filter", [], [
                XElem("action", [XAttr("name", "android.provider.Telephony.SMS_RECEIVED")]),
                XElem("category", [XAttr("name", "android.intent.category.DEFAULT")]),
            ]),
        ]),
        XElem("provider", [XAttr("name", ".Data"),
                           XAttr("authorities", "com.acme.a;com.acme.b"),
                           XAttr("readPermission", "com.acme.READ")]),
        XElem("meta-data", [XAttr("name", "ignored")]),
    ])])
    m = _decode(root)
    kinds = [(c.kind, c.class_name) for c in m.components]
    assert kinds == [
        ("activity", "com.acme.app.Main"),
        ("service", "com.acme.app.Worker"),
        ("receiver", "com.other.Recv"),
        ("provider", "com.acme.app.Data"),
    ]
    recv = m.components[2]
    assert recv.intent_filters == 1
    assert recv.actions == ("android.provider.Telephony.SMS_RECEIVED",)
    prov = m.components[3]
    assert prov.read_permission == "com.acme.READ"


def test_missing_package_and_wrong_root():
    with raises_code("manifest.package"):
        _decode(XElem("manifest", [XAttr("versionCode", 1)]))
    with raises_code("manifest.root"):
        _decode(XElem("resources", [XAttr("package", "x", ns=None)]))


def _comp(kind="activity", exported=None, filters=0, permission=None, read=None, write=None):
    return ComponentDecl(
        kind=kind, class_name="c.C", exported_attr=exported, permission_attr=permission,
        read_permission=read, write_permission=write, intent_filters=filters,
    )


def test_is_exported_rules():
    assert is_exported(_comp(exported=True)) is True
    assert is_exported(_comp(exported=False, filters=3)) is False  # explicit wins
    assert is_exported(_comp(filters=1)) is True
    assert is_exported(_comp()) is False
    # provider default below targetSdk 17
    assert is_exported(_comp(kind="provider"), target_sdk=16) is True
    assert is_exported(_comp(kind="provider"), target_sdk=17) is False
    assert is_exported(_comp(kind="provider"), target_sdk=None) is False
    assert is_exported(_comp(kind="activity"), target_sdk=16) is False


def test_is_protected_rules():
    assert is_protected(_comp()) is False
    assert is_protected(_comp(permission="p")) is True
    assert is_protected(_comp(kind="provider", read="p")) is True
    assert is_protected(_comp(kind="provider", write="p")) is True
    assert is_protected(_comp(kind="activity", read="p")) is False  # provider-only attrs
