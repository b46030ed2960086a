"""Command-line front door.

Subcommands: acquire, scan, report, dump-manifest, dump-dex.
Exit codes: 0 ran clean, 1 findings present, 2 errors.

Each command imports the modules it runs, so ``report`` loads only the
report data model.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import ApkAuditError, ReportFormatError
from .findings import DEFAULT_DEPTH, AppReport, aggregate

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="apkaudit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_acq = sub.add_parser("acquire", help="pull pre-installed packages from a device")
    p_acq.add_argument("--serial", required=True)
    p_acq.add_argument("--out", required=True)
    p_acq.add_argument("--bridge", help="bridge executable (default: $PIP_BRIDGE or adb)")
    p_acq.add_argument("--transcript", help="replay a recorded transcript instead of a device")
    p_acq.add_argument("--device-tag", default="", help="device label recorded in the index")

    p_scan = sub.add_parser("scan", help="analyze one APK or a directory of APKs")
    p_scan.add_argument("target")
    p_scan.add_argument("--out", help="directory for per-app JSON reports")
    p_scan.add_argument("--rules")
    p_scan.add_argument("--susi", help="source/sink list replacing the default")
    p_scan.add_argument("--extra-sinks", help="supplementary sinks for INTERNET apps")
    p_scan.add_argument("--sensitive-apis")
    p_scan.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p_scan.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p_scan.add_argument("--format", choices=["json", "table"], default="json")
    p_scan.add_argument("--timings", action="store_true")

    p_rep = sub.add_parser("report", help="aggregate per-app reports into a corpus summary")
    p_rep.add_argument("directory")
    p_rep.add_argument("--format", choices=["json", "table"], default="table")

    p_dm = sub.add_parser("dump-manifest", help="decode and print an APK manifest")
    p_dm.add_argument("apk")

    p_dd = sub.add_parser("dump-dex", help="print instruction listings")
    p_dd.add_argument("apk")
    p_dd.add_argument("--method", help="dump a single method key")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return {
            "acquire": _cmd_acquire,
            "scan": _cmd_scan,
            "report": _cmd_report,
            "dump-manifest": _cmd_dump_manifest,
            "dump-dex": _cmd_dump_dex,
        }[args.command](args)
    except ApkAuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _cmd_acquire(args) -> int:
    import logging

    from . import acquire as acquire_mod

    # only acquire logs: skipped pm lines and unreadable files, on stderr
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")

    if args.transcript:
        bridge = acquire_mod.TranscriptBridge(args.transcript)
    else:
        bridge = acquire_mod.SubprocessBridge(args.bridge)
    out = Path(args.out)
    packages, skipped = acquire_mod.list_device_packages(bridge, args.serial)
    print(f"{len(packages)} packages listed ({skipped} unparseable lines skipped)")
    result = acquire_mod.pull_packages(bridge, args.serial, packages, out)
    print(f"pulled {len(result.pulled)} files, {len(result.failures)} failures")
    for pkg, reason in sorted(result.failures.items()):
        print(f"  failed: {pkg}: {reason}", file=sys.stderr)
    index_path = out / "corpus-index.json"
    prior = (
        acquire_mod.CorpusIndex.from_json(index_path.read_text()) if index_path.exists() else None
    )
    idx = acquire_mod.index_corpus(out, prior, device=args.device_tag or args.serial)
    index_path.write_text(idx.to_json())
    print(f"index: {len(idx.entries)} unique APKs -> {index_path}")
    return EXIT_CLEAN


def _scan_one(path: str, config) -> dict:
    from .report import analyze_apk

    return analyze_apk(path, config).to_dict()


def _cmd_scan(args) -> int:
    from .report import AnalysisConfig, load_detection

    config = AnalysisConfig(
        rules_path=args.rules,
        taint_path=args.susi,
        extra_sinks_path=args.extra_sinks,
        apis_path=args.sensitive_apis,
        depth=args.depth,
        timings=args.timings,
    )
    target = Path(args.target)
    is_dir = target.is_dir()
    paths = sorted(p for p in target.rglob("*.apk") if p.is_file()) if is_dir else [target]
    if not paths:
        print("no APKs found", file=sys.stderr)
        return EXIT_ERROR
    # a bad data file stops the run before any APK; forked workers inherit the loaded data
    load_detection(config)

    docs: list[dict] = []
    errors = 0
    pool = None
    if len(paths) > 1 and args.jobs > 1:
        import concurrent.futures

        pool = concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs)
    futures = [pool.submit(_scan_one, str(p), config) for p in paths] if pool else None
    # collected in path order for any --jobs
    for i, p in enumerate(paths):
        try:
            docs.append(futures[i].result() if futures else _scan_one(str(p), config))
        except ApkAuditError as exc:
            # container errors already start with the path
            msg = str(exc) if str(exc).startswith(f"{p}:") else f"{p}: {exc}"
            print(f"error: {msg}", file=sys.stderr)
            errors += 1
        except Exception as exc:
            # an analyser fault in one app must not cost the rest of the corpus
            print(f"error: {p}: {type(exc).__name__}: {exc}", file=sys.stderr)
            errors += 1
    if pool:
        pool.shutdown()

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for doc in docs:
            (out / f"{doc['sha256']}.json").write_text(
                json.dumps(doc, indent=2, sort_keys=True) + "\n"
            )
    if args.format == "table":
        reports = [AppReport.from_dict(d) for d in docs]
        print(aggregate(reports).render_table(), end="")
    elif not args.out and (docs or is_dir):
        print(json.dumps(docs, indent=2, sort_keys=True))

    if errors:
        return EXIT_ERROR
    findings = any(d["findings"]["leaks"] or d["findings"]["behaviors"] or d["findings"]["exported_components"] for d in docs)
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def _cmd_report(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"error: {directory}: not a directory", file=sys.stderr)
        return EXIT_ERROR
    reports = []
    for path in sorted(directory.glob("*.json")):
        if path.name == "corpus-index.json":
            continue
        try:
            reports.append(AppReport.from_dict(json.loads(path.read_text())))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ReportFormatError(
                f"{path}: not an apkaudit report ({type(exc).__name__}: {exc})"
            ) from exc
    summary = aggregate(reports)
    if args.format == "json":
        print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    else:
        print(summary.render_table(), end="")
    return EXIT_CLEAN


def _cmd_dump_manifest(args) -> int:
    from .axml import decode_axml, dump_tree
    from .container import open_apk, read_entry

    art = open_apk(args.apk)
    tree = decode_axml(read_entry(art, "AndroidManifest.xml"))
    print(dump_tree(tree), end="")
    return EXIT_CLEAN


def _cmd_dump_dex(args) -> int:
    from .container import open_apk
    from .dex.parser import dump_method, load_app_code

    art = open_apk(args.apk)
    code = load_app_code(art)
    if args.method:
        print(dump_method(code, args.method), end="")
    else:
        for key in sorted(m.key for m in code.all_methods() if m.is_concrete):
            print(dump_method(code, key), end="")
    return EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
