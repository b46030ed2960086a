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


def _out_dir(path) -> Path:
    """Make the ``--out`` directory; one that cannot be made is an error."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ApkAuditError(f"--out {out}: {exc.strerror}") from exc
    return out


def _cmd_acquire(args) -> int:
    import logging

    from . import acquire as acquire_mod

    # only acquire logs: skipped pm lines and unreadable files, on stderr
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")

    if args.transcript:
        bridge = acquire_mod.TranscriptBridge(args.transcript)
    else:
        bridge = acquire_mod.SubprocessBridge(args.bridge)
    out = _out_dir(args.out)
    index_path = out / "corpus-index.json"
    # an unreadable or malformed prior index stops the run before anything is pulled
    prior = acquire_mod.CorpusIndex.from_json(None, index_path) if index_path.exists() else None
    packages, skipped = acquire_mod.list_device_packages(bridge, args.serial)
    print(f"{len(packages)} packages listed ({skipped} unparseable lines skipped)")
    result = acquire_mod.pull_packages(bridge, args.serial, packages, out)
    print(f"pulled {len(result.pulled)} files, {len(result.failures)} failures")
    for pkg, reason in sorted(result.failures.items()):
        print(f"  failed: {pkg}: {reason}", file=sys.stderr)
    idx = acquire_mod.index_corpus(result.pulled, prior, args.device_tag or args.serial)
    index_path.write_text(idx.to_json())
    print(f"index: {len(idx.entries)} unique APKs -> {index_path}")
    return EXIT_CLEAN


def _scan_one(path: str, config, out: Path | None) -> dict | str:
    """The app's report document, or the text of its ``error:`` line."""
    from .report import analyze_apk

    try:
        doc = analyze_apk(path, config).to_dict()
        if out is not None:
            # a name that is not *.json, so report never reads a half-written file;
            # the pid keeps two workers on copies of one APK off each other's file
            part = out / f"{doc['sha256']}.{os.getpid()}.part"
            try:
                part.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
                os.replace(part, out / f"{doc['sha256']}.json")
            except OSError:
                part.unlink(missing_ok=True)
                raise
        return doc
    except ApkAuditError as exc:
        # container errors already start with the path
        return str(exc) if str(exc).startswith(f"{path}:") else f"{path}: {exc}"
    except Exception as exc:
        # an analyser fault in one app must not cost the rest of the corpus
        return f"{path}: {type(exc).__name__}: {exc}"


def _worker(paths: list[str], config, out, cpu, allowed, counter, conn) -> None:
    """Claim apps by index until none is left, sending ``(index, outcome)`` for each."""
    try:  # to its own CPU, then allow them all again so that the kernel can still move it
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
            os.sched_setaffinity(0, allowed)
    except OSError:
        pass  # a worker that cannot move stays where it is
    while True:
        with counter.get_lock():  # claim the next app
            i = counter.value
            counter.value = i + 1
        if i >= len(paths):
            break
        conn.send((i, _scan_one(paths[i], config, out)))
    conn.close()


def _cmd_scan(args) -> int:
    from .container import find_apks
    from .report import AnalysisConfig, load_detection

    config = AnalysisConfig(rules_path=args.rules, taint_path=args.susi,
                            extra_sinks_path=args.extra_sinks, apis_path=args.sensitive_apis,
                            depth=args.depth, timings=args.timings)
    target = Path(args.target)
    is_dir = target.is_dir()
    paths = [str(p) for p in find_apks(target)] if is_dir else [str(target)]
    if not paths:
        print("no APKs found", file=sys.stderr)
        return EXIT_ERROR
    # a bad data file stops the run before any APK; forked workers inherit the loaded data
    load_detection(config)
    out = _out_dir(args.out) if args.out else None

    outcomes = (_scan_one(p, config, out) for p in paths)  # each error printed as it happens
    if len(paths) > 1 and args.jobs > 1:
        import multiprocessing.connection

        # fork starts each worker at once, with the loaded data (Python 3.14 makes
        # forkserver Linux's default).  A forked worker starts on this CPU, and Linux
        # spreads it only at exec or a second later, so each moves itself to its
        # own, round robin
        linux = sys.platform == "linux"
        ctx = multiprocessing.get_context("fork" if linux else None)
        cpus = sorted(os.sched_getaffinity(0)) if linux else [None]
        counter = ctx.Value("q", 0)
        outcomes = [None] * len(paths)  # None: the app's worker died before sending it
        conns = {}
        for w in range(min(args.jobs, len(paths))):
            conn, send = ctx.Pipe(duplex=False)
            worker_args = (paths, config, out, cpus[w % len(cpus)], cpus, counter, send)
            conns[conn] = ctx.Process(target=_worker, args=worker_args, daemon=True)
            conns[conn].start()
            send.close()  # the worker holds the only send end: its exit is EOF here
        while conns:
            for conn in multiprocessing.connection.wait(list(conns)):
                try:
                    i, outcomes[i] = conn.recv()
                except EOFError:
                    conns.pop(conn).join()
                    conn.close()
    # taken in path order for any --jobs, for stderr, stdout, the table and the exit code
    docs: list[dict] = []
    for p, outcome in zip(paths, outcomes):
        if isinstance(outcome, dict):
            docs.append(outcome)
        else:
            print(f"error: {outcome or f'{p}: its worker exited before reporting it'}", file=sys.stderr)

    if args.format == "table":
        reports = [AppReport.from_dict(d) for d in docs]
        print(aggregate(reports).render_table(), end="")
    elif out is None and (docs or is_dir):
        print(json.dumps(docs, indent=2, sort_keys=True))

    if len(docs) < len(paths):
        return EXIT_ERROR
    return EXIT_FINDINGS if any(any(d["findings"].values()) for d in docs) else EXIT_CLEAN


def _cmd_report(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"error: {directory}: not a directory", file=sys.stderr)
        return EXIT_ERROR
    reports = []
    for path in sorted(p for p in directory.glob("*.json") if p.is_file()):
        if path.name == "corpus-index.json":
            continue
        try:
            reports.append(AppReport.from_dict(json.loads(path.read_text())))
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
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
