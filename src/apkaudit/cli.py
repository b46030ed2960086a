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
    # the CPUs this process may use: a cpuset can allow fewer than the host has
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    p_scan.add_argument("--jobs", type=int, default=cpus)
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


def _pool(paths: list[str], config, out, jobs: int) -> list:
    """Each app's outcome, in path order, from ``jobs`` forked workers with one app each in flight."""
    import select

    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]
    outcomes, todo = [None] * len(paths), list(range(len(paths)))[::-1]  # popped in path order
    workers, poller = {}, select.poll()  # result fd: [pid, task fd, reader, app in flight or -1]
    for n in range(jobs):
        (task, task_w), (result, result_w) = os.pipe(), os.pipe()
        os.write(task_w, b"%d\n" % todo[-1])
        if (pid := os.fork()) == 0:  # the worker, which never returns into the caller's code
            try:
                for fd in [task_w, result, *workers, *(w[1] for w in workers.values())]:
                    os.close(fd)
                # it starts on this CPU, and Linux spreads it only at exec or a second later: it
                # moves to its own, round robin, then allows them all so that the kernel can move it
                try:
                    os.sched_setaffinity(0, {cpus[n % len(cpus)]})
                    os.sched_setaffinity(0, cpus)
                except (AttributeError, OSError):
                    pass  # a worker that cannot move stays where it is
                with open(result_w, "w", encoding="ascii") as send:
                    while (i := int(os.read(task, 32) or -1)) >= 0:  # -1, or EOF: no app is left
                        print(json.dumps([i, _scan_one(paths[i], config, out)]), file=send, flush=True)
                os._exit(0)
            finally:  # an exception, SystemExit too, costs only the app in flight
                os._exit(1)
        os.close(task)
        os.close(result_w)
        workers[result] = [pid, task_w, open(result, "rb"), todo.pop()]
        poller.register(result, select.POLLIN)
    while workers:
        for fd, _event in poller.poll():
            pid, task, reader, i = worker = workers[fd]
            # one [index, outcome] line at most, as the worker waits for its next app; a line
            # without its end is the last of a worker that died while sending it
            if (line := reader.readline()).endswith(b"\n"):
                try:  # the next app leaves the queue only once the worker has it
                    os.write(task, b"%d\n" % (todo[-1] if todo else -1))
                    worker[3] = todo.pop() if todo else -1
                except BrokenPipeError:  # the worker has died: another analyses the app
                    worker[3] = -1
                i, outcomes[i] = json.loads(line)
                continue
            poller.unregister(fd)  # EOF: the worker has exited
            os.close(task)
            reader.close()
            del workers[fd]
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if i >= 0:
                status = f"signal {-code}" if code < 0 else f"exit code {code}"
                outcomes[i] = f"{paths[i]}: its worker exited before reporting it ({status})"
    for i in todo:  # every worker died before these were handed out
        outcomes[i] = _scan_one(paths[i], config, out)
    return outcomes


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
    if len(paths) > 1 and args.jobs > 1 and hasattr(os, "fork"):  # no fork: in process
        outcomes = _pool(paths, config, out, min(args.jobs, len(paths)))
    # taken in path order for any --jobs, for stderr, stdout, the table and the exit code
    docs: list[dict] = []
    for outcome in outcomes:
        if isinstance(outcome, dict):
            docs.append(outcome)
        else:
            print(f"error: {outcome}", file=sys.stderr)

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


def run() -> None:
    """``main``, then an exit that skips the interpreter's teardown: a short-lived process needs none."""
    try:
        rc = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:  # stdout closed early, as by ``apkaudit scan DIR | head``
        rc = EXIT_ERROR
    os._exit(rc)


if __name__ == "__main__":
    run()
