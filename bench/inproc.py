"""One in-process pass over a generated corpus.

    python3 bench/inproc.py CORPUS OUT RESULT [--app NAME]... [--trace] [--report]

Runs ``analyze_apk`` on every APK under ``CORPUS/apps`` (or on the ones
named by ``--app``), one after another,
as a single closed-loop client, and writes each report to ``OUT`` as
``apkaudit scan --out`` would.  Each app is timed in raw and in reference
seconds (``bench/calib.py``: the reference task runs between apps and is
left out of the pass's wall time).  With ``--report`` it then aggregates ``OUT``
through ``apkaudit.cli.main(["report", ...])`` in this process.  With
``--trace`` the hooks of ``bench/trace.py`` record spans.  Every exception an
app raises is recorded with its type; none stops the pass.  The timings,
failures and spans go to the JSON file ``RESULT`` when the pass ends.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("corpus", type=Path)
    ap.add_argument("out", type=Path)
    ap.add_argument("result", type=Path)
    ap.add_argument("--app", action="append", help="analyse only this app (repeatable)")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--report", action="store_true")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from apkaudit import cli
    from apkaudit.report import AnalysisConfig, analyze_apk
    from bench import calib

    rec = None
    analyze = analyze_apk
    if args.trace:
        from bench import trace

        rec = trace.Recorder()
        trace.install(rec)
        analyze = rec.span("report.analyze_apk", analyze_apk)

    extra = args.corpus / "extra_sinks.txt"
    config = AnalysisConfig(extra_sinks_path=str(extra) if extra.exists() else None)
    args.out.mkdir(parents=True, exist_ok=True)
    apps = []
    wall = ref_wall = 0.0
    before = calib.measure()
    for path in sorted((args.corpus / "apps").glob("*.apk")):
        if args.app and path.stem not in args.app:
            continue
        if rec is not None:
            rec.app = path.stem
        t0 = time.perf_counter()
        try:
            report = analyze(path, config)
        except Exception as exc:  # noqa: BLE001 - every failure is counted, none is fatal
            seconds = step = time.perf_counter() - t0
            app = {"name": path.stem, "error": type(exc).__name__, "message": str(exc)[:200]}
        else:
            seconds = time.perf_counter() - t0
            (args.out / f"{report.sha256}.json").write_text(report.to_json() + "\n")
            step = time.perf_counter() - t0
            app = {"name": path.stem, "error": None}
        after = calib.measure()
        scale = calib.factor(before, after)
        before = after
        apps.append({**app, "raw_s": seconds, "seconds": seconds * scale})
        wall += step
        ref_wall += step * scale

    # ``wall_s`` and each app's ``seconds`` are in reference seconds, the
    # ``raw_`` ones in raw seconds; none includes the reference task
    result = {"wall_s": ref_wall, "raw_wall_s": wall, "apps": apps}
    if args.report:
        if rec is not None:
            rec.app = ""
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            cli.main(["report", str(args.out), "--format", "json"])
        result["report_s"] = time.perf_counter() - t0
        result["summary"] = json.loads(buf.getvalue())
    if rec is not None:
        result.update(spans=rec.spans, counts=rec.counts, absent_hooks=rec.absent)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
