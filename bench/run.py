"""The apkaudit benchmark: one command runs one workload and checks it.

    python3 bench/run.py --workload corpus-scan --seed 1 --seconds 50 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``corpus-scan``: ``apkaudit scan DIR --jobs $(nproc) --out OUT --timings``
  over a device's worth of small apps, then ``apkaudit report OUT``;
* ``taint-dense``: a few medium, source/sink-dense apps through
  ``analyze_apk`` in one process (``bench/inproc.py``);
* ``system-large``: a ladder of system-scale multidex apps, same way.

The corpus is generated from ``--seed`` (``bench/gen.py``) and cached under
``.bench_work/``, outside any timed region; apkaudit only sees the APKs.
Passes repeat until ``--seconds`` have elapsed.  Every report of every pass
is checked against the planted ground truth and digested; a miss, a
planted negative, a digest that changes between passes or differs from the
digest recorded in ``bench/reference.json`` makes ``correct`` false.

The times of the end-to-end metrics are in reference seconds: each timed
unit is bracketed by the fixed task of ``bench/calib.py``, which takes out
the drift of the machine's speed; the raw values are printed beside them.
With ``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (``bench/trace.py``).
Detail lines before it give every metric with its unit and sample count;
the full record goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_RUNS = 7
# fresh-process runs of ``apkaudit report`` after each pass: the in-process
# workloads make two or three passes in a run, ``corpus-scan`` some twenty
REPORT_RUNS = {"corpus-scan": 3}
REPORT_RUNS_DEFAULT = 8
CHILD_TIMEOUT_S = 120
REFERENCE_REUSE_S = 1.0  # a reference time this recent also serves as the next child's "before"
BENCHMARK = ROOT / "BENCHMARK.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="corpus size factor (smoke test)")
    args = ap.parse_args(argv)

    missing = [p for p in ("src/apkaudit/cli.py", "tests/fixtures/dex_writer.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an apkaudit checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT)]
    from bench import gen

    if args.workload not in gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    corpus = gen.ensure_corpus(WORK, args.workload, args.seed, args.scale)
    bench = Bench(args.workload, args.seed, args.scale, corpus)
    if args.trace:
        metrics, detail = bench.run_traced(args.seconds)
    else:
        metrics, detail = bench.run_untraced(args.seconds, bench.measure_setup())
    return bench.finish(args.trace, metrics, detail)


def _median_quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest of p50/p90/p99/p99.9 that has at least ten samples beyond
    it, or the maximum when there are too few samples."""
    xs = sorted(samples)
    best = None
    for p in (50, 90, 99, 99.9):
        if len(xs) * (100 - p) / 100 >= 10:
            best = p
    if best is None:
        return xs[-1], "max"
    return xs[min(len(xs) - 1, math.ceil(len(xs) * best / 100) - 1)], f"p{best:g}"


def _unit(per_layer_metric: str) -> str:
    if per_layer_metric.endswith("_s"):
        return "s"
    if per_layer_metric.endswith(("overhead_frac", "parallel_efficiency", "scaling_exp")):
        return "ratio"
    return "count"


class Bench:
    def __init__(self, workload: str, seed: int, scale: float, corpus: Path):
        from bench import calib, check, gen

        self.calib = calib
        self.reference = (-math.inf, math.nan)  # (when, seconds) of the last reference task
        self.check = check
        self.generator_version = gen.GENERATOR_VERSION
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.corpus = corpus
        self.truth = json.loads((corpus / "truth.json").read_text())["apps"]
        self.by_sha = {t["sha256"]: name for name, t in self.truth.items()}
        self.jobs = len(os.sched_getaffinity(0))
        self.tmp = WORK / "run" / f"{os.getpid()}"
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir(parents=True)
        # Leak witness paths depend on str hash order (the set of findings
        # does not), so the hash seed is pinned to make digests comparable.
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
                        PYTHONHASHSEED="0")
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self.attempted = 0
        self.failures: dict[str, int] = {}  # exception type -> count

    # ---- processes -------------------------------------------------------

    def spawn(self, cmd: list[str], stdout: Path | None = None,
              timed: bool = False) -> tuple[int, float, float, float]:
        """Run a child to completion through ``bench/spawn.py``: (exit code,
        raw wall seconds, the same in reference seconds, peak RSS MiB of the
        child and every process it waited for).  Only a ``timed`` child is
        bracketed by the reference task (``bench/calib.py``); the one after a
        timed child serves as the one before the next if it is recent."""
        before = None
        if timed:
            taken, before = self.reference
            if time.perf_counter() - taken > REFERENCE_REUSE_S:
                before = self.calib.measure()
        result = self.tmp / "spawn.txt"
        result.unlink(missing_ok=True)
        wrapper = [sys.executable, str(ROOT / "bench" / "spawn.py"), str(result), str(CHILD_TIMEOUT_S)]
        with open(stdout or os.devnull, "wb") as out, open(self.tmp / "stderr.txt", "wb") as err:
            subprocess.run(wrapper + cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT,
                           timeout=CHILD_TIMEOUT_S + 30, check=True)
        code, wall, rss = result.read_text().split()
        scale = math.nan
        if timed:
            after = self.calib.measure()
            self.reference = (time.perf_counter(), after)
            scale = self.calib.factor(before, after)
        return int(code), float(wall), float(wall) * scale, float(rss)

    def cli(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "apkaudit.cli", *args]

    def measure_setup(self) -> tuple[list[float], list[float]]:
        """Fresh-interpreter ``apkaudit scan`` of the minimal APK, in reference
        and in raw seconds; the first run warms the file cache and the
        bytecode cache and is not kept."""
        samples, raw = [], []
        for i in range(SETUP_RUNS + 1):
            rc, wall, ref_wall, _ = self.spawn(self.cli("scan", str(self.corpus / "minimal.apk")), timed=True)
            if rc != 0:
                self.problems.append(f"set-up scan exited {rc}: {self.stderr()}")
            if i:
                samples.append(ref_wall)
                raw.append(wall)
        return samples, raw

    def stderr(self) -> str:
        return (self.tmp / "stderr.txt").read_text(errors="replace").strip()[-2000:]

    # ---- one pass --------------------------------------------------------

    def scan_pass(self) -> dict:
        """``apkaudit scan --jobs N --out OUT`` then ``apkaudit report OUT``."""
        out = self.tmp / "reports"
        shutil.rmtree(out, ignore_errors=True)
        rc, raw_wall, wall, rss = self.spawn(self.cli(
            "scan", str(self.corpus / "apps"), "--jobs", str(self.jobs), "--out", str(out), "--timings"),
            timed=True)
        scale = wall / raw_wall
        errors = self.stderr()
        docs = self.load_reports(out)
        failed = {}
        if len(docs) < len(self.truth):
            # the CLI names ApkAuditError failures; anything else aborts the
            # scan with a traceback whose last line names the exception
            last = errors.splitlines()[-1] if errors else ""
            kind = last.split(":", 1)[0] if "Traceback" in errors else "ApkAuditError"
            failed = {name: kind or f"exit {rc}" for name in self.truth if name not in docs}
        elif rc not in (0, 1):
            self.problems.append(f"scan exited {rc}: {errors}")
        raw_latencies = {name: d["timings"]["total"] for name, d in docs.items()}
        raw_latencies.update(dict.fromkeys(failed, math.inf))
        report_s, summary = self.report_step(out)
        # the per-app times from inside the workers take the factor of the whole scan
        latencies = {name: x * scale for name, x in raw_latencies.items()}
        return self.account(wall, docs, failed, latencies, rss=rss,
                            report_s=report_s, summary=summary,
                            raw={"wall_s": raw_wall, "latencies": raw_latencies})

    def inproc_pass(self, trace: bool = False, report_in_process: bool = False) -> dict:
        """``bench/inproc.py`` children, one for the whole corpus (traced
        runs, with the report step in that child) or one per app, one after
        another, followed by ``apkaudit report`` in a fresh process.  A child
        per app keeps one app's heap and memory layout out of the next app's
        time, and gives each app's mean over the passes as many independent
        processes as there are passes."""
        out = self.tmp / "reports"
        shutil.rmtree(out, ignore_errors=True)
        groups = [[]] if report_in_process else [["--app", name] for name in sorted(self.truth)]
        result = {"wall_s": 0.0, "raw_wall_s": 0.0, "apps": []}
        rss = 0.0
        for group in groups:
            result_path = self.tmp / "pass.json"
            result_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(ROOT / "bench" / "inproc.py"), str(self.corpus), str(out),
                   str(result_path), *group, *["--trace"] * trace, *["--report"] * report_in_process]
            rc, _wall, _ref_wall, child_rss = self.spawn(cmd)
            if rc != 0 or not result_path.exists():
                raise RuntimeError(f"bench/inproc.py exited {rc}: {self.stderr()}")
            child = json.loads(result_path.read_text())
            result = {**child, "wall_s": result["wall_s"] + child["wall_s"],
                      "raw_wall_s": result["raw_wall_s"] + child["raw_wall_s"],
                      "apps": result["apps"] + child["apps"]}
            rss = max(rss, child_rss)
        docs = self.load_reports(out)
        failed = {a["name"]: a["error"] for a in result["apps"] if a["error"]}
        latencies = {a["name"]: math.inf if a["error"] else a["seconds"] for a in result["apps"]}
        raw_latencies = {a["name"]: math.inf if a["error"] else a["raw_s"] for a in result["apps"]}
        if report_in_process:
            report_s, summary = ([result["report_s"]], [result["report_s"]]), result["summary"]
        else:
            report_s, summary = self.report_step(out)
        rec = self.account(result["wall_s"], docs, failed, latencies, rss=rss, report_s=report_s,
                           summary=summary,
                           raw={"wall_s": result["raw_wall_s"], "latencies": raw_latencies})
        rec["result"] = result
        return rec

    def report_step(self, out: Path) -> tuple[tuple[list[float], list[float]], dict]:
        """``apkaudit report OUT`` in fresh processes: ((wall times in
        reference seconds, raw wall times), summary)."""
        summary_path = self.tmp / "summary.json"
        walls, raw = [], []
        for _ in range(REPORT_RUNS.get(self.workload, REPORT_RUNS_DEFAULT)):
            rc, wall, ref_wall, _ = self.spawn(self.cli("report", str(out), "--format", "json"),
                                               stdout=summary_path, timed=True)
            walls.append(ref_wall)
            raw.append(wall)
            if rc != 0:
                self.problems.append(f"report exited {rc}: {self.stderr()}")
                return (walls, raw), {}
        return (walls, raw), json.loads(summary_path.read_text())

    def load_reports(self, out: Path) -> dict[str, dict]:
        docs = {}
        for path in sorted(out.glob("*.json")) if out.exists() else ():
            doc = json.loads(path.read_text())
            name = self.by_sha.get(doc["sha256"])
            if name is None:
                self.problems.append(f"report for an unknown APK {doc['sha256']}")
                continue
            # a warning can name the APK by its path, which depends on where
            # the checkout is; the findings digest must not
            doc["warnings"] = [w.replace(str(self.corpus), "<corpus>") for w in doc["warnings"]]
            docs[name] = doc
        return docs

    def account(self, wall: float, docs: dict, failed: dict, latencies: dict[str, float], *,
                rss: float, report_s: tuple[list[float], list[float]], summary: dict,
                raw: dict) -> dict:
        """Check one pass and reduce it to its numbers: times in reference
        seconds, and under ``raw`` the same in raw seconds."""
        for name, doc in docs.items():
            self.problems += [f"{name}: {p}" for p in self.check.check_report(doc, self.truth[name])]
        if summary:
            self.problems += self.check.check_summary(summary, list(docs.values()))
        self.digests.add(self.check.findings_digest(docs, failed))
        self.attempted += len(docs) + len(failed)
        for kind in failed.values():
            self.failures[kind] = self.failures.get(kind, 0) + 1
        methods = sum(self.truth[name]["methods"] for name in docs)
        raw = {**raw, "report_s": report_s[1], "apps_per_s": len(docs) / raw["wall_s"],
               "methods_per_s": methods / raw["wall_s"]}
        return {"wall_s": wall, "reports": len(docs), "methods": methods, "failed": len(failed),
                "apps_per_s": len(docs) / wall, "methods_per_s": methods / wall,
                "latencies": latencies, "rss_mb": rss, "report_s": report_s[0], "raw": raw}

    def passes(self, seconds: float, kinds) -> dict[str, list[dict]]:
        """Cycle through the pass kinds while another cycle is expected to end
        within ``seconds``; every kind runs at least once."""
        done = {name: [] for name, _fn in kinds}
        start = time.perf_counter()
        cycles = []
        while True:
            t0 = time.perf_counter()
            for name, fn in kinds:
                done[name].append(fn())
            cycles.append(time.perf_counter() - t0)
            if time.perf_counter() - start + statistics.median(cycles) > seconds:
                return done

    # ---- untraced run: end-to-end metrics --------------------------------

    def run_untraced(self, seconds: float, setup: tuple[list[float], list[float]]) -> tuple[dict, dict]:
        fn = self.scan_pass if self.workload == "corpus-scan" else self.inproc_pass
        runs = self.passes(seconds, [("pass", fn)])["pass"]
        metrics = self.timing_metrics(runs, setup[0], lambda r: r)
        for name, m in self.timing_metrics(runs, setup[1], lambda r: r["raw"]).items():
            metrics[name]["raw"] = m["value"]
        n = len(runs)
        metrics.update(self.summarise({
            "peak_rss_mb": ([max(r["rss_mb"] for r in runs)], "MiB", f"max over {n} passes"),
            "failed_frac": ([self.failed_count() / self.attempted], "ratio",
                            f"{self.failed_count()} of {self.attempted} attempts failed"
                            + "".join(f", {k} x{v}" for k, v in sorted(self.failures.items()))),
        }))
        strip = ("latencies", "raw")
        return metrics, {"passes": [{**{k: v for k, v in r.items() if k not in strip},
                                     "raw": {k: v for k, v in r["raw"].items() if k not in strip}}
                                    for r in runs]}

    def timing_metrics(self, runs: list[dict], setup: list[float], pick) -> dict:
        """The timing metrics of the passes, from the times ``pick(pass)`` gives."""
        per_app: dict[str, list[float]] = {}
        for r in runs:
            for name, x in pick(r)["latencies"].items():
                per_app.setdefault(name, []).append(x)
        # an app's time is its mean over the passes (infinite if it failed in any)
        app_means = [statistics.fmean(xs) for xs in per_app.values()]
        tail_value, tail_label = tail(app_means)
        report_walls = [x for r in runs for x in pick(r)["report_s"]]
        n = len(runs)
        values = {
            "setup_s": (setup, "s", f"median of {len(setup)} fresh-interpreter scans of one minimal APK"),
            "apps_per_s": ([pick(r)["apps_per_s"] for r in runs], "apps/s",
                           f"reports of all {n} passes / their wall time; quartiles of single passes"),
            "methods_per_s": ([pick(r)["methods_per_s"] for r in runs], "methods/s",
                              f"methods of all {n} passes / their wall time; quartiles of single passes"),
            "app_p50_s": ([statistics.median(app_means)], "s",
                          f"median over {len(app_means)} apps of each app's mean over {n} passes"),
            "app_tail_s": ([tail_value], "s", f"{tail_label} over {len(app_means)} apps of the same means"),
            "report_s": (report_walls, "s", f"median of {len(report_walls)} runs of apkaudit report"),
        }
        metrics = self.summarise(values)
        wall = sum(pick(r)["wall_s"] for r in runs)
        metrics["apps_per_s"]["value"] = sum(r["reports"] for r in runs) / wall
        metrics["methods_per_s"]["value"] = sum(r["methods"] for r in runs) / wall
        return metrics

    def failed_count(self) -> int:
        return sum(self.failures.values())

    def summarise(self, values: dict) -> dict:
        metrics = {}
        for name, (samples, unit, how) in values.items():
            med, q1, q3 = _median_quartiles(samples)
            metrics[name] = {"value": med, "unit": unit, "samples": len(samples), "q1": q1,
                             "q3": q3, "how": how}
        return metrics

    # ---- traced run: per-layer metrics -----------------------------------

    def run_traced(self, seconds: float) -> tuple[dict, dict]:
        from bench import trace

        kinds = [("untraced", lambda: self.inproc_pass(report_in_process=True)),
                 ("traced", lambda: self.inproc_pass(trace=True, report_in_process=True))]
        if self.workload == "corpus-scan":
            kinds.insert(0, ("parallel", self.scan_pass))
        runs = self.passes(seconds, kinds)
        traced = [r["result"] for r in runs["traced"]]
        per_pass = [trace.layer_metrics(r["spans"], r["counts"]) for r in traced]
        values = {name: [m[name] for m in per_pass] for name in per_pass[0]}
        values["trace.overhead_frac"] = [
            statistics.median(r["wall_s"] for r in runs["traced"])
            / statistics.median(r["wall_s"] for r in runs["untraced"]) - 1
        ]
        if self.workload == "corpus-scan":
            analysed = statistics.median(m["report.analyze_apk_s"] for m in per_pass)
            parallel = statistics.median(r["raw"]["wall_s"] for r in runs["parallel"])
            values["cli.parallel_efficiency"] = [analysed / (self.jobs * parallel)]
        if self.workload == "system-large":
            methods = {name: t["methods"] for name, t in self.truth.items()}
            fits = [trace.scaling_exponents(r["spans"], methods) for r in traced]
            for name in fits[0]:
                values[name] = [f[name] for f in fits if name in f]
        how = f"median of {len(traced)} traced passes; {len(runs['untraced'])} untraced"
        metrics = self.summarise({name: (samples, _unit(name), how) for name, samples in values.items()})
        spans_path = WORK / "trace" / f"{self.workload}-s{self.seed}.spans.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(
            {"fields": ["id", "name", "start", "end", "parent", "app", "error"],
             "passes": [r["spans"] for r in traced]}))
        absent = sorted({h for r in traced for h in r["absent_hooks"]})
        return metrics, {"absent_hooks": absent, "spans": str(spans_path.relative_to(ROOT)),
                         "passes": {k: len(v) for k, v in runs.items()}}

    # ---- result ----------------------------------------------------------

    def finish(self, traced: int, metrics: dict, detail: dict) -> int:
        declared = json.loads(BENCHMARK.read_text())["per_layer" if traced else "end_to_end"]
        self.problems += [f"metric {m['name']} not measured" for m in declared if m["name"] not in metrics]
        reference = self.check.reference_digest(self.workload, self.seed, self.scale,
                                                self.generator_version)
        digest = next(iter(self.digests)) if len(self.digests) == 1 else None
        if len(self.digests) != 1:
            self.problems.append(f"findings digest differs between passes: {sorted(self.digests)}")
        elif reference is not None and digest != reference:
            self.problems.append(f"findings digest {digest} differs from the reference {reference}")

        print(f"workload {self.workload}, seed {self.seed}, {'traced' if traced else 'untraced'}, "
              f"jobs {self.jobs}")
        for name, m in metrics.items():
            raw = f"; raw {m['raw']:.6g}" if "raw" in m else ""
            print(f"  {name:<32} {m['value']:>14.6g} {m['unit']:<10} "
                  f"({m['how']}; q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, {m['samples']} samples{raw})")
        note = "no reference for this seed" if reference is None else (
            "matches reference" if digest == reference else "DIFFERS from reference")
        print(f"  findings sha256 {digest or sorted(self.digests)} ({note})")
        for hook in detail.get("absent_hooks", []):
            print(f"  hook absent: {hook}")
        for p in self.problems[:50]:
            print(f"  PROBLEM: {p}", file=sys.stderr)

        record = {"workload": self.workload, "seed": self.seed, "scale": self.scale,
                  "generator_version": self.generator_version, "traced": bool(traced),
                  "metrics": metrics, "findings_sha256": digest, "failures": self.failures,
                  "problems": self.problems, **detail}
        results = WORK / "results" / f"{self.corpus.name}-t{traced}.json"
        results.parent.mkdir(parents=True, exist_ok=True)
        results.write_text(json.dumps(record, indent=1))
        shutil.rmtree(self.tmp, ignore_errors=True)

        print(json.dumps({
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed_count(),
            "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                        for m in declared if m["name"] in metrics},
        }))
        return 0


if __name__ == "__main__":
    sys.exit(main())
