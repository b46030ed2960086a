"""Roll the records of finished runs up into ``bench/baseline.json``.

    python3 bench/baseline.py --seeds 1-10 [--reference]

Reads ``.bench_work/results/<workload>-s<seed>-g<generator>-t<trace>.json`` for every
workload and listed seed and writes, per workload and metric, the median
and quartiles over the runs with the number of runs, and the failures by
exception type.  With ``--reference`` the findings digest of every correct
full-scale run on record is written to ``bench/reference.json``, which makes
every later run on those seeds check its findings against them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".bench_work" / "results"


def _seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    ap.add_argument("--reference", action="store_true")
    args = ap.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE.parent))
    from bench.gen import GENERATOR_VERSION

    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=HERE).stdout.strip()

    baseline = {"source_commit": commit, "seeds": args.seeds, "workloads": {}}
    digests: dict[str, dict[str, str]] = {}
    for w in (w["name"] for w in bench["workloads"]):
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            runs = [json.loads(p.read_text()) for s in _seeds(args.seeds)
                    if (p := RESULTS / f"{w}-s{s}-g{GENERATOR_VERSION}-t{trace}.json").exists()]
            if not runs:
                continue
            metrics = {}
            for name in runs[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
                q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                metrics[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                                 "runs": len(values), "unit": runs[0]["metrics"][name]["unit"]}
            failures: dict[str, int] = {}
            for r in runs:
                for kind, n in r["failures"].items():
                    failures[kind] = failures.get(kind, 0) + n
            entry[key] = {"runs": len(runs), "metrics": metrics, "failures": failures,
                          "correct_runs": sum(not r["problems"] for r in runs)}
        baseline["workloads"][w] = entry
    for path in sorted(RESULTS.glob("*.json")):
        r = json.loads(path.read_text())
        if (r["scale"] == 1.0 and r["generator_version"] == GENERATOR_VERSION
                and r["findings_sha256"] and not r["problems"]):
            digests.setdefault(r["workload"], {})[str(r["seed"])] = r["findings_sha256"]
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    if args.reference:
        (HERE / "reference.json").write_text(json.dumps(
            {"generator_version": GENERATOR_VERSION, "digests": digests}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
