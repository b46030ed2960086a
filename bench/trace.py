"""Span recording around apkaudit's public functions, from outside the package.

``install`` wraps each hooked function at the name where its caller looks
it up (``apkaudit.report`` imports most stages by name, ``dex.parser``
imports ``read_entry`` and ``components`` imports ``reachable_hits``).
Each call records a span (name, start, end, parent span, app id) in memory;
a few hooks only count calls.  A hook whose target no longer exists is
reported as absent and never fails the run.

``layer_metrics`` turns the spans of one pass into the per-layer numbers:
inclusive time per span name, self time where the name says so, call
counts and the work counts taken from each layer's return value.
"""

from __future__ import annotations

import importlib
import inspect
import math
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Recorder:
    spans: list[list] = field(default_factory=list)  # [id, name, start, end, parent, app, error]
    counts: dict[str, int] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    app: str = ""
    _stack: list[int] = field(default_factory=list)

    def span(self, name: str, fn, measure=None):
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            rec = [sid, name, 0.0, 0.0, parent, self.app, None]
            self.spans.append(rec)
            self._stack.append(sid)
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[3] = time.perf_counter()
                rec[6] = type(exc).__name__
                raise
            finally:
                self._stack.pop()
            rec[3] = time.perf_counter()
            if measure is not None:
                for key, n in measure(result).items():
                    self.counts[key] = self.counts.get(key, 0) + n
            return result

        return wrapper

    def counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper


def _code_counts(code) -> dict[str, int]:
    methods = list(code.all_methods())
    return {
        "dex.files": code.dex_count,
        "dex.classes": len(code.classes),
        "dex.methods": len(methods),
        "dex.instructions": sum(len(m.instructions) for m in methods),
    }


def _graph_counts(g) -> dict[str, int]:
    return {"callgraph.nodes": len(g.nodes()), "callgraph.edges": len(g.edges)}


# (module, owner attribute or "", function name, span name or None for a
# call counter, counts taken from the result)
HOOKS = [
    ("apkaudit.report", "", "open_apk", "container.open_apk", None),
    ("apkaudit.report", "", "read_entry", "container.read_entry", None),
    ("apkaudit.container", "", "read_entry", "container.read_entry", None),
    ("apkaudit.dex.parser", "", "read_entry", "container.read_entry", None),
    ("apkaudit.report", "", "decode_axml", "axml.decode", None),
    ("apkaudit.report", "", "build_manifest", "manifest.build", None),
    ("apkaudit.container", "AuthorityMap", "load", "report.data_load", None),
    ("apkaudit.behaviors", "", "load_rules", "report.data_load", None),
    ("apkaudit.components", "SensitiveApiList", "load", "report.data_load", None),
    ("apkaudit.report", "", "load_taint_spec", "report.data_load", None),
    ("apkaudit.report", "", "load_app_code", "dex.load", _code_counts),
    ("apkaudit.report", "", "build_callgraph", "callgraph.build", _graph_counts),
    ("apkaudit.behaviors", "", "scan_behaviors", "behaviors.scan",
     lambda r: {"behaviors.findings": len(r)}),
    ("apkaudit.components", "", "audit_components", "components.audit",
     lambda r: {"components.findings": len(r[0])}),
    ("apkaudit.components", "", "reachable_hits", "callgraph.reachable_hits", None),
    ("apkaudit.components", "SensitiveApiList", "match", None, "components.api_match_calls"),
    ("apkaudit.leaks", "", "analyze_leaks", "leaks.analyze", lambda r: {"leaks.findings": len(r)}),
    ("apkaudit.leaks", "TaintSpec", "match_source", None, "leaks.spec_match_calls"),
    ("apkaudit.leaks", "TaintSpec", "match_sink", None, "leaks.spec_match_calls"),
    ("apkaudit.report", "AppReport", "to_json", "report.to_json", None),
    ("apkaudit.report", "AppReport", "from_dict", "report.from_dict", None),
    ("apkaudit.cli", "", "aggregate", "report.aggregate", None),
]


def install(rec: Recorder) -> None:
    """Patch every hook target that exists; record the rest as absent."""
    for module_name, owner_name, attr, span_name, extra in HOOKS:
        label = ".".join(x for x in (module_name, owner_name, attr) if x)
        try:
            owner = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            rec.absent.append(label)
            continue
        func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if span_name is None:
            wrapped = rec.counter(extra, func)
        else:
            wrapped = rec.span(span_name, func, extra)
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrapped)
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(wrapped)
        setattr(owner, attr, wrapped)


# Spans whose per-layer time is reported as self time (the span minus its
# child spans); every name in SPAN_METRICS also gets its inclusive time.
SELF_TIME = {"components.audit": "components.audit_s", "report.analyze_apk": "report.self_s"}
SPAN_METRICS = [
    "container.open_apk", "container.read_entry", "axml.decode", "manifest.build",
    "report.data_load", "dex.load", "callgraph.build", "behaviors.scan",
    "callgraph.reachable_hits", "leaks.analyze", "report.analyze_apk", "report.to_json",
    "report.from_dict", "report.aggregate",
]
COUNT_METRICS = [
    "dex.files", "dex.classes", "dex.methods", "dex.instructions", "callgraph.nodes",
    "callgraph.edges", "behaviors.findings", "components.api_match_calls",
    "components.findings", "leaks.spec_match_calls", "leaks.findings",
]
CALL_COUNTS = {"container.read_entry": "container.read_entry_calls",
               "report.data_load": "report.data_loads"}


def self_times(spans: list[list]) -> list[float]:
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


def layer_metrics(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    out = {f"{name}_s": 0.0 for name in SPAN_METRICS}
    out.update({name: 0.0 for name in SELF_TIME.values()})
    out.update({name: 0 for name in CALL_COUNTS.values()})
    for s, self_s in zip(spans, self_times(spans)):
        name = s[1]
        if name in SPAN_METRICS:
            out[f"{name}_s"] += s[3] - s[2]
        if name in SELF_TIME:
            out[SELF_TIME[name]] += self_s
        if name in CALL_COUNTS:
            out[CALL_COUNTS[name]] += 1
    for name in COUNT_METRICS:
        out[name] = counts.get(name, 0)
    return out


SCALING_LAYERS = ["dex.load", "callgraph.build", "behaviors.scan", "components.audit",
                  "leaks.analyze", "report.analyze_apk"]


def scaling_exponents(spans: list[list], methods_by_app: dict[str, int]) -> dict[str, float]:
    """Least-squares slope of log(inclusive layer time) on log(methods), one
    point per app whose span of that layer completed; layers with fewer
    than two distinct sizes are left out."""
    out = {}
    for layer in SCALING_LAYERS:
        per_app: dict[str, float] = {}
        failed: set[str] = set()
        for s in spans:
            if s[1] != layer:
                continue
            if s[6] is not None:
                failed.add(s[5])
            per_app[s[5]] = per_app.get(s[5], 0.0) + (s[3] - s[2])
        points = [
            (math.log(methods_by_app[a]), math.log(t))
            for a, t in per_app.items()
            if a not in failed and t > 0 and methods_by_app.get(a)
        ]
        if len({x for x, _ in points}) < 2:
            continue
        mx = statistics.fmean(x for x, _ in points)
        my = statistics.fmean(y for _, y in points)
        sxx = sum((x - mx) ** 2 for x, _ in points)
        out[f"{layer.split('.')[0]}.scaling_exp"] = sum((x - mx) * (y - my) for x, y in points) / sxx
    return out
