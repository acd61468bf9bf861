"""Spans around the calls into each bankfair layer, for the traced run.

Each public function is replaced where its caller looks it up: the harness
binds ``synth_instance`` and friends by ``from .domain import ...``, the
reranker calls its own module globals, and the harness reaches the other
layers through their modules. A span is (name, parent span, start, end); the
spans stay in memory and are written out once the benchmark ends. Layer
metrics are derived from the spans afterwards, so the wrappers do as little
as possible while the clock runs.
"""

from __future__ import annotations

import csv
import functools
import statistics
import time
from pathlib import Path

from bankfair import bankruptcy, forecast, harness, metrics, reranker

# (layer, object holding the name the caller looks up, attribute)
WRAPPED = (
    ("domain.build", harness, "synth_instance"),
    ("domain.build", harness, "load_interactions"),
    ("domain.resample", harness, "resample_traffic"),
    ("domain.resample", harness, "redistribute_requests"),
    ("forecast", forecast, "forecast_traffic"),
    ("bankruptcy.plan", bankruptcy, "plan_interval"),
    ("bankruptcy.talmud", bankruptcy, "talmud"),
    ("reranker.serve", reranker, "run_interval"),
    ("reranker.select", reranker, "select_list"),
    ("reranker.dual_step", reranker, "dual_step"),
    ("reranker.conjugate", reranker, "conjugate_argmax"),
    ("reranker.top_k", reranker, "top_k"),
    ("metrics.ndcg", metrics, "ndcg_at_k"),
    ("harness.write", metrics.SimReport, "write"),
    ("harness.write", harness, "_write_allocations"),
    ("harness.write", harness, "_write_decisions"),
)

ROOT_SPAN = "harness.run"


class Tracer:
    """Records spans of one or more traced runs while installed."""

    def __init__(self):
        self.spans: list[list] = []    # [rep, name, parent index, start, end]
        self.rep = 0
        self._stack: list[int] = []
        self._saved = []
        # Values the layer metrics need from return values, per rep.
        self.forecast_next: list[float] = []
        self.relevance_bytes = 0

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.rep, name, parent, time.perf_counter(), 0.0])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int):
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if name == "forecast":
                self.forecast_next.append(float(result.horizon_values[0]))
            elif name == "domain.build":
                arrays = {id(r.relevance): r.relevance for r in result[2]}
                self.relevance_bytes += sum(a.nbytes for a in arrays.values())
            return result
        return traced

    def install(self):
        for name, owner, attr in WRAPPED:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def run(self, fn, *args):
        """Call ``fn`` under the root span of a new rep; returns (result, seconds)."""
        self.rep += 1
        self.forecast_next.clear()
        self.relevance_bytes = 0
        sid = self._open(ROOT_SPAN)
        try:
            result = fn(*args)
        finally:
            self._close(sid)
        start, end = self.spans[sid][3:5]
        return result, end - start

    def write(self, path: Path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["rep", "span", "parent", "name", "start_s", "end_s"])
            w.writerows([s[0], i, s[2], s[1], repr(s[3]), repr(s[4])]
                         for i, s in enumerate(self.spans))


def layer_metrics(tracer: Tracer, rep: int, realized: list[int]) -> dict[str, float]:
    """Per-layer totals of one traced rep (times in seconds).

    ``realized`` is the report's per-interval traffic, against which the
    one-step forecast of each interval is scored.
    """
    ids = [i for i, s in enumerate(tracer.spans) if s[0] == rep]
    total: dict[str, float] = {}
    child: dict[int, float] = {}
    for i in ids:
        _, name, parent, start, end = tracer.spans[i]
        total[name] = total.get(name, 0.0) + end - start
        child[parent] = child.get(parent, 0.0) + end - start

    def self_time(name):
        return sum(tracer.spans[i][4] - tracer.spans[i][3] - child.get(i, 0.0)
                   for i in ids if tracer.spans[i][1] == name)

    errors = [abs(f - r) / max(r, 1) for f, r in zip(tracer.forecast_next, realized)]
    out = {f"{name}_s": total.get(name, 0.0) for name in
           ("domain.build", "domain.resample", "bankruptcy.plan", "bankruptcy.talmud",
            "reranker.serve", "reranker.select", "reranker.top_k", "reranker.dual_step",
            "reranker.conjugate", "metrics.ndcg", "harness.write")}
    out.update({
        "domain.relevance_mb": tracer.relevance_bytes / 2**20,
        "forecast.s": total.get("forecast", 0.0),
        "forecast.mean_abs_rel_err": statistics.fmean(errors) if errors else 0.0,
        "bankruptcy.talmud_calls": sum(1 for i in ids if tracer.spans[i][1] == "bankruptcy.talmud"),
        "reranker.serve_self_s": self_time("reranker.serve"),
        "harness.self_s": self_time(ROOT_SPAN),
        "trace.run_s": total[ROOT_SPAN],
    })
    return out


def call_percentiles_us(tracer: Tracer, name: str) -> tuple[float, float]:
    """p50 and p99 of one layer's call durations over every traced rep, in µs."""
    durations = [(s[4] - s[3]) * 1e6 for s in tracer.spans if s[1] == name]
    if len(durations) < 2:
        return (durations[0], durations[0]) if durations else (0.0, 0.0)
    return statistics.median(durations), statistics.quantiles(durations, n=100)[98]
