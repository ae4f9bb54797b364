"""Per-layer timing from outside the program.

:func:`install` wraps public entry points of each serving layer at class
level, so every instance (and every forked fleet worker) reports through
them; the program's source is not touched.  Each process keeps its
records in memory and :func:`dump` writes them once, at shutdown.
Timestamps are ``time.perf_counter()`` readings, which on Linux come from
the system-wide monotonic clock and so line up across processes.

:func:`serve_layer_metrics` and :func:`paper_layer_metrics` turn the
records (or, for the research pipeline, the program's own ``repro.obs``
spans) into the named per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path

from pbench.core import BENCH_DIR, median, quantile

class Recorder:
    """In-memory per-process records: ``kind -> list of entries``."""

    def __init__(self) -> None:
        self.entries: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._depth = threading.local()

    def add(self, kind: str, entry: list) -> None:
        self.entries.setdefault(kind, []).append(entry)

    def count(self, kind: str, n: int = 1) -> None:
        with self._lock:
            self.counts[kind] = self.counts.get(kind, 0) + n

    def outermost(self, group: str) -> bool:
        return getattr(self._depth, group, 0) == 0

    def enter(self, group: str) -> None:
        setattr(self._depth, group, getattr(self._depth, group, 0) + 1)

    def leave(self, group: str) -> None:
        setattr(self._depth, group, getattr(self._depth, group, 0) - 1)

    def as_dict(self) -> dict:
        return {"entries": self.entries, "counts": self.counts}


def _header(headers, name: str) -> str | None:
    for key, value in (headers or {}).items():
        if key.lower() == name.lower():
            return value
    return None


def _wrap(cls: type, method: str, record) -> None:
    """Replace ``cls.method`` by a timed wrapper calling ``record``.

    ``record(t0, seconds, args, kwargs, result)`` runs after each call
    that returned; it decides what to keep.
    """
    original = cls.__dict__[method]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        result = original(*args, **kwargs)
        record(started, time.perf_counter() - started, args, kwargs, result)
        return result

    setattr(cls, method, wrapper)


def _wrap_outermost(cls: type, method: str, recorder: Recorder, group: str,
                    record) -> None:
    """Like :func:`_wrap`, but only calls not nested in the same group count."""
    original = cls.__dict__[method]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not recorder.outermost(group):
            return original(*args, **kwargs)
        recorder.enter(group)
        started = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.leave(group)
        record(started, time.perf_counter() - started, args, kwargs, result)
        return result

    setattr(cls, method, wrapper)


def install(trace_dir: Path) -> Recorder:
    """Wrap the serving layers' entry points; returns this process's recorder.

    Fleet workers are forked from the process calling this, so they
    inherit the wrappers; each worker starts with empty records and dumps
    its own file when it exits.
    """
    from repro.app.tool import SalesRecommendationTool
    from repro.models.lda import LatentDirichletAllocation
    from repro.models.ngram import NGramModel
    from repro.recommend.recommender import ThresholdRecommender
    from repro.serve import fleet
    from repro.serve import http
    from repro.serve.admission import AdmissionPolicy
    from repro.serve.ladder import DegradationLadder
    from repro.serve.registry import ModelRegistry
    from repro.serve.router import FleetRouter
    from repro.serve.service import RecommendationService

    rec = Recorder()

    def on_handle(t0, dt, args, kwargs, result):
        path = args[2].partition("?")[0]
        if path in ("/recommend", "/similar"):
            headers = args[4] if len(args) > 4 else kwargs.get("headers")
            rec.add("handle", [t0, dt, path, _header(headers, "X-Request-Id")])

    def on_post(t0, dt, args, kwargs, result):
        rec.add("http.post", [t0, dt, args[0].headers.get("X-Request-Id")])

    def on_forward(t0, dt, args, kwargs, result):
        rec.add("router.forward", [t0, dt, _header(args[4], "X-Request-Id")])

    def timed(kind):
        return lambda t0, dt, args, kwargs, result: rec.add(kind, [t0, dt])

    def on_batch(kind):
        return lambda t0, dt, args, kwargs, result: rec.add(
            kind, [t0, dt, len(args[1])])

    def on_recommender(method):
        def record(t0, dt, args, kwargs, result):
            rec.count(f"recommender.{method}")
            if method == "recommend_scored" and not result:
                rec.count("recommender.fallback")
        return record

    def on_check(t0, dt, args, kwargs, result):
        if result:
            rec.add("fleet.check_once", [t0, dt])

    def on_model(kind):
        def record(t0, dt, args, kwargs, result):
            rec.add(kind, [t0, dt, args[0].name])
        return record

    _wrap(RecommendationService, "handle", on_handle)
    # The service's HTTP handler: ``do_POST`` is the stdlib hook that reads
    # the body, calls ``handle`` and writes the response.
    _wrap(http._Handler, "do_POST", on_post)
    _wrap(FleetRouter, "forward", on_forward)
    _wrap(AdmissionPolicy, "validate_recommend", timed("admission.validate"))
    _wrap(DegradationLadder, "score", timed("ladder.score"))
    _wrap(DegradationLadder, "score_batch", on_batch("ladder.score_batch"))
    for method in ("recommend_scored", "scores", "top_k"):
        _wrap_outermost(ThresholdRecommender, method, rec, "recommender",
                        on_recommender(method))
    _wrap_outermost(LatentDirichletAllocation, "next_product_proba", rec,
                    "lda.proba", timed("lda.next_product_proba"))
    _wrap_outermost(LatentDirichletAllocation, "batch_next_product_proba", rec,
                    "lda.proba", on_batch("lda.batch_next_product_proba"))
    for cls in (LatentDirichletAllocation, NGramModel):
        _wrap(cls, "fit", on_model("model.fit"))
        _wrap(cls, "log_prob", on_model("model.log_prob"))
    _wrap(SalesRecommendationTool, "similar_companies_detail", timed("tool.similar"))
    _wrap(SalesRecommendationTool, "refresh_features",
          timed("tool.refresh_features"))
    _wrap(ModelRegistry, "swap", timed("registry.swap"))
    _wrap(fleet.ArtifactWatcher, "check_once", on_check)

    run_worker = fleet.run_worker

    @functools.wraps(run_worker)
    def traced_worker(*args, **kwargs):
        # A forked worker starts with empty records and writes its own.
        rec.entries.clear()
        rec.counts.clear()
        try:
            return run_worker(*args, **kwargs)
        finally:
            dump(rec, trace_dir)

    fleet.run_worker = traced_worker
    return rec


def dump(recorder: Recorder, trace_dir: Path) -> None:
    """Write this process's records to ``trace_dir/records-<pid>.json``."""
    trace_dir.mkdir(parents=True, exist_ok=True)
    target = trace_dir / f"records-{os.getpid()}.json"
    temp = target.with_suffix(".tmp")
    temp.write_text(json.dumps(recorder.as_dict()), encoding="utf-8")
    os.replace(temp, target)


def load(trace_dir: Path) -> Recorder:
    """Merge every process's records written under ``trace_dir``."""
    merged = Recorder()
    for path in sorted(trace_dir.glob("records-*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        for kind, entries in data["entries"].items():
            merged.entries.setdefault(kind, []).extend(entries)
        for kind, n in data["counts"].items():
            merged.count(kind, n)
    return merged


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def layer_names() -> list[str]:
    """The per-layer metric names, in ``BENCHMARK.json`` order."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [metric["name"] for metric in spec["per_layer"]]


def empty_layers() -> dict[str, float]:
    """Every per-layer metric at 0: a layer a workload does not exercise."""
    return {name: 0.0 for name in layer_names()}


def _ms_median(entries: list, since: float | None = None) -> float:
    values = [e[1] * 1000.0 for e in entries if since is None or e[0] >= since]
    return median(values) if values else 0.0


def serve_layer_metrics(rec: Recorder, samples, window: tuple[float, float],
                        bench: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of a traced serving run.

    ``samples`` are the timed phase's client samples, ``window`` its
    (start, end) perf-counter interval, ``bench`` the values measured in
    the benchmark process (data layer, publishes, /metrics deltas, CPU).
    """
    start, _end = window
    out = empty_layers()
    out.update({k: v for k, v in bench.items() if k in out})
    entries = rec.entries

    handle = {e[3]: e[1] * 1000.0 for e in entries.get("handle", []) if e[3]}
    post = {e[2]: e[1] * 1000.0 for e in entries.get("http.post", []) if e[2]}
    forward = {e[2]: e[1] * 1000.0 for e in entries.get("router.forward", []) if e[2]}
    recommend = [s for s in samples
                 if s.endpoint == "/recommend" and 200 <= s.status < 300]
    joined = [(s.latency_ms, handle[s.request_id]) for s in recommend
              if s.request_id in handle]
    if joined:
        client_p50 = median([c for c, _ in joined])
        handle_ms = [h for _, h in joined]
        client_gap = median([c - h for c, h in joined])
        out["client.recommend_p50_ms"] = client_p50
        out["service.handle_p50_ms"] = median(handle_ms)
        out["service.handle_p99_ms"] = quantile(handle_ms, 0.99)
        # Only the error of subtracting medians: near 0 by construction.
        out["http.unexplained_ms"] = client_p50 - median(handle_ms) - client_gap
        # The worker's HTTP caller: the client, or in a fleet the router.
        caller = (forward if forward else
                  {s.request_id: s.latency_ms for s in recommend})
        hops = [(caller[s.request_id], post[s.request_id], handle[s.request_id])
                for s in recommend
                if s.request_id in caller and s.request_id in post
                and s.request_id in handle]
        if hops:
            out["http.gap_ms"] = median([c - h for c, _, h in hops])
            out["http.server_ms"] = median([p - h for _, p, h in hops])
            out["http.outside_ms"] = median([c - p for c, p, _ in hops])
        if forward:
            out["router.gap_ms"] = client_gap
    timed_ids = {s.request_id for s in samples}
    routed = [ms for rid, ms in forward.items() if rid in timed_ids]
    out["router.forward_ms"] = median(routed) if routed else 0.0

    out["admission.validate_ms"] = _ms_median(entries.get("admission.validate", []), start)
    ladder = [e for e in entries.get("ladder.score", []) if e[0] >= start]
    ladder_batch = [e for e in entries.get("ladder.score_batch", []) if e[0] >= start]
    out["ladder.score_ms"] = _ms_median(ladder + ladder_batch)
    single = [e for e in entries.get("lda.next_product_proba", []) if e[0] >= start]
    batch = [e for e in entries.get("lda.batch_next_product_proba", []) if e[0] >= start]
    out["lda.next_product_proba_ms"] = _ms_median(single)
    out["lda.batch_next_product_proba_ms"] = _ms_median(batch)
    if single or batch:
        out["lda.rows_per_call"] = (len(single) + sum(e[2] for e in batch)) / (
            len(single) + len(batch))
    counts = rec.counts
    calls = sum(counts.get(f"recommender.{m}", 0)
                for m in ("recommend_scored", "scores", "top_k"))
    answers = len(entries.get("ladder.score", []))
    if answers:
        out["recommender.calls_per_answer"] = calls / answers
    if counts.get("recommender.recommend_scored"):
        out["recommender.fallback_share"] = (
            counts.get("recommender.fallback", 0) / counts["recommender.recommend_scored"])
    out["tool.similar_ms"] = _ms_median(entries.get("tool.similar", []), start)
    out["registry.swap_ms"] = _ms_median(entries.get("registry.swap", []), start)
    out["tool.refresh_features_ms"] = _ms_median(
        entries.get("tool.refresh_features", []), start)
    out["fleet.check_once_ms"] = _ms_median(entries.get("fleet.check_once", []), start)
    for kind, suffix in (("model.fit", "fit_s"), ("model.log_prob", "log_prob_s")):
        for entry in entries.get(kind, []):
            name = f"{entry[2]}.{suffix}"
            if name in out:
                out[name] += entry[1]
    return out


_MODELS = ("lstm", "lda", "ngram", "unigram", "chh")


def paper_layer_metrics(roots, counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of the research pipeline from ``repro.obs`` spans."""
    walls: dict[str, float] = {}
    calls: dict[str, int] = {}
    rates: list[float] = []
    for root in roots:
        for node in root.walk():
            walls[node.name] = walls.get(node.name, 0.0) + node.wall
            calls[node.name] = calls.get(node.name, 0) + node.n_calls
            if node.name == "model.lstm.epoch" and "tokens_per_s" in node.counters:
                rates.append(node.counters["tokens_per_s"])
    out = empty_layers()
    out["data.simulate_s"] = walls.get("exp.data.simulate", 0.0)
    out["data.split_s"] = walls.get("exp.data.split", 0.0)
    out["recommend.window_s"] = walls.get("recommend.window", 0.0)
    out["lstm.tokens_per_s"] = sum(rates) / len(rates) if rates else 0.0
    for name in list(out):
        model, _, metric = name.partition(".")
        if model in _MODELS and metric.endswith("_s") and metric != "tokens_per_s":
            # e.g. lstm.fit_s <- span model.lstm.fit
            out[name] = walls.get(f"model.{model}.{metric[:-2]}", 0.0)
    for method in ("next_product_proba", "batch_next_product_proba"):
        span = f"model.lda.{method}"
        if calls.get(span):
            out[f"lda.{method}_ms"] = walls[span] / calls[span] * 1000.0
    windows = counters.get("recommend.windows", 0.0)
    if windows:
        out["lda.rows_per_call"] = counters.get("recommend.companies", 0.0) / windows
    return out
