"""The three workloads: ``serve-distinct``, ``fleet-mixed`` and ``paper-1k``.

``BENCHMARK.json`` gates the two serving workloads.  ``paper-1k`` is
CPU-bound, and its wall time follows the shared host's drifting speed
more than the bounds allow, so it runs on request only; the traced
``serve-distinct`` run traces one of its pipelines for the research layers.

Each workload function takes a :class:`Context` and returns a
:class:`RunResult`.  Serving workloads start ``repro serve`` as a separate
process (a fresh one for every measured phase), check its answers on a
server instance the timed phase never uses, send an untimed warm-up from
a slice of the request stream the timed phase does not use, and then
drive it with ``N_CLIENTS`` closed-loop keep-alive clients.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pbench import layers
from pbench.core import (
    BENCH_DIR,
    BenchError,
    CheckFailed,
    Stopwatch,
    cpu_seconds,
    hd_quantile,
    latency_summary,
    median,
    peak_rss_mib,
    quantile,
)
from pbench.serving import (
    Request,
    ServerProcess,
    counter_total,
    drive,
    http_call,
    metrics_snapshot,
    phase_counts,
    repeat_share,
)

#: Closed-loop clients (and connections): two, but never more than cores.
N_CLIENTS = min(2, os.cpu_count() or 1)
#: Requests sent, untimed, to each fresh server before the timed phase.
WARMUP = 20


@dataclass
class Context:
    root: Path
    work: Path
    env: dict[str, str]
    seed: int
    seconds: float
    trace: bool
    short: bool


@dataclass
class RunResult:
    e2e: dict[str, float]
    report: dict[str, object]
    inputs: dict[str, object]
    phases: dict[str, dict[str, int]]
    layers: dict[str, float] | None = None

    @property
    def attempted(self) -> int:
        return sum(p["attempted"] for name, p in self.phases.items()
                   if name.startswith("timed"))

    @property
    def failed(self) -> int:
        return sum(p["failed"] for name, p in self.phases.items()
                   if name.startswith("timed"))


@dataclass
class Session:
    """One measured phase against one fresh server."""

    samples: list
    elapsed: float
    window: tuple[float, float]
    cpu_s: float
    rss_mib: float
    before: dict
    after: dict
    extra: dict = field(default_factory=dict)


def _server(ctx: Context, cli: list[str], name: str, *, fleet: bool,
            traced: bool) -> ServerProcess:
    trace = ["--trace-dir", str(ctx.work / "trace")] if traced else []
    argv = [sys.executable, str(BENCH_DIR / "launch.py"), *trace, *cli]
    return ServerProcess(argv, env=ctx.env, cwd=ctx.root,
                         log_path=ctx.work / f"{name}.log", fleet=fleet)


def _ok(samples) -> list:
    return [s for s in samples if 200 <= s.status < 300]


def _measure(ctx: Context, server: ServerProcess, stream: list[Request],
             tag: str, background=None) -> Session:
    """Warm up, then drive the timed phase; ``background`` runs alongside."""
    warmup, _ = drive(server.url, stream, first=0, count=WARMUP,
                      n_clients=N_CLIENTS, id_prefix=f"w{tag}")
    before = metrics_snapshot(server.url)
    pids = server.pids()
    cpu0 = sum(cpu_seconds(pid) for pid in pids)
    extra: dict = {"warmup": phase_counts(warmup)}
    worker = None
    start = time.perf_counter()
    if background is not None:
        worker = threading.Thread(target=background, args=(start, extra))
        worker.start()
    samples, elapsed = drive(server.url, stream, first=WARMUP,
                             seconds=ctx.seconds, n_clients=N_CLIENTS,
                             id_prefix=f"t{tag}")
    end = time.perf_counter()
    if worker is not None:
        worker.join()
        if "error" in extra:
            raise extra["error"]
    cpu1 = sum(cpu_seconds(pid) for pid in pids)
    rss = max(peak_rss_mib(pid) for pid in pids)
    after = metrics_snapshot(server.url)
    return Session(samples, elapsed, (start, end), cpu1 - cpu0, rss,
                   before, after, extra)


def _serve_e2e(session: Session, setup_s: float) -> dict[str, float]:
    ok = _ok(session.samples)
    if not ok:
        raise CheckFailed("no request of the timed phase succeeded")
    latencies = [s.latency_ms for s in ok]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(ok) / session.elapsed,
        "op_p50_ms": hd_quantile(latencies, 0.5),
        "op_p90_ms": hd_quantile(latencies, 0.9),
        "peak_rss_mib": session.rss_mib,
    }


def _endpoint_report(session: Session) -> dict[str, object]:
    """Client-side numbers per endpoint, with their sample counts."""
    report: dict[str, object] = {}
    ok = _ok(session.samples)
    for endpoint in ("/recommend", "/similar"):
        values = [s.latency_ms for s in ok if s.endpoint == endpoint]
        if values:
            report[endpoint.strip("/")] = latency_summary(values)
    recommend = [s for s in ok if s.endpoint == "/recommend"]
    counts = phase_counts(session.samples)
    report["op_samples"] = len(ok)
    report["rps"] = len(ok) / session.elapsed
    # CPU of every server process per completed request.  Not gated: it
    # follows the host's speed more than the program's.
    report["cpu_ms_per_op"] = session.cpu_s * 1000.0 / max(1, len(ok))
    report["error_rate"] = counts["failed"] / max(1, counts["attempted"])
    report["degraded_frac"] = (
        sum(1 for s in recommend if s.body.get("degraded")) / len(recommend)
        if recommend else 0.0)
    report["paths"] = {}
    for s in recommend:
        path = s.body.get("path", "?")
        report["paths"][path] = report["paths"].get(path, 0) + 1
    return report


def _cache_and_batch(session: Session) -> dict[str, float]:
    """Top-k cache and batcher counters over the timed phase (from /metrics)."""
    def delta(name: str, label: str | None = None) -> float:
        return (counter_total(session.after, name, label)
                - counter_total(session.before, name, label))

    hits, misses = delta("serve.cache.hit"), delta("serve.cache.miss")
    answered = delta("serve.path", 'endpoint="/recommend"')
    recommend = [s.body for s in _ok(session.samples) if s.endpoint == "/recommend"]
    return {
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "batch.batched_share": (delta("serve.path", 'path="batched"') / answered
                                if answered else 0.0),
        "batch.queue_wait_ms": (float(np.mean([b["queue_wait_ms"] for b in recommend]))
                                if recommend else 0.0),
        "batch.size_mean": (float(np.mean([b["batch_size"] for b in recommend]))
                            if recommend else 0.0),
    }


def _inputs(stream: list[Request], session: Session) -> dict[str, object]:
    lengths = [len(stream[s.index].key) for s in session.samples
               if s.endpoint == "/recommend"]
    return {
        "repeat_share": repeat_share(stream, session.samples),
        "history_len": ({
            "mean": float(np.mean(lengths)),
            "p50": median(lengths),
            "p90": quantile(lengths, 0.9),
            "max": max(lengths),
        } if lengths else {}),
    }


def _traced_layers(ctx: Context, session: Session, untraced: Session,
                   bench: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of a traced session; ``bench`` holds values the
    benchmark process measured itself (data layer, publishes)."""
    rec = layers.load(ctx.work / "trace")
    values = dict(bench)
    values.update(_cache_and_batch(session))
    ok = _ok(session.samples)
    values["service.cpu_ms_per_req"] = session.cpu_s * 1000.0 / max(1, len(ok))
    out = layers.serve_layer_metrics(rec, session.samples, session.window, values)
    untraced_p50 = median([s.latency_ms for s in _ok(untraced.samples)])
    out["trace.overhead"] = median([s.latency_ms for s in ok]) / untraced_p50
    return out


# ----------------------------------------------------------------------
# serve-distinct
# ----------------------------------------------------------------------
def _cli_service_config():
    """The ``ServiceConfig`` that ``repro serve``'s defaults produce."""
    from repro.cli import build_parser
    from repro.serve import ServiceConfig

    args = build_parser().parse_args(["serve"])
    return ServiceConfig(
        max_inflight=args.max_inflight,
        default_deadline_ms=args.deadline_ms,
        quarantine_path=args.quarantine,
        slo_latency_threshold_ms=args.slo_latency_ms,
        slo_fast_window_s=args.slo_fast_window,
        slo_slow_window_s=args.slo_slow_window,
        flight_capacity=args.flight_capacity,
        request_spans=not args.no_request_spans,
        batch_window_ms=args.batch_window_ms,
        batch_max=args.batch_max,
        topk_cache_size=args.topk_cache,
        similarity=args.similarity,
        canary_windows=args.canary,
    )


def _check_against_library(samples, stream: list[Request]) -> None:
    """HTTP answers must equal ``handle`` on an in-process demo service."""
    from repro.serve import build_demo_service

    service = build_demo_service(300, seed=7, config=_cli_service_config())
    try:
        for sample in samples:
            if not 200 <= sample.status < 300:
                raise CheckFailed(f"check request {sample.index} got {sample.status}")
            local = service.handle("POST", "/recommend", stream[sample.index].body)
            if local.status != 200:
                raise CheckFailed(f"library answered {local.status}")
            for key in ("tier", "recommendations"):
                if sample.body[key] != local.body[key]:
                    raise CheckFailed(
                        f"request {sample.index}: HTTP {key} {sample.body[key]!r} "
                        f"!= library {local.body[key]!r}")
    finally:
        service.close()


def serve_distinct(ctx: Context) -> RunResult:
    from repro.experiments import make_experiment_data

    n_universe = 1000 if ctx.short else 8000
    with Stopwatch() as simulate:
        # A universe seeded apart from the server's own (seed 7): the
        # requests are other companies' full install histories.
        data = make_experiment_data(n_universe, seed=1_000_003 + ctx.seed)
    vocabulary = data.corpus.vocabulary
    sequences = data.corpus.sequences()
    rng = np.random.default_rng(ctx.seed)
    order = np.concatenate([rng.permutation(n_universe) for _ in range(2)])
    stream = [
        Request("/recommend",
                json.dumps({"history": [vocabulary[t] for t in sequences[i]],
                            "top_n": 5}).encode(),
                tuple(sequences[i]))
        for i in order
    ]
    cli = ["serve", "--companies", "300", "--port", "0"]
    phases: dict[str, dict[str, int]] = {}
    ready: list[float] = []

    # Cold start 1 answers the correctness check on 200 distinct histories.
    check_ids, seen = [], set()
    for index in range(WARMUP, len(stream)):
        if stream[index].key not in seen:
            seen.add(stream[index].key)
            check_ids.append(index)
        if len(check_ids) == 200:
            break
    check_stream = [stream[i] for i in check_ids]
    server = _server(ctx, cli, "check", fleet=False, traced=False).start()
    try:
        ready.append(server.ready_s)
        checked, _ = drive(server.url, check_stream, first=0, count=len(check_stream),
                           n_clients=N_CLIENTS, id_prefix="c")
    finally:
        server.stop()
    phases["check"] = phase_counts(checked)
    _check_against_library(checked, check_stream)

    # Cold start 2 only measures set-up; cold start 3 takes the timed load.
    server = _server(ctx, cli, "setup", fleet=False, traced=False).start()
    server.stop()
    ready.append(server.ready_s)
    server = _server(ctx, cli, "timed", fleet=False, traced=False).start()
    try:
        ready.append(server.ready_s)
        session = _measure(ctx, server, stream, "u")
    finally:
        server.stop()
    phases["warmup"] = session.extra["warmup"]
    phases["timed"] = phase_counts(session.samples)
    setup_s = median(ready)
    result = RunResult(
        e2e=_serve_e2e(session, setup_s),
        report={**_endpoint_report(session), **_cache_and_batch(session),
                "setup_ready_s": ready, "simulate_s": simulate.seconds},
        inputs=_inputs(stream, session),
        phases=phases,
    )
    if ctx.trace:
        server = _server(ctx, cli, "traced", fleet=False, traced=True).start()
        try:
            traced = _measure(ctx, server, stream, "x")
        finally:
            server.stop()
        phases["timed_traced"] = phase_counts(traced.samples)
        result.layers = _traced_layers(ctx, traced, session,
                                       {"data.simulate_s": simulate.seconds})
        # The research path's layers (model fits and scores, the split, the
        # Figure 3 windows: the seconds-scale ``*_s`` names) come from one
        # traced paper-1k pipeline; what the serving phase measured stays.
        wall, research = _traced_pipeline(ctx.seed)
        phases["research_traced"] = {"attempted": 1, "succeeded": 1, "failed": 0}
        result.report["traced_pipeline_s"] = wall
        for name, value in research.items():
            if name.endswith("_s") and not result.layers.get(name):
                result.layers[name] = value
    return result


# ----------------------------------------------------------------------
# fleet-mixed
# ----------------------------------------------------------------------
#: Serving worker processes of the fleet.
FLEET_WORKERS = 2
#: The served corpus is fixed, as a deployment's is; the workload seed
#: shapes only the traffic.
FLEET_CORPUS_SEED = 2_000_003
#: When the timed phase publishes, as shares of its length: a fixed number
#: of publishes at fixed times, however fast earlier ones converge.
PUBLISH_AT = (0.1, 0.55)
#: Seconds a publish may take to converge on every worker.
CONVERGE_TIMEOUT_S = 60.0
#: Share of /recommend requests in the fleet traffic (the rest: /similar).
RECOMMEND_SHARE = 0.7


def _fleet_stream(corpus, seed: int, n_hot: int, length: int) -> list[Request]:
    """Zipf-weighted hot accounts: history prefixes and D-U-N-S lookups."""
    rng = np.random.default_rng(seed)
    rows = rng.choice(corpus.n_companies, size=n_hot, replace=False)
    sequences = corpus.sequences()
    vocabulary = corpus.vocabulary
    accounts = []
    for row in rows:
        history = [vocabulary[t] for t in sequences[int(row)]]
        accounts.append((corpus.companies[int(row)].duns.value, history))
    weights = 1.0 / np.arange(1, n_hot + 1) ** 1.1
    weights /= weights.sum()
    picks = rng.choice(n_hot, size=length, p=weights)
    kinds = rng.random(length) < RECOMMEND_SHARE
    cuts = rng.random(length)
    stream = []
    for pick, is_recommend, cut in zip(picks, kinds, cuts):
        duns, history = accounts[pick]
        if is_recommend:
            prefix = history[: 1 + int(cut * len(history))]
            stream.append(Request(
                "/recommend",
                json.dumps({"history": prefix, "top_n": 5}).encode(),
                tuple(prefix)))
        else:
            stream.append(Request(
                "/similar", json.dumps({"duns": duns, "k": 10}).encode(), (duns,)))
    return stream


def _answer(sample) -> object:
    if sample.endpoint == "/recommend":
        return sample.body["tier"], sample.body["recommendations"]
    return sample.body["similar"]


def _check_fleet(server: ServerProcess, stream: list[Request]) -> dict[str, int]:
    """The router and every worker's direct URL give identical answers."""
    probe = [r for r in stream[WARMUP:] if r.endpoint == "/recommend"][:30]
    probe += [r for r in stream[WARMUP:] if r.endpoint == "/similar"][:10]
    targets = {"router": server.url}
    targets.update({f"worker{i}": url for i, (_pid, url) in server.workers.items()})
    if len(targets) != FLEET_WORKERS + 1:
        raise BenchError(f"fleet reported {len(targets) - 1} workers, "
                         f"expected {FLEET_WORKERS}")
    answers = {}
    counts = {"attempted": 0, "succeeded": 0, "failed": 0}
    for name, url in targets.items():
        samples, _ = drive(url, probe, first=0, count=len(probe),
                           n_clients=N_CLIENTS, id_prefix=f"c{name}")
        for key, value in phase_counts(samples).items():
            counts[key] += value
        bad = [s for s in samples if not 200 <= s.status < 300]
        if bad:
            raise CheckFailed(f"{name}: check request {bad[0].index} got {bad[0].status}")
        answers[name] = [_answer(s) for s in samples]
    for name, values in answers.items():
        if values != answers["router"]:
            first = next(i for i, (a, b) in enumerate(zip(values, answers["router"]))
                         if a != b)
            raise CheckFailed(f"{name} and the router disagree on check request {first}")
    return counts


def _fleet_generations(url: str) -> list[int]:
    status, body = http_call(url, "GET", "/fleet")
    if status != 200 or not isinstance(body, dict):
        return []
    return [int(w["generation"]) for w in body["workers"]]


def _publisher(ctx: Context, server: ServerProcess, store, generations: list[dict]):
    """Publish alternating LDA refits at ``PUBLISH_AT``; time each convergence.

    The publishes are open-loop: each goes out on time whether or not the
    one before has converged, so every run does the same swap work.  Each
    publish is followed by SIGHUP to every worker, as
    ``FleetSupervisor.publish`` does, so the workers re-check at once
    instead of at a random point of their 0.25 s poll.  The thread ends
    once every publish has converged on every worker.
    """

    def run(start: float, extra: dict) -> None:
        extra.update(publish_ms=[], converge_ms=[])
        due = [start + share * ctx.seconds for share in PUBLISH_AT]
        pending: list[tuple[int, float]] = []  # (generation, published at)
        try:
            while due or pending:
                if due and time.perf_counter() >= due[0]:
                    due.pop(0)
                    with Stopwatch() as publish:
                        number = store.publish(
                            generations[len(extra["publish_ms"]) % 2]).number
                    for pid, _url in server.workers.values():
                        os.kill(pid, signal.SIGHUP)
                    extra["publish_ms"].append(publish.seconds * 1000.0)
                    pending.append((number, time.perf_counter()))
                    continue
                gens = _fleet_generations(server.url)
                now = time.perf_counter()
                for number, published in list(pending):
                    if len(gens) == FLEET_WORKERS and min(gens) >= number:
                        extra["converge_ms"].append((now - published) * 1000.0)
                        pending.remove((number, published))
                    elif now - published > CONVERGE_TIMEOUT_S:
                        raise CheckFailed(
                            f"generation {number} never converged: workers at {gens}")
                # The router re-reads worker state at most every 0.25 s;
                # polling faster would only add load beside the clients.
                pause = 0.1 if not due else min(0.1, due[0] - now)
                time.sleep(max(0.0, pause))
        except Exception as exc:  # noqa: BLE001 - handed to the main thread
            extra["error"] = exc

    return run


def fleet_mixed(ctx: Context) -> RunResult:
    from repro.data.columnar import open_corpus, simulate_to_columnar
    from repro.models.lda import LatentDirichletAllocation
    from repro.models.ngram import NGramModel
    from repro.serve import ArtifactStore

    n_companies = 3000 if ctx.short else 20000
    corpus_dir = ctx.work / "corpus"
    bench: dict[str, float] = {}
    with Stopwatch() as build:
        simulate_to_columnar(corpus_dir, n_companies=n_companies,
                             seed=FLEET_CORPUS_SEED)
    with Stopwatch() as opened:
        corpus = open_corpus(corpus_dir)
    with Stopwatch() as split_sw:
        train = corpus.split((0.7, 0.1, 0.2), seed=1).train
    bench["data.simulate_s"] = build.seconds
    bench["data.open_corpus_s"] = opened.seconds
    bench["data.split_s"] = split_sw.seconds
    with Stopwatch() as ngram_fit:
        ngram = NGramModel(order=2).fit(train)
    refits = []
    with Stopwatch() as lda_fit:
        for refit_seed in (1, 2):
            refits.append(LatentDirichletAllocation(
                n_topics=3, inference="variational", n_iter=60, seed=refit_seed,
            ).fit(train))
    bench["ngram.fit_s"] = ngram_fit.seconds
    bench["lda.fit_s"] = lda_fit.seconds
    generations = [{"lda": lda, "ngram": ngram} for lda in refits]
    store = ArtifactStore(ctx.work / "artifacts")
    store.publish(generations[1])  # the fleet starts on refit 2, then alternates
    stream = _fleet_stream(corpus, ctx.seed, n_hot=100, length=40000)
    cli = ["serve", "--workers", str(FLEET_WORKERS), "--corpus-dir", str(corpus_dir),
           "--artifact-dir", str(ctx.work / "artifacts"), "--port", "0",
           "--router-port", "0"]
    phases: dict[str, dict[str, int]] = {}
    ready: list[float] = []

    server = _server(ctx, cli, "check", fleet=True, traced=False).start()
    try:
        ready.append(server.ready_s)
        phases["check"] = _check_fleet(server, stream)
    finally:
        server.stop()
    if not ctx.short:
        # A third cold start only measures set-up, so setup_s is a median of 3.
        server = _server(ctx, cli, "setup", fleet=True, traced=False).start()
        server.stop()
        ready.append(server.ready_s)

    def measured(tag: str, traced: bool) -> Session:
        server = _server(ctx, cli, f"timed{tag}", fleet=True, traced=traced).start()
        try:
            if not traced:
                ready.append(server.ready_s)
            return _measure(ctx, server, stream, tag,
                            background=_publisher(ctx, server, store, generations))
        finally:
            server.stop()

    session = measured("u", traced=False)
    phases["warmup"] = session.extra["warmup"]
    phases["timed"] = phase_counts(session.samples)
    report = {**_endpoint_report(session), **_cache_and_batch(session),
              "setup_ready_s": ready, "build_corpus_s": build.seconds,
              "publish_converge_ms": median(session.extra["converge_ms"]),
              "converge_ms": session.extra["converge_ms"],
              "publishes": len(session.extra["publish_ms"]),
              "artifact_publish_ms": session.extra["publish_ms"]}
    result = RunResult(
        e2e=_serve_e2e(session, median(ready)),
        report=report,
        inputs=_inputs(stream, session),
        phases=phases,
    )
    if ctx.trace:
        traced = measured("x", traced=True)
        phases["timed_traced"] = phase_counts(traced.samples)
        bench["artifact.publish_ms"] = median(traced.extra["publish_ms"])
        bench["publish.converge_ms"] = median(traced.extra["converge_ms"])
        result.layers = _traced_layers(ctx, traced, session, bench)
    return result


# ----------------------------------------------------------------------
# paper-1k
# ----------------------------------------------------------------------
PAPER_COMPANIES = 1000
FIG3_CURVES = ("LDA3", "LSTM", "CHH", "random")


def _check_paper(table: dict[str, float], curves: dict) -> None:
    for name, value in table.items():
        if not (math.isfinite(value) and 1.0 < value < 38.0):
            raise CheckFailed(f"Table 1 perplexity of {name} is {value}")
    ranking = sorted(table, key=table.get)
    if ranking != ["lda", "lstm", "ngram", "unigram"]:
        raise CheckFailed(f"Table 1 ranking is {ranking} ({table})")
    missing = [name for name in FIG3_CURVES if name not in curves]
    if missing:
        raise CheckFailed(f"Figure 3 curves missing: {missing}")
    for name in FIG3_CURVES:
        curve = curves[name]
        if not curve.thresholds or not math.isfinite(curve.recall(curve.thresholds[0])[0]):
            raise CheckFailed(f"Figure 3 curve {name} has no recall at phi=0")


def _pipeline(seed: int) -> tuple[float, float, dict]:
    """simulate -> Table 1 -> Figure 3 at library defaults; (wall, cpu, table)."""
    from repro.experiments import (
        make_experiment_data,
        run_perplexity_table,
        run_recommendation_accuracy,
    )
    from repro.recommend.windows import SlidingWindowSpec

    wall0, cpu0 = time.perf_counter(), time.process_time()
    data = make_experiment_data(PAPER_COMPANIES, seed=seed)
    table = run_perplexity_table(data)
    curves = run_recommendation_accuracy(data, spec=SlidingWindowSpec(n_windows=13))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    _check_paper(table, curves)
    return wall, cpu, table


def _traced_pipeline(seed: int) -> tuple[float, dict[str, float]]:
    """One pipeline with the program's ``repro.obs`` spans on; (wall, layers)."""
    from repro import obs
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace

    obs.reset_all()
    obs.enable_all()
    try:
        wall, _cpu, _table = _pipeline(seed)
        roots = trace.roots()
        counters = obs_metrics.snapshot().get("counters", {})
    finally:
        obs.disable_all()
    return wall, layers.paper_layer_metrics(roots, counters)


def paper_1k(ctx: Context) -> RunResult:
    ready = []
    for _ in range(5):
        # The researcher's set-up: a fresh interpreter importing the experiments.
        with Stopwatch() as sw:
            subprocess.run([sys.executable, "-c", "import repro.experiments"],
                           env=ctx.env, cwd=ctx.root, check=True, timeout=120)
        ready.append(sw.seconds)
    walls, cpus = [], []
    started = time.perf_counter()
    while time.perf_counter() - started < ctx.seconds:
        wall, cpu, table = _pipeline(ctx.seed)
        walls.append(wall)
        cpus.append(cpu)
    elapsed = time.perf_counter() - started
    result = RunResult(
        e2e={
            "setup_s": median(ready),
            "ops_per_s": len(walls) / elapsed,
            "op_p50_ms": median(walls) * 1000.0,
            "op_p90_ms": quantile(walls, 0.9) * 1000.0,
            "peak_rss_mib": peak_rss_mib(),
        },
        # A run fits a few pipelines, so op_p90_ms lies near the slowest of
        # them: it is no tail.
        report={"pipeline_s": median(walls), "op_samples": len(walls),
                "cpu_ms_per_op": median(cpus) * 1000.0,
                "op_p90_is_tail": False, "table1": table, "setup_ready_s": ready},
        inputs={"companies": PAPER_COMPANIES, "windows": 13},
        phases={"timed": {"attempted": len(walls), "succeeded": len(walls),
                          "failed": 0}},
    )
    if ctx.trace:
        wall, result.layers = _traced_pipeline(ctx.seed)
        result.phases["timed_traced"] = {"attempted": 1, "succeeded": 1, "failed": 0}
        result.layers["trace.overhead"] = wall / median(walls)
    return result


WORKLOADS = {
    "serve-distinct": serve_distinct,
    "fleet-mixed": fleet_mixed,
    "paper-1k": paper_1k,
}
