"""Differential test: one model and history, one answer, from four places.

For the same fitted models and the same history, the served ``tier`` and
``recommendations`` must equal the library's Section 4.3 rule in every way
the service can be reached:

1. the library: ``ThresholdRecommender.recommend_scored``, falling back to
   ``top_k`` with the model's scores when nothing clears phi;
2. ``service.handle("/recommend")`` with the micro-batcher off;
3. ``service.handle`` with a 2 ms batching window under 12 concurrent
   threads (coalesced batches of several histories);
4. live HTTP.

The histories mix plain requests with ones whose phi is so high that
nothing clears it, so both branches of the rule are compared.
"""

from __future__ import annotations

import json
import random
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.models.ngram import NGramModel
from repro.serve import ModelRegistry, RecommendationService, ServiceConfig, start_server

N_HISTORIES = 240
TOP_N = 5


def _library_answer(recommender, vocabulary, history, threshold):
    """The library's answer in the service's JSON shape, and whether any
    product cleared phi."""
    ranked = recommender.recommend_scored(history, threshold=threshold)[:TOP_N]
    cleared = bool(ranked)
    if not cleared:
        scores = recommender.scores(history)
        ranked = [(t, float(scores[t])) for t in recommender.top_k(history, TOP_N)]
    answer = {
        "tier": "lda",
        "recommendations": [
            {"token": t, "category": vocabulary[t], "score": round(s, 6)}
            for t, s in ranked
        ],
    }
    return answer, cleared


@pytest.fixture()
def requests_and_answers(corpus, split, fitted_lda):
    """(payload, expected library answer, cleared phi) over varied histories."""
    registry = ModelRegistry(split.validation)
    registry.install("lda", fitted_lda)
    recommender = registry.recommender("lda")
    vocabulary = corpus.vocabulary
    rng = random.Random(13)
    sequences = [s for s in corpus.sequences() if s]
    cases = []
    for i in range(N_HISTORIES):
        if i % 3 == 0:
            history = rng.sample(range(len(vocabulary)), rng.randint(0, 6))
        else:
            history = list(dict.fromkeys(rng.choice(sequences)))[:10]
        # Every fourth request sets phi above any score: nothing clears it.
        threshold = 0.99 if i % 4 == 0 else rng.choice([None, 0.02, 0.05, 0.1])
        payload = {"history": [vocabulary[t] for t in history], "top_n": TOP_N,
                   "deadline_ms": 5000}
        if threshold is not None:
            payload["threshold"] = threshold
        cases.append(
            (payload, *_library_answer(recommender, vocabulary, history, threshold))
        )
    return cases


def _service(corpus, split, fitted_lda, **config):
    registry = ModelRegistry(split.validation)
    registry.install("lda", fitted_lda)
    registry.install("ngram", NGramModel(order=2).fit(split.train))
    return RecommendationService(
        corpus=corpus,
        registry=registry,
        tiers=("lda", "ngram"),
        config=ServiceConfig(max_inflight=64, **config),
    )


def _served(body):
    return {"tier": body["tier"], "recommendations": body["recommendations"]}


def test_library_service_batched_and_http_agree(
    corpus, split, fitted_lda, requests_and_answers
):
    payloads = [payload for payload, _, _ in requests_and_answers]
    expected = [answer for _, answer, _ in requests_and_answers]
    cleared = sum(c for _, _, c in requests_and_answers)
    # Both branches of the rule are compared: some answers clear phi, at
    # least the forced quarter fall back to the best unowned products.
    assert 0 < cleared <= N_HISTORIES - N_HISTORIES // 4

    plain = _service(corpus, split, fitted_lda)
    batched = _service(corpus, split, fitted_lda, batch_window_ms=2.0, batch_max=16)
    server, _thread = start_server(plain)
    host, port = server.server_address[:2]

    def over_http(payload):
        request = urllib.request.Request(
            f"http://{host}:{port}/recommend",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10.0) as response:
            assert response.status == 200
            return json.loads(response.read())

    try:
        unbatched = [plain.handle("POST", "/recommend", p).body for p in payloads]
        with ThreadPoolExecutor(max_workers=12) as pool:
            coalesced = list(
                pool.map(lambda p: batched.handle("POST", "/recommend", p).body, payloads)
            )
        with ThreadPoolExecutor(max_workers=4) as pool:
            http = list(pool.map(over_http, payloads))
    finally:
        server.shutdown()
        server.server_close()
        batched.close()

    for i, want in enumerate(expected):
        assert _served(unbatched[i]) == want, f"handle, request {i}"
        assert _served(coalesced[i]) == want, f"batched handle, request {i}"
        assert _served(http[i]) == want, f"HTTP, request {i}"
    assert any(body["path"] == "batched" for body in coalesced), (
        "concurrent load never coalesced a batch"
    )
    counters = batched.metrics_snapshot()["counters"]
    assert counters.get('serve.path{endpoint="/recommend",path="batched"}', 0) > 0
