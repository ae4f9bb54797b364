"""Micro-batching tests: coalescing, deadlines, one scorer, fallback.

The batching contract (`repro.serve.batch`):

* there is one scoring callable over a batch; a lone request is a batch
  of one, so an idle batcher adds **zero latency** — it scores the
  request at once;
* a queued request waits for batch-mates only while another scoring
  call is running, and never past its deadline allowance
  (``wait_fraction`` of its budget, capped by the window);
* a drained batch of one reports the ``single`` path, larger batches the
  ``batched`` path;
* a failing batch degrades **per request** — every member is re-scored
  as its own batch of one; batch-mates never share a failure.

Answers equal the library's for any batch composition; that end-to-end
property lives in ``tests/test_serve_differential.py``.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.ngram import NGramModel
from repro.serve import (
    DegradationLadder,
    MicroBatcher,
    ModelRegistry,
    RecommendationService,
    ServiceConfig,
    Tier,
)


def _echo(histories, thresholds, top_ns, budget_s):
    """Tag each answer with the size of the batch that scored it."""
    return [
        (len(histories), tuple(h), t, n)
        for h, t, n in zip(histories, thresholds, top_ns)
    ]


def _blocking_on_zero(started, release, scorer=_echo):
    """A scorer that parks any batch holding history ``[0]`` until released."""

    def scorer_(histories, thresholds, top_ns, budget_s):
        if [0] in histories:
            started.set()
            release.wait(10.0)
        return scorer(histories, thresholds, top_ns, budget_s)

    return scorer_


# ----------------------------------------------------------------------
# MicroBatcher unit behaviour
# ----------------------------------------------------------------------
class TestMicroBatcher:
    def test_idle_request_takes_single_path(self):
        batcher = MicroBatcher(_echo, window_s=0.05)
        try:
            answer = batcher.submit([1, 2], None, 5, 1.0)
            assert answer.path == "single"
            assert answer.batch_size == 1
            assert answer.waited_ms == 0.0
            assert answer.result == (1, (1, 2), None, 5)
        finally:
            batcher.close()

    def test_concurrent_requests_coalesce_into_one_batch(self):
        release = threading.Event()
        started = threading.Event()
        batcher = MicroBatcher(
            _blocking_on_zero(started, release), window_s=0.05, batch_max=8
        )
        try:
            with ThreadPoolExecutor(max_workers=5) as pool:
                blocker = pool.submit(batcher.submit, [0], None, 5, 5.0)
                assert started.wait(2.0)
                # These arrive while the blocker is in flight: they queue.
                followers = [
                    pool.submit(batcher.submit, [i], None, 5, 5.0)
                    for i in range(1, 5)
                ]
                answers = [f.result(timeout=5.0) for f in followers]
                release.set()
                blocker.result(timeout=5.0)
            batched = [a for a in answers if a.path == "batched"]
            assert len(batched) >= 2  # they coalesced, not one-by-one
            assert all(a.batch_size >= 2 for a in batched)
            for i, answer in enumerate(answers, start=1):
                assert answer.result == (answer.batch_size, (i,), None, 5)
                assert answer.path == ("batched" if answer.batch_size > 1 else "single")
        finally:
            batcher.close()

    def test_batch_of_one_routes_through_single_path(self):
        release = threading.Event()
        started = threading.Event()
        batcher = MicroBatcher(_blocking_on_zero(started, release), window_s=0.02)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                blocker = pool.submit(batcher.submit, [0], None, 5, 5.0)
                assert started.wait(2.0)
                lone = pool.submit(batcher.submit, [9], None, 5, 5.0)
                answer = lone.result(timeout=5.0)
                release.set()
                blocker.result(timeout=5.0)
            # The lone queued request drained into a batch of one: the one
            # scorer saw a one-item list and the answer reports "single".
            assert answer.path == "single"
            assert answer.batch_size == 1
            assert answer.result == (1, (9,), None, 5)
        finally:
            batcher.close()

    def test_queue_drains_once_the_scorer_is_free(self):
        """Queued requests wait out the running call, not the window."""
        release = threading.Event()
        started = threading.Event()
        batcher = MicroBatcher(
            _blocking_on_zero(started, release), window_s=5.0, batch_max=8
        )
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                blocker = pool.submit(batcher.submit, [0], None, 5, 20.0)
                assert started.wait(2.0)
                followers = [
                    pool.submit(batcher.submit, [i], None, 5, 20.0) for i in (1, 2)
                ]
                limit = time.monotonic() + 2.0
                while batcher.stats()["queued"] < 2 and time.monotonic() < limit:
                    time.sleep(0.001)
                assert batcher.stats()["queued"] == 2
                begun = time.monotonic()
                release.set()
                answers = [f.result(timeout=10.0) for f in followers]
                elapsed = time.monotonic() - begun
                blocker.result(timeout=5.0)
            # Both followers ran as one batch as soon as the blocker
            # finished, far inside the 5 s window.
            assert elapsed < 1.0
            assert [a.result for a in answers] == [
                (2, (1,), None, 5),
                (2, (2,), None, 5),
            ]
            assert [a.path for a in answers] == ["batched", "batched"]
        finally:
            batcher.close()

    def test_batch_failure_degrades_per_request_not_batch_mates(self):
        release = threading.Event()
        started = threading.Event()

        def fails_on_batches(histories, thresholds, top_ns, budget_s):
            if len(histories) > 1:
                raise RuntimeError("GEMM exploded")
            return _echo(histories, thresholds, top_ns, budget_s)

        batcher = MicroBatcher(
            _blocking_on_zero(started, release, fails_on_batches),
            window_s=0.02,
            batch_max=8,
        )
        try:
            with ThreadPoolExecutor(max_workers=5) as pool:
                blocker = pool.submit(batcher.submit, [0], None, 5, 5.0)
                assert started.wait(2.0)
                followers = [
                    pool.submit(batcher.submit, [i], None, 5, 5.0)
                    for i in range(1, 5)
                ]
                answers = [f.result(timeout=5.0) for f in followers]
                release.set()
                blocker.result(timeout=5.0)
            # Every member was answered by its own batch of one; the batch
            # failure never surfaced to any caller.
            for i, answer in enumerate(answers, start=1):
                assert answer.path == "single"
                assert answer.result == (1, (i,), None, 5)
        finally:
            batcher.close()

    def test_wrong_length_from_scorer_fails_the_request(self):
        batcher = MicroBatcher(lambda hs, ts, ns, budget: [], window_s=0.05)
        try:
            with pytest.raises(RuntimeError, match="0 results for 1 requests"):
                batcher.submit([1], None, 5, 1.0)
        finally:
            batcher.close()

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="window_s"):
            MicroBatcher(_echo, window_s=0.0)
        with pytest.raises(ValueError, match="batch_max"):
            MicroBatcher(_echo, batch_max=0)
        with pytest.raises(ValueError, match="wait_fraction"):
            MicroBatcher(_echo, wait_fraction=1.5)

    def test_closed_batcher_rejects_submissions(self):
        batcher = MicroBatcher(_echo)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit([1], None, 5, 1.0)

    @settings(max_examples=10, deadline=None)
    @given(
        deadline_s=st.floats(min_value=0.01, max_value=0.5),
        window_s=st.floats(min_value=0.005, max_value=0.2),
        wait_fraction=st.floats(min_value=0.1, max_value=1.0),
    )
    def test_queued_wait_never_exceeds_deadline_allowance(
        self, deadline_s, window_s, wait_fraction
    ):
        """Property: queue wait <= min(window, wait_fraction * deadline).

        A blocker occupies the scorer for longer than any allowance, so
        the queued request *must* be drained by the collector at its
        ``latest_start`` — if the deadline cap were ignored, the measured
        wait would stretch to the blocker's full duration.
        """
        release = threading.Event()
        started = threading.Event()
        batcher = MicroBatcher(
            _blocking_on_zero(started, release),
            window_s=window_s,
            wait_fraction=wait_fraction,
        )
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                blocker = pool.submit(batcher.submit, [0], None, 5, 20.0)
                assert started.wait(2.0)
                begun = time.monotonic()
                answer = pool.submit(batcher.submit, [7], None, 5, deadline_s).result(
                    timeout=10.0
                )
                elapsed = time.monotonic() - begun
                release.set()
                blocker.result(timeout=5.0)
            allowance = min(window_s, wait_fraction * deadline_s)
            # Generous scheduling slack: the property under test is that
            # the wait tracks the *allowance*, not the blocker's 10 s.
            assert elapsed <= allowance + 0.25
            assert answer.waited_ms / 1000.0 <= allowance + 0.25
        finally:
            batcher.close()


# ----------------------------------------------------------------------
# Batched ladder walk
# ----------------------------------------------------------------------
class TestLadderScoreBatch:
    def _ladder(self, tiers):
        return DegradationLadder(
            tiers,
            floor=Tier(
                "floor",
                lambda histories, thresholds, top_ns: [
                    [(99, 0.5)][:top_n] for top_n in top_ns
                ],
            ),
        )

    def test_batch_matches_single_walk(self):
        def scorer(histories, thresholds, top_ns):
            return [
                [(h * 10, 1.0 - 0.1 * i) for i, h in enumerate(history)][:top_n]
                for history, top_n in zip(histories, top_ns)
            ]

        ladder = self._ladder([Tier("model", scorer)])
        histories = [[1, 2], [3], [4, 5, 6]]
        batch = ladder.score_batch(histories, deadline_s=1.0, top_ns=[2, 2, 2])
        for history, result in zip(histories, batch):
            single = ladder.score(history, deadline_s=1.0, top_n=2)
            assert result.tier == single.tier == "model"
            assert result.recommendations == single.recommendations
            assert result.degraded is False

    def test_scorer_called_once_for_whole_batch(self):
        calls = []

        def scorer(histories, thresholds, top_ns):
            calls.append([list(h) for h in histories])
            return [[(len(h), 1.0)] for h in histories]

        ladder = self._ladder([Tier("model", scorer)])
        results = ladder.score_batch([[1], [2, 3]], deadline_s=1.0)
        assert [r.recommendations for r in results] == [[(1, 1.0)], [(2, 1.0)]]
        assert calls == [[[1], [2, 3]]]
        ladder.score([4], deadline_s=1.0)
        assert calls[-1] == [[4]]  # a single request is a batch of one

    def test_batch_error_degrades_whole_batch_with_audit(self):
        def broken(histories, thresholds, top_ns):
            raise RuntimeError("tier down")

        ladder = self._ladder([Tier("model", broken)])
        results = ladder.score_batch([[1], [2]], deadline_s=1.0)
        for result in results:
            assert result.tier == "floor"
            assert result.degraded is True
            assert result.recommendations == [(99, 0.5)]
            statuses = {o.tier: o.status for o in result.outcomes}
            assert statuses == {"model": "error", "floor": "ok"}

    def test_batch_timeout_degrades_to_floor(self):
        def slow(histories, thresholds, top_ns):
            time.sleep(0.5)
            return [[(1, 1.0)] for _ in histories]

        ladder = self._ladder([Tier("model", slow)])
        results = ladder.score_batch([[1], [2]], deadline_s=0.02)
        for result in results:
            assert result.tier == "floor"
            statuses = {o.tier: o.status for o in result.outcomes}
            assert statuses["model"] == "timeout"

    def test_abandoned_worker_counted_until_it_finishes(self):
        release = threading.Event()

        def hung(histories, thresholds, top_ns):
            release.wait(5.0)
            return [[(1, 1.0)] for _ in histories]

        ladder = self._ladder([Tier("model", hung)])
        assert ladder.abandoned() == {"model": 0}
        ladder.score([1], deadline_s=0.02)
        ladder.score_batch([[1], [2]], deadline_s=0.02)
        assert ladder.abandoned() == {"model": 2}
        release.set()
        deadline = time.monotonic() + 5.0
        while ladder.abandoned()["model"] and time.monotonic() < deadline:
            time.sleep(0.01)
        assert ladder.abandoned() == {"model": 0}

    def test_abandoned_count_survives_racing_walks(self):
        """Workers finishing right at the budget never leak or lose a count."""
        rng = random.Random(3)
        delays = [rng.uniform(0.0, 0.004) for _ in range(400)]

        def jittery(histories, thresholds, top_ns):
            time.sleep(delays[histories[0][0]])
            return [[(1, 1.0)] for _ in histories]

        ladder = self._ladder([Tier("model", jittery)])
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(
                    pool.map(
                        lambda i: ladder.score([i], deadline_s=0.002),
                        range(len(delays)),
                    )
                )
        finally:
            sys.setswitchinterval(previous)
        statuses = {r.outcomes[0].status for r in results}
        assert statuses <= {"ok", "timeout"}
        deadline = time.monotonic() + 5.0
        while ladder.abandoned()["model"] and time.monotonic() < deadline:
            time.sleep(0.01)
        assert ladder.abandoned() == {"model": 0}

    def test_wrong_length_from_batch_scorer_is_an_error_outcome(self):
        ladder = self._ladder(
            [Tier("model", lambda hs, ts, ns: [[(1, 1.0)]])]  # short
        )
        results = ladder.score_batch([[1], [2]], deadline_s=1.0)
        assert all(r.tier == "floor" for r in results)
        error = results[0].outcomes[0].error
        assert "1 rankings for 2 histories" in error

    def test_empty_batch(self):
        ladder = self._ladder([])
        assert ladder.score_batch([], deadline_s=1.0) == []


# ----------------------------------------------------------------------
# Service level: sequential traffic never coalesces
# ----------------------------------------------------------------------
class TestServiceBatching:
    @pytest.fixture()
    def batched(self, corpus, split, fitted_lda):
        """A batching service over the session's fitted models."""
        registry = ModelRegistry(split.validation, perplexity_tolerance=1.5)
        registry.install("lda", fitted_lda)
        registry.install("ngram", NGramModel(order=2).fit(split.train))
        service = RecommendationService(
            corpus=corpus,
            registry=registry,
            tiers=("lda", "ngram"),
            config=ServiceConfig(batch_window_ms=50.0, batch_max=8, max_inflight=64),
        )
        yield service
        service.close()

    def test_sequential_requests_stay_on_single_path(self, batched, corpus):
        body = batched.handle(
            "POST", "/recommend", {"history": [corpus.vocabulary[0]]}
        ).body
        assert body["path"] == "single"
        assert body["batch_size"] == 1
        assert body["queue_wait_ms"] == 0.0
